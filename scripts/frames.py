#!/usr/bin/env python3
"""Python frames per hit, per miss hop, per push and per scale hop, off the
four frame fences.

``PYTHONPATH=src python scripts/frames.py`` (``make frames``)

Each reading is the fixture of one tier-1 frame fence, counted the way
the fence counts it (every ``call`` event under ``sys.setprofile``):

- ``tests/test_hit_path.py``: one DUP query served from a subscribed,
  interested leaf's own copy, from the arrival's firing to its re-arm;
- ``tests/test_miss_path.py``: one PCX query missing up a 12-node chain
  and its reply, divided by the 22 hops;
- ``tests/test_push_path.py``: one forced update down a 13-node DUP
  tree, divided by the 12 pushes delivered;
- ``tests/test_scale_hop.py``: one 1800 s run of a 1024-node, 16-key
  DUP scale shard (1200 s warm-up), divided by the query and reply hops
  it charged.

Counts, not clocks: the numbers are the same on any host.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from tests.test_hit_path import FRAMES_PER_HIT, frames_per_hit  # noqa: E402
from tests.test_miss_path import FRAMES_PER_HOP, frames_per_miss_hop  # noqa: E402
from tests.test_push_path import FRAMES_PER_PUSH, frames_per_push  # noqa: E402
from tests.test_scale_hop import (  # noqa: E402
    FRAMES_PER_HOP as FRAMES_PER_SCALE_HOP,
    frames_per_scale_hop,
)


def main() -> int:
    rows = (
        ("hit", frames_per_hit(), FRAMES_PER_HIT),
        ("miss hop", frames_per_miss_hop(), FRAMES_PER_HOP),
        ("push", frames_per_push(), FRAMES_PER_PUSH),
        ("scale hop", frames_per_scale_hop(), FRAMES_PER_SCALE_HOP),
    )
    print(f"{'frames per':<10} {'reading':>8} {'fence':>6}")
    for name, reading, fence in rows:
        print(f"{name:<10} {reading:>8.2f} {fence:>6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
