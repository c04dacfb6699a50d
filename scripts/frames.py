#!/usr/bin/env python3
"""Python frames per hit, per miss hop, per push and per scale hop, off the
four frame fences; or per issued query of one ledger workload.

``PYTHONPATH=src python scripts/frames.py`` (``make frames``)
``PYTHONPATH=src python scripts/frames.py --workload NAME``
(``make frames WORKLOAD=NAME``)

Without ``--workload``, each reading is the fixture of one tier-1 frame
fence, counted the way the fence counts it (every ``call`` event under
``sys.setprofile``):

- ``tests/test_hit_path.py``: one DUP query served from a subscribed,
  interested leaf's own copy, from the arrival's firing to its re-arm;
- ``tests/test_miss_path.py``: one PCX query missing up a 12-node chain
  and its reply, divided by the 22 hops;
- ``tests/test_push_path.py``: one forced update down a 13-node DUP
  tree, divided by the 12 pushes delivered;
- ``tests/test_scale_hop.py``: one 1800 s run of a 1024-node, 16-key
  DUP scale shard (1200 s warm-up), divided by the query and reply hops
  it charged.

With ``--workload NAME``, the config of that ledger workload
(``benchmarks/ledger/workloads.py``, seed 1, the ledger's measured
horizon ``BENCH_SCALE``) is built, and every ``call`` event of its
``run()`` is counted: ``Simulation.run()``, or each scale shard's
``run()`` for ``scale-multikey`` (the constructors are outside the
count).  The total is divided by the queries issued (calls of
``on_local_query``, warm-up included) and broken down by function, the
functions with the most frames per query first.

Counts, not clocks: the numbers are the same on any host.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.append(str(ROOT / "benchmarks" / "ledger"))

import workloads  # noqa: E402  (benchmarks/ledger/workloads.py)
from tests.test_hit_path import FRAMES_PER_HIT, frames_per_hit  # noqa: E402
from tests.test_miss_path import FRAMES_PER_HOP, frames_per_miss_hop  # noqa: E402
from tests.test_push_path import FRAMES_PER_PUSH, frames_per_push  # noqa: E402
from tests.test_scale_hop import (  # noqa: E402
    FRAMES_PER_HOP as FRAMES_PER_SCALE_HOP,
    frames_per_scale_hop,
)

#: Functions listed under a workload's total.
TOP = 20


def fences() -> None:
    rows = (
        ("hit", frames_per_hit(), FRAMES_PER_HIT),
        ("miss hop", frames_per_miss_hop(), FRAMES_PER_HOP),
        ("push", frames_per_push(), FRAMES_PER_PUSH),
        ("scale hop", frames_per_scale_hop(), FRAMES_PER_SCALE_HOP),
    )
    print(f"{'frames per':<10} {'reading':>8} {'fence':>6}")
    for name, reading, fence in rows:
        print(f"{name:<10} {reading:>8.2f} {fence:>6g}")


def _runs(name: str):
    """The workload's ``run`` callables, built but not yet run."""
    config = workloads.build_config(name, 1, workloads.BENCH_SCALE)
    if name != "scale-multikey":
        from repro.engine.simulation import Simulation

        yield Simulation(config).run
        return
    from repro.engine.multikey import MultiKeyScaleSimulation, default_shard_count

    shards = default_shard_count(workloads.SCALE_KEYS)
    for index in range(shards):
        yield MultiKeyScaleSimulation(
            config, workloads.SCALE_KEYS, workloads.SCALE_KEY_THETA, index, shards
        ).run


def workload_frames(name: str) -> tuple[Counter, int]:
    """Call events per code object over the workload's ``run()``, and
    the queries it issued."""
    frames: Counter = Counter()

    def profiler(frame, event, arg):
        if event == "call":
            frames[frame.f_code] += 1

    for run in _runs(name):
        sys.setprofile(profiler)
        try:
            run()
        finally:
            sys.setprofile(None)
    queries = sum(n for code, n in frames.items() if code.co_name == "on_local_query")
    return frames, queries


def _label(code) -> str:
    """``package/module:qualname`` (``<string>`` for generated code)."""
    path = Path(code.co_filename)
    if code.co_filename.startswith("<"):
        module = code.co_filename
    elif path.parent.name == "repro":
        module = path.stem
    else:
        module = f"{path.parent.name}/{path.stem}"
    return f"{module}:{code.co_qualname}"


def report(name: str) -> None:
    frames, queries = workload_frames(name)
    total = sum(frames.values())
    print(
        f"{name}: {total / queries:.2f} frames per issued query "
        f"({total} frames, {queries} queries)"
    )
    # Generated dataclass methods share one label, and so one row.
    by_label: Counter = Counter()
    for code, count in frames.items():
        by_label[_label(code)] += count
    print(f"{'per query':>9}  function")
    for label, count in by_label.most_common(TOP):
        print(f"{count / queries:>9.2f}  {label}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        help="a ledger workload: frames per issued query of its run, by function",
    )
    args = parser.parse_args(argv)
    if args.workload is None:
        fences()
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}"
        )
    report(args.workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
