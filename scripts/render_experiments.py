#!/usr/bin/env python3
"""Render EXPERIMENTS.md's measured blocks from ``benchmarks/results/``.

``python scripts/render_experiments.py [--check]``

Each ``<!-- rendered: <id> -->`` ... ``<!-- /rendered -->`` block holds
``benchmarks/results/<id>.txt`` verbatim in a fence; the ``scale``
block holds ``BENCH_scale.json``'s ``grid`` through the same table
renderer.  ``--check`` rewrites nothing and exits 1 naming each stale
block (a CI step).  ``make record`` regenerates the records, then runs
this script.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.experiments.format import render_table  # noqa: E402

DOC = ROOT / "EXPERIMENTS.md"
RESULTS = ROOT / "benchmarks" / "results"
BLOCK = re.compile(
    r"(<!-- rendered: (\S+) -->\n)(.*?)(<!-- /rendered -->)", re.DOTALL
)
SCALE_COLUMNS = ("nodes", "keys", "shards", "wall_seconds", "peak_rss_mb",
                 "queries", "hit_rate", "cost_per_query", "parents_touched")


def block(name: str) -> str:
    """The fenced body of the block ``name``."""
    if name == "scale":
        grid = json.loads((RESULTS / "BENCH_scale.json").read_text())["grid"]
        text = render_table(
            [{key: row[key] for key in SCALE_COLUMNS} for row in grid]
        ) + "\n"
    else:
        text = (RESULTS / f"{name}.txt").read_text(encoding="utf-8")
    return f"```text\n{text}```\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true")
    check = parser.parse_args(argv).check
    stale = []

    def fill(match):
        body = block(match[2])
        if match[3] != body:
            stale.append(match[2])
        return match[1] + body + match[4]

    rendered = BLOCK.sub(fill, DOC.read_text(encoding="utf-8"))
    for name in stale:
        print(f"{DOC.name}: block {name!r} is "
              + ("stale" if check else "rewritten"))
    if check:
        return 1 if stale else 0
    DOC.write_text(rendered, encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
