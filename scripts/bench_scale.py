#!/usr/bin/env python3
"""Scale-tier capacity sweep: wall and peak RSS per (nodes x keys) point.

``PYTHONPATH=src python scripts/bench_scale.py`` (``make bench-scale``)
writes ``benchmarks/results/BENCH_scale.json``: one single-process
sharded multi-key run per grid point, up to the 10^5-node, 1024-key run
the scale tier exists for.  Wall-clock and peak RSS live here and only
here — the ``scale`` experiment's rows stay machine-independent so its
golden holds across hosts.  ``BENCH_SCALE_GRID=2048x256,8192x512``
overrides the grid (CI uses that trimmed one).
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import time

from repro.engine import SimulationConfig
from repro.engine.multikey import default_shard_count, run_scale
from repro.experiments.record import git_sha, peak_rss_mb

RECORD = (
    pathlib.Path(__file__).resolve().parents[1]
    / "benchmarks" / "results" / "BENCH_scale.json"
)
#: ``<nodes>x<keys>`` points; the last is the headline 10^5-node run.
DEFAULT_GRID = "2048x256,8192x512,32768x1024,100000x1024"


def _row(num_nodes: int, num_keys: int) -> dict:
    """One run at a trimmed horizon (full horizons live in scale_study)."""
    config = SimulationConfig(
        scheme="dup", num_nodes=num_nodes, topology="chord", seed=1,
        duration=3600.0, warmup=1200.0, query_rate=8.0,
        keep_latency_samples=False,
    )
    shards = default_shard_count(num_keys)
    start = time.perf_counter()
    merged = run_scale(config, num_keys=num_keys, key_zipf_theta=0.8,
                       shard_count=shards, workers=1)
    return {
        "nodes": num_nodes,
        "keys": num_keys,
        "shards": shards,
        "wall_seconds": round(time.perf_counter() - start, 3),
        "peak_rss_mb": peak_rss_mb(),
        "queries": merged.queries,
        "hit_rate": round(merged.hit_rate, 4),
        "cost_per_query": round(merged.cost_per_query, 3),
        "parents_touched": int(merged.extras["parents_touched"]),
    }


def main() -> int:
    grid = os.environ.get("BENCH_SCALE_GRID", "").strip() or DEFAULT_GRID
    rows = []
    for point in grid.split(","):
        nodes, _, keys = point.strip().lower().partition("x")
        rows.append(_row(int(nodes), int(keys)))
        print(f"{point.strip()}: {rows[-1]['wall_seconds']}s, "
              f"{rows[-1]['peak_rss_mb']} MiB peak", flush=True)
    record = {
        "experiment_id": "scale",
        "python_version": platform.python_version(),
        "git_sha": git_sha(),
        "grid": rows,
    }
    RECORD.write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
