"""Scale-tier benchmark: (nodes x keys) grid walls and memory.

Unlike the ``bench_<figure>`` files this does not regenerate a paper
artifact; it records the capacity trajectory of the scale engine — how
long a sharded multi-key run takes and how much memory it holds at each
(nodes x keys) grid point, up to the 10^5-node, 1024-key run the tier
exists for.

Results go to ``benchmarks/results/BENCH_scale.json``.  Wall-clock and
peak RSS live here and only here — the scale *experiment* rows stay
machine-independent so their golden holds across hosts.  Override the
grid with ``BENCH_SCALE_GRID=2048x256,8192x512`` (CI uses a trimmed
grid).
"""

from __future__ import annotations

import json
import os
import platform
import time

from repro.engine import SimulationConfig
from repro.engine.multikey import default_shard_count, run_scale

from _harness import RESULTS_DIR, _git_sha, peak_rss_mb

#: Default (num_nodes, num_keys) sweep; the last point is the headline
#: one-process 10^5-node, 1024-key run.
DEFAULT_GRID = ((2048, 256), (8192, 512), (32768, 1024), (100_000, 1024))


def _grid():
    spec = os.environ.get("BENCH_SCALE_GRID", "").strip()
    if not spec:
        return DEFAULT_GRID
    points = []
    for token in spec.split(","):
        nodes, _, keys = token.strip().lower().partition("x")
        points.append((int(nodes), int(keys)))
    return tuple(points)


def _config(num_nodes):
    """Trimmed-horizon scale config (full horizons live in scale_study)."""
    return SimulationConfig(
        scheme="dup",
        num_nodes=num_nodes,
        topology="chord",
        seed=1,
        duration=3600.0,
        warmup=1200.0,
        query_rate=8.0,
        keep_latency_samples=False,
    )


def _run_point(num_nodes, num_keys):
    """(wall_seconds, merged result) for one single-process run."""
    start = time.perf_counter()
    merged = run_scale(
        _config(num_nodes),
        num_keys=num_keys,
        key_zipf_theta=0.8,
        shard_count=default_shard_count(num_keys),
        workers=1,
    )
    return time.perf_counter() - start, merged


def test_scale_benchmark(benchmark):
    """Sweep the grid, persist BENCH_scale.json."""
    grid = _grid()

    def run_all():
        rows = []
        for num_nodes, num_keys in grid:
            wall, merged = _run_point(num_nodes, num_keys)
            rows.append(
                {
                    "nodes": num_nodes,
                    "keys": num_keys,
                    "shards": default_shard_count(num_keys),
                    "wall_seconds": round(wall, 3),
                    "peak_rss_mb": peak_rss_mb(),
                    "queries": merged.queries,
                    "hit_rate": round(merged.hit_rate, 4),
                    "cost_per_query": round(merged.cost_per_query, 3),
                    "parents_touched": int(merged.extras["parents_touched"]),
                }
            )
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    for row in rows:
        print(
            f"\n{row['nodes']}x{row['keys']}: {row['wall_seconds']}s, "
            f"{row['peak_rss_mb']} MiB peak, {row['queries']} queries"
        )
    RESULTS_DIR.mkdir(exist_ok=True)
    record = {
        "experiment_id": "scale",
        "python_version": platform.python_version(),
        "git_sha": _git_sha(),
        "grid": rows,
    }
    (RESULTS_DIR / "BENCH_scale.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
