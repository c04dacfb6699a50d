#!/usr/bin/env python3
"""One Table-I cell in one process: queries, wall, peak RSS, tails, CI.

``PYTHONPATH=src python scripts/paper_cell.py --rate 100 --duration 36000``
(``make paper-cell RATE=100 DURATION=36000``)

Runs one simulation at the paper's Table I parameters — the
``SimulationConfig`` defaults, with only the scheme, the query rate λ,
the horizon and the seed set — and prints the query count, the wall
seconds of construction plus run, the process's peak resident set
(``getrusage``, so the import floor is included), the p50/p95/p99
latency and the 95 % batch-means latency CI.  Floats are printed with
``repr``, which round-trips exactly, so the outputs of two source trees
can be compared bit for bit with ``diff`` (ignore the wall and RSS
lines).

``--max-rss-mb M`` makes the script exit 1 when the peak exceeds ``M``
MiB: a memory gate that asserts no time, so it holds on any host.
``--no-samples`` runs with ``keep_latency_samples=False`` (no tails, no
CI) to price the sample store.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time

from repro.engine.config import SimulationConfig
from repro.engine.simulation import Simulation


def _peak_rss_mb() -> float:
    # ``ru_maxrss`` is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scheme", default="dup")
    parser.add_argument("--rate", type=float, default=100.0,
                        help="query rate lambda (default 100)")
    parser.add_argument("--duration", type=float, default=180_000.0,
                        help="simulated horizon in seconds (default: Table I)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--no-samples", action="store_true",
                        help="run without latency samples (no tails, no CI)")
    parser.add_argument("--max-rss-mb", type=float, default=None,
                        help="exit 1 when the peak RSS exceeds this")
    args = parser.parse_args(argv)

    config = SimulationConfig(
        scheme=args.scheme,
        query_rate=args.rate,
        duration=args.duration,
        seed=args.seed,
        keep_latency_samples=not args.no_samples,
    )
    started = time.perf_counter()
    result = Simulation(config).run()
    wall = time.perf_counter() - started
    peak = _peak_rss_mb()

    print(f"cell: scheme={args.scheme} rate={args.rate:g} "
          f"duration={args.duration:g} seed={args.seed}")
    print(f"queries: {result.queries}")
    print(f"wall_s: {wall:.2f}")
    print(f"peak_rss_mb: {peak:.1f}")
    print(f"mean_latency: {result.mean_latency!r}")
    print(f"cost_per_query: {result.cost_per_query!r}")
    for name, value in result.latency_percentiles.items():
        print(f"{name}: {value!r}")
    ci = result.latency_ci
    if ci is not None:
        print(f"ci_mean: {ci.mean!r}")
        print(f"ci_half_width: {ci.half_width!r}")
    if args.max_rss_mb is not None and peak > args.max_rss_mb:
        print(f"FAIL: peak RSS {peak:.1f} MiB > {args.max_rss_mb:g} MiB",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
