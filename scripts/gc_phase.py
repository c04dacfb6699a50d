#!/usr/bin/env python3
"""Where the cyclic garbage collector runs around a ledger child's timed
constructor.

``python3 scripts/gc_phase.py WORKLOAD [--seed 1] [--scale 0.25]``
(``make gc-phase WORKLOAD=NAME``)

A ledger child (``benchmarks/ledger/child.py run``) imports ``repro``,
runs an untimed 256-node warm-up simulation, builds the workload's
config, calibrates the host (``calib.measure()``) and then times the
workload's constructor as ``setup_s``.  The warm-up leaves cyclic
garbage behind, and whichever later allocation trips the next
generation-1 pass pays to free it.  A change that allocates a few dozen
objects more or fewer on the way can move that pass into or out of the
timed constructor, and ``setup_s`` moves by the pass's cost although the
constructor did not change.

This script replays the child's order with the child's own functions —
import, warm-up, ``build_config``, ``calib.measure()``, the constructor
exactly as ``workloads.run_workload`` makes it (for ``scale-multikey``
the first shard's) — and stops once the constructor returns.  It prints
``gc.get_count()`` after the warm-up, then the stage, generation and
collected-object count of every collection from the warm-up's end
through the constructor.  The replay's own bookkeeping adds a handful
of allocations, so read the output as the phase of the collector, not
as an exact count.  Nothing under ``benchmarks/ledger`` is modified.
"""

from __future__ import annotations

import argparse
import gc
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
LEDGER = ROOT / "benchmarks" / "ledger"


class _Built(Exception):
    """Raised by the replay clock as soon as the constructor returns."""


def replay(workload: str, seed: int, scale: float) -> tuple[tuple, list]:
    """``(count after the warm-up, [(stage, generation, collected)])``."""
    sys.path[:0] = [str(LEDGER), str(ROOT / "src")]
    import child

    import calib
    import workloads

    import numpy  # noqa: F401 - the child imports it at this point
    import repro  # noqa: F401
    from repro import fastpath  # noqa: F401

    child._rss_mb()
    stage = "build_config"
    collections: list = []

    def on_collect(phase, info):
        if phase == "stop":
            collections.append((stage, info["generation"], info["collected"]))

    def clock():
        # ``run_workload`` reads the clock right before the constructor
        # and right after it; the second read ends the replay.
        nonlocal stage
        if stage == "constructor":
            raise _Built
        stage = "constructor"
        return time.perf_counter()

    child._warm_up()
    after_warm_up = gc.get_count()
    gc.callbacks.append(on_collect)
    try:
        config = workloads.build_config(workload, seed, scale)
        stage = "calib.measure"
        calib.measure()
        try:
            workloads.run_workload(workload, config, clock)
        except _Built:
            pass
    finally:
        gc.callbacks.remove(on_collect)
    return after_warm_up, collections


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=0.25)
    args = parser.parse_args(argv)
    after_warm_up, collections = replay(args.workload, args.seed, args.scale)
    print(f"workload {args.workload}, seed {args.seed}, scale {args.scale}")
    print(f"gc.get_count() after the warm-up: {after_warm_up}")
    print(f"gc.get_threshold(): {gc.get_threshold()}")
    print(f"collections through the constructor: {len(collections)}")
    for stage, generation, collected in collections:
        print(f"  {stage:<13} generation {generation}  collected {collected}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
