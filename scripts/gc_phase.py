#!/usr/bin/env python3
"""Where the cyclic garbage collector runs around a ledger child's timed
phases.

``python3 scripts/gc_phase.py WORKLOAD [--seed 1] [--scale 0.25] [--check]``
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
import, warm-up, ``build_config``, ``calib.measure()``, then
``workloads.run_workload`` itself.  A single-key workload stops once its
constructor returns.  ``scale-multikey`` times eight shard constructors,
each followed by its shard's run, so the replay goes on through all
eight (stages ``ctor<i>`` and ``run<i>``; ``between`` is the untimed
bookkeeping after a run) and the final merge.  It prints
``gc.get_count()`` after the warm-up, the number of collections from the
warm-up's end on, then the stage, generation, collected-object count and
cost of each generation-1 and generation-2 pass among them (a
generation-0 pass costs about a tenth of a millisecond and is only
counted), then one line per timed stage with its generation-1 and
generation-2 passes.  The replay's own bookkeeping adds a handful of
allocations, so read the output as the phase of the collector, not as
an exact count.  Nothing under ``benchmarks/ledger`` is modified.

With ``--check`` the script exits 1, naming the stage, when a
generation-2 pass lands in a timed constructor stage (``constructor``
or ``ctor<i>``): a full pass there costs milliseconds that ``setup_s``
charges to the constructor.
"""

from __future__ import annotations

import argparse
import gc
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
LEDGER = ROOT / "benchmarks" / "ledger"

#: Stages no pair of clock reads in ``run_workload`` times.
UNTIMED = ("build_config", "calib.measure", "between")


class _Done(Exception):
    """Raised by the replay clock at its last read."""


def stages_of(workload: str) -> list[str]:
    """The stage each clock read of ``run_workload`` opens, in order; the
    read after the last one ends the replay."""
    if workload != "scale-multikey":
        return ["constructor"]
    from repro.engine.multikey import default_shard_count

    import workloads

    stages: list[str] = []
    for index in range(default_shard_count(workloads.SCALE_KEYS)):
        stages += [f"ctor{index}", f"run{index}", "between"]
    return stages + ["merge"]


def replay(workload: str, seed: int, scale: float) -> tuple[tuple, list]:
    """``(count after the warm-up, [(stage, generation, collected,
    seconds)])``."""
    sys.path[:0] = [str(LEDGER), str(ROOT / "src")]
    import child

    import calib
    import workloads

    import numpy  # noqa: F401 - the child imports it at this point
    import repro  # noqa: F401
    from repro import fastpath  # noqa: F401

    child._rss_mb()
    stages = iter(stages_of(workload))
    stage = "build_config"
    collections: list = []
    started = 0.0

    def on_collect(phase, info):
        nonlocal started
        if phase == "start":
            started = time.perf_counter()
        else:
            collections.append(
                (
                    stage,
                    info["generation"],
                    info["collected"],
                    time.perf_counter() - started,
                )
            )

    def clock():
        nonlocal stage
        stage = next(stages, None)
        if stage is None:
            raise _Done
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
        except _Done:
            pass
    finally:
        gc.callbacks.remove(on_collect)
    return after_warm_up, collections


def phase_lines(workload: str, collections: list) -> list[str]:
    """One line per timed stage: its generation-1 and generation-2 passes,
    their cost and the objects they collected."""
    lines = []
    for stage in stages_of(workload):
        if stage in UNTIMED:
            continue
        parts = []
        for generation in (1, 2):
            passes = [
                (collected, seconds)
                for at, gen, collected, seconds in collections
                if at == stage and gen == generation
            ]
            cost = sum(seconds for _, seconds in passes) * 1e3
            collected = sum(count for count, _ in passes)
            parts.append(
                f"generation {generation}: {len(passes)} passes, "
                f"{cost:.1f} ms, {collected} collected"
            )
        lines.append(f"  {stage:<11} {'; '.join(parts)}")
    return lines


def constructor_full_passes(collections: list) -> list[str]:
    """The timed constructor stages a generation-2 pass landed in."""
    return [
        stage
        for stage, generation, _, _ in collections
        if generation == 2
        and (stage == "constructor" or stage.startswith("ctor"))
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=0.25)
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when a generation-2 pass lands in a timed constructor",
    )
    args = parser.parse_args(argv)
    after_warm_up, collections = replay(args.workload, args.seed, args.scale)
    last = stages_of(args.workload)[-1]
    print(f"workload {args.workload}, seed {args.seed}, scale {args.scale}")
    print(f"gc.get_count() after the warm-up: {after_warm_up}")
    print(f"gc.get_threshold(): {gc.get_threshold()}")
    young = sum(generation == 0 for _, generation, _, _ in collections)
    print(
        f"collections through the {last}: {len(collections)} "
        f"(generation 0: {young})"
    )
    for stage, generation, collected, seconds in collections:
        if generation == 0:
            continue
        print(
            f"  {stage:<13} generation {generation}  collected {collected}"
            f"  {seconds * 1e3:.1f} ms"
        )
    print("timed stages:")
    for line in phase_lines(args.workload, collections):
        print(line)
    if args.check:
        stages = constructor_full_passes(collections)
        if stages:
            print(f"FAIL: generation-2 pass in {', '.join(stages)}")
            return 1
        print("no generation-2 pass in a timed constructor")
    return 0


if __name__ == "__main__":
    sys.exit(main())
