#!/usr/bin/env python
"""Perf-regression smoke gate: fail when the hot path gets >2x slower.

Times the figure4 arrival-rate sweep (quick scale, serial, one
replication — the workload whose wall-clock history lives in
``benchmarks/results/BENCH_figure4.json``) and compares against the
committed baseline entry.  The 2x budget absorbs hardware differences
between the machine that recorded the baseline and the one running the
gate; only a genuine hot-path regression blows through it.

On failure the run is repeated under :mod:`cProfile` and the hottest
functions are written to ``perf_smoke_profile.txt`` so the CI artifact
shows *where* the time went, not just that it went.

A second leg guards the telemetry layer's zero-perturbation contract:
the figure4 smoke experiment is run with the protocol flight recorder
disabled and then enabled, and both canonical outputs must be
bit-identical to the committed ``golden/figure4_smoke`` pin
(``tests/pins/golden.json``).
An armed recorder that drifts a single float fails here before it can
corrupt a science run.

A third and a fourth leg guard the off-is-off contract of the overload
and the peer-fluctuation layers the same way: the figure4 smoke
experiment is rerun with a present-but-off
:class:`~repro.net.overload.OverloadPlan`, then
:class:`~repro.workload.sessions.SessionPlan`, attached to every
config, and must still match the same golden bit for bit.

Environment overrides:

- ``PERF_SMOKE_BASELINE`` — baseline wall seconds (default: the newest
  ``history`` entry of BENCH_figure4.json with a recorded wall).
- ``PERF_SMOKE_BUDGET`` — allowed slowdown factor (default: 2.0).
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time

REPO = pathlib.Path(__file__).parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO)]

from repro import flightrec  # noqa: E402
from repro.experiments import figure4_arrival_rate  # noqa: E402
from repro.net.overload import OverloadPlan  # noqa: E402
from repro.workload.sessions import SessionPlan  # noqa: E402
# The pin store's own canonicalizer, so the gate and the golden test can
# never disagree about formatting.
from tests.pins import canonical, load  # noqa: E402

BENCH_RECORD = REPO / "benchmarks" / "results" / "BENCH_figure4.json"
PROFILE_OUT = REPO / "perf_smoke_profile.txt"
GOLDEN = "figure4_smoke"


def _run() -> float:
    start = time.perf_counter()
    result = figure4_arrival_rate.run(scale="quick", replications=1, workers=1)
    wall = time.perf_counter() - start
    if not result.all_shapes_hold:
        print("perf-smoke: paper shape checks FAILED", file=sys.stderr)
        raise SystemExit(2)
    return wall


def _baseline() -> float:
    override = os.environ.get("PERF_SMOKE_BASELINE")
    if override:
        return float(override)
    record = json.loads(BENCH_RECORD.read_text(encoding="utf-8"))
    walls = [
        entry["wall_seconds"]
        for entry in record.get("history", [])
        if isinstance(entry.get("wall_seconds"), (int, float))
    ]
    if not walls:
        print(
            f"perf-smoke: no usable history in {BENCH_RECORD}; "
            "set PERF_SMOKE_BASELINE",
            file=sys.stderr,
        )
        raise SystemExit(2)
    return float(walls[-1])


def _write_profile() -> None:
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    figure4_arrival_rate.run(scale="quick", replications=1, workers=1)
    profiler.disable()
    with PROFILE_OUT.open("w", encoding="utf-8") as stream:
        stats = pstats.Stats(profiler, stream=stream)
        stats.strip_dirs().sort_stats("cumulative").print_stats(40)
    print(f"perf-smoke: profile written to {PROFILE_OUT}", file=sys.stderr)


def _matches_golden(result) -> bool:
    return json.loads(canonical(result)) == load("golden")[GOLDEN]


def _telemetry_overhead_leg() -> int:
    """Recorder off and recorder on must both match the smoke golden."""
    from repro.experiments import get_experiment

    for armed in (False, True):
        previous = flightrec.set_enabled(armed)
        start = time.perf_counter()
        try:
            result = get_experiment("figure4")(
                scale="smoke", replications=1, seed=1, rates=(1.0, 10.0)
            )
        finally:
            flightrec.set_enabled(previous)
        wall = time.perf_counter() - start
        label = "on" if armed else "off"
        if not _matches_golden(result):
            print(
                f"perf-smoke: telemetry leg FAILED — recorder={label} "
                f"run drifted from golden/{GOLDEN}",
                file=sys.stderr,
            )
            return 1
        print(
            f"perf-smoke: telemetry recorder={label} "
            f"bit-identical to golden ({wall:.2f}s)"
        )
    return 0


def _inert_layer_leg(field: str, plan, label: str) -> int:
    """A present-but-off plan of one layer must not move a single bit.

    ``figure4.run`` builds its configs through its module-bound
    ``base_config``, so the leg rebinds that name to a wrapper attaching
    ``plan`` as ``field`` — the closest a stock experiment can get to
    "the layer is compiled in but off".
    """
    original = figure4_arrival_rate.base_config

    def with_plan(scale, **kwargs):
        return original(scale, **kwargs).replace(**{field: plan})

    figure4_arrival_rate.base_config = with_plan
    start = time.perf_counter()
    try:
        result = figure4_arrival_rate.run(
            scale="smoke", replications=1, seed=1, rates=(1.0, 10.0)
        )
    finally:
        figure4_arrival_rate.base_config = original
    wall = time.perf_counter() - start
    if not _matches_golden(result):
        print(
            f"perf-smoke: {label} leg FAILED — an off {label} plan "
            f"drifted the run from golden/{GOLDEN}",
            file=sys.stderr,
        )
        return 1
    print(f"perf-smoke: {label}-off run bit-identical to golden ({wall:.2f}s)")
    return 0


def main() -> int:
    budget = float(os.environ.get("PERF_SMOKE_BUDGET", "2.0"))
    baseline = _baseline()
    wall = _run()
    limit = baseline * budget
    verdict = "OK" if wall <= limit else "REGRESSION"
    print(
        f"perf-smoke: wall {wall:.2f}s, baseline {baseline:.2f}s, "
        f"budget {budget:g}x (limit {limit:.2f}s) -> {verdict}"
    )
    if wall > limit:
        _write_profile()
        return 1
    return (
        _telemetry_overhead_leg()
        or _inert_layer_leg("overload", OverloadPlan(), "overload")
        or _inert_layer_leg("sessions", SessionPlan(), "fluctuation")
    )


if __name__ == "__main__":
    sys.exit(main())
