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
bit-identical to the committed ``tests/goldens/figure4_smoke.json``.
An armed recorder that drifts a single float fails here before it can
corrupt a science run.

A third leg guards the overload layer's off-is-off contract the same
way: the figure4 smoke experiment is rerun with a present-but-disabled
:class:`~repro.net.overload.OverloadPlan` attached to every config, and
the canonical output must still match the same golden bit for bit.

A fourth leg does the same for the peer-fluctuation layer: the run is
repeated with a present-but-inert
:class:`~repro.workload.sessions.SessionPlan` attached, and must again
match the golden bit for bit.

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

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))

from repro import flightrec  # noqa: E402
from repro.experiments import figure4_arrival_rate  # noqa: E402

REPO = pathlib.Path(__file__).parent.parent
BENCH_RECORD = REPO / "benchmarks" / "results" / "BENCH_figure4.json"
PROFILE_OUT = REPO / "perf_smoke_profile.txt"
GOLDEN = REPO / "tests" / "goldens" / "figure4_smoke.json"
RATES = (0.1, 1.0, 3.0, 10.0, 30.0)


def _run() -> float:
    start = time.perf_counter()
    result = figure4_arrival_rate.run(
        scale="quick", replications=1, rates=RATES, workers=1
    )
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
    figure4_arrival_rate.run(
        scale="quick", replications=1, rates=RATES, workers=1
    )
    profiler.disable()
    with PROFILE_OUT.open("w", encoding="utf-8") as stream:
        stats = pstats.Stats(profiler, stream=stream)
        stats.strip_dirs().sort_stats("cumulative").print_stats(40)
    print(f"perf-smoke: profile written to {PROFILE_OUT}", file=sys.stderr)


def _canonical() -> "callable":
    """The golden canonicalizer, loaded from the test module itself so
    the gate and the test can never disagree about formatting."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "_golden_canonical", REPO / "tests" / "test_goldens.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.canonical


def _telemetry_overhead_leg() -> int:
    """Recorder off and recorder on must both match the smoke golden."""
    from repro.experiments import get_experiment

    canonical = _canonical()
    expected = GOLDEN.read_text(encoding="utf-8")
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
        if canonical(result) != expected:
            print(
                f"perf-smoke: telemetry leg FAILED — recorder={label} "
                f"run drifted from {GOLDEN.name}",
                file=sys.stderr,
            )
            return 1
        print(
            f"perf-smoke: telemetry recorder={label} "
            f"bit-identical to golden ({wall:.2f}s)"
        )
    return 0


def _overload_off_identity_leg() -> int:
    """A present-but-disabled OverloadPlan must not move a single bit.

    ``figure4.run`` builds its configs through its module-bound
    ``base_config``, so the leg rebinds that name to a wrapper attaching
    an all-default (disabled) plan — the closest a stock experiment can
    get to "the layer is compiled in but off".
    """
    from repro.experiments import figure4_arrival_rate as fig4
    from repro.net.overload import OverloadPlan

    canonical = _canonical()
    expected = GOLDEN.read_text(encoding="utf-8")
    original = fig4.base_config

    def with_disabled_overload(scale, **kwargs):
        return original(scale, **kwargs).replace(overload=OverloadPlan())

    fig4.base_config = with_disabled_overload
    start = time.perf_counter()
    try:
        result = fig4.run(
            scale="smoke", replications=1, seed=1, rates=(1.0, 10.0)
        )
    finally:
        fig4.base_config = original
    wall = time.perf_counter() - start
    if canonical(result) != expected:
        print(
            "perf-smoke: overload leg FAILED — a disabled overload plan "
            f"drifted the run from {GOLDEN.name}",
            file=sys.stderr,
        )
        return 1
    print(
        f"perf-smoke: overload-off run bit-identical to golden ({wall:.2f}s)"
    )
    return 0


def _fluctuation_off_identity_leg() -> int:
    """A present-but-inert SessionPlan must not move a single bit."""
    from repro.experiments import figure4_arrival_rate as fig4
    from repro.workload.sessions import SessionPlan

    canonical = _canonical()
    expected = GOLDEN.read_text(encoding="utf-8")
    original = fig4.base_config

    def with_inert_sessions(scale, **kwargs):
        return original(scale, **kwargs).replace(sessions=SessionPlan())

    fig4.base_config = with_inert_sessions
    start = time.perf_counter()
    try:
        result = fig4.run(
            scale="smoke", replications=1, seed=1, rates=(1.0, 10.0)
        )
    finally:
        fig4.base_config = original
    wall = time.perf_counter() - start
    if canonical(result) != expected:
        print(
            "perf-smoke: fluctuation leg FAILED — an inert session plan "
            f"drifted the run from {GOLDEN.name}",
            file=sys.stderr,
        )
        return 1
    print(
        "perf-smoke: fluctuation-off run bit-identical to golden "
        f"({wall:.2f}s)"
    )
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
        or _overload_off_identity_leg()
        or _fluctuation_off_identity_leg()
    )


if __name__ == "__main__":
    sys.exit(main())
