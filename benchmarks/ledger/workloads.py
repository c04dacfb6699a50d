"""The five canonical ledger workloads and their result fingerprint.

Names and parameters are fixed: later issues cite them.  Every horizon
is the ISSUE-11 reference horizon times one common ``scale`` factor
(``BENCH_SCALE`` for a measured run, a twentieth of that for ``--smoke``)
so a repeat fits the benchmark contract's time cap; warm-ups are not
scaled (they are what fills the simulated caches).
"""

from __future__ import annotations

import math

#: Common horizon factor of a measured run.  The reference horizons size
#: a repeat at ~5 s; the contract allows ~30 s per driver run for five
#: repeats plus five ~1.5 s ``import repro`` start-ups, hence ~1.4 s each.
BENCH_SCALE = 0.25
SMOKE_SCALE = BENCH_SCALE / 20.0

WORKLOADS = {
    "paper-steady": (
        "paper default point (dup, n=4096, theta=0.95, lambda=1): "
        "hit-dominated, so workload/stats, schemes, core and index "
        "lookups all show while topology is ~1%"
    ),
    "cold-miss": (
        "pcx, n=16384, theta=0.5: 74% misses climb a deep tree, so sim, "
        "net and engine dispatch dominate and core does no work at all"
    ),
    "update-storm": (
        "paper-steady at lambda=4 under forced authority updates: writes "
        "beside reads, ~90% of hops are DUP-tree pushes not queries"
    ),
    "churn-repair": (
        "dup, n=2048 under join/leave/fail churn: the only workload where "
        "engine churn handling, topology mutators and III-C repair run"
    ),
    "scale-multikey": (
        "sharded chord engine, n=32768 x 1024 keys: ring build, lazy "
        "parents and shard set-up lead; the only workload with real RSS"
    ),
}

SCALE_KEYS = 1024
SCALE_KEY_THETA = 0.8

#: Fields of the result fingerprint, compared exactly between repeats,
#: between the traced and untraced runs, and against ``expected.json``.
FINGERPRINT_FIELDS = (
    "queries",
    "mean_latency",
    "cost_per_query",
    "hit_rate",
    "hop_breakdown",
    "incomplete_queries",
    "final_population",
    "dropped_messages",
)


def build_config(name: str, seed: int, scale: float):
    """The ``SimulationConfig`` of workload ``name`` (imports ``repro``)."""
    from repro.engine.config import SimulationConfig
    from repro.workload.churn import ChurnConfig
    from repro.workload.storms import StormPhase, StormPlan

    common = dict(seed=seed, keep_latency_samples=False)
    warmup = 3600.0

    def horizon(reference: float, warm: float = warmup) -> float:
        return warm + (reference - warm) * scale

    if name == "paper-steady":
        return SimulationConfig(
            scheme="dup", duration=horizon(360_000.0), warmup=warmup, **common
        )
    if name == "cold-miss":
        return SimulationConfig(
            scheme="pcx",
            num_nodes=16384,
            zipf_theta=0.5,
            query_rate=0.5,
            duration=horizon(360_000.0),
            warmup=warmup,
            **common,
        )
    if name == "update-storm":
        storm = StormPhase(
            "update-storm", start=warmup, duration=21_600.0 * scale, rate=0.05
        )
        return SimulationConfig(
            scheme="dup",
            query_rate=4.0,
            duration=horizon(25_200.0),
            warmup=warmup,
            storms=StormPlan((storm,)),
            **common,
        )
    if name == "churn-repair":
        return SimulationConfig(
            scheme="dup",
            num_nodes=2048,
            query_rate=2.0,
            duration=horizon(60_000.0),
            warmup=warmup,
            churn=ChurnConfig(
                join_rate=0.05, leave_rate=0.025, fail_rate=0.025
            ),
            **common,
        )
    if name == "scale-multikey":
        return SimulationConfig(
            scheme="dup",
            topology="chord",
            num_nodes=32768,
            query_rate=8.0,
            duration=horizon(3600.0, 1200.0),
            warmup=1200.0,
            **common,
        )
    raise KeyError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}")


def run_workload(name: str, config, clock):
    """Build and run ``name`` through the public engine API.

    Returns ``(result, setup_seconds, run_seconds)``; ``clock`` is
    ``time.perf_counter`` (passed in so the caller owns the timing).
    ``scale-multikey`` makes the same three public calls
    ``run_scale(workers=1)`` makes: shard constructors in rank order,
    ``.run()``, ``merge_scale_results``.
    """
    if name == "scale-multikey":
        from repro.engine.multikey import (
            MultiKeyScaleSimulation,
            default_shard_count,
            merge_scale_results,
        )

        shards = default_shard_count(SCALE_KEYS)
        setup = ran = 0.0
        results = []
        for index in range(shards):
            started = clock()
            shard = MultiKeyScaleSimulation(
                config, SCALE_KEYS, SCALE_KEY_THETA, index, shards
            )
            built = clock()
            results.append(shard.run())
            setup += built - started
            ran += clock() - built
        started = clock()
        merged = merge_scale_results(results)
        ran += clock() - started
        return merged, setup, ran

    from repro.engine.simulation import Simulation

    started = clock()
    simulation = Simulation(config)
    built = clock()
    result = simulation.run()
    return result, built - started, clock() - built


def fingerprint(result) -> dict:
    """The exact-compare view of a ``SimulationResult`` (JSON-safe)."""
    out = {}
    for field in FINGERPRINT_FIELDS:
        value = getattr(result, field)
        if field == "hop_breakdown":
            value = {str(k): int(v) for k, v in sorted(value.items())}
        elif isinstance(value, float) and not math.isfinite(value):
            value = None
        out[field] = value
    return out


def sanity_violations(name: str, fp: dict) -> list[str]:
    """Invariants every run of every workload must satisfy."""
    problems = []
    if not fp["queries"] > 0:
        problems.append("queries == 0")
    hit_rate = fp["hit_rate"]
    if hit_rate is None or not 0.0 <= hit_rate <= 1.0:
        problems.append(f"hit_rate {hit_rate!r} outside [0, 1]")
    if fp["incomplete_queries"] != 0 and name != "churn-repair":
        problems.append(f"incomplete_queries = {fp['incomplete_queries']}")
    return problems
