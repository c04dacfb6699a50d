"""Differential proofs for the adaptive and balanced DUP variants (PR 8).

Each equivalence below is a *reduction*: a new scheme configured so its
new mechanism cannot engage must be bit-identical — full metric
fingerprint, extras included — to plain ``dup`` on the same (seed,
workload, fault-plan) input.  The divergence tests keep the harness
honest: the same pairs must differ once the mechanism does engage.
"""

from __future__ import annotations

import pytest

from tests.differential import (
    assert_divergent,
    assert_equivalent,
    diff_fields,
    fingerprint_digest,
    metric_fingerprint,
)
from repro.engine import SimulationConfig, run_replications
from repro.net.overload import OverloadPlan
from repro.schemes.registry import available_schemes

SMOKE = dict(
    num_nodes=64,
    duration=3600.0 * 2,
    warmup=1800.0,
    query_rate=3.0,
    ttl=600.0,
    push_lead=60.0,
)


def smoke_config(scheme: str, seed: int = 3, **overrides) -> SimulationConfig:
    return SimulationConfig(scheme=scheme, seed=seed, **SMOKE, **overrides)


class TestAdaptiveReduction:
    """dup-adaptive with a frozen rate collapses to dup at static c."""

    def test_frozen_rate_matches_static_threshold(self):
        for c in (4, 6):
            assert_equivalent(
                smoke_config(
                    "dup-adaptive",
                    threshold_floor=c,
                    threshold_ceiling=c,
                ),
                smoke_config("dup", threshold_c=c),
                context=f"frozen adaptive vs static c={c}",
            )

    def test_frozen_rate_matches_under_faults_and_churn(self):
        from repro.net.faults import FaultPlan
        from repro.workload.churn import ChurnConfig

        overrides = dict(
            faults=FaultPlan(loss_rate=0.05),
            retry_budget=3,
            lease_ttl=300.0,
            churn=ChurnConfig(join_rate=0.002, leave_rate=0.002),
        )
        assert_equivalent(
            smoke_config(
                "dup-adaptive",
                threshold_floor=6,
                threshold_ceiling=6,
                **overrides,
            ),
            smoke_config("dup", threshold_c=6, **overrides),
            context="frozen adaptive under loss + churn",
        )

    def test_moving_threshold_diverges(self):
        left, right = assert_divergent(
            smoke_config(
                "dup-adaptive", threshold_floor=2, threshold_ceiling=10
            ),
            smoke_config("dup", threshold_c=6),
            context="adaptive with open bounds",
        )
        # The divergence is the threshold actually moving.
        assert left.extras["threshold_min"] < left.extras["threshold_max"]
        assert right.extras["threshold_min"] == right.extras["threshold_max"]


class TestBalancedReduction:
    """dup-balanced below its cap is bit-identical to dup."""

    def test_no_cap_matches_dup(self):
        assert_equivalent(
            smoke_config("dup-balanced"),
            smoke_config("dup"),
            context="balanced with the overload layer off",
        )

    def test_non_binding_cap_matches_dup(self):
        # Cap far above any fanout this workload produces: the balancer
        # code path exists but never engages on either side.
        plan = OverloadPlan(max_subscribers=32)
        left, right = assert_equivalent(
            smoke_config("dup-balanced", overload=plan),
            smoke_config("dup", overload=plan),
            context="balanced under a non-binding cap",
        )
        assert left.extras["split_subscribers"] == 0
        assert left.extras["rejected_subscribers"] == 0
        assert left.extras["dup_max_fanout"] <= 32

    def test_binding_cap_diverges_and_splits(self):
        plan = OverloadPlan(max_subscribers=3)
        left, right = assert_divergent(
            smoke_config("dup-balanced", overload=plan),
            smoke_config("dup", overload=plan),
            context="balanced under a binding cap",
        )
        assert left.extras["split_subscribers"] > 0
        # Splitting spreads load down; redirecting concentrates it up.
        assert left.extras["dup_max_fanout"] <= right.extras["dup_max_fanout"]
        assert right.extras["rejected_subscribers"] > 0

    def test_diff_fields_names_the_divergence(self):
        plan = OverloadPlan(max_subscribers=3)
        from repro.engine.simulation import Simulation

        left = Simulation(smoke_config("dup-balanced", overload=plan)).run()
        right = Simulation(smoke_config("dup", overload=plan)).run()
        assert metric_fingerprint(left) != metric_fingerprint(right)
        diffs = diff_fields(left, right)
        assert "extras" in diffs


class TestNewSchemesParallelEquivalence:
    """Satellite: serial == parallel (workers 1 vs 4) for both variants."""

    def fingerprints(self, config, workers):
        summary = run_replications(config, replications=2, workers=workers)
        return [metric_fingerprint(r) for r in summary.runs]

    def test_dup_adaptive_workers_1_vs_4(self):
        config = smoke_config(
            "dup-adaptive", threshold_floor=2, threshold_ceiling=10
        )
        assert self.fingerprints(config, 1) == self.fingerprints(config, 4)

    def test_dup_balanced_workers_1_vs_4(self):
        config = smoke_config(
            "dup-balanced", overload=OverloadPlan(max_subscribers=3)
        )
        assert self.fingerprints(config, 1) == self.fingerprints(config, 4)


#: The runs the ``fingerprint`` family pins, as ``path/case``.
#:
#: ``churn/`` runs were pinned on the commit whose ``_apply_churn`` still
#: rebuilt ``members``/``non_root`` with one ``functioning()`` call per
#: node: a candidate list that differs in content *or order* draws a
#: different victim.  ``query/`` runs were pinned on the commit whose
#: engines each ran a ``_query_loop`` generator drawing one scalar gap
#: and one scalar placement per arrival; the cases are the shapes the
#: source branches on (plain, Pareto gaps, diurnal modulation, a flash
#: crowd's rank flips, the churn guard), ``shard`` one unsharded
#: multi-key engine over 8 keys and ``scale`` the same engine cut into
#: shards by ``run_scale``.  ``miss/`` runs, one per registered scheme,
#: were pinned on the commit whose query path still called every no-op
#: hook and annotated every serve whether traced or not: ``nocache``
#: overrides both lookup and store, ``pcx-no-piggyback`` takes the
#: explicit control branch, and ``pcx-traced`` also digests every
#: reconstructed trace, its ``serve`` annotations included.  Each moves
#: every number downstream when one hop or one draw is off.
FINGERPRINTS = (
    [f"churn/{case}" for case in ("dup", "cup", "pcx", "dup-silent-loss")]
    + [
        f"query/{case}"
        for case in ("dup", "pareto", "diurnal", "flash-crowd", "churn",
                     "shard", "scale")
    ]
    + [f"miss/{scheme}" for scheme in available_schemes()]
    + ["miss/pcx-no-piggyback", "miss/pcx-traced"]
)

RUN = dict(num_nodes=256, duration=7200.0, warmup=1800.0, query_rate=2.0)


def churn_config(case: str) -> SimulationConfig:
    from repro.net.faults import FaultPlan
    from repro.workload.churn import ChurnConfig

    overrides = dict(churn=ChurnConfig(0.05, 0.025, 0.025))
    if case == "dup-silent-loss":
        overrides.update(
            faults=FaultPlan(silent_failures=True, loss_rate=0.02),
            retry_budget=3,
            lease_ttl=300.0,
        )
    return SimulationConfig(
        scheme=case.partition("-")[0], seed=5, **RUN, **overrides
    )


def query_run(case: str):
    from repro.engine.multikey import MultiKeyScaleSimulation, run_scale
    from repro.engine.simulation import Simulation
    from repro.workload.churn import ChurnConfig
    from repro.workload.sessions import SessionPlan
    from repro.workload.storms import StormPhase, StormPlan

    base = dict(RUN, seed=11)
    if case in ("shard", "scale"):
        config = SimulationConfig(scheme="dup", topology="chord", **base)
        if case == "shard":
            return MultiKeyScaleSimulation(config, 8, 0.8).run()
        return run_scale(config, 16, 0.8, workers=1)
    overrides = {
        "dup": dict(),
        "pareto": dict(scheme="cup", arrival="pareto", pareto_alpha=1.2),
        "diurnal": dict(
            sessions=SessionPlan(diurnal_amplitude=0.5, diurnal_period=3600.0)
        ),
        "flash-crowd": dict(
            storms=StormPlan(
                (
                    StormPhase(
                        "flash-crowd",
                        start=2000.0,
                        duration=3000.0,
                        rate=0.01,
                        rank_flips=3,
                    ),
                )
            )
        ),
        "churn": dict(churn=ChurnConfig(0.05, 0.025, 0.025)),
    }[case]
    config = SimulationConfig(**{"scheme": "dup", **base, **overrides})
    return Simulation(config).run()


def traced_digest(config: SimulationConfig) -> str:
    """sha256 of a traced run's fingerprint and every trace it keeps."""
    import hashlib
    import json

    from repro.engine.simulation import Simulation

    sim = Simulation(config)
    tracer = sim.enable_tracing()
    result = sim.run()
    traces = [trace.to_dict() for trace in tracer.traces()]
    serves = [
        note
        for trace in traces
        for note in trace["annotations"]
        if note["event"] == "serve"
    ]
    assert len(serves) == 191
    payload = json.dumps([metric_fingerprint(result), traces], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def fingerprint_of(name: str) -> str:
    """The digest of the run ``fingerprint/<name>`` pins."""
    from repro.engine.simulation import Simulation

    path, _, case = name.partition("/")
    if path == "churn":
        return fingerprint_digest(Simulation(churn_config(case)).run())
    if path == "query":
        return fingerprint_digest(query_run(case))
    miss = dict(RUN, seed=13)
    if case == "pcx-traced":
        return traced_digest(SimulationConfig(scheme="pcx", **miss))
    if case == "pcx-no-piggyback":
        config = SimulationConfig(scheme="pcx", piggyback=False, **miss)
    else:
        config = SimulationConfig(scheme=case, **miss)
    return fingerprint_digest(Simulation(config).run())


@pytest.mark.parametrize("name", FINGERPRINTS)
def test_fingerprint(name, pins):
    pins.check({f"fingerprint/{name}": fingerprint_of(name)})


class TestMissPathPinned:
    def test_every_scheme_is_pinned(self, pins):
        # Equality, not a subset: a deleted scheme's digest must go too.
        pinned = {
            name for name in pins.names("fingerprint")
            if name.startswith("miss/")
        }
        assert pinned == {f"miss/{s}" for s in available_schemes()} | {
            "miss/pcx-no-piggyback",
            "miss/pcx-traced",
        }
