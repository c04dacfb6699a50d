"""Differential proofs for the adaptive and balanced DUP variants (PR 8).

Each equivalence below is a *reduction*: a new scheme configured so its
new mechanism cannot engage must be bit-identical — full metric
fingerprint, extras included — to plain ``dup`` on the same (seed,
workload, fault-plan) input.  The divergence tests keep the harness
honest: the same pairs must differ once the mechanism does engage.
"""

from __future__ import annotations

from tests.differential import (
    assert_divergent,
    assert_equivalent,
    diff_fields,
    fingerprint_digest,
    metric_fingerprint,
)
from repro.engine import SimulationConfig, run_replications
from repro.net.overload import OverloadPlan

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


class TestChurnPathPinned:
    """Churn runs pinned before the eligibility scan left ``_apply_churn``.

    The digests were taken on the commit whose ``_apply_churn`` still
    rebuilt ``members``/``non_root`` with one ``functioning()`` call per
    node; a candidate list that differs in content *or order* draws a
    different victim and moves every number downstream.
    """

    CHURN = dict(
        num_nodes=256,
        duration=7200.0,
        warmup=1800.0,
        query_rate=2.0,
        seed=5,
    )

    PINNED = {
        "dup": (
            "d75f8263a08ee4de9b8375fa2f2c50b3a5c0d21b6f958ce5c802628c9dd26762"
        ),
        "cup": (
            "9026688d3a7435cd34774d0a9983ef5230e139949438f04a72cddd743299195d"
        ),
        "pcx": (
            "b270af3076074f68baeb726e45192baee89e5d3b7823502012cba0f81e1e4019"
        ),
        "dup-silent-loss": (
            "ee0e40bb76b40c0f34a62965c29149bd3ec2d1b90221f11e871498c6d08cd5f4"
        ),
    }

    def config(self, name: str) -> SimulationConfig:
        from repro.net.faults import FaultPlan
        from repro.workload.churn import ChurnConfig

        overrides = dict(churn=ChurnConfig(0.05, 0.025, 0.025))
        if name == "dup-silent-loss":
            overrides.update(
                faults=FaultPlan(silent_failures=True, loss_rate=0.02),
                retry_budget=3,
                lease_ttl=300.0,
            )
        return SimulationConfig(
            scheme=name.partition("-")[0], **self.CHURN, **overrides
        )

    def test_churn_fingerprints_unchanged(self):
        from repro.engine.simulation import Simulation

        for name, pinned in self.PINNED.items():
            result = Simulation(self.config(name)).run()
            assert fingerprint_digest(result) == pinned, (
                f"{name}: churn run drifted from its pinned fingerprint "
                f"(queries={result.queries}, "
                f"final_population={result.final_population})"
            )


class TestQueryPathPinned:
    """256-node runs pinned before the query loops left the engines.

    The digests were taken on the commit whose three engines each ran a
    ``_query_loop`` generator drawing one scalar gap and one scalar
    placement per arrival; a source that reads a stream in a different
    order, maps a rank through a stale ranking or schedules an arrival a
    bit off moves every number downstream.  The single-key cases are the
    shapes the source branches on (plain, Pareto gaps, diurnal
    modulation, a flash crowd's rank flips, the churn guard).  ``shard``
    is one unsharded multi-key engine over 8 keys, ``scale`` the same
    engine cut into shards by ``run_scale``.

    ``shard`` and ``scale`` were re-pinned when the scale engine moved
    to one exact latency recorder: ``shard`` now carries its
    ``latency_counts`` pairs and ``scale`` exact p50/p95/p99.  With the
    latency-tail extras dropped, both fingerprints equal the old ones.
    ``shard`` was re-pinned again when unsharded runs moved to the bare
    stream names ``Simulation`` draws (``tests/test_engine_parity.py``);
    ``scale``, whose shards keep their rank-range names, did not move.
    """

    BASE = dict(
        num_nodes=256, duration=7200.0, warmup=1800.0, query_rate=2.0, seed=11
    )

    PINNED = {
        "dup": (
            "7796224693862fcebb315eb30f07605b6943257f883792e69af79f95c430f7b0"
        ),
        "pareto": (
            "c3ba6c9983d917a806e64e11e16f55f957344a323caa635be442c30c6280ca5b"
        ),
        "diurnal": (
            "9b0d63636f059846ff43bda4e9176706af0d3961b338b421f59adf061ab12f16"
        ),
        "flash-crowd": (
            "1ad3fc1fa6a35e7a17f444c5398e3c566e3cd73ea7102c62f11646198d150f20"
        ),
        "churn": (
            "edf2d5392bfae07423560631f6a7fca7fb9481fda4e1f08f1003a7289e30f685"
        ),
        "shard": (
            "9f33e6abd108d220e989236ef76966ccdcf4aba9c5ffc512b4ea0f43de952c51"
        ),
        "scale": (
            "77c7fa44df70366b036f826d6735d28a252dcc711c512dc2fa42d5aeb17b4aae"
        ),
    }

    def run(self, name: str):
        from repro.engine.multikey import MultiKeyScaleSimulation, run_scale
        from repro.engine.simulation import Simulation
        from repro.workload.churn import ChurnConfig
        from repro.workload.sessions import SessionPlan
        from repro.workload.storms import StormPhase, StormPlan

        if name in ("shard", "scale"):
            config = SimulationConfig(
                scheme="dup", topology="chord", **self.BASE
            )
            if name == "shard":
                return MultiKeyScaleSimulation(config, 8, 0.8).run()
            return run_scale(config, 16, 0.8, workers=1)
        overrides = {
            "dup": dict(),
            "pareto": dict(scheme="cup", arrival="pareto", pareto_alpha=1.2),
            "diurnal": dict(
                sessions=SessionPlan(
                    diurnal_amplitude=0.5, diurnal_period=3600.0
                )
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
        }[name]
        config = SimulationConfig(**{"scheme": "dup", **self.BASE, **overrides})
        return Simulation(config).run()

    def test_query_path_fingerprints_unchanged(self):
        for name, pinned in self.PINNED.items():
            result = self.run(name)
            assert fingerprint_digest(result) == pinned, (
                f"{name}: run drifted from its pinned fingerprint "
                f"(queries={result.queries}, hit_rate={result.hit_rate})"
            )


class TestMissPathPinned:
    """256-node runs of every scheme pinned before the miss-path cut.

    The digests were taken on the commit whose query path still called
    every no-op hook, cached replies through ``_store_reply`` ->
    ``Simulation.cache`` and annotated every serve whether traced or
    not.  The miss path is the paper's latency and cost: a request that
    climbs one hop too many or a reply cached one hop too few moves
    every number downstream.  ``nocache`` overrides both lookup and
    store; ``pcx-no-piggyback`` takes the explicit control branch;
    ``pcx-traced`` also digests every reconstructed trace, its ``serve``
    annotations included.
    """

    BASE = dict(
        num_nodes=256, duration=7200.0, warmup=1800.0, query_rate=2.0, seed=13
    )

    PINNED = {
        "cup": (
            "f83a63ce60b08c4310ecd551f77298c3877a71968f2b7c0410736c98a059915e"
        ),
        "cup-ideal": (
            "3dcf269dbfbd7cf3f7680352875d8556739bb8d83610082ecc1284d55e4f39cf"
        ),
        "dup": (
            "4c23478fb180069ec3b134e1a34595381c2c4f6e774e526a894a0c0a3c581e16"
        ),
        "dup-adaptive": (
            "4ccac81acc205ed45fffa5f8b2eed5d4d11e1e7873524aa9ed01bcb6b0da6474"
        ),
        "dup-balanced": (
            "4c23478fb180069ec3b134e1a34595381c2c4f6e774e526a894a0c0a3c581e16"
        ),
        "dup-invalidate": (
            "21c0984880529d5ab1a2b0310525051bb5c7a752b55cf270f17122986b8e2d96"
        ),
        "nocache": (
            "c99020f61c7a5d6812c87f80cb6d4f62dc6c3aa330cbd820e29f54040544166f"
        ),
        "pcx": (
            "76a675b566f103784ecb0b429634b1a30811526e9129ce9f1f3cc780e9a90b43"
        ),
        "push-all": (
            "44d41e466df23fa5973b5df56d638c9906088da6f5b4e2598d5804d5e51692e0"
        ),
        "pcx-no-piggyback": (
            "76a675b566f103784ecb0b429634b1a30811526e9129ce9f1f3cc780e9a90b43"
        ),
        "pcx-traced": (
            "5465a2e15deff19cc5698d8c0a31d51115ca4811d72712e7e9da926c89ed29db"
        ),
    }

    def config(self, scheme: str, **overrides) -> SimulationConfig:
        return SimulationConfig(scheme=scheme, **self.BASE, **overrides)

    def test_every_scheme_is_pinned(self):
        from repro.schemes.registry import available_schemes

        # Equality, not a subset: a deleted scheme's digest must go too.
        assert set(self.PINNED) == set(available_schemes()) | {
            "pcx-no-piggyback",
            "pcx-traced",
        }

    def test_scheme_fingerprints_unchanged(self):
        from repro.engine.simulation import Simulation
        from repro.schemes.registry import available_schemes

        runs = {name: self.config(name) for name in available_schemes()}
        runs["pcx-no-piggyback"] = self.config("pcx", piggyback=False)
        for name, config in runs.items():
            result = Simulation(config).run()
            assert fingerprint_digest(result) == self.PINNED[name], (
                f"{name}: run drifted from its pinned fingerprint "
                f"(queries={result.queries}, hit_rate={result.hit_rate})"
            )

    def test_traced_run_and_its_serve_annotations_unchanged(self):
        import hashlib
        import json

        from repro.engine.simulation import Simulation

        sim = Simulation(self.config("pcx"))
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
        payload = json.dumps(
            [metric_fingerprint(result), traces], sort_keys=True
        )
        digest = hashlib.sha256(payload.encode()).hexdigest()
        assert digest == self.PINNED["pcx-traced"]
