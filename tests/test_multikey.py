"""Tests of the multi-key simulation engine."""

import gc
import math
import weakref

import pytest

from repro.engine import Simulation, SimulationConfig
from repro.engine.multikey import (
    _WORLD_CACHE,
    MultiKeyScaleSimulation,
    _ring_and_keys,
    merge_scale_results,
    run_scale,
)
from repro.errors import ConfigError
from repro.index.authority import ReplicationPlan
from repro.net.faults import FaultPlan
from repro.net.overload import OverloadPlan
from repro.net.reliable import RetryPlan
from repro.schemes.registry import available_schemes
from repro.stats.running import percentile
from repro.workload import ChurnConfig
from repro.workload.sessions import SessionPlan
from repro.workload.storms import StormPhase, StormPlan


def multikey_config(**overrides):
    defaults = dict(
        scheme="dup",
        topology="chord",
        num_nodes=96,
        query_rate=4.0,
        duration=3600.0 * 4,
        warmup=3600.0,
        seed=8,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestConstruction:
    def test_requires_chord(self):
        with pytest.raises(ConfigError):
            MultiKeyScaleSimulation(
                multikey_config(topology="random-tree"), num_keys=8
            )

    def test_requires_positive_keys(self):
        with pytest.raises(ConfigError):
            MultiKeyScaleSimulation(multikey_config(), num_keys=0)

    def test_rejects_churn(self):
        churn = ChurnConfig(join_rate=0.1)
        with pytest.raises(ConfigError):
            MultiKeyScaleSimulation(multikey_config(churn=churn), num_keys=8)

    def test_per_key_trees_have_distinct_roots_usually(self):
        sim = MultiKeyScaleSimulation(multikey_config(), num_keys=8)
        roots = {slice_.tree.root for slice_ in sim.slices.values()}
        assert len(roots) >= 4

    def test_every_tree_spans_the_ring(self):
        sim = MultiKeyScaleSimulation(multikey_config(), num_keys=4)
        for slice_ in sim.slices.values():
            tree = slice_.tree.materialize()
            assert len(tree) == len(sim.ring)
            tree.validate()


class TestRun:
    @pytest.fixture(scope="class")
    def result(self):
        return MultiKeyScaleSimulation(multikey_config(), num_keys=6).run()

    def test_queries_flow(self, result):
        assert result.queries > 100
        assert 0 <= result.hit_rate <= 1

    def test_per_key_counts_sum_to_total(self, result):
        per_key = result.extras["queries_per_key"]
        assert sum(per_key.values()) == result.queries

    def test_key_popularity_is_skewed(self, result):
        counts = sorted(result.extras["queries_per_key"].values(), reverse=True)
        assert counts[0] > counts[-1]

    def test_subscriptions_span_keys(self, result):
        assert result.extras.get("total_subscriptions", 0) > 0

    def test_runs_once(self):
        sim = MultiKeyScaleSimulation(multikey_config(), num_keys=2)
        sim.run()
        with pytest.raises(RuntimeError):
            sim.run()


class TestCrossKeyIsolation:
    def test_caches_hold_multiple_keys(self):
        sim = MultiKeyScaleSimulation(multikey_config(), num_keys=4)
        multi = []

        def read_tables():
            tables = [slice_.copies for slice_ in sim.slices.values()]
            multi.extend(
                node
                for node in sim.ring.node_ids
                if sum(node in table for table in tables) >= 2
            )

        # A spent shard has no slices: read the tables at the horizon.
        sim.env.defer(sim.config.duration, read_tables)
        sim.run()
        assert multi  # some node cached more than one index

    def test_dup_beats_pcx_aggregate(self):
        results = {}
        for scheme in ("pcx", "dup"):
            sim = MultiKeyScaleSimulation(
                multikey_config(scheme=scheme, query_rate=8.0), num_keys=6
            )
            results[scheme] = sim.run()
        assert (
            results["dup"].mean_latency <= results["pcx"].mean_latency
        )
        assert (
            results["dup"].cost_per_query
            <= results["pcx"].cost_per_query * 1.05
        )

    def test_determinism(self):
        first = MultiKeyScaleSimulation(multikey_config(), num_keys=3).run()
        second = MultiKeyScaleSimulation(multikey_config(), num_keys=3).run()
        assert first.mean_latency == second.mean_latency
        assert first.extras["queries_per_key"] == second.extras[
            "queries_per_key"
        ]


class TestEveryScheme:
    @pytest.mark.parametrize("scheme", available_schemes())
    def test_scheme_runs_on_many_keys(self, scheme):
        # push-all floods each key's tree, so it needs tree children too.
        config = multikey_config(
            scheme=scheme, num_nodes=128, duration=3600.0 * 2, warmup=1800.0
        )
        result = run_scale(config, num_keys=4, workers=1)
        assert result.queries > 0
        assert sum(result.extras["queries_per_key"].values()) == result.queries
        assert 0 <= result.hit_rate <= 1


class TestScaleEngine:
    """The sharded scale path: determinism, conservation, worker parity."""

    def _scale_config(self, **overrides):
        defaults = dict(
            scheme="dup",
            topology="chord",
            num_nodes=192,
            query_rate=6.0,
            duration=3600.0 * 2,
            warmup=1800.0,
            seed=8,
        )
        defaults.update(overrides)
        return SimulationConfig(**defaults)

    def _fingerprint(self, merged):
        return repr(
            (
                merged.queries,
                merged.mean_latency,
                merged.hit_rate,
                merged.cost_per_query,
                merged.extras["latency_p95"],
                merged.extras["parents_touched"],
                merged.extras["swept_entries"],
                sorted(merged.extras["queries_per_key"].items()),
            )
        )

    def test_workers_1_and_4_bit_identical(self):
        merged = {
            workers: run_scale(
                self._scale_config(),
                num_keys=24,
                key_zipf_theta=0.8,
                workers=workers,
            )
            for workers in (1, 4)
        }
        assert self._fingerprint(merged[1]) == self._fingerprint(merged[4])

    def test_scale_percentiles_are_exact(self):
        # The ``scale`` query-path pin's run.  The merged tails are the
        # percentiles of every shard's samples put together.
        config = SimulationConfig(
            scheme="dup",
            topology="chord",
            num_nodes=256,
            duration=7200.0,
            warmup=1800.0,
            query_rate=2.0,
            seed=11,
        )
        merged = run_scale(config, 16, 0.8, workers=1)
        samples = []
        for index in range(merged.extras["shard_count"]):
            shard = MultiKeyScaleSimulation(config, 16, 0.8, index, 8)
            shard.run()
            samples.extend(shard.latency.samples)
        assert len(samples) == merged.queries == 10_660
        tails = tuple(merged.extras[f"latency_p{q}"] for q in (50, 95, 99))
        assert tails == tuple(percentile(samples, q) for q in (50, 95, 99))
        assert tails == (0.0, 1.0, 3.0)

    def test_shard_merge_keeps_exact_stats(self):
        # Two unequal shards: the merged count, mean, tails and extremes
        # equal those of the two shards' samples put together.
        config = multikey_config()
        shards = [
            MultiKeyScaleSimulation(config, 8, 0.8, index, 2)
            for index in range(2)
        ]
        results = [shard.run() for shard in shards]
        merged = merge_scale_results(results)
        samples = [hops for shard in shards for hops in shard.latency.samples]
        assert results[0].queries != results[1].queries
        assert merged.queries == len(samples)
        assert merged.mean_latency == pytest.approx(sum(samples) / len(samples))
        for q in (50, 95, 99):
            assert merged.extras[f"latency_p{q}"] == percentile(samples, q)
        counts = [
            pair for result in results for pair in result.extras["latency_counts"]
        ]
        assert sum(count for _, count in counts) == len(samples)
        assert min(hops for hops, _ in counts) == min(samples)
        assert max(hops for hops, _ in counts) == max(samples)

    def test_shard_count_is_pure_function_of_keys(self):
        from repro.engine.multikey import default_shard_count

        assert default_shard_count(1) == 1
        assert default_shard_count(4) == 4
        assert default_shard_count(1024) == 8
        # Worker-count invariance hinges on this: the shard plan must
        # never depend on how many processes execute it.

    def test_scale_run_conserves_queries_across_shards(self):
        merged = run_scale(
            self._scale_config(), num_keys=16, key_zipf_theta=0.8, workers=1
        )
        per_key = merged.extras["queries_per_key"]
        assert sum(per_key.values()) == merged.queries
        assert merged.queries > 0
        assert len(per_key) == 16

    def test_scale_rejects_churn_and_non_chord(self):
        with pytest.raises(ConfigError):
            MultiKeyScaleSimulation(
                self._scale_config(topology="random-tree"), num_keys=8
            )
        with pytest.raises(ConfigError):
            MultiKeyScaleSimulation(
                self._scale_config(churn=ChurnConfig(join_rate=0.1)),
                num_keys=8,
            )
        with pytest.raises(ConfigError):
            MultiKeyScaleSimulation(
                self._scale_config(), num_keys=4, shard_count=8
            )

    @pytest.mark.parametrize(
        "changes",
        [
            {"faults": FaultPlan(loss_rate=0.4)},
            {"retry": RetryPlan(3)},
            {"audit_interval": 100.0},
            {"replication": ReplicationPlan(2, crash_at=2400.0)},
            {"overload": OverloadPlan(service_rate=1.0, inbox_capacity=2)},
            {
                "storms": StormPlan(
                    (StormPhase("update-storm", 1800.0, 600.0, 0.05),)
                )
            },
            {"sessions": SessionPlan(mean_session=300.0, mean_downtime=60.0)},
            {"flight_recorder": True},
        ],
        ids=lambda changes: "+".join(changes),
    )
    def test_scale_refuses_fields_it_would_ignore(self, changes):
        # Each of these ran bit-identical to the baseline before it was
        # refused: the engine accepted the field and never read it.
        from repro.errors import ExperimentError

        config = self._scale_config(**changes)
        with pytest.raises(ConfigError) as raised:
            MultiKeyScaleSimulation(config, num_keys=8)
        assert str(raised.value) == (
            f"scale simulation does not support {', '.join(changes)}; "
            "run them on Simulation"
        )
        with pytest.raises(ExperimentError) as raised:
            run_scale(config, num_keys=8, workers=1)
        assert isinstance(raised.value.__cause__, ConfigError)

    def test_scale_accepts_disabled_plans(self):
        # All-default plans switch nothing on, so they are not refused.
        config = self._scale_config(
            faults=FaultPlan(),
            overload=OverloadPlan(),
            storms=StormPlan(),
            sessions=SessionPlan(),
            churn=ChurnConfig(),
        )
        assert MultiKeyScaleSimulation(config, num_keys=4).run().queries > 0


class TestKeepLatencySamples:
    """``keep_latency_samples`` is honoured by both engines: kept, the
    run reports its tails; dropped, it reports none."""

    def test_scale_engine(self):
        def shards(keep):
            config = multikey_config(keep_latency_samples=keep)
            return [
                MultiKeyScaleSimulation(config, 8, 0.8, index, 2).run()
                for index in range(2)
            ]

        def tails(results):
            merged = merge_scale_results(results)
            return [merged.extras[f"latency_p{q}"] for q in (50, 95, 99)]

        kept, dropped = shards(True), shards(False)
        assert all(result.extras["latency_counts"] for result in kept)
        assert not any(math.isnan(tail) for tail in tails(kept))
        assert not any("latency_counts" in r.extras for r in dropped)
        assert all(math.isnan(tail) for tail in tails(dropped))
        # Only the tails move: the rest of the run is the same.
        assert [r.queries for r in kept] == [r.queries for r in dropped]

    def test_simulation(self):
        def run(keep):
            config = multikey_config(
                topology="random-tree", keep_latency_samples=keep
            )
            return Simulation(config).run()

        kept, dropped = run(True), run(False)
        assert set(kept.latency_percentiles) == {"p50", "p95", "p99"}
        assert kept.latency_ci is not None
        assert dropped.latency_percentiles == {}
        assert dropped.latency_ci is None
        assert kept.mean_latency == dropped.mean_latency


class TestObjectCount:
    """The scale engine's memory fence: a count, not a clock.

    A run consumes its shard: the GC-tracked objects a spent shard still
    holds, per parent the run touched.  With one cache object per touched
    node this read 4.48, with one copy table per key 3.10 (all of it the
    finished run's state, left to the cyclic collector); a shard that
    frees its graph inside ``run()`` holds its result and a shell, 0.004.
    """

    #: Fails while a finished run keeps its per-key state.
    OBJECTS_PER_TOUCHED_PARENT = 0.01

    def test_objects_per_touched_parent(self):
        config = multikey_config(
            num_nodes=16_384, duration=2400.0, warmup=1200.0, seed=3
        )
        _ring_and_keys(config, 32)  # the memoised world is not the run's
        gc.collect()
        before = len(gc.get_objects())
        sim = MultiKeyScaleSimulation(config, num_keys=32)
        result = sim.run()
        gc.collect()
        held = len(gc.get_objects()) - before
        per_parent = held / result.extras["parents_touched"]
        assert per_parent <= self.OBJECTS_PER_TOUCHED_PARENT, per_parent

    @pytest.mark.parametrize("scheme", available_schemes())
    def test_spent_shard_is_freed_without_the_collector(self, scheme):
        config = multikey_config(
            scheme=scheme, num_nodes=64, duration=2400.0, warmup=1200.0
        )
        sim = MultiKeyScaleSimulation(config, num_keys=3)
        refs = [
            weakref.ref(obj)
            for obj in (sim, *sim.slices.values(), *sim.schemes.values())
        ]
        gc.disable()
        try:
            sim.run()
            assert not sim.slices and not sim.schemes
            del sim
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            gc.enable()

    def test_world_memo_keeps_the_last_world(self):
        config = multikey_config()
        first = _ring_and_keys(config, 4)
        assert _ring_and_keys(config, 4) is first
        _ring_and_keys(multikey_config(seed=9), 4)
        assert len(_WORLD_CACHE) == 1
        assert _ring_and_keys(config, 4) is not first
