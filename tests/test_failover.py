"""Tests of authority replication, standby promotion, and chaos scenarios."""

import pytest

from repro.engine import Simulation, SimulationConfig
from repro.engine.chaos import SCENARIOS, ChaosScenario, get_scenario
from repro.errors import ConfigError, TopologyError
from repro.index.authority import (
    Authority,
    AuthorityState,
    ReplicationPlan,
    StandbyPool,
)
from repro.net.faults import FaultPlan, PartitionWindow
from repro.net.reliable import RetryPlan
from repro.sim.core import Environment
from repro.topology.tree import SearchTree
from repro.workload.churn import ChurnConfig


# -- authority state and stop ------------------------------------------------


class TestAuthorityState:
    def make(self, env, **kwargs):
        return Authority(env, key=7, ttl=100.0, push_lead=10.0, **kwargs)

    def test_state_snapshots_the_counter(self):
        env = Environment()
        authority = self.make(env, value="payload")
        env.run(until=0.0)  # issue version 0
        state = authority.state()
        assert state == AuthorityState(
            key=7, next_version=1, value="payload", replicated_at=0.0
        )

    def test_initial_version_offsets_the_sequence(self):
        env = Environment()
        authority = self.make(env, initial_version=41)
        env.run(until=0.0)
        assert authority.current.version == 41

    def test_initial_version_must_be_non_negative(self):
        with pytest.raises(ConfigError):
            self.make(Environment(), initial_version=-1)

    def test_stop_halts_rotation_and_rejects_updates(self):
        env = Environment()
        authority = self.make(env)
        env.run(until=200.0)  # a couple of rotations
        rotated = authority.current.version
        assert rotated >= 1
        authority.stop()
        assert authority.stopped
        env.run(until=1000.0)
        assert authority.current.version == rotated
        with pytest.raises(RuntimeError):
            authority.force_update()
        authority.stop()  # idempotent


class TestStandbyPool:
    def make(self, env=None):
        return StandbyPool(
            env or Environment(), standbys=[3, 5, 9], failover_timeout=60.0
        )

    def state(self, at=0.0):
        return AuthorityState(
            key=0, next_version=4, value=None, replicated_at=at
        )

    def test_records_only_known_standbys(self):
        pool = self.make()
        pool.record_state(5, self.state())
        pool.record_state(42, self.state())
        pool.record_heartbeat(42)
        assert pool.state_at(5) is not None
        assert pool.state_at(42) is None

    def test_not_starved_while_heartbeats_flow(self):
        env = Environment()
        pool = self.make(env)
        env.run(until=59.0)
        assert not pool.starved(lambda n: True)
        env.run(until=61.0)
        assert pool.starved(lambda n: True)

    def test_heartbeat_resets_the_silence_clock(self):
        env = Environment()
        pool = self.make(env)
        env.run(until=50.0)
        for standby in (3, 5, 9):
            pool.record_heartbeat(standby)
        env.run(until=100.0)
        assert not pool.starved(lambda n: True)

    def test_starvation_needs_every_functioning_standby_silent(self):
        env = Environment()
        pool = self.make(env)
        env.run(until=100.0)
        pool.record_heartbeat(9)
        # 3 and 5 are starved but 9 just heard from the authority.
        assert not pool.starved(lambda n: True)
        # ...unless 9 is itself dead: the survivors' silence decides.
        assert pool.starved(lambda n: n != 9)

    def test_no_functioning_standby_means_no_starvation_call(self):
        env = Environment()
        pool = self.make(env)
        env.run(until=1000.0)
        assert not pool.starved(lambda n: False)

    def test_promote_prefers_rank_order_with_state(self):
        pool = self.make()
        pool.record_state(5, self.state())
        pool.record_state(9, self.state())
        assert pool.promote(lambda n: True) == 5
        assert pool.promoted == 5

    def test_promote_skips_dead_standbys(self):
        pool = self.make()
        pool.record_state(3, self.state())
        pool.record_state(9, self.state())
        assert pool.promote(lambda n: n != 3) == 9

    def test_promote_without_state_needs_force(self):
        pool = self.make()
        assert pool.promote(lambda n: True) is None
        assert pool.promote(lambda n: True, force=True) == 3

    def test_promotion_is_final(self):
        pool = self.make()
        pool.record_state(3, self.state())
        assert pool.promote(lambda n: True) == 3
        assert pool.promote(lambda n: True) is None
        assert not pool.starved(lambda n: True)


# -- tree surgery ------------------------------------------------------------


class TestPromoteToRoot:
    def make_tree(self):
        tree = SearchTree(0)
        tree.add_leaf(0, 1)
        tree.add_leaf(1, 2)
        tree.add_leaf(1, 3)
        return tree

    def test_promotes_interior_node(self):
        tree = self.make_tree()
        absorber = tree.promote_to_root(1)
        # The dead root leaves the tree; its direct child absorbed 1's
        # children first, so they transfer to the promoted node.
        assert tree.root == 1
        assert absorber == 0
        assert 0 not in tree
        assert set(tree.children(1)) == {2, 3}
        tree.validate()

    def test_promotes_leaf(self):
        tree = self.make_tree()
        absorber = tree.promote_to_root(3)
        assert tree.root == 3
        assert absorber == 1
        assert 0 not in tree
        assert tree.parent(1) == 3
        assert set(tree.children(1)) == {2}
        tree.validate()

    def test_rejects_current_root_and_strangers(self):
        tree = self.make_tree()
        with pytest.raises(TopologyError):
            tree.promote_to_root(0)
        with pytest.raises(TopologyError):
            tree.promote_to_root(99)


# -- config gates ------------------------------------------------------------


class TestFailoverConfig:
    def test_crash_requires_standbys(self):
        with pytest.raises(ConfigError):
            ReplicationPlan(standbys=0, crash_at=100.0)

    def test_root_churn_requires_standbys(self):
        with pytest.raises(ConfigError):
            SimulationConfig(
                churn=ChurnConfig(
                    fail_rate=0.01, allow_root_failure=True
                )
            )

    def test_standbys_must_fit_the_overlay(self):
        with pytest.raises(ConfigError):
            SimulationConfig(num_nodes=4, replication=ReplicationPlan(4))


# -- chaos scenarios ---------------------------------------------------------


class TestChaosScenarios:
    BASE = dict(
        scheme="dup",
        num_nodes=64,
        ttl=600.0,
        push_lead=60.0,
        warmup=900.0,
        duration=3600.0,
        seed=1,
    )

    def test_calm_is_the_identity(self):
        config = SimulationConfig(**self.BASE)
        assert get_scenario("calm").apply(config) is config

    def test_blackout_sets_every_knob(self):
        config = get_scenario("blackout").apply(
            SimulationConfig(**self.BASE)
        )
        assert config.replication == ReplicationPlan(
            standbys=2, failover_timeout=120.0, crash_at=900.0 + 330.0
        )
        assert config.audit_interval == 150.0
        plan = config.faults
        assert plan.loss_rate == 0.10
        assert plan.silent_failures
        assert plan.partitions == (
            PartitionWindow(start=1200.0, duration=60.0, components=2),
        )

    def test_apply_merges_with_existing_faults(self):
        config = SimulationConfig(
            faults=FaultPlan(
                loss_rate=0.25,
                partitions=(
                    PartitionWindow(start=2000.0, duration=30.0),
                ),
            ),
            **self.BASE,
        )
        merged = get_scenario("blackout").apply(config).faults
        assert merged.loss_rate == 0.25  # max wins
        assert merged.silent_failures
        assert [w.start for w in merged.partitions] == [1200.0, 2000.0]

    def test_crash_without_standbys_rejected(self):
        with pytest.raises(ConfigError):
            ChaosScenario(name="bad", description="", crash_offset=10.0)

    def test_partition_past_horizon_rejected(self):
        scenario = ChaosScenario(
            name="late",
            description="",
            partitions=((10_000.0, 60.0, 2),),
        )
        with pytest.raises(ConfigError):
            scenario.apply(SimulationConfig(**self.BASE))

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError):
            get_scenario("nope")

    def test_stock_scenarios_apply_cleanly(self):
        config = SimulationConfig(**self.BASE)
        for name in SCENARIOS:
            applied = get_scenario(name).apply(config)
            applied.validate()


# -- end-to-end failover -----------------------------------------------------


class TestFailoverIntegration:
    def run_sim(self, crash_at=0.0, **overrides):
        defaults = dict(
            scheme="dup",
            num_nodes=48,
            query_rate=3.0,
            ttl=600.0,
            push_lead=60.0,
            duration=3600.0,
            warmup=600.0,
            threshold_c=2,
            seed=11,
            replication=ReplicationPlan(2, crash_at=crash_at),
        )
        defaults.update(overrides)
        sim = Simulation(SimulationConfig(**defaults))
        result = sim.run()
        return sim, result

    def test_oracle_crash_promotes_immediately(self):
        sim, result = self.run_sim(crash_at=1500.0)
        assert result.extras["failover_promoted"] >= 0
        assert result.extras["failover_at"] == 1500.0
        assert sim.tree.root == result.extras["failover_promoted"]
        # The successor's authority kept the version counter monotone
        # and resumed rotation for the rest of the horizon.
        refresh = 600.0 - 60.0
        assert sim.authority.current.version > 1500.0 / refresh
        assert not sim.authority.stopped

    def test_silent_crash_detected_under_heavy_control_loss(self):
        # The ISSUE's probe: 40% control-message loss must not stop the
        # standby from detecting the silent authority crash (detection
        # rides heartbeat silence, not any single delivery).
        sim, result = self.run_sim(
            crash_at=1500.0,
            faults=FaultPlan(
                loss_by_category={"control": 0.4},
                silent_failures=True,
            ),
            retry=RetryPlan(4),
            ack_timeout=2.0,
            lease_ttl=300.0,
        )
        assert result.extras["failover_promoted"] >= 0
        failover_at = result.extras["failover_at"]
        # Detection needs at least one failover_timeout of silence, and
        # the watch loop fires every quarter timeout.
        assert 1500.0 < failover_at < 1500.0 + 3 * 120.0
        # Version rotation resumed after the hand-off.
        versions_by_failover = failover_at / (600.0 - 60.0)
        assert sim.authority.current.version > versions_by_failover
        assert result.extras["standby_replications"] > 0
        assert result.extras["standby_heartbeats"] > 0

    def test_no_failover_without_a_crash(self):
        sim, result = self.run_sim()
        assert result.extras["failover_promoted"] == -1
        assert "failover_at" not in result.extras
