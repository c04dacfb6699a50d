"""Tests of the fault-injection layer (plans, injector, transport hooks)."""

import json
import math

import pytest

from repro.engine import Simulation, SimulationConfig
from repro.errors import ConfigError
from repro.net.faults import FaultInjector, FaultPlan
from repro.net.message import Category, ControlMessage, QueryMessage, Subscribe
from repro.net.reliable import RetryPlan
from repro.sim.rng import RandomStreams
from repro.workload.churn import ChurnConfig


def chain_sim(scheme="dup", **overrides):
    defaults = dict(
        scheme=scheme,
        num_nodes=6,
        topology="chain",
        hop_latency_mean=0.001,
        duration=50_000.0,
        warmup=0.0,
        threshold_c=1,
        seed=1,
    )
    defaults.update(overrides)
    sim = Simulation(SimulationConfig(**defaults))
    sim.start()
    sim.env.run(until=0.0)
    return sim


class TestFaultPlan:
    def test_disabled_by_default(self):
        plan = FaultPlan()
        assert not plan.enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(loss_rate=0.1),
            dict(loss_by_category={"control": 0.5}),
            dict(duplicate_rate=0.2),
            dict(extra_delay_mean=0.05),
            dict(silent_failures=True),
        ],
    )
    def test_any_fault_enables(self, kwargs):
        assert FaultPlan(**kwargs).enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(loss_rate=-0.1),
            dict(loss_rate=1.5),
            dict(duplicate_rate=2.0),
            dict(loss_by_category={"control": -1.0}),
            dict(loss_by_category={"nonsense": 0.5}),
            dict(extra_delay_mean=-1.0),
        ],
    )
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            FaultPlan(**kwargs)

    def test_category_override_falls_back_to_global(self):
        plan = FaultPlan(loss_rate=0.2, loss_by_category={"control": 0.7})
        assert plan.loss_probability(Category.CONTROL) == 0.7
        assert plan.loss_probability(Category.QUERY) == 0.2


class TestFaultInjector:
    def make(self, plan, seed=1):
        return FaultInjector(plan, RandomStreams(seed), clock=lambda: 0.0)

    def test_certain_loss_drops_everything(self):
        injector = self.make(FaultPlan(loss_rate=1.0))
        query = QueryMessage(key=0, origin=5)
        assert all(injector.should_drop(query) for _ in range(50))
        assert injector.injected_losses == 50

    def test_loss_respects_category(self):
        plan = FaultPlan(loss_by_category={"control": 1.0})
        injector = self.make(plan)
        control = ControlMessage(key=0, payloads=[Subscribe(5)], sender=5)
        assert injector.should_drop(control)
        assert not injector.should_drop(QueryMessage(key=0, origin=5))

    def test_queries_and_replies_never_duplicated(self):
        # In-flight query/reply packets are mutated while forwarding
        # (path, position): a duplicated delivery would alias live state.
        injector = self.make(FaultPlan(duplicate_rate=1.0))
        assert not injector.should_duplicate(QueryMessage(key=0, origin=5))
        control = ControlMessage(key=0, payloads=[Subscribe(5)], sender=5)
        assert injector.should_duplicate(control)
        assert injector.injected_duplicates == 1

    def test_detection_latency_reported_once(self):
        now = [0.0]
        injector = FaultInjector(
            FaultPlan(silent_failures=True),
            RandomStreams(1),
            clock=lambda: now[0],
        )
        injector.mark_failed(9)
        assert injector.is_dead(9)
        assert injector.undetected() == (9,)
        now[0] = 42.0
        assert injector.mark_detected(9) == 42.0
        assert injector.mark_detected(9) is None  # only the first report
        assert injector.undetected() == ()
        assert injector.mark_detected(7) is None  # never failed


class TestTransportFaults:
    def test_injected_query_loss_attributed_and_counted(self):
        sim = chain_sim(
            "pcx", faults=FaultPlan(loss_by_category={"query": 1.0})
        )
        drops = []
        sim.transport.add_observer(
            lambda e: drops.append(e) if e.kind == "drop" else None
        )
        sim.scheme.on_local_query(5)
        sim.env.run(until=10.0)
        # Satellite: the drop event names the link the message died on.
        assert len(drops) == 1
        event = drops[0]
        assert event.reason == "loss"
        assert event.destination == 4
        assert event.sender == 5
        assert sim.injector.injected_losses == 1
        # A lost query never completes.
        assert sim._incomplete == 1
        assert sim.latency.count == 0

    def test_blackhole_swallows_traffic_of_silent_failures(self):
        sim = chain_sim("pcx", faults=FaultPlan(silent_failures=True))
        drops = []
        sim.transport.add_observer(
            lambda e: drops.append(e) if e.kind == "drop" else None
        )
        sim.fail_silently(3)
        assert sim.alive(3)  # still an overlay member...
        assert not sim.functioning(3)  # ...but not responding
        sim.scheme.on_local_query(5)
        sim.env.run(until=1.0)
        blackholes = [e for e in drops if e.reason == "blackhole"]
        assert len(blackholes) == 1
        assert blackholes[0].destination == 3
        assert blackholes[0].sender == 4
        assert sim.injector.blackholed == 1

    def test_duplicated_control_charged_once_delivered_twice(self):
        sim = chain_sim(
            "dup",
            faults=FaultPlan(duplicate_rate=1.0),
            piggyback=False,
            immediate_push=False,
        )
        delivered = []
        sim.transport.add_observer(
            lambda e: delivered.append(e) if e.kind == "deliver" else None
        )
        hops_before = sim.ledger.hops(Category.CONTROL)
        sim.scheme.on_local_query(5)  # miss -> explicit subscribe walk
        sim.env.run(until=10.0)
        controls = [
            e
            for e in delivered
            if e.message.category is Category.CONTROL
        ]
        # Each control hop arrives twice but is charged once.
        assert len(controls) == 2 * (
            sim.ledger.hops(Category.CONTROL) - hops_before
        )

    def test_drop_events_without_injector_carry_link(self):
        # Satellite: churn drops used to emit destination=None events.
        sim = chain_sim("pcx")
        drops = []
        sim.transport.add_observer(
            lambda e: drops.append(e) if e.kind == "drop" else None
        )
        message = QueryMessage(key=sim.key, origin=5)
        message.path.append(4)
        sim.transport.drop(message, destination=3)
        assert drops[0].destination == 3
        assert drops[0].sender == 4  # derived from the query path
        assert drops[0].reason == "churn"


class TestTimeoutSuspicion:
    def test_dead_relay_detected_by_query_timeout(self):
        sim = chain_sim(
            "pcx",
            faults=FaultPlan(silent_failures=True),
            ack_timeout=2.0,
        )
        sim.fail_silently(3)
        sim.scheme.on_local_query(5)
        sim.env.run(until=1.0)
        assert 3 in sim.tree  # not yet suspected
        sim.env.run(until=10.0)  # past the request timeout
        assert 3 not in sim.tree  # suspicion triggered the repair splice
        assert sim.injector.detected_count == 1


def _resilient_config(seed=1):
    return SimulationConfig(
        scheme="dup",
        num_nodes=64,
        query_rate=2.0,
        ttl=600.0,
        push_lead=60.0,
        duration=3000.0,
        warmup=600.0,
        threshold_c=2,
        seed=seed,
        churn=ChurnConfig(join_rate=0.01, fail_rate=0.01),
        faults=FaultPlan(
            loss_by_category={"control": 0.1, "push": 0.1},
            duplicate_rate=0.1,
            extra_delay_mean=0.01,
            silent_failures=True,
        ),
        retry=RetryPlan(3),
        ack_timeout=2.0,
        lease_ttl=300.0,
    )


class TestSeedDeterminism:
    def test_identical_seed_and_plan_reproduce_exactly(self):
        # Satellite: same seed + same FaultPlan -> byte-identical cost
        # ledgers and metrics snapshots.
        first = Simulation(_resilient_config())
        second = Simulation(_resilient_config())
        result_a = first.run()
        result_b = second.run()
        assert dict(first.ledger.breakdown()) == dict(
            second.ledger.breakdown()
        )
        assert result_a.queries == result_b.queries
        assert result_a.mean_latency == result_b.mean_latency
        assert result_a.cost_per_query == result_b.cost_per_query
        assert result_a.incomplete_queries == result_b.incomplete_queries
        assert dict(result_a.extras) == dict(result_b.extras)
        assert (
            result_a.stale_read_fraction == result_b.stale_read_fraction
            or (
                math.isnan(result_a.stale_read_fraction)
                and math.isnan(result_b.stale_read_fraction)
            )
        )
        snap_a = json.dumps(first.snapshot(), sort_keys=True)
        snap_b = json.dumps(second.snapshot(), sort_keys=True)
        assert snap_a == snap_b

    def test_different_seeds_diverge(self):
        result_a = Simulation(_resilient_config(seed=1)).run()
        result_b = Simulation(_resilient_config(seed=2)).run()
        assert dict(result_a.extras) != dict(result_b.extras)

    def test_disabled_plan_matches_no_plan(self):
        # A run with an all-defaults FaultPlan is bit-identical to one
        # with faults=None: the injector is never constructed.
        base = dict(
            scheme="dup",
            num_nodes=32,
            query_rate=2.0,
            duration=2000.0,
            warmup=500.0,
            threshold_c=2,
            seed=3,
        )
        with_plan = Simulation(
            SimulationConfig(**base, faults=FaultPlan())
        )
        without = Simulation(SimulationConfig(**base))
        assert with_plan.injector is None
        result_a = with_plan.run()
        result_b = without.run()
        assert result_a.mean_latency == result_b.mean_latency
        assert result_a.cost_per_query == result_b.cost_per_query
        assert dict(with_plan.ledger.breakdown()) == dict(
            without.ledger.breakdown()
        )
