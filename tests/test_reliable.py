"""Tests of the ack/retry/dedup reliable-delivery channel."""

import pytest

from repro.engine import Simulation, SimulationConfig
from repro.net.faults import FaultPlan
from repro.net.message import Category
from repro.net.reliable import ReliableChannel, RetryPlan
from repro.sim.core import Environment


def chain_sim(scheme="dup", **overrides):
    # piggyback=False so subscriptions travel as explicit control
    # messages (the traffic the reliable channel carries) instead of
    # riding on unreliable query/reply packets.
    defaults = dict(
        scheme=scheme,
        num_nodes=6,
        topology="chain",
        hop_latency_mean=0.001,
        duration=50_000.0,
        warmup=0.0,
        threshold_c=1,
        seed=1,
        piggyback=False,
    )
    defaults.update(overrides)
    sim = Simulation(SimulationConfig(**defaults))
    sim.start()
    sim.env.run(until=0.0)
    return sim


def subscribe_node_5(sim):
    """The standard chain recipe that ends with node 5 subscribed."""
    sim.scheme.on_local_query(5)
    sim.env.run(until=3550.0)
    sim.scheme.on_local_query(5)
    sim.env.run(until=3650.0)
    sim.scheme.on_local_query(5)
    sim.env.run(until=3700.0)


class TestChannelValidation:
    def test_rejects_bad_parameters(self):
        env = Environment()
        with pytest.raises(ValueError):
            ReliableChannel(env, None, retry_budget=-1, base_timeout=1.0)
        with pytest.raises(ValueError):
            ReliableChannel(env, None, retry_budget=1, base_timeout=0.0)


class TestLosslessOperation:
    def test_every_send_acked_without_retries(self):
        sim = chain_sim("dup", retry=RetryPlan(3), ack_timeout=2.0)
        assert sim.reliable is not None
        subscribe_node_5(sim)
        assert sim.reliable.acked > 0
        assert sim.reliable.acked == sim.reliable.acks_sent
        assert sim.reliable.retries == 0
        assert sim.reliable.give_ups == 0
        sim.env.run(until=3800.0)
        assert sim.reliable.outstanding == 0

    def test_acks_are_charged_control_hops(self):
        plain = chain_sim("dup")
        reliable = chain_sim("dup", retry=RetryPlan(3), ack_timeout=2.0)
        subscribe_node_5(plain)
        subscribe_node_5(reliable)
        extra = reliable.ledger.hops(Category.CONTROL) - plain.ledger.hops(
            Category.CONTROL
        )
        assert extra == reliable.reliable.acks_sent

    def test_tree_state_identical_to_unreliable_run(self):
        plain = chain_sim("dup")
        reliable = chain_sim("dup", retry=RetryPlan(3), ack_timeout=2.0)
        subscribe_node_5(plain)
        subscribe_node_5(reliable)
        for node in range(6):
            assert list(plain.scheme.protocol.s_list(node)) == list(
                reliable.scheme.protocol.s_list(node)
            )


class TestRetries:
    def test_lost_control_recovered_by_retransmission(self):
        sim = chain_sim(
            "dup",
            retry=RetryPlan(4),
            ack_timeout=1.0,
            faults=FaultPlan(loss_by_category={"control": 0.5}),
            seed=7,
        )
        subscribe_node_5(sim)
        sim.env.run(until=4000.0)
        assert sim.reliable.retries > 0
        assert sim.reliable.give_ups == 0
        # Despite a 50% lossy control plane, the subscription chain is
        # exactly what a lossless run builds.
        plain = chain_sim("dup")
        subscribe_node_5(plain)
        plain.env.run(until=4000.0)
        for node in range(6):
            assert list(sim.scheme.protocol.s_list(node)) == list(
                plain.scheme.protocol.s_list(node)
            )

    def test_duplicates_acked_but_processed_once(self):
        sim = chain_sim(
            "dup",
            retry=RetryPlan(4),
            ack_timeout=1.0,
            faults=FaultPlan(duplicate_rate=1.0),
        )
        subscribe_node_5(sim)
        sim.env.run(until=4000.0)
        assert sim.reliable.duplicates_suppressed > 0
        plain = chain_sim("dup")
        subscribe_node_5(plain)
        plain.env.run(until=4000.0)
        # Duplicate deliveries must not corrupt the subscriber lists.
        for node in range(6):
            assert list(sim.scheme.protocol.s_list(node)) == list(
                plain.scheme.protocol.s_list(node)
            )


class TestGiveUp:
    def test_exhausted_budget_raises_suspicion_and_repairs(self):
        sim = chain_sim(
            "dup",
            retry=RetryPlan(2),
            ack_timeout=1.0,
            faults=FaultPlan(silent_failures=True),
        )
        subscribe_node_5(sim)
        assert 5 in sim.scheme.protocol.s_list(4)
        sim.fail_silently(5)
        assert 5 in sim.tree
        # The next push to the dead subscriber exhausts its retry
        # budget, the sender gives up, suspects node 5, and the repair
        # flow prunes it from the tree.
        sim.authority.force_update()
        sim.env.run(until=sim.env.now + 200.0)
        assert sim.reliable.give_ups > 0
        assert 5 not in sim.tree
        assert sim.injector.detected_count >= 1
        assert sim._detection_latency.count >= 1

    def test_dead_sender_timers_cancelled(self):
        sim = chain_sim(
            "dup",
            retry=RetryPlan(3),
            ack_timeout=1.0,
            faults=FaultPlan(loss_by_category={"control": 1.0}),
        )
        sim.scheme.on_local_query(5)
        sim.env.run(until=3550.0)
        sim.scheme.on_local_query(5)
        sim.env.run(until=3650.0)
        sim.scheme.on_local_query(5)  # subscribe walk, all control lost
        sim.env.run(until=3650.5)
        assert sim.reliable.outstanding > 0
        give_ups_before = sim.reliable.give_ups
        sim.fail_silently(5)
        sim.fail_silently(4)
        sim.fail_silently(3)
        sim.fail_silently(2)
        sim.fail_silently(1)
        sim.env.run(until=3800.0)
        # drop_sender plus the functioning() guard: no posthumous
        # retries ever give up on behalf of a dead sender.
        assert sim.reliable.outstanding == 0
        assert sim.reliable.give_ups == give_ups_before
