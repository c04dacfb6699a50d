"""Direct tests of the shared query/reply engine (schemes/base.py)."""

import pytest

from repro.engine import Simulation, SimulationConfig
from repro.net.message import Category, QueryMessage, ReplyMessage


def chain_sim(scheme="pcx", n=6, **overrides):
    defaults = dict(
        scheme=scheme,
        num_nodes=n,
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


class TestQueryPath:
    def test_query_records_full_path(self):
        sim = chain_sim()
        captured = []
        original = sim.scheme._serve

        def capturing_serve(node, message, version):
            captured.append(list(message.path))
            original(node, message, version)

        sim.scheme._serve = capturing_serve
        sim.scheme.on_local_query(5)
        sim.env.run(until=2.0)
        assert captured == [[5, 4, 3, 2, 1, 0]]

    def test_reply_caches_every_hop(self):
        sim = chain_sim()
        sim.scheme.on_local_query(5)
        sim.env.run(until=2.0)
        for node in (1, 2, 3, 4, 5):
            assert sim.copies.peek(node) is not None

    def test_served_midway_when_intermediate_warm(self):
        sim = chain_sim()
        sim.scheme.on_local_query(3)  # warms 1..3
        sim.env.run(until=2.0)
        sim.scheme.on_local_query(5)
        sim.env.run(until=4.0)
        # The second query is served at node 3: 2 request hops.
        assert sim.latency.samples[-1] == 2.0


class TestReplyRerouting:
    def test_reply_skips_departed_hop(self):
        # Drive a reply whose recorded path contains a node that departed
        # while the reply was in flight: the forwarder must skip it.
        sim = chain_sim(n=6)
        version = sim.authority.current
        sim.scheme.on_node_left(3)
        reply = ReplyMessage(
            key=sim.key,
            version=version,
            path=[5, 4, 3, 2, 1, 0],
            position=3,  # currently at node 2; next recorded hop is 3
            request_hops=5,
            issued_at=0.0,
        )
        sim.scheme._handle_reply(2, reply)
        sim.env.run(until=3.0)
        # The reply rerouted around the missing hop; the query completed.
        assert sim.latency.count == 1
        assert sim.latency.samples[0] == 5.0
        assert sim.copies.peek(4) is not None
        assert sim.copies.peek(5) is not None

    def test_reply_dropped_when_origin_departed(self):
        sim = chain_sim(n=6)
        version = sim.authority.current
        sim.scheme.on_node_left(5)
        reply = ReplyMessage(
            key=sim.key,
            version=version,
            path=[5, 4, 3, 2, 1, 0],
            position=1,  # at node 1; only the departed origin remains
            request_hops=5,
            issued_at=0.0,
        )
        sim.scheme._handle_reply(1, reply)
        sim.env.run(until=3.0)
        assert sim.latency.count == 0
        assert sim._incomplete == 1


class TestPiggybackToggle:
    def test_disabled_piggyback_charges_control(self):
        on = chain_sim("dup", piggyback=True)
        off = chain_sim("dup", piggyback=False)
        for sim in (on, off):
            # subscribe recipe (miss, hit, miss-with-subscription)
            sim.scheme.on_local_query(5)
            sim.env.run(until=3550.0)
            sim.scheme.on_local_query(5)
            sim.env.run(until=3650.0)
            sim.scheme.on_local_query(5)
            sim.env.run(until=3700.0)
            assert sim.scheme.protocol.is_subscribed(5)
        assert on.ledger.hops(Category.CONTROL) == 0
        assert off.ledger.hops(Category.CONTROL) > 0

    def test_both_modes_reach_same_subscription_state(self):
        on = chain_sim("dup", piggyback=True)
        off = chain_sim("dup", piggyback=False)
        for sim in (on, off):
            sim.scheme.on_local_query(5)
            sim.env.run(until=3550.0)
            sim.scheme.on_local_query(5)
            sim.env.run(until=3650.0)
            sim.scheme.on_local_query(5)
            sim.env.run(until=3700.0)
        for node in (0, 1, 2, 3, 4, 5):
            assert set(on.scheme.protocol.s_list(node)) == set(
                off.scheme.protocol.s_list(node)
            )


class TestMessageContracts:
    def test_unexpected_push_rejected_by_passive_scheme(self):
        from repro.net.message import PushMessage

        sim = chain_sim("pcx")
        with pytest.raises(TypeError):
            sim.scheme.on_message(
                3, PushMessage(key=sim.key, version=None, sender=0)
            )

    def test_reply_records_request_hops_not_total(self):
        sim = chain_sim()
        sim.scheme.on_local_query(5)
        sim.env.run(until=3.0)
        # latency is the 5 request hops; cost counts both directions.
        assert sim.latency.samples[0] == 5.0
        assert sim.ledger.total_hops == 10
