"""Behavioral tests of the schemes on hand-driven micro-simulations.

These tests build a tiny deterministic topology (a chain, so distances
are unambiguous), start the authority, inject queries by hand, and step
virtual time precisely — asserting hop-exact latencies, cache behavior,
subscriptions, pushes, and cut-offs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Simulation, SimulationConfig
from repro.index.entry import IndexVersion
from repro.net.faults import FaultPlan
from repro.net.message import Category, PushMessage
from repro.net.reliable import RetryPlan
from repro.schemes.registry import available_schemes, make_scheme
from repro.errors import ConfigError


def chain_sim(scheme, n=6, **overrides):
    """A chain 0-1-2-...-(n-1) with node 0 as authority."""
    defaults = dict(
        scheme=scheme,
        num_nodes=n,
        topology="chain",
        ttl=3600.0,
        push_lead=60.0,
        hop_latency_mean=0.001,  # fast transport: steps settle quickly
        duration=100_000.0,
        warmup=0.0,
        threshold_c=2,
        seed=1,
    )
    defaults.update(overrides)
    sim = Simulation(SimulationConfig(**defaults))
    sim.start()
    sim.env.run(until=0.0)  # let the authority issue version 0
    return sim


def settle(sim, seconds=5.0):
    """Let in-flight messages drain."""
    sim.env.run(until=sim.env.now + seconds)


def make_subscribed(sim, node):
    """Drive ``node`` through the canonical DUP subscribe sequence.

    Query at t=0 (miss, fetch), a hit at t=3550, then a miss at t=3650
    (the t=0 entry expired at 3600) whose request packet carries the
    subscription: at that point the trailing window holds two arrivals,
    which exceeds threshold_c=1.
    """
    sim.scheme.on_local_query(node)
    settle(sim)
    sim.env.run(until=3550.0)
    sim.scheme.on_local_query(node)
    settle(sim)
    sim.env.run(until=3650.0)
    sim.scheme.on_local_query(node)
    settle(sim)


class TestRegistry:
    def test_available_schemes(self):
        names = available_schemes()
        assert {"pcx", "cup", "dup", "cup-ideal", "nocache", "push-all"} <= set(
            names
        )

    def test_make_scheme(self):
        assert make_scheme("dup").name == "dup"

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError):
            make_scheme("bogus")


class TestPcx:
    def test_first_query_walks_to_root(self):
        sim = chain_sim("pcx")
        sim.scheme.on_local_query(5)
        settle(sim)
        # Request travelled 5 hops up; reply 5 hops down.
        assert sim.latency.count == 1
        assert sim.latency.mean == pytest.approx(5.0)
        assert sim.ledger.hops(Category.QUERY) == 5
        assert sim.ledger.hops(Category.REPLY) == 5

    def test_path_caching_serves_second_query(self):
        sim = chain_sim("pcx")
        sim.scheme.on_local_query(5)
        settle(sim)
        # Node 3 cached the passing reply; its query is a local hit.
        sim.scheme.on_local_query(3)
        settle(sim)
        assert sim.latency.samples[-1] == 0.0

    def test_sibling_served_by_warm_intermediate(self):
        sim = chain_sim("pcx")
        sim.scheme.on_local_query(5)
        settle(sim)
        sim.copies.invalidate(5)
        sim.scheme.on_local_query(5)
        settle(sim)
        # Node 4 still has the copy: one hop up.
        assert sim.latency.samples[-1] == 1.0

    def test_cache_expires_after_ttl(self):
        sim = chain_sim("pcx")
        sim.scheme.on_local_query(5)
        settle(sim)
        sim.env.run(until=3700.0)  # past the entry TTL
        sim.scheme.on_local_query(5)
        settle(sim)
        assert sim.latency.samples[-1] == 5.0

    def test_no_pushes_ever(self):
        sim = chain_sim("pcx")
        sim.scheme.on_local_query(5)
        sim.env.run(until=8000.0)  # across two refresh cycles
        assert sim.ledger.hops(Category.PUSH) == 0
        assert sim.ledger.warmup_hops(Category.PUSH) == 0

    def test_root_query_is_free(self):
        sim = chain_sim("pcx", root_queries=True)
        sim.scheme.on_local_query(0)
        settle(sim)
        assert sim.latency.samples[-1] == 0.0
        assert sim.ledger.total_hops == 0


class TestNoCache:
    def test_every_query_walks_to_root(self):
        sim = chain_sim("nocache")
        for _ in range(3):
            sim.scheme.on_local_query(5)
            settle(sim)
        assert list(sim.latency.samples) == [5.0, 5.0, 5.0]

    def test_intermediates_do_not_serve(self):
        sim = chain_sim("nocache")
        sim.scheme.on_local_query(5)
        settle(sim)
        sim.scheme.on_local_query(3)
        settle(sim)
        assert sim.latency.samples[-1] == 3.0


class TestPushAll:
    def test_everyone_warm_after_one_cycle(self):
        sim = chain_sim("push-all")
        sim.env.run(until=3600.0)  # first refresh push at t=3540
        for node in range(1, 6):
            sim.scheme.on_local_query(node)
        settle(sim)
        assert all(s == 0.0 for s in sim.latency.samples)

    def test_push_cost_is_tree_size(self):
        sim = chain_sim("push-all")
        sim.env.run(until=3600.0)
        # One push per edge: 5 edges (plus the t=0 initial issue push).
        assert sim.ledger.hops(Category.PUSH) == 10


class TestDup:
    def test_interested_node_subscribes_on_miss(self):
        sim = chain_sim("dup", threshold_c=1)
        sim.scheme.on_local_query(5)
        settle(sim)
        sim.env.run(until=3550.0)
        sim.scheme.on_local_query(5)  # hit; interested but cache warm:
        settle(sim)                   # the subscription is deferred
        assert not sim.scheme.protocol.is_subscribed(5)
        sim.env.run(until=3650.0)  # entry expired -> next query misses
        sim.scheme.on_local_query(5)
        settle(sim)
        assert sim.scheme.protocol.is_subscribed(5)
        # The subscription rode the request packet: zero control hops.
        assert sim.ledger.hops(Category.CONTROL) == 0

    def test_subscriber_receives_direct_pushes(self):
        sim = chain_sim("dup", threshold_c=1)
        make_subscribed(sim, 5)
        assert sim.scheme.protocol.is_subscribed(5)
        push_hops_before = sim.ledger.hops(Category.PUSH)
        sim.env.run(until=7200.0)  # next refresh at 7080
        # Exactly one direct push root -> node 5 (one hop, despite the
        # five-hop tree distance).
        assert sim.ledger.hops(Category.PUSH) == push_hops_before + 1
        sim.scheme.on_local_query(5)
        settle(sim)
        assert sim.latency.samples[-1] == 0.0

    def test_subscriber_never_misses_across_many_cycles(self):
        sim = chain_sim("dup", threshold_c=1)
        make_subscribed(sim, 5)
        for cycle in range(2, 8):
            sim.env.run(until=3600.0 * cycle)
            # Keep the node interested: two queries per cycle.
            sim.scheme.on_local_query(5)
            settle(sim)
            sim.scheme.on_local_query(5)
            settle(sim)
            assert sim.latency.samples[-1] == 0.0

    def test_lapsed_interest_unsubscribes_at_push(self):
        sim = chain_sim("dup", threshold_c=1)
        make_subscribed(sim, 5)
        assert sim.scheme.protocol.is_subscribed(5)
        # Silence for over a TTL: the next push finds the window empty.
        sim.env.run(until=sim.env.now + 2 * 3600.0 + 100.0)
        assert not sim.scheme.protocol.is_subscribed(5)
        # The unsubscribe walked the virtual path explicitly.
        assert sim.ledger.hops(Category.CONTROL) > 0

    def test_forwarded_queries_refresh_intermediate_tracking(self):
        sim = chain_sim("dup", threshold_c=2)
        # Node 5's misses pass through node 4 (caches cleared so every
        # query is a full miss).
        for _ in range(3):
            for node in (1, 2, 3, 4, 5):
                sim.copies.invalidate(node)
            sim.scheme.on_local_query(5)
            settle(sim)
        assert sim.scheme.is_interested(4)

    def test_dup_tree_size_reporting(self):
        sim = chain_sim("dup", threshold_c=1)
        make_subscribed(sim, 5)
        assert sim.scheme.dup_tree_size() >= 2
        assert 5 in sim.scheme.subscribed_nodes()


class TestCup:
    def test_registration_rides_miss_and_enables_push(self):
        sim = chain_sim("cup", threshold_c=2)
        for _ in range(3):
            for node in (1, 2, 3, 4, 5):
                sim.copies.invalidate(node)
            sim.scheme.on_local_query(5)
            settle(sim)
        # After 3 full misses node 5 is interested; the last request
        # registered the whole chain (each hop saw 3 queries > c).
        assert sim.scheme.is_interested(5)
        assert 5 in sim.scheme.live_registrations(4)
        assert 1 in sim.scheme.live_registrations(0)
        push_before = sim.ledger.hops(Category.PUSH)
        sim.env.run(until=3600.0)  # refresh at 3540 pushes down the chain
        assert sim.ledger.hops(Category.PUSH) == push_before + 5

    def test_registration_is_zero_cost(self):
        sim = chain_sim("cup", threshold_c=1)
        for _ in range(3):
            sim.scheme.on_local_query(5)
            sim.copies.invalidate(5)
            settle(sim)
        assert sim.ledger.hops(Category.CONTROL) == 0

    def test_soft_state_cut_off_after_quiet_ttl(self):
        # The paper's Section II-B critique: a push-warmed node stops
        # querying, its registrations decay, and it is cut off.
        sim = chain_sim("cup", threshold_c=1)
        for _ in range(3):
            for node in (1, 2, 3, 4, 5):
                sim.copies.invalidate(node)
            sim.scheme.on_local_query(5)
            settle(sim)
        sim.env.run(until=3600.0)  # first refresh: push arrives, cache warm
        sim.scheme.on_local_query(5)
        settle(sim)
        assert sim.latency.samples[-1] == 0.0
        # Now the node stays quiet past the registration TTL.
        sim.env.run(until=3540.0 * 3)
        assert 5 not in sim.scheme.live_registrations(4)
        push_before = sim.ledger.hops(Category.PUSH)
        sim.env.run(until=3540.0 * 4)
        assert sim.ledger.hops(Category.PUSH) == push_before  # cut off

    def test_registrations_die_with_served_packet(self):
        sim = chain_sim("cup", threshold_c=0)
        # Warm node 2 via a full walk from node 3.
        sim.scheme.on_local_query(3)
        settle(sim)
        # Node 5's miss is served at node 4; the interest bit must not
        # continue past the serving node as an explicit message.
        sim.copies.invalidate(5)
        sim.scheme.on_local_query(5)
        settle(sim)
        assert sim.ledger.hops(Category.CONTROL) == 0


class TestCupIdeal:
    def test_registration_is_hard_state(self):
        sim = chain_sim("cup-ideal", threshold_c=2)
        for _ in range(3):
            for node in (1, 2, 3, 4, 5):
                sim.copies.invalidate(node)
            sim.scheme.on_local_query(5)
            settle(sim)
        assert sim.scheme.is_registered_up(5)
        # Unlike soft-state CUP, pushes keep flowing cycle after cycle
        # as long as the node stays interested.
        for cycle in (1, 2):
            before = sim.ledger.hops(Category.PUSH)
            sim.scheme.on_local_query(5)  # keep interest alive
            settle(sim)
            sim.env.run(until=3540.0 * cycle + 50)
            assert sim.ledger.hops(Category.PUSH) > before


class TestDupInvalidate:
    def test_invalidation_drops_cache(self):
        sim = chain_sim("dup-invalidate", threshold_c=1)
        make_subscribed(sim, 5)
        assert sim.scheme.protocol.is_subscribed(5)
        # Next cycle's push is an invalidation: node 5's copy vanishes.
        sim.env.run(until=7150.0)
        assert sim.copies.get(5, sim.env.now) is None

    def test_query_after_invalidation_refetches(self):
        sim = chain_sim("dup-invalidate", threshold_c=1)
        make_subscribed(sim, 5)
        sim.env.run(until=7150.0)  # push at 7080 invalidates
        sim.scheme.on_local_query(5)
        settle(sim)
        assert sim.latency.samples[-1] > 0

    def test_update_variant_avoids_the_refetch(self):
        sim = chain_sim("dup", threshold_c=1)
        make_subscribed(sim, 5)
        sim.env.run(until=7150.0)
        sim.scheme.on_local_query(5)
        settle(sim)
        assert sim.latency.samples[-1] == 0.0

    def test_invalidations_are_acked_and_detect_a_dead_subscriber(self):
        # With a retry budget the invalidation push is hard-state
        # traffic like every other DUP push: it rides the reliable
        # channel, and retry exhaustion is what exposes a silently dead
        # subscriber to the Section III-C repair.
        sim = chain_sim(
            "dup-invalidate",
            threshold_c=1,
            retry=RetryPlan(2),
            ack_timeout=1.0,
            faults=FaultPlan(silent_failures=True),
        )
        make_subscribed(sim, 5)
        assert 5 in sim.scheme.protocol.s_list(4)
        pushes = []
        sim.transport.add_observer(
            lambda event: event.kind == "send"
            and event.message.category is Category.PUSH
            and pushes.append(event.message)
        )
        sim.fail_silently(5)
        sim.authority.force_update()
        settle(sim, 200.0)
        assert pushes
        assert all(push.reliable_id is not None for push in pushes)
        assert sim.reliable.give_ups > 0
        assert sim.injector.detected_count >= 1
        assert 5 not in sim.tree

    def test_false_suspicion_of_a_live_subscriber_only_unlists_it(self):
        # Acks lost, not a crash: the give-up reaches on_peer_suspected,
        # which drops the pusher's entry (the root pushes to node 5
        # directly) and leaves the overlay alone.
        sim = chain_sim(
            "dup-invalidate",
            threshold_c=1,
            retry=RetryPlan(1),
            ack_timeout=1.0,
            flight_recorder=True,
        )
        make_subscribed(sim, 5)
        assert 5 in sim.scheme.protocol.s_list(0)
        sim.transport.use_injector(_LosePushes())
        sim.authority.force_update()
        settle(sim, 200.0)
        assert sim.reliable.give_ups > 0
        assert 5 in sim.tree
        assert 5 not in sim.scheme.protocol.s_list(0)
        assert any(
            event.kind == "unsubscribe" and event.detail == "suspected"
            for event in sim.recorder.events
        )

    def test_interest_lapse_reaches_the_flight_recorder(self):
        sim = chain_sim("dup-invalidate", threshold_c=1, flight_recorder=True)
        make_subscribed(sim, 5)
        sim.env.run(until=sim.env.now + 2 * 3600.0 + 100.0)
        assert not sim.scheme.protocol.is_subscribed(5)
        lapses = [
            event
            for event in sim.recorder.events
            if event.kind == "unsubscribe" and event.detail == "interest-lapse"
        ]
        assert [event.node for event in lapses] == [5]


class _LosePushes:
    """A fault injector that loses every push and nothing else."""

    partition_active = False

    def should_drop(self, message):
        return message.category is Category.PUSH

    def should_duplicate(self, message):
        return False

    def extra_delay(self):
        return 0.0

    def is_dead(self, node):
        return False


# -- the fused push handler against the three-call sequence it replaced ------


def _oracle_handle_push(scheme, node, message):
    """``DupScheme._handle_push`` + ``_push_to_targets`` as they stood
    before the fusion: ``is_subscribed`` -> ``is_interested`` ->
    ``push_targets``, each fetching the node's list on its own."""
    sim = scheme.sim
    sim.copies.put(message.version, sim.env.now, node)
    if scheme.protocol.is_subscribed(node) and not scheme.is_interested(node):
        scheme._record("unsubscribe", node=node, detail="interest-lapse")
        result = scheme.protocol.drop_subscription(node)
        scheme._send_control(node, result.upstream, trace_id=message.trace_id)
    for target in scheme.protocol.push_targets(node):
        if not sim.alive(target):
            continue
        push = PushMessage(key=sim.key, version=message.version, sender=node)
        push.trace_id = message.trace_id
        sim.transport.send(target, push)


def _capturing_sim():
    """A 15-node, 4-level DUP tree that is never run: every send lands
    in ``sent`` instead of the event heap."""
    sim = Simulation(
        SimulationConfig(
            scheme="dup",
            num_nodes=15,
            topology="balanced",
            max_degree=2,
            threshold_c=1,
            warmup=0.0,
            seed=1,
        )
    )
    sent = []

    def capture(destination, message, **_):
        if message.category is Category.PUSH:
            sent.append(
                (destination, message.version.version, message.trace_id)
            )
        else:
            sent.append((destination, tuple(message.payloads)))

    sim.transport.send = capture
    sim.scheme._send = capture
    return sim, sent


def _apply(sim, handle_push, step):
    kind, node, number = step
    scheme = sim.scheme
    protocol = scheme.protocol
    if node not in sim.tree:
        return
    if kind == "subscribe" and node != sim.tree.root:
        payloads = protocol.ensure_subscribed(node).upstream
        while payloads and sim.parent(node) is not None:
            node = sim.parent(node)
            payloads = [
                onward
                for payload in payloads
                for onward in protocol.step(node, payload).upstream
            ]
    elif kind == "query":
        for _ in range(2):  # threshold_c=1: two arrivals are interest
            scheme.interest().record(node, sim.env.now)
    elif kind == "lapse":
        scheme.interest().forget(node)
    elif kind == "depart" and node != sim.tree.root:
        sim.tree.splice_out(node)  # lists still name it: a dead target
    elif kind == "push":
        version = IndexVersion(sim.key, number, 0.0, 3600.0)
        handle_push(
            scheme, node, PushMessage(sim.key, version, 0, trace_id=number)
        )


_steps = st.lists(
    st.tuples(
        st.sampled_from(["subscribe", "query", "lapse", "depart", "push"]),
        st.integers(0, 14),
        st.integers(0, 5),
    ),
    min_size=1,
    max_size=60,
)


class TestFusedPushHandler:
    @given(_steps)
    @settings(max_examples=150, deadline=None)
    def test_matches_the_three_call_sequence(self, steps):
        fused, fused_sent = _capturing_sim()
        oracle, oracle_sent = _capturing_sim()
        for step in steps:
            _apply(fused, type(fused.scheme)._handle_push, step)
            _apply(oracle, _oracle_handle_push, step)
            assert fused_sent == oracle_sent
            assert (
                fused.scheme.protocol.nodes_with_state()
                == oracle.scheme.protocol.nodes_with_state()
            )
            assert list(fused.scheme.protocol._lists) == list(
                oracle.scheme.protocol._lists
            )
            # The interest table's slot order stands in for the order
            # per-node trackers were once created in.
            assert list(fused.scheme.interest()) == list(
                oracle.scheme.interest()
            )
            for node in fused.scheme.protocol._lists:
                assert (
                    fused.scheme.protocol.peek_entries(node)
                    == oracle.scheme.protocol.peek_entries(node)
                )
