"""Tests of the DUP state machine against the paper's own walk-throughs.

The scenario names reference the paper: Figure 2 (a)-(c) show the evolving
dynamic update propagation tree on the topology N1..N8; Section III-B's
prose describes the subscribe / substitute / unsubscribe flows these tests
assert step by step.
"""

import pytest

from repro.core import SubscriberList, check_dup_invariants
from repro.core.protocol import DupProtocol
from repro.core.tree_state import push_edges, violations
from repro.errors import ProtocolError, SubscriptionError
from repro.net.message import RefreshSubscribe, Subscribe, Substitute, Unsubscribe


class TestSubscriberList:
    def test_add_and_contains(self):
        s_list = SubscriberList()
        assert s_list.add(5)
        assert not s_list.add(5)
        assert 5 in s_list
        assert len(s_list) == 1

    def test_discard(self):
        s_list = SubscriberList([1, 2])
        assert s_list.discard(1)
        assert not s_list.discard(1)
        assert s_list.snapshot() == (2,)

    def test_replace_in_place(self):
        s_list = SubscriberList([1, 2, 3])
        assert s_list.replace(2, 9)
        assert s_list.snapshot() == (1, 9, 3)

    def test_replace_missing_old_appends(self):
        s_list = SubscriberList([1])
        assert s_list.replace(7, 9)
        assert s_list.snapshot() == (1, 9)

    def test_replace_existing_new_drops_old(self):
        s_list = SubscriberList([1, 2])
        assert s_list.replace(1, 2)
        assert s_list.snapshot() == (2,)

    def test_replace_identical_is_noop(self):
        s_list = SubscriberList([1])
        assert not s_list.replace(1, 1)

    def test_first(self):
        assert SubscriberList([4, 5]).first == 4
        with pytest.raises(IndexError):
            _ = SubscriberList().first

    def test_equality_with_sets(self):
        assert SubscriberList([1, 2]) == {2, 1}
        assert SubscriberList([1]) == SubscriberList([1])


class TestFigure2Walkthrough:
    """The paper's running example, asserted state by state."""

    def test_single_subscriber_creates_virtual_path(self, driver):
        # Figure 2 (a): only N6 is interested.
        driver.subscribe(6)
        # Virtual path N5, N3, N2 all list N6; only N1 and N6 are in the
        # DUP tree.
        for relay in (5, 3, 2):
            assert driver.s_list(relay) == {6}
        assert driver.s_list(1) == {6}
        assert driver.s_list(6) == {6}
        # The root pushes directly to N6: one hop, not four.
        assert driver.push_recipients() == {6}
        assert driver.push_hops() == 1
        check_dup_invariants(driver.protocol, driver.tree, driver.interested)

    def test_second_subscriber_promotes_common_ancestor(self, driver):
        # Figure 2 (b): N4 also becomes interested; N3 (nearest common
        # parent) joins the DUP tree via substitute(N6, N3).
        driver.subscribe(6)
        driver.subscribe(4)
        assert driver.s_list(3) == {6, 4}
        assert driver.s_list(2) == {3}
        assert driver.s_list(1) == {3}
        # Push: N1 -> N3, N3 -> {N4, N6}: three hops (paper: "this scheme
        # only costs three hops").
        assert driver.push_recipients() == {3, 4, 6}
        assert driver.push_hops() == 3
        check_dup_invariants(driver.protocol, driver.tree, driver.interested)

    def test_unsubscribe_collapses_tree(self, driver):
        # Figure 2 (c): N6 leaves the tree; N1 pushes directly to N4.
        driver.subscribe(6)
        driver.subscribe(4)
        driver.unsubscribe(6)
        assert driver.s_list(5) == set()
        assert driver.s_list(3) == {4}
        assert driver.s_list(2) == {4}
        assert driver.s_list(1) == {4}
        assert driver.push_recipients() == {4}
        assert driver.push_hops() == 1
        check_dup_invariants(driver.protocol, driver.tree, driver.interested)

    def test_deeper_descendants_handled_by_nearest_subscriber(self, driver):
        # Paper Section III-B: "for N7 or N8, N6 takes care of them".
        driver.subscribe(6)
        driver.subscribe(7)
        assert driver.s_list(6) == {6, 7}
        # N6 is now a DUP-tree node; upstream still lists N6.
        assert driver.s_list(5) == {6}
        assert driver.s_list(1) == {6}
        assert driver.push_recipients() == {6, 7}
        check_dup_invariants(driver.protocol, driver.tree, driver.interested)

    def test_intermediate_subscriber_replaces_downstream(self, driver):
        # Paper Section III-B: "for N5, after it joins the tree, it
        # replaces N6 as a subscriber of N3 and N5 lists N6 as its
        # subscriber."
        driver.subscribe(6)
        driver.subscribe(4)
        driver.subscribe(5)
        assert driver.s_list(5) == {5, 6}
        assert driver.s_list(3) == {5, 4}
        assert driver.push_recipients() == {3, 4, 5, 6}
        check_dup_invariants(driver.protocol, driver.tree, driver.interested)

    def test_all_unsubscribe_empties_everything(self, driver):
        for node in (6, 4, 7, 2):
            driver.subscribe(node)
        for node in (6, 4, 7, 2):
            driver.unsubscribe(node)
        for node in driver.tree.nodes:
            assert driver.s_list(node) == set()
        assert driver.push_recipients() == set()
        check_dup_invariants(driver.protocol, driver.tree, driver.interested)

    def test_subscribe_is_idempotent(self, driver):
        driver.subscribe(6)
        hops_before = driver.control_hops
        driver.subscribe(6)
        assert driver.control_hops == hops_before
        check_dup_invariants(driver.protocol, driver.tree, driver.interested)

    def test_unsubscribe_without_subscription_is_noop(self, driver):
        driver.unsubscribe(6)
        assert driver.s_list(6) == set()
        check_dup_invariants(driver.protocol, driver.tree, driver.interested)

    def test_root_subscription_is_local(self, driver):
        driver.subscribe(1)
        assert driver.control_hops == 0
        # The root never pushes to itself.
        assert driver.push_recipients() == set()

    def test_subscriber_list_bound(self, driver):
        # "The number of subscribers that each node needs to maintain is
        # at most equal to the number of its direct children" (+ itself).
        for node in (4, 5, 6, 7, 8, 3, 2):
            driver.subscribe(node)
        for node in driver.tree.nodes:
            bound = driver.tree.degree(node) + 1
            assert len(driver.s_list(node)) <= bound
        check_dup_invariants(driver.protocol, driver.tree, driver.interested)


class TestProtocolEdgeCases:
    def test_unknown_payload_rejected(self):
        protocol = DupProtocol(is_root=lambda n: n == 0)
        with pytest.raises(SubscriptionError):
            protocol.step(0, object())

    def test_step_dispatch(self):
        protocol = DupProtocol(is_root=lambda n: n == 0)
        # Subscribe at a non-root relay forwards.
        result = protocol.step(5, Subscribe(9))
        assert result.upstream == [Subscribe(9)]
        # Second branch promotes the relay.
        result = protocol.step(5, Subscribe(8))
        assert result.upstream == [Substitute(9, 5)]
        # Third subscriber: already in the tree, no upstream action.
        result = protocol.step(5, Subscribe(7))
        assert result.upstream == []

    def test_unsubscribe_forwards_removed_subject(self):
        # The relay forwards the *removed subject*, not itself (see the
        # module docstring of repro.core.protocol, deviation 1).
        protocol = DupProtocol(is_root=lambda n: n == 0)
        protocol.step(5, Subscribe(9))
        result = protocol.step(5, Unsubscribe(9))
        assert result.upstream == [Unsubscribe(9)]

    def test_tree_node_unsubscribe_emits_substitute(self):
        protocol = DupProtocol(is_root=lambda n: n == 0)
        protocol.step(5, Subscribe(9))
        protocol.step(5, Subscribe(8))
        result = protocol.step(5, Unsubscribe(9))
        assert result.upstream == [Substitute(5, 8)]

    def test_self_promotion_suppresses_noop_substitute(self):
        # A subscribed node gaining its first downstream subscriber would
        # emit substitute(n, n); the protocol suppresses it (deviation 2).
        protocol = DupProtocol(is_root=lambda n: n == 0)
        result = protocol.ensure_subscribed(5)
        assert result.upstream == [Subscribe(5)]
        result = protocol.step(5, Subscribe(9))
        assert result.upstream == []
        assert protocol.push_targets(5) == (9,)

    def test_substitute_absorbed_by_tree_node(self):
        protocol = DupProtocol(is_root=lambda n: n == 0)
        protocol.step(5, Subscribe(9))
        protocol.step(5, Subscribe(8))  # now a tree node
        result = protocol.step(5, Substitute(9, 7))
        assert result.upstream == []
        assert set(protocol.s_list(5)) == {7, 8}

    def test_substitute_forwarded_by_relay(self):
        protocol = DupProtocol(is_root=lambda n: n == 0)
        protocol.step(5, Subscribe(9))
        result = protocol.step(5, Substitute(9, 7))
        assert result.upstream == [Substitute(9, 7)]
        assert set(protocol.s_list(5)) == {7}

    def test_refresh_passes_through_knowing_nodes(self):
        protocol = DupProtocol(is_root=lambda n: n == 0)
        protocol.step(5, Subscribe(9))
        result = protocol.step(5, RefreshSubscribe(9))
        assert result.upstream == [RefreshSubscribe(9)]

    def test_refresh_converts_at_unknowing_node(self):
        protocol = DupProtocol(is_root=lambda n: n == 0)
        result = protocol.step(5, RefreshSubscribe(9))
        assert result.upstream == [Subscribe(9)]
        assert set(protocol.s_list(5)) == {9}

    def test_refresh_registers_at_root(self):
        protocol = DupProtocol(is_root=lambda n: n == 0)
        protocol.step(0, Subscribe(9))
        result = protocol.step(0, RefreshSubscribe(9))
        assert result.upstream == []
        assert set(protocol.s_list(0)) == {9}

    def test_new_subscriber_reported(self):
        protocol = DupProtocol(is_root=lambda n: n == 0)
        result = protocol.step(0, Subscribe(9))
        assert result.new_subscribers == [9]

    def test_non_root_new_subscriber_reported(self):
        # A relay that gains a subscriber pushes it the current copy at
        # once; its own subscription needs no such push.
        protocol = DupProtocol(is_root=lambda n: n == 0)
        assert protocol.step(5, Subscribe(9)).new_subscribers == [9]
        assert protocol.ensure_subscribed(5).new_subscribers == []

    def test_two_entry_node_advertises_itself(self):
        protocol = DupProtocol(is_root=lambda n: n == 0)
        protocol.step(5, Subscribe(9))
        assert protocol.advertisement(5) == 9
        protocol.step(5, Subscribe(8))
        assert protocol.advertisement(5) == 5

    def test_drop_node_removes_state(self):
        protocol = DupProtocol(is_root=lambda n: n == 0)
        protocol.step(5, Subscribe(9))
        dropped = protocol.drop_node(5)
        assert set(dropped) == {9}
        assert len(protocol.s_list(5)) == 0

    def test_adopt_entries_skips_self(self):
        protocol = DupProtocol(is_root=lambda n: n == 0)
        protocol.adopt_entries(5, [5, 9, 8])
        assert set(protocol.s_list(5)) == {9, 8}


def assert_rejected(protocol, tree, kind):
    """The checker raises, and the oracle names ``kind`` among its findings."""
    with pytest.raises(ProtocolError):
        check_dup_invariants(protocol, tree)
    assert kind in {v.kind for v in violations(protocol, tree)}


class TestInvariantChecker:
    def test_detects_foreign_subscriber(self, figure2_tree):
        protocol = DupProtocol(is_root=lambda n: n == figure2_tree.root)
        protocol.s_list(4).add(6)  # 6 is not a descendant of 4
        assert_rejected(protocol, figure2_tree, "stray-entry")

    def test_detects_branch_collision(self, figure2_tree):
        protocol = DupProtocol(is_root=lambda n: n == figure2_tree.root)
        protocol.s_list(3).add(6)
        protocol.s_list(3).add(5)  # same branch as 6
        assert_rejected(protocol, figure2_tree, "branch-conflict")

    def test_detects_broken_virtual_path(self, figure2_tree):
        protocol = DupProtocol(is_root=lambda n: n == figure2_tree.root)
        protocol.s_list(6).add(6)  # subscribed, but nobody upstream knows
        assert_rejected(protocol, figure2_tree, "broken-path")

    def test_push_edges_respect_forwarding_rule(self, figure2_tree):
        protocol = DupProtocol(is_root=lambda n: n == figure2_tree.root)
        # Root lists 5; 5 is a relay (single entry) so it must not forward.
        protocol.s_list(1).add(5)
        protocol.s_list(5).add(6)
        assert push_edges(protocol, figure2_tree.root) == [(1, 5)]

    def test_accepts_quiescent_state(self, driver):
        driver.subscribe(6)
        driver.subscribe(4)
        driver.subscribe(8)
        check_dup_invariants(driver.protocol, driver.tree, driver.interested)
