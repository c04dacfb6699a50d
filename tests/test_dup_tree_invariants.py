"""Direct property tests of the DUP tree invariants.

Both this suite and ``test_dup_properties.py`` ask the one invariant
oracle, :func:`repro.core.tree_state.violations`; this suite asserts the
kinds behind each structural property separately (``tests/conftest.py``
names the kind sets), so a regression pinpoints which property broke:

1. **branch uniqueness** — every list entry is a descendant, at most one
   per downstream branch, and the one that branch advertises;
2. **acyclicity** — the push-forwarding graph contains no cycles;
3. **interior shape** — every push-graph leaf is itself a subscriber
   (nobody relays to nowhere; forwarders hold >= 2 entries by the walk);
4. **exact coverage** — pushes reach exactly the interested nodes plus
   the interior nodes that forward to them.

Histories interleave subscribe / unsubscribe / substitute (driven both
implicitly by list transitions and explicitly payload-by-payload) and
failure-repair (crashes healed by the Section III-C maintenance flows).
The ``dup-balanced`` driver's delegation lists non-descendants by
design, so its tests assert only the acyclicity and coverage kinds.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.balance import DupBalancer
from repro.core.protocol import StepResult
from repro.net.message import Subscribe, Substitute
from repro.topology import random_search_tree
from repro.topology.tree import SearchTree

from tests.conftest import (
    ACYCLIC,
    BRANCH_UNIQUENESS,
    EXACT_COVERAGE,
    INTERIOR_SHAPE,
    SyncDupDriver,
    assert_clean,
)


# -- history generation ------------------------------------------------------

OPS = ("sub", "unsub", "fail", "repair", "join-leaf", "leave")


@st.composite
def history(draw, ops=OPS):
    """A random tree plus an interleaved operation sequence."""
    size = draw(st.integers(3, 32))
    seed = draw(st.integers(0, 2**31))
    steps = draw(
        st.lists(
            st.tuples(st.sampled_from(ops), st.integers(0, 2**31)),
            min_size=1,
            max_size=35,
        )
    )
    return size, seed, steps


def _drive(driver: SyncDupDriver, steps, next_id: int) -> int:
    """Apply an interleaving; ``repair`` re-subscribes after a crash."""
    tree = driver.tree
    for kind, step_seed in steps:
        rng = np.random.default_rng(step_seed)
        non_root = [n for n in tree.nodes if n != tree.root]
        if not non_root:
            continue
        pick = non_root[int(rng.integers(len(non_root)))]
        if kind == "sub":
            driver.subscribe(pick)
        elif kind == "unsub":
            driver.unsubscribe(pick)
        elif kind == "fail" and len(non_root) > 1:
            driver.fail(pick)
        elif kind == "repair" and len(non_root) > 1:
            # Crash a node, then have a surviving interested node renew
            # its subscription — the paper's detect-and-repair sequence.
            driver.fail(pick)
            survivors = [
                n for n in tree.nodes if n != tree.root and n != pick
            ]
            if survivors:
                driver.subscribe(
                    survivors[int(rng.integers(len(survivors)))]
                )
        elif kind == "join-leaf":
            nodes = list(tree.nodes)
            driver.join_leaf(nodes[int(rng.integers(len(nodes)))], next_id)
            next_id += 1
        elif kind == "leave" and len(non_root) > 1:
            driver.leave(pick)
    return next_id


class TestInvariantProperties:
    @given(history())
    @settings(max_examples=120, deadline=None)
    def test_branch_uniqueness_and_acyclicity(self, scenario):
        size, seed, steps = scenario
        tree = random_search_tree(size, 4, np.random.default_rng(seed))
        driver = SyncDupDriver(tree)
        next_id = size
        for i in range(len(steps)):
            next_id = _drive(driver, steps[i : i + 1], next_id)
            assert_clean(driver, *BRANCH_UNIQUENESS, *ACYCLIC)

    @given(history())
    @settings(max_examples=120, deadline=None)
    def test_interior_shape_after_history(self, scenario):
        size, seed, steps = scenario
        tree = random_search_tree(size, 4, np.random.default_rng(seed))
        driver = SyncDupDriver(tree)
        _drive(driver, steps, size)
        assert_clean(driver, *INTERIOR_SHAPE)

    @given(history())
    @settings(max_examples=120, deadline=None)
    def test_push_covers_exactly_interested(self, scenario):
        size, seed, steps = scenario
        tree = random_search_tree(size, 4, np.random.default_rng(seed))
        driver = SyncDupDriver(tree)
        _drive(driver, steps, size)
        assert_clean(driver, *EXACT_COVERAGE)

    @given(history())
    @settings(max_examples=60, deadline=None)
    def test_all_invariants_after_every_step(self, scenario):
        size, seed, steps = scenario
        tree = random_search_tree(size, 4, np.random.default_rng(seed))
        driver = SyncDupDriver(tree)
        next_id = size
        for i in range(len(steps)):
            next_id = _drive(driver, steps[i : i + 1], next_id)
            assert_clean(driver)


class TestExplicitSubstitute:
    """Substitute payloads stepped hop-by-hop, not just via the driver."""

    def test_one_to_two_transition_emits_substitute(self, figure2_tree):
        driver = SyncDupDriver(figure2_tree)
        driver.subscribe(7)
        # Node 6 now relays for 7; subscribing 8 takes 6's list from one
        # to two entries, which must swap 6 in for 7 upstream.
        driver.interested.add(8)
        result = driver.protocol.ensure_subscribed(8)
        payloads = list(result.upstream)
        assert payloads and isinstance(payloads[0], Subscribe)
        step = driver.protocol.step(6, payloads[0])
        assert any(
            isinstance(p, Substitute) and (p.old, p.new) == (7, 6)
            for p in step.upstream
        ), f"expected substitute(7, 6), got {step.upstream}"
        # Complete the walk and verify the invariants all hold again.
        driver._walk(6, step.upstream)
        assert_clean(driver)
        assert driver.push_recipients() >= {7, 8}

    def test_substitute_chain_through_relays(self, figure2_tree):
        driver = SyncDupDriver(figure2_tree)
        driver.subscribe(8)
        # 5 and 6 both relay the single advertisement "8" up to 3.
        assert driver.s_list(5) == {8} and driver.s_list(3) >= {8}
        driver.interested.add(7)
        result = driver.protocol.ensure_subscribed(7)
        step = driver.protocol.step(6, result.upstream[0])
        substitutes = [p for p in step.upstream if isinstance(p, Substitute)]
        assert substitutes, "junction formation must substitute upstream"
        # Relay 5 holds one entry: it rewrites and forwards unchanged.
        relay = driver.protocol.step(5, substitutes[0])
        assert driver.s_list(5) == {6}
        assert [
            (p.old, p.new)
            for p in relay.upstream
            if isinstance(p, Substitute)
        ] == [(8, 6)]
        driver._walk(5, relay.upstream)
        assert_clean(driver)

    def test_mid_flight_substitute_then_completion(self, figure2_tree):
        """Invariants are restored once a paused substitute completes."""
        driver = SyncDupDriver(figure2_tree)
        for node in (4, 7):
            driver.subscribe(node)
        driver.interested.add(8)
        result = driver.protocol.ensure_subscribed(8)
        step = driver.protocol.step(6, result.upstream[0])
        # The substitute is in flight (held, not yet applied upstream);
        # finishing the walk must converge back to a consistent state.
        driver._walk(6, step.upstream)
        assert_clean(driver)
        assert driver.push_recipients() >= {4, 7, 8}


# -- dup-balanced: the fanout-capped driver ----------------------------------


class SyncBalancedDriver(SyncDupDriver):
    """:class:`SyncDupDriver` with the ``dup-balanced`` split pipeline.

    Mirrors :class:`~repro.schemes.dup_balanced.DupBalancedScheme` hop by
    hop: every control payload first passes the balancer (delegation
    payloads, delegated-subject routing, redirect relays,
    split-or-refuse), falling through to the plain protocol step; each
    visited node rebalances afterwards.  Point-to-point payloads
    (Delegate / Reclaim / forwarded Substitute) deliver synchronously.
    """

    def __init__(self, tree: SearchTree, cap: int):
        super().__init__(tree)
        self.redirected: dict[int, set[int]] = {}
        self.rejections = 0
        self.balancer = DupBalancer(
            self.protocol,
            cap,
            redirected=self.redirected,
            alive=lambda n: n in self.tree,
            is_root=lambda n: n == self.tree.root,
            send_down=self._deliver,
            on_reject=self._count_reject,
        )

    def _count_reject(self, node: int, subject: int) -> None:
        self.rejections += 1

    def _deliver(self, sender: int, target: int, payload: object) -> None:
        if target not in self.tree:
            return
        self._walk(target, self._apply(target, [payload]))

    def _apply(self, node: int, payloads: list) -> list:
        """One node's control round: balancer pipeline, step, rebalance."""
        upstream: list = []
        for payload in payloads:
            combined = StepResult()
            if not self.balancer.handle(node, payload, combined):
                combined.merge(self.protocol.step(node, payload))
            upstream.extend(combined.upstream)
        extra = self.balancer.rebalance(node)
        if extra is not None:
            upstream.extend(extra.upstream)
        return upstream

    def _walk(self, from_node: int, payloads: list) -> None:
        current = from_node
        pending = list(payloads)
        while pending:
            parent = self.tree.parent(current)
            if parent is None:
                break
            self.control_hops += len(pending)
            pending = self._apply(parent, pending)
            current = parent

    # -- churn: unwind delegation state before repair, re-home after ---------
    def fail(self, node: int) -> None:
        self.interested.discard(node)
        orphans = self.balancer.node_gone(node)
        self.redirected.pop(node, None)
        self.maintenance.node_failed(node)
        self._rehome(orphans, node)

    def leave(self, node: int) -> None:
        self.interested.discard(node)
        parent = self.tree.parent(node)
        orphans = self.balancer.node_gone(node)
        self.redirected.pop(node, None)
        self.maintenance.node_left(node)
        self._rehome(orphans, node)
        # Mirror the scheme: a parent that wholesale-adopted the
        # departed child's list sheds the excess back under its cap.
        if parent is not None and parent in self.tree:
            extra = self.balancer.shed_overflow(parent)
            if extra is not None:
                self._walk(parent, extra.upstream)

    def _rehome(self, orphans: list, dead: int) -> None:
        for delegator, subject in orphans:
            if delegator not in self.tree or subject == dead:
                continue
            if subject not in self.tree or subject == delegator:
                continue
            if subject in self.protocol.s_list(delegator):
                continue
            under_cap = (
                self.balancer.fanout(delegator) < self.balancer.cap
            )
            if delegator == self.tree.root or under_cap:
                result = self.protocol.step(delegator, Subscribe(subject))
                self._walk(delegator, result.upstream)
                continue
            target = self.balancer.choose_delegate(delegator, subject)
            if target is not None:
                self.balancer.delegate(delegator, subject, target)
                continue
            self.redirected.setdefault(delegator, set()).add(subject)
            self._walk(delegator, [Subscribe(subject)])


def assert_capped(driver: SyncBalancedDriver) -> None:
    offenders = driver.balancer.check_caps()
    assert offenders == [], (
        f"cap {driver.balancer.cap} exceeded at {offenders}: "
        f"{[sorted(driver.s_list(n)) for n in offenders]}"
    )


class TestBalancedCapInvariant:
    """The fanout cap holds after *any* interleaving.

    Derandomized: every run draws the same examples, so a failure is a
    regression, never an unlucky seed.
    """

    @given(history(), st.integers(1, 3))
    @settings(max_examples=60, deadline=None, derandomize=True)
    # Interior node 7 (listing [16, 18]) fails; the orphans' refreshes
    # turn into subscribes at node 1, which must split or redirect them
    # rather than list [16, 18, 27] under cap 2.
    @example(
        scenario=(
            31,
            80,
            [
                ("sub", 2609952),
                ("fail", 147),
                ("join-leaf", 0),
                ("sub", 0),
                ("sub", 1),
                ("fail", 19062),
            ],
        ),
        cap=2,
    )
    def test_cap_never_exceeded_under_full_interleaving(self, scenario, cap):
        size, seed, steps = scenario
        tree = random_search_tree(size, 4, np.random.default_rng(seed))
        driver = SyncBalancedDriver(tree, cap)
        next_id = size
        for i in range(len(steps)):
            next_id = _drive(driver, steps[i : i + 1], next_id)
            assert_capped(driver)
            assert_clean(driver, *ACYCLIC)

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "delegation dissolution re-localizes a subject at a delegator "
            "that is already full"
        ),
    )
    def test_dissolution_respects_the_cap(self):
        # Node 1 delegates a subject, fills up again, and then the
        # delegate's dissolution Substitute swaps the subject back into
        # node 1's own list: it ends listing [8, 9, 13] under cap 2.
        tree = random_search_tree(20, 4, np.random.default_rng(1590))
        driver = SyncBalancedDriver(tree, cap=2)
        steps = [
            ("sub", 5),
            ("sub", 68),
            ("sub", 1853),
            ("sub", 1),
            ("unsub", 14359749),
        ]
        next_id = 20
        for i in range(len(steps)):
            next_id = _drive(driver, steps[i : i + 1], next_id)
            assert_capped(driver)

    @pytest.mark.xfail(
        strict=True,
        reason="pushes survive after every interested node unsubscribed",
    )
    def test_pushes_stop_after_total_drain(self):
        # Churn-free, cap 1: once every subscriber has left, a vestigial
        # relay entry still routes pushes to node 16.
        tree = random_search_tree(18, 4, np.random.default_rng(0))
        driver = SyncBalancedDriver(tree, cap=1)
        _drive(driver, [("sub", 3272), ("sub", 3554), ("sub", 189020)], 18)
        for node in sorted(driver.interested - {tree.root}):
            driver.unsubscribe(node)
        assert driver.balancer.delegated_count() == 0
        assert driver.push_recipients() == set()

    @given(history(), st.integers(1, 3))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_coverage_never_drops_under_churn(self, scenario, cap):
        # Delegator failure may leak an entry at its delegate (decays via
        # leases in the engine), so under churn the assertable direction
        # is: every interested survivor still receives pushes.
        size, seed, steps = scenario
        tree = random_search_tree(size, 4, np.random.default_rng(seed))
        driver = SyncBalancedDriver(tree, cap)
        next_id = size
        for i in range(len(steps)):
            next_id = _drive(driver, steps[i : i + 1], next_id)
            reached = driver.push_recipients()
            missing = driver.interested - {tree.root} - reached
            assert not missing, f"interested but unreached: {sorted(missing)}"

    @given(history(ops=("sub", "unsub")), st.integers(1, 3))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_exact_coverage_churn_free(self, scenario, cap):
        # Without churn there are no delegation leaks: the full exact-
        # coverage oracle must hold after every step, cap included.
        size, seed, steps = scenario
        tree = random_search_tree(size, 4, np.random.default_rng(seed))
        driver = SyncBalancedDriver(tree, cap)
        next_id = size
        for i in range(len(steps)):
            next_id = _drive(driver, steps[i : i + 1], next_id)
            assert_capped(driver)
            assert_clean(driver, *ACYCLIC)
            assert_clean(driver, *EXACT_COVERAGE)

    @given(history(ops=("sub", "unsub")), st.integers(1, 3))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_delegations_drain_with_interest(self, scenario, cap):
        size, seed, steps = scenario
        tree = random_search_tree(size, 4, np.random.default_rng(seed))
        driver = SyncBalancedDriver(tree, cap)
        _drive(driver, steps, size)
        for node in sorted(driver.interested - {tree.root}):
            driver.unsubscribe(node)
        assert driver.balancer.delegated_count() == 0, (
            f"splits survived total drain: "
            f"{ {n: driver.balancer.delegations_of(n) for n in tree.nodes if driver.balancer.delegations_of(n)} }"
        )
        assert driver.push_recipients() == set()
        assert_capped(driver)


class TestBalancedSplitReabsorb:
    """Deterministic split / reabsorb mechanics on a star topology."""

    def star(self, children: int = 6) -> SearchTree:
        # root(1) -> hub(2) -> leaves 3..(2 + children)
        tree = SearchTree(root=1)
        tree.add_leaf(1, 2)
        for leaf in range(3, 3 + children):
            tree.add_leaf(2, leaf)
        return tree

    def test_split_promotes_best_ranked_entry(self):
        driver = SyncBalancedDriver(self.star(), cap=3)
        for leaf in (3, 4, 5):
            driver.subscribe(leaf)
        assert driver.s_list(2) == {3, 4, 5}
        driver.subscribe(6)
        # Hub 2 is capped; entry 3 has the least (fanout, id) rank.
        assert driver.balancer.delegate_for(2, 6) == 3
        assert driver.s_list(3) == {3, 6}
        assert driver.balancer.fanout(2) == 3
        assert driver.balancer.splits == 1
        assert driver.rejections == 0
        # Round-robin by load: the next splits land on 4 then 5.
        driver.subscribe(7)
        driver.subscribe(8)
        assert driver.balancer.delegate_for(2, 7) == 4
        assert driver.balancer.delegate_for(2, 8) == 5
        assert_capped(driver)
        assert_clean(driver, *ACYCLIC)
        assert_clean(driver, *EXACT_COVERAGE)

    def test_reabsorbed_when_load_drains(self):
        driver = SyncBalancedDriver(self.star(), cap=2)
        for leaf in (3, 4, 5, 6):
            driver.subscribe(leaf)
        assert driver.balancer.delegated_count() == 2
        # Draining the hub's direct entries pulls the delegated subjects
        # back in; the splits dissolve.
        driver.unsubscribe(3)
        driver.unsubscribe(5)
        driver.unsubscribe(4)
        assert driver.balancer.reabsorbed >= 1
        assert driver.balancer.delegated_count() == 0
        assert driver.push_recipients() >= {6}
        assert_capped(driver)
        assert_clean(driver, *EXACT_COVERAGE)
        driver.unsubscribe(6)
        assert driver.push_recipients() == set()

    def test_refusal_fallback_when_no_candidate(self):
        driver = SyncBalancedDriver(self.star(), cap=1)
        driver.subscribe(3)
        driver.subscribe(4)  # split: 3 takes 4
        assert driver.balancer.delegate_for(2, 4) == 3
        driver.subscribe(5)  # 3 is itself capped now: PR-7 refusal
        assert driver.rejections == 1
        assert 5 in driver.redirected.get(2, set())
        # The redirect lands the subject at the root, coverage intact.
        assert driver.s_list(1) >= {5}
        assert driver.push_recipients() >= {3, 4, 5}
        assert_capped(driver)

    def test_delegate_failure_rehomes_orphans(self):
        driver = SyncBalancedDriver(self.star(), cap=2)
        for leaf in (3, 4, 5, 6):
            driver.subscribe(leaf)
        delegate = driver.balancer.delegate_for(2, 5)
        assert delegate is not None
        driver.fail(delegate)
        assert driver.balancer.delegated_count() <= 2
        reached = driver.push_recipients()
        missing = driver.interested - {1} - reached
        assert not missing, f"orphans lost after delegate death: {missing}"
        assert_capped(driver)
        assert_clean(driver, *ACYCLIC)


class TestFailureRepair:
    @given(st.integers(0, 2**31), st.integers(6, 28))
    @settings(max_examples=80, deadline=None)
    def test_interior_crash_is_repairable(self, seed, size):
        rng = np.random.default_rng(seed)
        tree = random_search_tree(size, 4, rng)
        driver = SyncDupDriver(tree)
        non_root = [n for n in tree.nodes if n != tree.root]
        for node in non_root[:: max(1, len(non_root) // 5)]:
            driver.subscribe(node)
        # Crash one subscribed or forwarding node, repair, re-check.
        candidates = [
            n
            for n in non_root
            if driver.protocol.is_subscribed(n)
            or driver.protocol.in_dup_tree(n)
        ]
        if len(candidates) < 2:
            return
        victim = candidates[int(rng.integers(len(candidates)))]
        driver.fail(victim)
        assert_clean(driver)
        # Survivors keep receiving pushes without any extra repair step.
        assert driver.interested - {tree.root} <= driver.push_recipients()
