"""Property-based tests: the DUP invariants survive arbitrary histories.

Hypothesis drives random trees through random interleavings of
subscribe / unsubscribe / join / leave / fail operations (executed
synchronously, i.e. quiescently), then asks the one invariant oracle,
:func:`repro.core.tree_state.violations`, for what is wrong: every
interested node is subscribed and push-reachable, lists are
branch-unique and local, the virtual paths are continuous and pushes
reach nobody who neither wants nor forwards them.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology import random_search_tree

from tests.conftest import EXACT_COVERAGE, SyncDupDriver, assert_clean


@st.composite
def interest_scenario(draw):
    """A tree plus a sequence of subscribe/unsubscribe operations."""
    size = draw(st.integers(2, 40))
    seed = draw(st.integers(0, 2**31))
    steps = draw(
        st.lists(
            st.tuples(st.booleans(), st.integers(0, 2**31)),
            min_size=1,
            max_size=40,
        )
    )
    return size, seed, steps


@st.composite
def churn_scenario(draw):
    """A tree plus interleaved interest and churn operations."""
    size = draw(st.integers(4, 30))
    seed = draw(st.integers(0, 2**31))
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["sub", "unsub", "join-edge", "join-leaf", "leave", "fail"]
                ),
                st.integers(0, 2**31),
            ),
            min_size=1,
            max_size=30,
        )
    )
    return size, seed, steps


def drive_interest(tree, steps, after_step=lambda driver: None):
    """Apply subscribe/unsubscribe steps, calling ``after_step`` after each."""
    driver = SyncDupDriver(tree)
    non_root = [n for n in tree.nodes if n != tree.root]
    for subscribe, step_seed in steps:
        rng = np.random.default_rng(step_seed)
        node = non_root[int(rng.integers(len(non_root)))]
        if subscribe:
            driver.subscribe(node)
        else:
            driver.unsubscribe(node)
        after_step(driver)
    return driver


def drive_churn(tree, size, steps, after_step):
    """Apply interest and churn steps, calling ``after_step`` after each."""
    driver = SyncDupDriver(tree)
    next_id = size
    for kind, step_seed in steps:
        rng = np.random.default_rng(step_seed)
        non_root = [n for n in tree.nodes if n != tree.root]
        if kind == "sub" and non_root:
            driver.subscribe(non_root[int(rng.integers(len(non_root)))])
        elif kind == "unsub" and non_root:
            driver.unsubscribe(non_root[int(rng.integers(len(non_root)))])
        elif kind == "join-edge" and non_root:
            lower = non_root[int(rng.integers(len(non_root)))]
            driver.join_edge(next_id, tree.parent(lower), lower)
            next_id += 1
        elif kind == "join-leaf":
            nodes = list(tree.nodes)
            driver.join_leaf(nodes[int(rng.integers(len(nodes)))], next_id)
            next_id += 1
        elif kind == "leave" and len(non_root) > 1:
            driver.leave(non_root[int(rng.integers(len(non_root)))])
        elif kind == "fail" and len(non_root) > 1:
            driver.fail(non_root[int(rng.integers(len(non_root)))])
        after_step(driver)


class TestInterestProperties:
    @given(interest_scenario())
    @settings(max_examples=120, deadline=None)
    def test_invariants_after_every_step(self, scenario):
        size, seed, steps = scenario
        tree = random_search_tree(size, 4, np.random.default_rng(seed))
        drive_interest(tree, steps, assert_clean)

    @given(interest_scenario())
    @settings(max_examples=60, deadline=None)
    def test_push_reaches_exactly_interested_plus_junctions(self, scenario):
        size, seed, steps = scenario
        tree = random_search_tree(size, 4, np.random.default_rng(seed))
        driver = drive_interest(tree, steps)
        # Everyone interested gets the push, and everyone else receiving
        # it forwards it (DUP-tree interior).
        assert_clean(driver, *EXACT_COVERAGE)

    @given(interest_scenario())
    @settings(max_examples=60, deadline=None)
    def test_subscriber_lists_bounded_by_degree(self, scenario):
        size, seed, steps = scenario
        tree = random_search_tree(size, 4, np.random.default_rng(seed))

        def bounded(driver):
            for member in tree.nodes:
                assert (
                    len(driver.s_list(member)) <= tree.degree(member) + 1
                )

        drive_interest(tree, steps, bounded)

    @given(interest_scenario())
    @settings(max_examples=40, deadline=None)
    def test_unsubscribing_everyone_resets_state(self, scenario):
        size, seed, steps = scenario
        tree = random_search_tree(size, 4, np.random.default_rng(seed))
        driver = drive_interest(tree, steps)
        for node in list(driver.interested):
            driver.unsubscribe(node)
        assert driver.push_recipients() == set()
        for node in tree.nodes:
            assert driver.s_list(node) == set()


class TestChurnProperties:
    @given(churn_scenario())
    @settings(max_examples=120, deadline=None)
    def test_invariants_survive_churn(self, scenario):
        size, seed, steps = scenario
        tree = random_search_tree(size, 4, np.random.default_rng(seed))

        def valid(driver):
            tree.validate()
            assert_clean(driver)

        drive_churn(tree, size, steps, valid)

    @given(churn_scenario())
    @settings(max_examples=60, deadline=None)
    def test_interested_survivors_always_reachable(self, scenario):
        size, seed, steps = scenario
        tree = random_search_tree(size, 4, np.random.default_rng(seed))

        def reachable(driver):
            recipients = driver.push_recipients()
            assert driver.interested - {tree.root} <= recipients

        drive_churn(tree, size, steps, reachable)
