"""Tests of the analytical cost and interest models.

The headline test class cross-validates the closed forms against the
actual protocol implementation: for random trees and random subscriber
sets, the Figure-3 state machine must build exactly the contracted
Steiner tree the analysis predicts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    cup_push_cost,
    dup_push_cost,
    dup_tree_nodes,
    expected_interested,
    pcx_refetch_cost,
    push_savings,
)
from repro.analysis.interest_model import (
    interested_rank_cutoff,
    zipf_probabilities,
)
from repro.errors import ConfigError, TopologyError
from repro.topology import SearchTree, random_search_tree

from tests.conftest import SyncDupDriver


def figure2_tree():
    tree = SearchTree(root=1)
    for parent, child in [(1, 2), (2, 3), (3, 4), (3, 5), (5, 6), (6, 7), (6, 8)]:
        tree.add_leaf(parent, child)
    return tree


class TestPaperExamples:
    """The exact numbers from the paper's Figures 1 and 2."""

    def test_figure2a_single_subscriber(self):
        tree = figure2_tree()
        savings = push_savings(tree, [6])
        # N6 at depth 4: PCX pays 8 ("it costs eight hops for N6 to send
        # the request and get the index from N1"); DUP pushes once.
        assert savings.pcx_hops == 8
        assert savings.dup_hops == 1
        assert savings.dup_saving == pytest.approx(0.875)  # "87.5%"
        assert savings.cup_hops == 4  # the path N1..N6

    def test_figure2b_two_subscribers(self):
        tree = figure2_tree()
        # "this scheme only costs three hops while PCX costs ten hops and
        # CUP costs five hops to serve N4's and N6's queries."
        assert dup_push_cost(tree, [4, 6]) == 3
        assert pcx_refetch_cost(tree, [4, 6]) == 14  # 2*(3+4) round trips
        assert cup_push_cost(tree, [4, 6]) == 5

    def test_figure2c_after_unsubscribe(self):
        tree = figure2_tree()
        assert dup_push_cost(tree, [4]) == 1
        assert dup_tree_nodes(tree, [4]) == {4}

    def test_junctions_included(self):
        tree = figure2_tree()
        # N4 and N6 meet at N3 (a non-subscriber junction).
        assert dup_tree_nodes(tree, [4, 6]) == {3, 4, 6}

    def test_root_subscription_is_free(self):
        tree = figure2_tree()
        assert dup_push_cost(tree, [1]) == 0
        assert pcx_refetch_cost(tree, [1]) == 0

    def test_unknown_subscriber_rejected(self):
        with pytest.raises(TopologyError):
            dup_push_cost(figure2_tree(), [99])


class TestAgainstProtocol:
    """The closed form equals the Figure-3 implementation's push cost."""

    @given(
        st.integers(3, 40),
        st.integers(0, 2**31),
        st.sets(st.integers(1, 39), min_size=1, max_size=12),
    )
    @settings(max_examples=100, deadline=None)
    def test_dup_tree_matches_protocol(self, n, seed, raw_subscribers):
        tree = random_search_tree(n, 4, np.random.default_rng(seed))
        subscribers = {node for node in raw_subscribers if 0 < node < n}
        if not subscribers:
            return
        driver = SyncDupDriver(tree)
        for node in subscribers:
            driver.subscribe(node)
        assert driver.push_hops() == dup_push_cost(tree, subscribers)
        recipients = driver.push_recipients()
        assert recipients == dup_tree_nodes(tree, subscribers)

    @given(
        st.integers(3, 40),
        st.integers(0, 2**31),
        st.sets(st.integers(1, 39), min_size=1, max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_dup_never_costs_more_than_cup(self, n, seed, raw_subscribers):
        tree = random_search_tree(n, 4, np.random.default_rng(seed))
        subscribers = {node for node in raw_subscribers if 0 < node < n}
        if not subscribers:
            return
        assert dup_push_cost(tree, subscribers) <= cup_push_cost(
            tree, subscribers
        )
        assert cup_push_cost(tree, subscribers) <= pcx_refetch_cost(
            tree, subscribers
        )


class TestInterestModel:
    def test_zipf_probabilities_normalized(self):
        probabilities = zipf_probabilities(100, 0.95)
        assert sum(probabilities) == pytest.approx(1.0)
        assert probabilities == sorted(probabilities, reverse=True)

    def test_expected_interested_monotone_in_rate(self):
        low = expected_interested(512, 0.95, rate=1.0, ttl=3600, threshold_c=6)
        high = expected_interested(512, 0.95, rate=10.0, ttl=3600, threshold_c=6)
        assert high > low

    def test_expected_interested_monotone_in_threshold(self):
        loose = expected_interested(512, 0.95, 5.0, 3600, threshold_c=2)
        strict = expected_interested(512, 0.95, 5.0, 3600, threshold_c=10)
        assert loose > strict

    def test_saturation_at_high_rate(self):
        almost_all = expected_interested(64, 0.5, 100.0, 3600, 6)
        assert almost_all == pytest.approx(63, abs=1.5)  # root excluded? all ranks

    def test_expected_interested_is_plain_float(self):
        value = expected_interested(4096, 0.95, 1.0, 3600, threshold_c=6)
        assert type(value) is float
        assert 0.0 < value < 4096.0

    def test_rank_cutoff_scaling(self):
        few = interested_rank_cutoff(4096, 0.95, 1.0, 3600, 6)
        many = interested_rank_cutoff(4096, 0.95, 10.0, 3600, 6)
        assert 0 < few < many <= 4096

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            expected_interested(0, 1.0, 1.0, 3600, 6)
        with pytest.raises(ConfigError):
            expected_interested(10, -1.0, 1.0, 3600, 6)
        with pytest.raises(ConfigError):
            expected_interested(10, 1.0, 0.0, 3600, 6)
        with pytest.raises(ConfigError):
            expected_interested(10, 1.0, 1.0, 3600, -1)

    def test_predicts_simulated_subscriber_count(self):
        # The model should land within a factor ~2 of the simulation
        # (it ignores forwarded queries and threshold flapping).
        from repro.engine import SimulationConfig, run_simulation

        config = SimulationConfig(
            scheme="dup",
            num_nodes=256,
            query_rate=5.0,
            duration=3600.0 * 5,
            warmup=3600.0 * 2,
            seed=4,
        )
        result = run_simulation(config)
        simulated = result.extras["subscribed"]
        predicted = expected_interested(
            n=255,  # the root does not query
            theta=config.zipf_theta,
            rate=config.query_rate,
            ttl=config.ttl,
            threshold_c=config.threshold_c,
        )
        assert predicted / 2 <= simulated <= predicted * 2
