"""Unit and property tests for the index search tree."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NodeNotFoundError, TopologyError
from repro.topology import (
    SearchTree,
    balanced_tree,
    chain_tree,
    random_search_tree,
    star_tree,
)
from repro.topology.generators import complete_tree


@pytest.fixture
def paper_tree():
    """The tree from the paper's Figure 1/2.

    N1 is the root; N1-N2-N3-{N4, N5-{N6-{N7,N8}}}.
    """
    tree = SearchTree(root=1)
    tree.add_leaf(1, 2)
    tree.add_leaf(2, 3)
    tree.add_leaf(3, 4)
    tree.add_leaf(3, 5)
    tree.add_leaf(5, 6)
    tree.add_leaf(6, 7)
    tree.add_leaf(6, 8)
    return tree


class TestConstruction:
    def test_single_node(self):
        tree = SearchTree(root=0)
        assert tree.root == 0
        assert len(tree) == 1
        assert tree.is_leaf(0)
        tree.validate()

    def test_add_leaf(self, paper_tree):
        assert paper_tree.parent(6) == 5
        assert paper_tree.children(6) == (7, 8)
        paper_tree.validate()

    def test_duplicate_node_rejected(self, paper_tree):
        with pytest.raises(TopologyError):
            paper_tree.add_leaf(1, 3)

    def test_missing_parent_rejected(self, paper_tree):
        with pytest.raises(NodeNotFoundError):
            paper_tree.add_leaf(99, 100)


class TestQueries:
    def test_path_to_root(self, paper_tree):
        assert paper_tree.path_to_root(6) == [6, 5, 3, 2, 1]
        assert paper_tree.path_to_root(1) == [1]

    def test_depth(self, paper_tree):
        assert paper_tree.depth(1) == 0
        assert paper_tree.depth(6) == 4
        assert paper_tree.depth(8) == 5

    def test_lca(self, paper_tree):
        assert paper_tree.lca(4, 6) == 3
        assert paper_tree.lca(7, 8) == 6
        assert paper_tree.lca(4, 4) == 4
        assert paper_tree.lca(1, 8) == 1

    def test_distance(self, paper_tree):
        assert paper_tree.distance(4, 6) == 3
        assert paper_tree.distance(7, 8) == 2
        assert paper_tree.distance(1, 6) == 4
        assert paper_tree.distance(5, 5) == 0

    def test_on_path_to_root(self, paper_tree):
        assert paper_tree.on_path_to_root(6, 3)
        assert paper_tree.on_path_to_root(6, 6)
        assert not paper_tree.on_path_to_root(6, 4)

    def test_child_branch(self, paper_tree):
        assert paper_tree.child_branch(3, 6) == 5
        assert paper_tree.child_branch(3, 4) == 4
        assert paper_tree.child_branch(1, 8) == 2

    def test_child_branch_non_descendant_rejected(self, paper_tree):
        with pytest.raises(TopologyError):
            paper_tree.child_branch(6, 4)
        with pytest.raises(TopologyError):
            paper_tree.child_branch(6, 6)

    def test_descendants_and_subtree_size(self, paper_tree):
        assert set(paper_tree.descendants(5)) == {6, 7, 8}
        assert paper_tree.subtree_size(5) == 4
        assert paper_tree.subtree_size(1) == 8

    def test_leaves(self, paper_tree):
        assert set(paper_tree.leaves()) == {4, 7, 8}

    def test_height_and_mean_depth(self, paper_tree):
        assert paper_tree.height() == 5
        depths = [0, 1, 2, 3, 3, 4, 5, 5]
        assert paper_tree.mean_depth() == pytest.approx(sum(depths) / 8)


class TestMutation:
    def test_insert_on_edge(self, paper_tree):
        # The paper's join example: N3' inserted between N3 and N5.
        paper_tree.insert_on_edge(3, 5, 30)
        assert paper_tree.parent(5) == 30
        assert paper_tree.parent(30) == 3
        assert 30 in paper_tree.children(3)
        assert 5 not in paper_tree.children(3)
        paper_tree.validate()

    def test_insert_on_non_edge_rejected(self, paper_tree):
        with pytest.raises(TopologyError):
            paper_tree.insert_on_edge(3, 6, 30)

    def test_remove_leaf(self, paper_tree):
        paper_tree.remove_leaf(4)
        assert 4 not in paper_tree
        assert paper_tree.children(3) == (5,)
        paper_tree.validate()

    def test_remove_non_leaf_rejected(self, paper_tree):
        with pytest.raises(TopologyError):
            paper_tree.remove_leaf(5)

    def test_remove_root_rejected(self, paper_tree):
        with pytest.raises(TopologyError):
            paper_tree.remove_leaf(1)

    def test_splice_out(self, paper_tree):
        absorber = paper_tree.splice_out(5)
        assert absorber == 3
        assert paper_tree.parent(6) == 3
        assert set(paper_tree.children(3)) == {4, 6}
        paper_tree.validate()

    def test_splice_preserves_sibling_position(self, paper_tree):
        paper_tree.splice_out(6)
        assert paper_tree.children(5) == (7, 8)
        paper_tree.validate()

    def test_splice_root_rejected(self, paper_tree):
        with pytest.raises(TopologyError):
            paper_tree.splice_out(1)

    def test_replace_root(self, paper_tree):
        paper_tree.replace_root(10)
        assert paper_tree.root == 10
        assert paper_tree.parent(2) == 10
        assert 1 not in paper_tree
        paper_tree.validate()

    def test_rename(self, paper_tree):
        paper_tree.rename(5, 50)
        assert paper_tree.parent(6) == 50
        assert paper_tree.parent(50) == 3
        assert 5 not in paper_tree
        paper_tree.validate()

    def test_rename_root(self, paper_tree):
        paper_tree.rename(1, 11)
        assert paper_tree.root == 11
        paper_tree.validate()


class TestGenerators:
    def test_random_tree_size_and_root(self):
        rng = np.random.default_rng(0)
        tree = random_search_tree(100, max_degree=4, rng=rng)
        assert len(tree) == 100
        assert tree.root == 0
        tree.validate()

    def test_random_tree_degree_bound(self):
        rng = np.random.default_rng(1)
        tree = random_search_tree(500, max_degree=3, rng=rng)
        assert all(tree.degree(node) <= 3 for node in tree.nodes)

    def test_random_tree_deterministic_per_seed(self):
        first = random_search_tree(50, 4, np.random.default_rng(7))
        second = random_search_tree(50, 4, np.random.default_rng(7))
        assert all(first.parent(n) == second.parent(n) for n in range(1, 50))

    def test_random_tree_degree_one_is_chain(self):
        rng = np.random.default_rng(2)
        tree = random_search_tree(10, max_degree=1, rng=rng)
        assert tree.height() == 9

    def test_larger_degree_means_shallower_tree(self):
        # The paper's Figure 6 premise.
        rng = np.random.default_rng(3)
        shallow = random_search_tree(1000, 10, rng)
        rng = np.random.default_rng(3)
        deep = random_search_tree(1000, 2, rng)
        assert shallow.mean_depth() < deep.mean_depth()

    def test_invalid_generator_arguments(self):
        rng = np.random.default_rng(0)
        with pytest.raises(TopologyError):
            random_search_tree(0, 4, rng)
        with pytest.raises(TopologyError):
            random_search_tree(10, 0, rng)

    def test_chain_tree(self):
        tree = chain_tree(5)
        assert tree.height() == 4
        assert tree.path_to_root(4) == [4, 3, 2, 1, 0]
        assert tree.version == 4
        tree.validate()

    def test_star_tree(self):
        tree = star_tree(6)
        assert tree.height() == 1
        assert tree.children(0) == (1, 2, 3, 4, 5)
        assert tree.version == 5
        tree.validate()

    def test_balanced_tree(self):
        tree = balanced_tree(depth=3, degree=2)
        assert len(tree) == 15
        assert tree.height() == 3
        tree.validate()

    def test_complete_tree(self):
        tree = complete_tree(10, degree=3)
        assert len(tree) == 10
        assert tree.degree(0) == 3
        assert tree.degree(1) == 3
        tree.validate()


def one_draw_per_parent_tree(n, max_degree, rng):
    """The generator as first written: one scalar draw per popped parent.

    Kept as the reference the block-drawing ``random_search_tree`` must
    reproduce draw for draw.
    """
    tree = SearchTree(root=0)
    next_id = 1
    frontier = deque([0])
    while next_id < n:
        parent = frontier.popleft()
        child_count = int(rng.integers(1, max_degree + 1))
        for _ in range(child_count):
            if next_id >= n:
                break
            tree.add_leaf(parent, next_id)
            frontier.append(next_id)
            next_id += 1
    return tree


def shape(tree):
    """Parent of every node and every child list, in order."""
    return (
        {node: tree.parent(node) for node in tree.nodes},
        {node: tree.children(node) for node in tree.nodes},
    )


class TestBlockDrawnRandomTree:
    """Drawing child counts in blocks changes nothing observable."""

    @given(st.integers(1, 400), st.integers(1, 16), st.integers(0, 2**31))
    @settings(max_examples=200, deadline=None)
    def test_same_tree_and_generator_state_as_scalar_draws(
        self, n, max_degree, seed
    ):
        block_rng = np.random.default_rng(seed)
        scalar_rng = np.random.default_rng(seed)
        tree = random_search_tree(n, max_degree, block_rng)
        reference = one_draw_per_parent_tree(n, max_degree, scalar_rng)
        assert list(tree.nodes) == list(reference.nodes)
        assert shape(tree) == shape(reference)
        assert tree.version == reference.version == n - 1
        assert block_rng.bit_generator.state == scalar_rng.bit_generator.state
        tree.validate()

    def test_paper_sized_trees_match(self):
        # The last case is a star: one draw far above n, no n-sized block.
        for n, max_degree in ((4096, 4), (16384, 4), (2048, 10), (50, 10**12)):
            block_rng = np.random.default_rng(n)
            scalar_rng = np.random.default_rng(n)
            tree = random_search_tree(n, max_degree, block_rng)
            reference = one_draw_per_parent_tree(n, max_degree, scalar_rng)
            assert shape(tree) == shape(reference)
            assert (
                block_rng.bit_generator.state == scalar_rng.bit_generator.state
            )

    def test_single_node_draws_nothing(self):
        rng = np.random.default_rng(5)
        untouched = np.random.default_rng(5).bit_generator.state
        tree = random_search_tree(1, 4, rng)
        assert len(tree) == 1 and tree.version == 0
        assert rng.bit_generator.state == untouched

    def test_last_count_is_truncated_not_redrawn(self):
        n, max_degree, seed = 200, 7, 11
        rng = np.random.default_rng(seed)
        tree = random_search_tree(n, max_degree, rng)
        parents = [node for node in tree.nodes if not tree.is_leaf(node)]
        # Parents are 0..m-1 and took the first m draws, one each.
        assert parents == list(range(len(parents)))
        replay = np.random.default_rng(seed)
        counts = replay.integers(1, max_degree + 1, size=len(parents)).tolist()
        degrees = [tree.degree(node) for node in parents]
        assert degrees[:-1] == counts[:-1]
        assert 1 <= degrees[-1] <= counts[-1]
        assert rng.bit_generator.state == replay.bit_generator.state


@st.composite
def tree_and_block(draw):
    """A random tree, an id gap and a block whose parents are drawn from
    the tree and from the block's own earlier nodes."""
    size = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**31))
    first = size + draw(st.integers(0, 5))
    picks = draw(st.lists(st.integers(0, 2**31), min_size=1, max_size=60))
    existing = list(range(size))
    parents = []
    for index, pick in enumerate(picks):
        pool = existing + list(range(first, first + index))
        parents.append(pool[pick % len(pool)])
    return size, seed, first, parents


def snapshot(tree):
    """Everything ``add_leaves`` promises to keep equal to the loop."""
    return list(tree.nodes), shape(tree), tree.version


class TestAddLeaves:
    """One bulk attach is indistinguishable from an ``add_leaf`` loop."""

    @given(tree_and_block())
    @settings(max_examples=150, deadline=None)
    def test_matches_an_add_leaf_loop(self, scenario):
        size, seed, first, parents = scenario
        bulk = random_search_tree(size, 3, np.random.default_rng(seed))
        loop = random_search_tree(size, 3, np.random.default_rng(seed))
        bulk.depth(size - 1)  # warm the path memo
        before = bulk.version
        bulk.add_leaves(parents, first)
        for node, parent in enumerate(parents, first):
            loop.add_leaf(parent, node)
        assert snapshot(bulk) == snapshot(loop)
        assert bulk.version == before + len(parents)
        assert not bulk._paths
        bulk.validate()
        assert bulk.depth(first) == loop.depth(first)

    @pytest.mark.parametrize(
        "parents, first, error",
        [
            ([1, 99], 10, NodeNotFoundError),  # parent nowhere
            ([1, 12, 1], 10, NodeNotFoundError),  # block node attached later
            ([1, 11], 10, NodeNotFoundError),  # a node as its own parent
            ([1, 2], 8, TopologyError),  # 8 is already in the tree
        ],
    )
    def test_a_bad_block_leaves_the_tree_untouched(
        self, paper_tree, parents, first, error
    ):
        paper_tree.depth(7)  # warm the path memo
        before, memo = snapshot(paper_tree), dict(paper_tree._paths)
        with pytest.raises(TopologyError) as raised:
            paper_tree.add_leaves(parents, first)
        assert type(raised.value) is error
        assert snapshot(paper_tree) == before
        assert paper_tree._paths == memo


class TestDerivedChildren:
    """Child lists are derived from the parent map on first use, and are
    the lists a map kept up to date from the start would hold."""

    def test_building_a_tree_derives_nothing(self):
        tree = random_search_tree(64, 4, np.random.default_rng(2))
        assert tree._children is None
        assert tree.children(tree.root)
        assert tree._children is not None

    @given(tree_and_block())
    @settings(max_examples=100, deadline=None)
    def test_derived_late_equals_kept_from_the_start(self, scenario):
        size, seed, first, parents = scenario
        late = random_search_tree(size, 3, np.random.default_rng(seed))
        kept = random_search_tree(size, 3, np.random.default_rng(seed))
        kept.children(kept.root)
        for tree in (late, kept):
            tree.add_leaves(parents, first)
            tree.add_leaf(parents[0], first + len(parents))
        assert late._children is None
        assert snapshot(late) == snapshot(kept)
        for tree in (late, kept):
            tree.splice_out(first)
            tree.validate()
        assert snapshot(late) == snapshot(kept)


@st.composite
def tree_and_operations(draw):
    """A random tree followed by a random sequence of mutations."""
    size = draw(st.integers(2, 30))
    seed = draw(st.integers(0, 2**31))
    operations = draw(
        st.lists(
            st.tuples(st.sampled_from(["splice", "leaf", "insert", "add"]),
                      st.integers(0, 2**31)),
            max_size=15,
        )
    )
    return size, seed, operations


class TestTreePropertyBased:
    @given(tree_and_operations())
    @settings(max_examples=60, deadline=None)
    def test_invariants_under_random_mutations(self, scenario):
        size, seed, operations = scenario
        rng = np.random.default_rng(seed)
        tree = random_search_tree(size, max_degree=4, rng=rng)
        next_id = size
        for kind, op_seed in operations:
            op_rng = np.random.default_rng(op_seed)
            nodes = [n for n in tree.nodes if n != tree.root]
            if kind == "splice" and nodes:
                victim = nodes[int(op_rng.integers(len(nodes)))]
                tree.splice_out(victim)
            elif kind == "leaf" and nodes:
                leaves = [n for n in nodes if tree.is_leaf(n)]
                if leaves:
                    tree.remove_leaf(leaves[int(op_rng.integers(len(leaves)))])
            elif kind == "insert" and nodes:
                lower = nodes[int(op_rng.integers(len(nodes)))]
                tree.insert_on_edge(tree.parent(lower), lower, next_id)
                next_id += 1
            elif kind == "add":
                all_nodes = list(tree.nodes)
                parent = all_nodes[int(op_rng.integers(len(all_nodes)))]
                tree.add_leaf(parent, next_id)
                next_id += 1
            tree.validate()

    @given(st.integers(2, 200), st.integers(1, 8), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_generated_tree_paths_reach_root(self, n, degree, seed):
        tree = random_search_tree(n, degree, np.random.default_rng(seed))
        tree.validate()
        for node in tree.nodes:
            path = tree.path_to_root(node)
            assert path[0] == node
            assert path[-1] == tree.root
            assert len(path) == tree.depth(node) + 1
