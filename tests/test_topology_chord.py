"""Unit and property tests for the Chord ring and derived search trees."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NodeNotFoundError, TopologyError
from repro.topology import ChordRing, chord_search_tree
from repro.topology.chord_tree import LazyChordTree


# -- reference routing: Chord by its definition ------------------------------
# ``ChordRing`` routes in closed form and stores no finger table.  This is
# the rule it must reproduce: finger k of a node is successor(node + 2**k);
# a lookup scans the table from the top for the first finger inside
# (node, key - 1] and falls back to the successor.


def _in_interval(value: int, low: int, high: int, modulus: int) -> bool:
    """Whether ``value`` is in the circular interval ``(low, high]``."""
    low %= modulus
    high %= modulus
    value %= modulus
    if low < high:
        return low < value <= high
    if low > high:
        return value > low or value <= high
    # low == high: the interval covers the whole circle.
    return True


class ReferenceRing:
    """Finger-table Chord over explicit per-node tables."""

    def __init__(self, node_ids, bits):
        self.ids = sorted(set(node_ids))
        self.modulus = 1 << bits
        self.fingers = {
            node: [
                self.successor((node + (1 << k)) % self.modulus)
                for k in range(bits)
            ]
            for node in self.ids
        }

    def successor(self, key):
        key %= self.modulus
        return next((node for node in self.ids if node >= key), self.ids[0])

    def closest_preceding_finger(self, node, key):
        for finger in reversed(self.fingers[node]):
            if finger != node and _in_interval(
                finger, node, key - 1, self.modulus
            ):
                return finger
        return node

    def next_hop(self, node, key):
        if node == self.successor(key):
            return None
        successor = self.fingers[node][0]
        if _in_interval(key, node, successor, self.modulus):
            return successor
        finger = self.closest_preceding_finger(node, key)
        return successor if finger == node else finger

    def lookup_path(self, start, key):
        path = [start]
        while (hop := self.next_hop(path[-1], key)) is not None:
            assert len(path) <= len(self.ids), "reference lookup loops"
            path.append(hop)
        return path


@st.composite
def rings(draw):
    """``(bits, ids)``: 1-12 bits, 1-40 distinct ids, often adjacent."""
    bits = draw(st.integers(1, 12))
    modulus = 1 << bits
    ids = draw(
        st.sets(
            st.integers(0, modulus - 1),
            min_size=1,
            max_size=min(40, modulus),
        )
    )
    # Runs of adjacent ids and both ends of the circle are where the
    # interval arithmetic can go wrong; plain uniform sets rarely have them.
    if draw(st.booleans()):
        anchor = draw(st.sampled_from(sorted(ids)))
        ids |= {(anchor + 1) % modulus, (anchor - 1) % modulus}
    if draw(st.booleans()):
        ids |= {0, modulus - 1}
    return bits, sorted(ids)[:40]


class TestIntervals:
    def test_plain_interval(self):
        assert _in_interval(5, 3, 8, 16)
        assert _in_interval(8, 3, 8, 16)
        assert not _in_interval(3, 3, 8, 16)
        assert not _in_interval(9, 3, 8, 16)

    def test_wrapping_interval(self):
        assert _in_interval(15, 12, 4, 16)
        assert _in_interval(2, 12, 4, 16)
        assert not _in_interval(8, 12, 4, 16)

    def test_full_circle(self):
        assert _in_interval(7, 5, 5, 16)


class TestChordRing:
    def test_successor_wraps(self):
        ring = ChordRing([2, 8, 14], bits=4)
        assert ring.successor(3) == 8
        assert ring.successor(8) == 8
        assert ring.successor(15) == 2  # wraps past the top

    def test_predecessor(self):
        ring = ChordRing([2, 8, 14], bits=4)
        assert ring.predecessor(8) == 2
        assert ring.predecessor(2) == 14

    def test_finger_table_definition(self):
        ring = ChordRing([2, 8, 14], bits=4)
        fingers = ring.finger_table(2)
        expected = [ring.successor((2 + 2**k) % 16) for k in range(4)]
        assert list(fingers) == expected

    def test_single_node_ring(self):
        ring = ChordRing([5], bits=4)
        assert ring.successor(0) == 5
        assert ring.lookup_path(5, 11) == [5]

    def test_lookup_reaches_owner(self):
        ring = ChordRing.random(64, np.random.default_rng(0), bits=16)
        for key in (0, 1234, 65535, 40000):
            path = ring.lookup_path(ring.node_ids[0], key)
            assert path[-1] == ring.successor(key)

    def test_lookup_is_logarithmic(self):
        rng = np.random.default_rng(1)
        ring = ChordRing.random(256, rng, bits=32)
        lengths = [
            ring.path_length(int(start), int(rng.integers(0, 1 << 32)))
            for start in rng.choice(ring.node_ids, size=50)
        ]
        # O(log n): 256 nodes -> expect ~8 hops, allow generous slack.
        assert max(lengths) <= 2 * 8 + 4

    def test_duplicate_ids_collapse(self):
        ring = ChordRing([3, 3, 9], bits=4)
        assert len(ring) == 2

    def test_invalid_ids_rejected(self):
        with pytest.raises(TopologyError):
            ChordRing([17], bits=4)
        with pytest.raises(TopologyError):
            ChordRing([], bits=4)

    def test_unknown_node_rejected(self):
        ring = ChordRing([2, 8], bits=4)
        with pytest.raises(NodeNotFoundError):
            ring.lookup_path(5, 0)

    def test_random_ring_distinct_ids(self):
        ring = ChordRing.random(100, np.random.default_rng(3), bits=16)
        assert len(ring) == 100

    def test_random_too_many_nodes_rejected(self):
        with pytest.raises(TopologyError):
            ChordRing.random(20, np.random.default_rng(0), bits=4)


class TestRoutingOracle:
    """Closed-form routing against the finger-table definition."""

    @given(rings(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_finger_table_definition(self, ring_spec, data):
        bits, ids = ring_spec
        modulus = 1 << bits
        ring = ChordRing(ids, bits=bits)
        reference = ReferenceRing(ids, bits)
        assert ring.node_ids == tuple(reference.ids)
        drawn = data.draw(
            st.lists(st.integers(-modulus, 2 * modulus), max_size=8)
        )
        for node in ids:
            assert list(ring.finger_table(node)) == reference.fingers[node]
            keys = {node - 1, node, node + 1, 0, modulus - 1, modulus}
            keys.update(drawn)
            # Every id and its two neighbours: owner boundaries.
            for other in ids:
                keys.update((other - 1, other, other + 1))
            for key in keys:
                assert ring.next_hop(node, key) == reference.next_hop(
                    node, key
                ), (node, key)
                assert ring.closest_preceding_finger(
                    node, key
                ) == reference.closest_preceding_finger(node, key), (node, key)
        for key in drawn:
            assert ring.successor(key) == reference.successor(key)
            assert ring.lookup_path(ids[0], key) == reference.lookup_path(
                ids[0], key
            )

    @given(rings())
    @settings(max_examples=50, deadline=None)
    def test_non_member_still_rejected(self, ring_spec):
        bits, ids = ring_spec
        ring = ChordRing(ids, bits=bits)
        outsiders = [
            node for node in range(-1, (1 << bits) + 1) if node not in ids
        ][:5]
        for node in outsiders:
            assert node not in ring
            for call in (
                lambda: ring.next_hop(node, 0),
                lambda: ring.closest_preceding_finger(node, 0),
                lambda: ring.finger_table(node),
                lambda: ring.lookup_path(node, 0),
                lambda: ring.predecessor(node),
            ):
                with pytest.raises(NodeNotFoundError):
                    call()

    def test_one_node_ring_owns_everything(self):
        ring = ChordRing([5], bits=4)
        for key in range(-1, 18):
            assert ring.next_hop(5, key) is None
            assert ring.closest_preceding_finger(5, key) == 5
        assert ring.finger_table(5) == (5, 5, 5, 5)

    def test_wrap_past_zero(self):
        ring = ChordRing([1, 14], bits=4)
        # Key 0 is owned by 1; from 14 the route wraps past the top.
        assert ring.next_hop(14, 0) == 1
        assert ring.next_hop(1, 0) is None
        assert ring.lookup_path(14, 15) == [14, 1]
        assert ring.lookup_path(1, 2) == [1, 14]
        assert ring.closest_preceding_finger(14, 1) == 14


class TestRingState:
    """The ring keeps ids only: no per-node routing state."""

    def test_ring_build_allocates_no_finger_matrix(self):
        # A 32768 x 32 int64 finger matrix alone is 8 MiB and its
        # construction peaked at 36 MiB; ids, set and draws stay far below.
        rng = np.random.default_rng(7)
        tracemalloc.start()
        try:
            ring = ChordRing.random(32768, rng, bits=32)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ring) == 32768
        assert peak < 12 * 2**20, f"ring build peaked at {peak / 2**20:.1f} MiB"

    def test_routing_leaves_no_state_behind(self):
        ring = ChordRing.random(512, np.random.default_rng(8), bits=32)
        before = {
            name: len(value)
            for name, value in vars(ring).items()
            if hasattr(value, "__len__")
        }
        for node in ring.node_ids[:64]:
            ring.finger_table(node)
            ring.lookup_path(node, 123456789)
        after = {
            name: len(value)
            for name, value in vars(ring).items()
            if hasattr(value, "__len__")
        }
        assert before == after

    def test_node_ids_is_built_once(self):
        ring = ChordRing([9, 2, 14], bits=4)
        assert ring.node_ids == (2, 9, 14)
        assert ring.node_ids is ring.node_ids

    def test_integer_array_ids_accepted(self):
        ring = ChordRing(np.array([9, 2, 14, 9], dtype=np.int64), bits=4)
        assert ring.node_ids == (2, 9, 14)
        assert all(type(node) is int for node in ring.node_ids)

    @given(
        st.lists(st.integers(0, 255), min_size=1, max_size=60),
        st.sampled_from([np.int64, np.int32, np.uint8]),
    )
    @settings(max_examples=60, deadline=None)
    def test_integer_array_ids_sorted_and_deduplicated(self, ids, dtype):
        # Unsorted, repeated and 2-D input all reduce to the same ring.
        flat = ChordRing(np.array(ids, dtype=dtype), bits=8)
        square = ChordRing(np.array([ids, ids[::-1]], dtype=dtype), bits=8)
        assert flat.node_ids == square.node_ids == tuple(sorted(set(ids)))
        assert flat.members == frozenset(ids)
        assert all(type(node) is int for node in flat.node_ids)

    @given(st.integers(1, 300), st.integers(1, 16), st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_random_takes_first_distinct_draws(self, n, bits, seed):
        n = min(n, 1 << bits)
        ring = ChordRing.random(n, np.random.default_rng(seed), bits=bits)
        # The definition: add draws in order until n distinct ids exist,
        # each round drawing twice what is still missing.
        rng = np.random.default_rng(seed)
        chosen: set[int] = set()
        while len(chosen) < n:
            needed = n - len(chosen)
            for draw in rng.integers(
                0, 1 << bits, size=needed * 2, dtype=np.int64
            ):
                chosen.add(int(draw))
                if len(chosen) == n:
                    break
        assert ring.node_ids == tuple(sorted(chosen))


class TestChordSearchTree:
    def test_tree_spans_ring(self):
        ring = ChordRing.random(128, np.random.default_rng(4), bits=24)
        tree = chord_search_tree(ring, key=12345)
        assert len(tree) == len(ring)
        assert tree.root == ring.successor(12345)
        tree.validate()

    def test_tree_parent_is_next_hop(self):
        ring = ChordRing.random(64, np.random.default_rng(5), bits=20)
        key = 999
        tree = chord_search_tree(ring, key)
        for node in ring:
            if node == tree.root:
                continue
            assert tree.parent(node) == ring.next_hop(node, key)

    def test_tree_paths_match_lookup_paths(self):
        ring = ChordRing.random(64, np.random.default_rng(6), bits=20)
        key = 31337
        tree = chord_search_tree(ring, key)
        for node in list(ring)[:10]:
            assert tree.path_to_root(node) == ring.lookup_path(node, key)

    @given(st.integers(2, 100), st.integers(0, 2**31), st.integers(0, 2**20))
    @settings(max_examples=30, deadline=None)
    def test_tree_always_valid(self, n, seed, key):
        ring = ChordRing.random(n, np.random.default_rng(seed), bits=24)
        tree = chord_search_tree(ring, key)
        tree.validate()
        assert len(tree) == len(ring)


@st.composite
def small_rings(draw):
    """``(bits, ids)``: 6-10 bits, 1-24 distinct ids."""
    bits = draw(st.integers(6, 10))
    ids = draw(
        st.sets(st.integers(0, (1 << bits) - 1), min_size=1, max_size=24)
    )
    return bits, sorted(ids)


class TestLazyChordTree:
    def test_matches_eager_construction(self):
        ring = ChordRing.random(200, np.random.default_rng(9), bits=16)
        for key in (3, 777, 54321):
            eager = chord_search_tree(ring, key)
            lazy = LazyChordTree(ring, key)
            assert lazy.root == eager.root
            for node in ring.node_ids:
                assert lazy.parent(node) == eager.parent(node)
                assert lazy.depth(node) == eager.depth(node)
                assert lazy.path_to_root(node) == eager.path_to_root(node)

    def test_children_match_eager_construction(self):
        ring = ChordRing.random(200, np.random.default_rng(9), bits=16)
        eager = chord_search_tree(ring, 777)
        lazy = LazyChordTree(ring, 777)
        for node in ring.node_ids:
            assert lazy.children(node) == eager.children(node)

    def test_touched_grows_lazily(self):
        ring = ChordRing.random(200, np.random.default_rng(9), bits=16)
        lazy = LazyChordTree(ring, 777)
        assert lazy.touched == 0
        path = lazy.path_to_root(ring.node_ids[0])
        # One evaluation per node on the path, the root's ``None`` too.
        assert lazy.touched == len(path)
        for node in ring.node_ids:
            lazy.parent(node)
        # No memo: every call is an evaluation, repeats included.
        assert lazy.touched == len(path) + len(ring.node_ids)
        # materialize() hands back the eager tree for full comparison.
        assert lazy.materialize().root == lazy.root

    def test_non_member_is_absent_and_rejected(self):
        ring = ChordRing([2, 8, 14], bits=4)
        lazy = LazyChordTree(ring, 5)
        assert all(node in lazy for node in ring.node_ids)
        for outsider in (-1, 3, 16):
            assert outsider not in lazy
            with pytest.raises(NodeNotFoundError):
                lazy.parent(outsider)
        # A rejected lookup is not an evaluation.
        assert lazy.touched == 0

    def test_membership_probes_the_rings_own_set(self):
        ring = ChordRing([2, 8, 14], bits=4)
        assert ring.members == frozenset(ring.node_ids)
        # Shared by reference: a thousand per-key trees, one set.
        first, second = LazyChordTree(ring, 5), LazyChordTree(ring, 11)
        assert first._members is second._members is ring.members

    @given(small_rings())
    @settings(max_examples=40, deadline=None)
    def test_parent_is_next_hop_for_every_key(self, ring_spec):
        bits, ids = ring_spec
        modulus = 1 << bits
        ring = ChordRing(ids, bits=bits)
        # Every key, the wrapped ends of the circle, the key the lowest
        # id owns by wrapping past the top, and the key one past the
        # highest id (which the lowest id owns too).
        keys = set(range(-1, modulus + 1))
        keys.add(ids[-1] + 1)
        assert ring.successor(ids[-1] + 1) == ids[0]
        for key in keys:
            lazy = LazyChordTree(ring, key)
            assert lazy.root == ring.successor(key)
            for node in ids:
                assert lazy.parent(node) == ring.next_hop(node, key), (
                    node,
                    key,
                )
        outsiders = [node for node in range(modulus) if node not in ids][:3]
        lazy = LazyChordTree(ring, 0)
        for node in outsiders + [-1, modulus]:
            with pytest.raises(NodeNotFoundError):
                lazy.parent(node)
