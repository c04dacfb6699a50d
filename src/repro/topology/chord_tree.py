"""Deriving an index search tree from Chord lookup routes.

For a fixed key, every node's Chord lookup route is determined by the
*next-hop* function, which depends only on the current node and the key.
Following next hops therefore induces a functional graph whose sinks all
reach the key's owner — i.e. a tree rooted at the authority node.  This is
exactly the paper's "index search tree" for structured overlays.

The resulting trees are used as an alternative topology source for the
experiments (`topology="chord"`), validating that DUP's advantage does not
depend on the synthetic uniform-child-count generator.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional

from repro.errors import NodeNotFoundError
from repro.topology.chord import ChordRing
from repro.topology.tree import SearchTree


def chord_search_tree(ring: ChordRing, key: int) -> SearchTree:
    """Build the index search tree for ``key`` over a Chord ring.

    Every node's parent is its next hop toward ``key``
    (``ring.next_hop``, the relation :class:`LazyChordTree` evaluates on
    demand); the owner ``ring.successor(key)`` is the root / authority
    node.  The tree lists its nodes, and each node's children, in ring
    order.
    """
    next_hop = ring.next_hop
    return SearchTree.from_parents(
        ring.successor(key), {node: next_hop(node, key) for node in ring}
    )


class LazyChordTree:
    """The search tree of a key, one parent at a time, with no state.

    :func:`chord_search_tree` asks every node for its next hop up
    front — an n-entry dict *per key*, which at 10^5 nodes x 10^3 keys
    is minutes of setup and hundreds of MB for edges that mostly never
    carry a message.  This view derives the identical tree on the fly:
    ``parent(node)`` is ``ring.next_hop(node, key)`` (the defining edge
    relation of the eager builder), recomputed from the two ids at every
    call, so setup is O(1) and no parent pointer is ever stored.

    A parent is a pure function of ``(node, key)`` on a static ring (the
    scale tier runs without churn): two ids and one binary search, cheaper
    than a memo that a Zipf workload over 10^4 nodes almost never hits.
    Only the read interface the query/dissemination path needs is
    provided — mutators live on :class:`SearchTree`.
    """

    __slots__ = (
        "_ring",
        "_ids",
        "_members",
        "_modulus",
        "_key",
        "_root",
        "_last",
        "_evaluations",
        "_depth",
        "_eager",
    )

    def __init__(self, ring: ChordRing, key: int):
        self._ring = ring
        # The ring's own id tuple and frozenset, shared by every key's
        # tree: one C probe per ``node in tree`` or per rejected parent.
        self._ids = ids = ring.node_ids
        self._members = ring.members
        self._modulus = modulus = 1 << ring.bits
        self._key = key
        # The owner and the last id before the key: every next hop toward
        # the key is routed against these two, so they are found once.
        index = bisect_left(ids, key % modulus)
        self._root = ids[index] if index < len(ids) else ids[0]
        self._last = ids[index - 1]
        self._evaluations = 0
        self._depth: dict[int, int] = {self._root: 0}
        self._eager: Optional[SearchTree] = None

    @property
    def root(self) -> int:
        """The authority node: owner of the key on the ring."""
        return self._root

    @property
    def key(self) -> int:
        """The key whose search tree this is."""
        return self._key

    def __contains__(self, node: int) -> bool:
        return node in self._members

    def __len__(self) -> int:
        return len(self._ring)

    def parent(self, node: int) -> Optional[int]:
        """Next hop toward the authority (``None`` at the root).

        ``ring.next_hop(node, key)`` in one frame: the key's owner and
        last preceding id come from ``__init__``, and the finger search
        (:meth:`ChordRing._finger_toward`) is inlined.
        """
        if node not in self._members:
            raise NodeNotFoundError(f"node {node} not on the ring")
        self._evaluations += 1
        root = self._root
        if node == root:
            return None
        last = self._last
        if last == node:
            # The key lies in (node, successor]: the successor owns it.
            return root
        # The highest finger not past ``last``: successor(node + 2**k)
        # with 2**k the largest power of two within dist(node, last).
        modulus = self._modulus
        ids = self._ids
        index = bisect_left(
            ids,
            (node + (1 << (((last - node) % modulus).bit_length() - 1)))
            % modulus,
        )
        return ids[index] if index < len(ids) else ids[0]

    def depth(self, node: int) -> int:
        """Hops from ``node`` to the root along next-hop pointers."""
        memo = self._depth
        trail = []
        current = node
        while current not in memo:
            trail.append(current)
            current = self.parent(current)
        depth = memo[current]
        for hop in reversed(trail):
            depth += 1
            memo[hop] = depth
        return memo[node]

    def path_to_root(self, node: int) -> list[int]:
        """Nodes from ``node`` (inclusive) up to the root (inclusive)."""
        path = [node]
        parent = self.parent(node)
        while parent is not None:
            path.append(parent)
            parent = self.parent(parent)
        return path

    def children(self, node: int) -> tuple[int, ...]:
        """Nodes whose next hop is ``node``.

        Parents are one ``next_hop`` away, children are not: the first
        call materializes the eager tree once and answers from it.  Only
        ``push-all``, which floods every edge anyway, asks.
        """
        if self._eager is None:
            self._eager = self.materialize()
        return self._eager.children(node)

    @property
    def touched(self) -> int:
        """Parent evaluations so far (rejected non-members excluded)."""
        return self._evaluations

    def materialize(self) -> SearchTree:
        """The full eager tree (tests compare it edge-for-edge)."""
        return chord_search_tree(self._ring, self._key)

    def __repr__(self) -> str:
        return (
            f"LazyChordTree(key={self._key}, root={self._root}, "
            f"touched={self._evaluations})"
        )
