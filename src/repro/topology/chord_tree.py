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

from typing import Optional

from repro.topology.chord import ChordRing
from repro.topology.tree import SearchTree


def chord_search_tree(ring: ChordRing, key: int) -> SearchTree:
    """Build the index search tree for ``key`` over a Chord ring.

    Every node's parent is its next hop toward ``key``
    (``ring.next_hop``, the relation :class:`LazyChordTree` memoizes);
    the owner ``ring.successor(key)`` is the root / authority node.  The
    tree lists its nodes, and each node's children, in ring order.
    """
    next_hop = ring.next_hop
    return SearchTree.from_parents(
        ring.successor(key), {node: next_hop(node, key) for node in ring}
    )


#: Marks "no memo entry" where ``None`` is a legitimate memoized value.
_UNSET = object()


class LazyChordTree:
    """The search tree of a key, materialized one parent at a time.

    :func:`chord_search_tree` asks every node for its next hop up
    front — an n-entry dict *per key*, which at 10^5 nodes x 10^3 keys
    is minutes of setup and hundreds of MB for edges that mostly never
    carry a message.  This view computes the identical tree lazily:
    ``parent(node)`` is ``ring.next_hop(node, key)`` (the defining edge
    relation of the eager builder), memoized on first use, so setup is
    O(1) and total work is proportional to the nodes the workload
    actually touches.

    The tree is static (the scale tier runs without churn), so the memo
    never invalidates.  Only the read interface the query/dissemination
    path needs is provided — mutators live on :class:`SearchTree`.
    """

    __slots__ = (
        "_ring",
        "_members",
        "_key",
        "_root",
        "_parent",
        "_depth",
        "_eager",
    )

    def __init__(self, ring: ChordRing, key: int):
        self._ring = ring
        # The ring's own frozenset, shared by every key's tree: one C
        # probe per ``node in tree`` instead of a second Python call.
        self._members = ring.members
        self._key = key
        self._root = ring.successor(key)
        self._parent: dict[int, Optional[int]] = {self._root: None}
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
        """Next hop toward the authority (``None`` at the root)."""
        # The root's parent is a memoized ``None``, hence the sentinel;
        # a miss is the common case at scale, so it must not raise.
        hop = self._parent.get(node, _UNSET)
        if hop is _UNSET:
            hop = self._parent[node] = self._ring.next_hop(node, self._key)
        return hop

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
        """Nodes whose parent pointer has been materialized so far."""
        return len(self._parent)

    def materialize(self) -> SearchTree:
        """The full eager tree (tests compare it edge-for-edge)."""
        return chord_search_tree(self._ring, self._key)

    def __repr__(self) -> str:
        return (
            f"LazyChordTree(key={self._key}, root={self._root}, "
            f"touched={len(self._parent)}/{len(self._ring)})"
        )
