"""A Chord distributed hash table (Stoica et al., SIGCOMM 2001).

The paper targets *structured* peer-to-peer networks and cites Chord as the
canonical example: queries for a key are routed along well-defined paths to
the key's authority node, and those paths form the index search tree.  This
module implements a complete static Chord ring — identifier circle, finger
tables, and greedy lookup — from which
:func:`repro.topology.chord_tree.chord_search_tree` derives per-key search
trees.

Identifiers live on a ``2**m`` circle.  A key ``k`` is owned by
``successor(k)``: the first node clockwise from ``k``.  Lookups hop via the
*closest preceding finger*, halving the remaining distance each step, so
paths have O(log n) hops.

Finger ``k`` of a node is ``successor(node + 2**k)``, so on a static ring
the whole routing function is arithmetic over the sorted id list: the ring
stores no per-node table and answers every routing question with a
constant number of binary searches (see :meth:`ChordRing._finger_toward`).
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator, Optional

import numpy as np

from repro.errors import NodeNotFoundError, TopologyError


class ChordRing:
    """A static Chord identifier circle with closed-form finger routing.

    Parameters
    ----------
    node_ids:
        Distinct identifiers in ``[0, 2**bits)``; one per participating
        node.
    bits:
        Size of the identifier space (``m`` in the Chord paper).
    """

    def __init__(self, node_ids: Iterable[int], bits: int = 32):
        if bits < 1:
            raise TopologyError(f"bits must be >= 1, got {bits}")
        self._bits = bits
        self._modulus = 1 << bits
        if isinstance(node_ids, np.ndarray) and node_ids.dtype.kind in "iu":
            # Not np.unique: without return_index it probes for a masked
            # array, which imports numpy.ma the first time a ring is built.
            ordered = np.sort(node_ids, axis=None)
            distinct = np.ones(len(ordered), dtype=bool)
            distinct[1:] = ordered[1:] != ordered[:-1]
            ids = ordered[distinct].tolist()
        else:
            ids = sorted({int(i) for i in node_ids})
        if not ids:
            raise TopologyError("a Chord ring needs at least one node")
        if ids[0] < 0 or ids[-1] >= self._modulus:
            raise TopologyError(
                f"node ids must lie in [0, 2**{bits}); got range "
                f"[{ids[0]}, {ids[-1]}]"
            )
        # All the ring keeps: the sorted ids (bisected for routing) and
        # their set (membership probes, two or three per routed hop).
        self._ids = tuple(ids)
        self._members = frozenset(ids)

    # -- constructors ----------------------------------------------------
    @classmethod
    def random(
        cls, n: int, rng: np.random.Generator, bits: int = 32
    ) -> "ChordRing":
        """A ring of ``n`` nodes with distinct uniform-random identifiers."""
        if n < 1:
            raise TopologyError(f"need at least one node, got n={n}")
        if n > (1 << bits):
            raise TopologyError(
                f"cannot place {n} distinct ids in a {bits}-bit space"
            )
        # The ids are the first n distinct values of the draw sequence;
        # each round draws twice what is still missing.
        draws = np.empty(0, dtype=np.int64)
        distinct = first_seen = draws
        while len(distinct) < n:
            needed = n - len(distinct)
            fresh = rng.integers(0, 1 << bits, size=needed * 2, dtype=np.int64)
            draws = np.concatenate((draws, fresh))
            distinct, first_seen = np.unique(draws, return_index=True)
        cutoff = np.partition(first_seen, n - 1)[n - 1]
        return cls(distinct[first_seen <= cutoff], bits=bits)

    # -- basic queries ---------------------------------------------------
    @property
    def bits(self) -> int:
        """Identifier-space size in bits."""
        return self._bits

    @property
    def node_ids(self) -> tuple[int, ...]:
        """All node identifiers, ascending."""
        return self._ids

    @property
    def members(self) -> frozenset[int]:
        """The node identifiers as a set (the ring's own, not a copy)."""
        return self._members

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, node: int) -> bool:
        return node in self._members

    def __iter__(self) -> Iterator[int]:
        return iter(self._ids)

    def successor(self, key: int) -> int:
        """The node owning ``key``: first node clockwise from ``key``."""
        ids = self._ids
        index = bisect.bisect_left(ids, key % self._modulus)
        return ids[index] if index < len(ids) else ids[0]

    def predecessor(self, node: int) -> int:
        """The node immediately counter-clockwise from ``node``."""
        self._require(node)
        # Index -1 wraps the lowest id round to the highest.
        return self._ids[bisect.bisect_left(self._ids, node) - 1]

    def finger_table(self, node: int) -> tuple[int, ...]:
        """``node``'s finger table: entry k is successor(node + 2**k)."""
        self._require(node)
        return tuple(
            self.successor(node + (1 << k)) for k in range(self._bits)
        )

    # -- routing -----------------------------------------------------------
    def _finger_toward(self, node: int, last: int) -> int:
        """``node``'s highest finger that is not past the ring id ``last``.

        Finger ``k`` is the first id at clockwise distance at least
        ``2**k`` from ``node``, so it lies in ``(node, last]`` exactly
        when ``2**k <= dist(last)``: scanning the finger table from the
        top stops at ``k = floor(log2(dist(last)))``.  No finger
        qualifies when ``last`` is ``node`` itself, which is returned.
        """
        modulus = self._modulus
        reach = (last - node) % modulus
        if not reach:
            return node
        # successor(node + 2**k), inlined: this is the routed hop.
        ids = self._ids
        start = (node + (1 << (reach.bit_length() - 1))) % modulus
        index = bisect.bisect_left(ids, start)
        return ids[index] if index < len(ids) else ids[0]

    def closest_preceding_finger(self, node: int, key: int) -> int:
        """The finger of ``node`` closest to (but preceding) ``key``."""
        self._require(node)
        modulus = self._modulus
        if (key - 1) % modulus == node:
            # Fingers are sought in (node, key - 1]; with equal ends a
            # circular interval is the whole circle, so every other id
            # precedes the key, as it does for ``key == node``.
            key = node
        last = self._ids[bisect.bisect_left(self._ids, key % modulus) - 1]
        return self._finger_toward(node, last)

    def next_hop(self, node: int, key: int) -> Optional[int]:
        """Next node on the lookup route from ``node`` toward ``key``.

        Returns ``None`` when ``node`` already owns ``key``.
        """
        self._require(node)
        ids = self._ids
        index = bisect.bisect_left(ids, key % self._modulus)
        owner = ids[index] if index < len(ids) else ids[0]
        if owner == node:
            return None
        # The last id before the key (index -1 wraps round the top of
        # the ring).  If that is ``node``, the key lies in
        # (node, successor] and the successor is the owner.
        last = ids[index - 1]
        if last == node:
            return owner
        return self._finger_toward(node, last)

    def lookup_path(self, start: int, key: int) -> list[int]:
        """The full lookup route from ``start`` to the owner of ``key``.

        The returned list starts with ``start`` and ends with the owner.
        """
        self._require(start)
        path = [start]
        current = start
        for _ in range(len(self._ids) + 1):
            hop = self.next_hop(current, key)
            if hop is None:
                return path
            path.append(hop)
            current = hop
        raise TopologyError(  # pragma: no cover - defensive
            f"lookup for key {key} from {start} did not converge"
        )

    def path_length(self, start: int, key: int) -> int:
        """Number of hops on the lookup route from ``start`` to the owner."""
        return len(self.lookup_path(start, key)) - 1

    def _require(self, node: int) -> None:
        if node not in self._members:
            raise NodeNotFoundError(f"node {node} not on the ring")

    def __repr__(self) -> str:
        return f"ChordRing(nodes={len(self._ids)}, bits={self._bits})"
