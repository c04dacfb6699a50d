"""Zipf-like placement of queries over the overlay nodes.

The paper: "The queries are distributed to nodes according to Zipf-like
distribution ... P_i = (1/i^theta) / sum_k (1/k^theta)".  The mapping from
Zipf rank to overlay node is an arbitrary but fixed assignment; we use a
seeded random permutation so the hot nodes land at random positions of the
search tree rather than systematically near the root (see DESIGN.md).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.stats.distributions import ZipfSelector, shared_zipf

NodeId = int


class ZipfNodeSelector:
    """Selects query origins with Zipf-like popularity.

    Parameters
    ----------
    nodes:
        Eligible query origins (the authority node is normally excluded —
        its queries are trivially local).
    theta:
        Zipf skew; 0 is uniform, large values concentrate queries on a few
        hot nodes.
    rng:
        Stream used once to permute the rank-to-node assignment.
    """

    def __init__(
        self,
        nodes: Sequence[NodeId],
        theta: float,
        rng: np.random.Generator,
    ):
        if not nodes:
            raise WorkloadError("need at least one eligible query origin")
        order = list(nodes)
        rng.shuffle(order)
        self._ranked: list[NodeId] = order
        # The rank law is a pure function of (n, theta): share one CDF
        # table across selectors instead of recomputing the O(n) cumsum
        # per instance (the sharded multi-key engine builds one selector
        # per shard over the same 10^5-node population).
        self._zipf = shared_zipf(len(order), theta)

    def sample(self, rng: np.random.Generator) -> NodeId:
        """Draw one query origin."""
        return self._ranked[self._zipf.sample(rng)]

    def sample_alive(
        self,
        rng: np.random.Generator,
        is_alive,
        attempts: int = 64,
    ) -> Optional[NodeId]:
        """Draw an origin that is still in the overlay (under churn).

        Falls back to a linear scan of the ranking if repeated draws keep
        hitting departed nodes; returns ``None`` when no eligible node is
        alive at all.
        """
        return self.first_alive(
            lambda: self._zipf.sample(rng), is_alive, attempts
        )

    def first_alive(self, next_rank, is_alive, attempts: int = 64):
        """:meth:`sample_alive` over successive :attr:`rank_law` draws the
        caller supplies (its read-ahead buffer, for one)."""
        ranked = self._ranked
        for _ in range(attempts):
            node = ranked[next_rank()]
            if is_alive(node):
                return node
        for node in ranked:
            if is_alive(node):
                return node
        return None

    def sample_tail(
        self,
        rng: np.random.Generator,
        is_alive,
        fraction: float = 0.5,
        attempts: int = 64,
    ) -> Optional[NodeId]:
        """Draw uniformly from the cold tail of the popularity ranking.

        Storm thrash uses this: a burst only churns subscription state
        when it lands on a node cold enough that its interest will lapse
        again, and the Zipf head is warm almost by definition.  Falls
        back to a coldest-first scan, then ``None``, like
        :meth:`sample_alive`.

        ``fraction`` is the share of the ranking (coldest end) eligible
        for the draw.  Values above 1 are clamped to the whole
        population; the tail always contains at least the coldest node,
        even when ``total * fraction`` rounds to zero.
        """
        if fraction <= 0:
            raise WorkloadError(
                f"tail fraction must be positive, got {fraction}"
            )
        fraction = min(fraction, 1.0)
        total = len(self._ranked)
        start = max(0, min(total - 1, int(total * (1.0 - fraction))))
        tail = self._ranked[start:]
        for _ in range(attempts):
            node = tail[int(rng.integers(len(tail)))]
            if is_alive(node):
                return node
        for node in reversed(self._ranked):
            if is_alive(node):
                return node
        return None

    def flip_ranks(
        self, rng: np.random.Generator, count: int = 1
    ) -> list[NodeId]:
        """Flash-crowd rank flip: promote ``count`` random nodes to the
        top of the popularity ranking.

        The chosen nodes (drawn without replacement from the whole
        ranking with ``rng`` — storms pass a dedicated stream so the
        base workload's streams are untouched) become the new hottest
        nodes; everyone else shifts down with relative order preserved.
        Returns the promoted nodes, new rank 0 first.
        """
        total = len(self._ranked)
        count = max(1, min(count, total))
        chosen = sorted(
            (int(i) for i in rng.choice(total, size=count, replace=False)),
            reverse=True,
        )
        promoted = [self._ranked.pop(index) for index in chosen]
        self._ranked[:0] = promoted
        return promoted

    @property
    def rank_law(self) -> ZipfSelector:
        """The law of the rank draws (0 = hottest); stateless."""
        return self._zipf

    @property
    def ranking(self) -> list[NodeId]:
        """The live rank -> node list, hottest first: :meth:`flip_ranks`
        reorders this very list in place, so a holder sees every flip."""
        return self._ranked

    def rank_of(self, node: NodeId) -> int:
        """The node's popularity rank (0 = hottest)."""
        return self._ranked.index(node)

    def hottest(self, count: int = 1) -> list[NodeId]:
        """The ``count`` most popular nodes, hottest first."""
        return self._ranked[:count]

    @property
    def theta(self) -> float:
        """The Zipf skew parameter."""
        return self._zipf.theta

    def __len__(self) -> int:
        return len(self._ranked)

    def __repr__(self) -> str:
        return (
            f"ZipfNodeSelector(nodes={len(self._ranked)}, "
            f"theta={self._zipf.theta})"
        )
