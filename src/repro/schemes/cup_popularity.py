"""CUP-popularity: forwarding gated purely on observed branch traffic.

A third reading of CUP's "based on the benefit and the overhead of
pushing the updates, each node determines whether to push the index
update further down the tree": each node keeps a per-child counter of
queries that *actually arrived* from that branch and forwards pushes only
down branches whose counter beats the threshold — no registration
messages at all, not even piggybacked bits.

This is the most conservative CUP imaginable, and it degenerates: a
node's counter only sees downstream *misses*, and pushes prevent exactly
those misses, so the evidence that justifies a push chain evaporates as
soon as the chain works.  Only branches aggregating more than ``c``
misses per window (dense subtrees) keep receiving pushes.  The ablation
suite uses it to bracket the CUP design space:

``cup-popularity``  <=  ``cup`` (soft-state registrations)  <=
``cup-ideal`` (hard state)  —  with DUP beating all three.
"""

from __future__ import annotations

from typing import Optional

from repro.core.interest import WindowInterestPolicy
from repro.net.message import PushMessage, QueryMessage
from repro.schemes.base import PathCachingScheme

NodeId = int


class CupPopularityScheme(PathCachingScheme):
    """Push forwarding gated on raw per-branch query counts."""

    name = "cup-popularity"

    def __init__(self) -> None:
        super().__init__()
        # node -> {child -> sliding-window counter of queries from child}
        self._branches: dict[NodeId, dict[NodeId, WindowInterestPolicy]] = {}

    # -- popularity tracking -------------------------------------------------
    def branch_counter(
        self, node: NodeId, child: NodeId
    ) -> WindowInterestPolicy:
        """The counter ``node`` keeps for queries arriving from ``child``."""
        branches = self._branches.setdefault(node, {})
        counter = branches.get(child)
        if counter is None:
            counter = WindowInterestPolicy(
                self.sim.config.ttl, self.sim.config.threshold_c
            )
            branches[child] = counter
        return counter

    def branch_is_popular(self, node: NodeId, child: NodeId) -> bool:
        """Whether ``node`` currently considers ``child``'s branch popular."""
        counter = self._branches.get(node, {}).get(child)
        if counter is None:
            return False
        return counter.is_interested(self.sim.env.now)

    # -- hooks into the shared query engine -------------------------------------
    def _on_query_arrival(
        self, node: NodeId, packet: Optional[QueryMessage]
    ) -> list[object]:
        if packet is not None:
            # The packet's path still ends at the previous hop here.
            child = packet.path[-1]
            self.branch_counter(node, child).record(self.sim.env.now)
        return []

    # -- pushes ---------------------------------------------------------------
    def on_new_version(self, version) -> None:
        self._push_popular_branches(self.sim.tree.root, version)

    def _handle_push(self, node: NodeId, message: PushMessage) -> None:
        sim = self.sim
        sim.cache(node).put(message.version, sim.env.now)
        self._push_popular_branches(
            node, message.version, trace_id=message.trace_id
        )

    def _push_popular_branches(
        self, node: NodeId, version, trace_id: Optional[int] = None
    ) -> None:
        sim = self.sim
        now = sim.env.now
        branches = self._branches.get(node)
        if not branches:
            return
        popular = []
        for child in list(branches):
            counter = branches[child]
            if counter.is_interested(now):
                popular.append(child)
            elif counter.count(now) == 0:
                del branches[child]  # fully decayed: free the counter
        for gone in self._fan_out(node, popular, version, trace_id):
            del branches[gone]

    # -- churn ----------------------------------------------------------------
    def on_node_left(self, node: NodeId) -> None:
        self._forget(node)
        super().on_node_left(node)

    def on_node_failed(self, node: NodeId) -> None:
        self._forget(node)
        super().on_node_failed(node)

    def _forget(self, node: NodeId) -> None:
        self._branches.pop(node, None)
        parent = self.sim.parent(node)
        if parent is not None:
            self._branches.get(parent, {}).pop(node, None)
