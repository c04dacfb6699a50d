"""CUP: Controlled Update Propagation (Roussopoulos & Baker, USENIX '03).

The paper's comparison baseline.  Each node records which of its
search-tree children are interested in the index and pushes new versions
hop-by-hop down those branches ("each node needs to record the interests
of its neighboring nodes in the index search tree and push updated index
to them when necessary").

The crucial property, and the one the paper's Section II-B analysis rests
on, is that CUP's interest registrations are **soft state carried by the
query traffic**: a node (re-)registers with its parent when its queries
pass by, and a registration silently decays one TTL after its last
refresh.  A node that is kept warm by pushes stops emitting queries, so
the registrations above it decay and the push chain is *cut off* — the
node only notices at its next miss, which re-warms the chain for another
TTL.  Steady state for an interested node is therefore one miss roughly
every other TTL instead of every TTL: the ~50 % improvement ceiling the
paper derives ("the cost of CUP can at most be reduced to about 50 % of
that of PCX"), and the reason DUP — whose subscriptions are hard state
maintained by an explicit protocol — beats CUP by an order of magnitude
on latency in many configurations.

Registrations ride the ordinary query packets (an interest bit), so CUP's
control-message cost is zero here — a deliberately charitable accounting
for the baseline.  The idealized hard-state variant is available as
``cup-ideal`` for the ablation study.
"""

from __future__ import annotations

from typing import Optional

from repro.net.message import CupRegister, PushMessage, QueryMessage
from repro.schemes.base import PathCachingScheme

NodeId = int


class CupScheme(PathCachingScheme):
    """Hop-by-hop push along soft-state interest registrations."""

    name = "cup"

    #: Registrations are soft state riding query packets; they lapse when
    #: the packet is served rather than continuing as explicit messages.
    control_survives_serving = False

    def __init__(self) -> None:
        super().__init__()
        # node -> {child -> time of the registration's last refresh}
        self._registered: dict[NodeId, dict[NodeId, float]] = {}
        #: Graceful degradation: registration-table cap (0 = uncapped).
        self._max_subscribers = 0
        self._rejected_subscribers = 0

    def bind(self, sim) -> None:
        super().bind(sim)
        if self.overload is not None:
            self._max_subscribers = self.overload.plan.max_subscribers

    # -- interest and registration state ------------------------------------
    def is_interested(self, node: NodeId) -> bool:
        """Whether ``node`` itself currently satisfies the interest policy."""
        return self.interest().is_interested(node, self._env._now)

    def live_registrations(self, node: NodeId) -> list[NodeId]:
        """Children whose registration with ``node`` has not decayed."""
        table = self._registered.get(node)
        if not table:
            return []
        now = self.sim.env.now
        ttl = self.sim.config.ttl
        stale = [c for c, at in table.items() if now - at >= ttl]
        for child in stale:
            del table[child]
        return list(table)

    def wants_updates(self, node: NodeId) -> bool:
        """Interested itself, or forwarding for live registered children."""
        if self.live_registrations(node):
            return True
        return self.is_interested(node)

    # -- hooks into the shared query engine -------------------------------------
    def _on_query_arrival(
        self, node: NodeId, packet: Optional[QueryMessage]
    ) -> list[object]:
        sim = self.sim
        interest = self._interest
        if interest is None:
            interest = self.interest()
        interest.record(node, self._env._now)
        if sim.is_root(node):
            return []
        # ``wants_updates`` must run unconditionally: ``live_registrations``
        # prunes decayed child entries as a side effect.
        if self.wants_updates(node):
            # Soft state: the interest bit rides this very packet (or the
            # explicit fallback when the query was a local hit) and
            # refreshes the parent's registration.
            return [CupRegister(node)]
        return []

    def _process_control(
        self, node: NodeId, payloads: list[object], explicit: bool
    ) -> list[object]:
        refreshed = False
        for payload in payloads:
            if isinstance(payload, CupRegister):
                self._trace_note(
                    node, "cup.register", f"child={payload.child}"
                )
                table = self._registered.setdefault(node, {})
                if (
                    self._max_subscribers
                    and payload.child not in table
                    and not self.sim.is_root(node)
                    and len(table) >= self._max_subscribers
                ):
                    # At capacity: refuse the new registration.  No NACK
                    # is needed — CUP registrations are soft state, so
                    # the child simply stays cold and re-registers with
                    # its next query once load (and the table) drains.
                    self._rejected_subscribers += 1
                    recorder = self.sim.recorder
                    if recorder is not None:
                        recorder.record(
                            "reject-subscriber",
                            node=node,
                            subject=payload.child,
                            detail=f"table={len(table)}",
                        )
                    continue
                table[payload.child] = self.sim.env.now
                refreshed = True
            else:  # pragma: no cover - defensive
                raise TypeError(f"CUP got foreign payload {payload!r}")
        if refreshed and not self.sim.is_root(node) and self.wants_updates(node):
            return [CupRegister(node)]
        return []

    @property
    def rejected_subscribers(self) -> int:
        """Registrations refused by capped nodes."""
        return self._rejected_subscribers

    # -- pushes ---------------------------------------------------------------
    def on_new_version(self, version) -> None:
        self._push_registered(self.sim.tree.root, version)

    def _handle_push(self, node: NodeId, message: PushMessage) -> None:
        self.sim.copies.put(message.version, self._env._now, node)
        self._push_registered(
            node, message.version, trace_id=message.trace_id
        )

    def _push_registered(
        self, node: NodeId, version, trace_id: Optional[int] = None
    ) -> None:
        children = self.live_registrations(node)
        for gone in self._fan_out(node, children, version, trace_id):
            self._registered.get(node, {}).pop(gone, None)

    # -- churn ----------------------------------------------------------------
    def on_node_left(self, node: NodeId) -> None:
        self._forget(node)
        super().on_node_left(node)

    def on_node_failed(self, node: NodeId) -> None:
        self._forget(node)
        super().on_node_failed(node)

    def on_root_failed(self, new_root: NodeId) -> None:
        """Authority failure: registrations with the old root are lost.

        CUP's soft state needs no explicit repair — children of the new
        root re-register on their next interested query, and until then
        the push chain is simply cut off (exactly CUP's behaviour under
        any broken registration).
        """
        old_root = self.sim.tree.root
        self._registered.pop(old_root, None)
        self._forget_interest(old_root)
        super().on_root_failed(new_root)

    def _forget(self, node: NodeId) -> None:
        self._registered.pop(node, None)
        self._forget_interest(node)
        parent = self.sim.parent(node)
        if parent is not None:
            self._registered.get(parent, {}).pop(node, None)
