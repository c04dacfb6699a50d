"""CUP-ideal: controlled update propagation with *perfect* registration.

An idealized variant of CUP used by the ablation study: interest is
registered transitively and explicitly (a node registers with its parent
whenever it is interested itself or forwards for a registered child), so a
push always reaches every interested node — the cut-off problem of the
real CUP (paper Section II-B: "If intermediate nodes decide to stop
forwarding the index, N6 is cut off from the update information") cannot
occur by construction.

Comparing ``cup`` against ``cup-ideal`` isolates how much of DUP's latency
advantage stems from CUP's cut-offs versus from DUP's short-cut pushes.
"""

from __future__ import annotations

from typing import Optional

from repro.net.message import CupRegister, CupUnregister, PushMessage, QueryMessage
from repro.schemes.base import PathCachingScheme

NodeId = int


class CupIdealScheme(PathCachingScheme):
    """Hop-by-hop push with perfect transitive registration."""

    name = "cup-ideal"

    def __init__(self) -> None:
        super().__init__()
        self._registered: dict[NodeId, set[NodeId]] = {}
        self._registered_up: set[NodeId] = set()

    # -- state helpers -----------------------------------------------------
    def registered_children(self, node: NodeId) -> set[NodeId]:
        """Children of ``node`` currently registered for pushes."""
        children = self._registered.get(node)
        if children is None:
            children = set()
            self._registered[node] = children
        return children

    def wants_updates(self, node: NodeId) -> bool:
        """Interested itself, or forwarding for registered children."""
        if self.registered_children(node):
            return True
        return self.interest().is_interested(node, self._env._now)

    def is_registered_up(self, node: NodeId) -> bool:
        """Whether ``node`` is registered with its parent."""
        return node in self._registered_up

    # -- hooks into the shared query engine -------------------------------
    def _on_query_arrival(
        self, node: NodeId, packet: Optional[QueryMessage]
    ) -> list[object]:
        self.interest().record(node, self._env._now)
        if self.sim.is_root(node):
            return []
        if self.wants_updates(node) and node not in self._registered_up:
            self._registered_up.add(node)
            return [CupRegister(node)]
        return []

    def _process_control(
        self, node: NodeId, payloads: list[object], explicit: bool
    ) -> list[object]:
        continuations: list[object] = []
        for payload in payloads:
            if isinstance(payload, CupRegister):
                continuations.extend(self._register(node, payload.child))
            elif isinstance(payload, CupUnregister):
                continuations.extend(self._unregister(node, payload.child))
            else:  # pragma: no cover - defensive
                raise TypeError(f"CUP got foreign payload {payload!r}")
        return continuations

    def _register(self, node: NodeId, child: NodeId) -> list[object]:
        self.registered_children(node).add(child)
        if self.sim.is_root(node):
            return []
        if node not in self._registered_up:
            self._registered_up.add(node)
            return [CupRegister(node)]
        return []

    def _unregister(self, node: NodeId, child: NodeId) -> list[object]:
        self.registered_children(node).discard(child)
        if self.sim.is_root(node):
            return []
        if not self.wants_updates(node) and node in self._registered_up:
            self._registered_up.discard(node)
            return [CupUnregister(node)]
        return []

    # -- pushes -------------------------------------------------------------
    def on_new_version(self, version) -> None:
        self._push_to_children(self.sim.tree.root, version)

    def _handle_push(self, node: NodeId, message: PushMessage) -> None:
        self.sim.copies.put(message.version, self._env._now, node)
        if not self.wants_updates(node):
            # Lazy de-registration: this push was wasted on us.
            self._registered_up.discard(node)
            self._send_control(
                node, [CupUnregister(node)], trace_id=message.trace_id
            )
            return
        self._push_to_children(node, message.version, trace_id=message.trace_id)

    def _push_to_children(
        self, node: NodeId, version, trace_id: Optional[int] = None
    ) -> None:
        children = self.registered_children(node)
        children.difference_update(
            self._fan_out(node, tuple(children), version, trace_id)
        )

    # -- churn ----------------------------------------------------------------
    def on_node_left(self, node: NodeId) -> None:
        self._detach(node)
        super().on_node_left(node)

    def on_node_failed(self, node: NodeId) -> None:
        orphans = self.registered_children(node)
        self._detach(node)
        parent = self.sim.tree.parent(node)
        super().on_node_failed(node)
        # Orphaned children re-register through the repaired topology.
        for orphan in orphans:
            if self.sim.alive(orphan):
                self._registered_up.discard(orphan)
                payloads = [CupRegister(orphan)]
                self._registered_up.add(orphan)
                self._send_control(orphan, payloads)
        # The ex-parent forgets the gone child lazily via _push_to_children.
        if parent is not None:
            self.registered_children(parent).discard(node)

    def _detach(self, node: NodeId) -> None:
        self._registered.pop(node, None)
        self._registered_up.discard(node)
        self._forget_interest(node)
