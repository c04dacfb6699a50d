"""``dup-balanced``: DUP with subscriber-load splitting at capped nodes.

Extends PR 7's fanout-cap refusal into true load balancing: an interior
node at its ``max_subscribers`` cap *splits* — it promotes the
best-ranked entry of its own subscriber list to relay duty for the new
subscriber instead of redirecting the subscribe to its parent.  Load
moves down and the DUP tree widens; when the node's fanout later drains
below the cap, delegated subjects are reabsorbed and the split
dissolves.  The decision logic lives in
:class:`repro.core.balance.DupBalancer` (a pure state machine, shared
with the property-test suite); this adapter wires it to the engine's
transport, leases, flight recorder, and churn events.

With the cap disabled (``max_subscribers == 0``) or never binding, the
code path is byte-identical to plain ``dup`` — the differential suite
proves the below-cap runs bit-identical.
"""

from __future__ import annotations

from repro.core.balance import DupBalancer
from repro.core.protocol import StepResult
from repro.net.message import ControlMessage, LeaseRefresh, Subscribe
from repro.schemes.dup import DupScheme

NodeId = int


class DupBalancedScheme(DupScheme):
    """DUP with split/reabsorb load balancing at the fanout cap."""

    name = "dup-balanced"

    def __init__(self) -> None:
        super().__init__()
        self._balancer: DupBalancer | None = None

    def bind(self, sim) -> None:
        super().bind(sim)
        self._balancer = DupBalancer(
            self.protocol,
            self._max_subscribers,
            redirected=self._redirected,
            alive=sim.alive,
            is_root=sim.is_root,
            send_down=self._send_sideways,
            on_reject=self._on_reject,
            note_lease=self._note_lease_activity,
            record=self._record,
            trace=self._trace_note,
        )

    def unbind(self) -> None:
        super().unbind()
        # The balancer holds the scheme's bound methods.
        self._balancer = None

    # -- the capped-control pipeline -----------------------------------------
    def _degrade_control(self, node: NodeId, payload: object, combined) -> bool:
        # The balancer owns the whole capped pipeline (delegation
        # payloads, delegated-subject routing, redirect relaying, and
        # split-or-refuse); the base refusal flow is subsumed.
        return self._balancer.handle(node, payload, combined)

    def _process_control(
        self, node: NodeId, payloads: list[object], explicit: bool
    ) -> list[object]:
        upstream = super()._process_control(node, payloads, explicit)
        if self._max_subscribers:
            extra = self._balancer.rebalance(node)
            if extra is not None:
                if (
                    extra.new_subscribers
                    and self.sim.config.immediate_push
                    and self.protocol.in_dup_tree(node)
                ):
                    # A reabsorbed subject switches pusher; hand it the
                    # current index so the handover leaves no gap.
                    self._push_current(node, extra.new_subscribers)
                upstream.extend(extra.upstream)
        return upstream

    def _on_reject(self, node: NodeId, subject: NodeId) -> None:
        """The balancer fell back to the PR-7 refusal (no candidate)."""
        self._rejected_subscribers += 1
        self._record(
            "reject-subscriber",
            node=node,
            subject=subject,
            detail="no-delegate",
        )
        self._trace_note(node, "dup.reject-subscriber", f"subject={subject}")
        self._send_nack(node, subject)

    def _send_sideways(
        self, sender: NodeId, target: NodeId, payload: object
    ) -> None:
        """Point-to-point control hop off the parent chain.

        Delegation is hard state like the rest of DUP's control traffic,
        so it rides the reliable channel when one exists.
        """
        sim = self.sim
        if not sim.alive(target):
            return
        message = ControlMessage(
            key=sim.key, payloads=[payload], sender=sender
        )
        message.trace_id = self._carrier_trace
        channel = sim.reliable
        if self.reliable_delivery and channel is not None:
            channel.send(target, message, sender=sender, hops=1)
        else:
            sim.transport.send(target, message, hops=1)

    # -- leases ------------------------------------------------------------------
    def _handle_lease_refresh(
        self, node: NodeId, payload: LeaseRefresh, combined: StepResult
    ) -> None:
        if self._max_subscribers:
            delegate = self._balancer.delegate_for(node, payload.subject)
            if (
                delegate is not None
                and payload.subject not in self.protocol.s_list(node)
            ):
                # The subject's entry (and lease) lives at the delegate:
                # forward the refresh there, unreliably like all lease
                # traffic.
                sim = self.sim
                if sim.alive(delegate):
                    message = ControlMessage(
                        key=sim.key, payloads=[payload], sender=node
                    )
                    sim.transport.send(delegate, message)
                return
        super()._handle_lease_refresh(node, payload, combined)

    # -- churn -------------------------------------------------------------------
    def on_node_left(self, node: NodeId) -> None:
        parent = self.sim.tree.parent(node)
        orphans = (
            self._balancer.node_gone(node) if self._max_subscribers else []
        )
        super().on_node_left(node)
        self._rehome_orphans(orphans, node)
        self._shed_adoption_overflow(parent)

    def _shed_adoption_overflow(self, parent: "NodeId | None") -> None:
        """Re-cap a parent that wholesale-adopted a departed child's list."""
        if not self._max_subscribers or parent is None:
            return
        sim = self.sim
        if parent not in sim.tree or not sim.alive(parent):
            return
        extra = self._balancer.shed_overflow(parent)
        if extra is not None:
            self._send_control(parent, extra.upstream)

    def on_node_failed(self, node: NodeId) -> None:
        orphans = (
            self._balancer.node_gone(node) if self._max_subscribers else []
        )
        super().on_node_failed(node)
        self._rehome_orphans(orphans, node)

    def on_root_failed(self, new_root: NodeId) -> None:
        old_root = self.sim.tree.root
        orphans = (
            self._balancer.node_gone(old_root)
            if self._max_subscribers
            else []
        )
        super().on_root_failed(new_root)
        self._rehome_orphans(orphans, old_root)

    def _rehome_orphans(
        self, orphans: list[tuple[NodeId, NodeId]], dead: NodeId
    ) -> None:
        """Re-home subjects stripped from a gone delegate.

        Each orphan returns to its delegator, which absorbs it when
        under the cap, re-delegates when a candidate exists, and falls
        back to the PR-7 parent redirect otherwise (no NACK — the
        subject did nothing wrong).
        """
        if not orphans:
            return
        sim = self.sim
        protocol = self.protocol
        balancer = self._balancer
        for delegator, subject in orphans:
            if subject == dead or not sim.alive(delegator):
                continue
            if not sim.alive(subject):
                continue
            s_list = protocol.s_list(delegator)
            if subject in s_list:
                continue
            if (
                sim.is_root(delegator)
                or balancer.fanout(delegator) < self._max_subscribers
            ):
                self._record(
                    "delegate-rehome",
                    node=delegator,
                    subject=subject,
                    detail="absorbed",
                )
                subscribe = Subscribe(subject)
                result = protocol.step(delegator, subscribe)
                self._note_lease_activity(delegator, subscribe)
                if (
                    result.new_subscribers
                    and sim.config.immediate_push
                    and protocol.in_dup_tree(delegator)
                ):
                    self._push_current(delegator, result.new_subscribers)
                self._send_control(delegator, result.upstream)
                continue
            target = balancer.choose_delegate(delegator, subject)
            if target is not None:
                self._record(
                    "delegate-rehome",
                    node=delegator,
                    subject=subject,
                    detail=f"delegate={target}",
                )
                balancer.delegate(delegator, subject, target)
                continue
            self._record(
                "delegate-rehome",
                node=delegator,
                subject=subject,
                detail="redirected",
            )
            self._redirected.setdefault(delegator, set()).add(subject)
            self._send_control(delegator, [Subscribe(subject)])

    # -- introspection --------------------------------------------------------
    @property
    def split_subscribers(self) -> int:
        """Subscribes delegated sideways instead of refused."""
        return self._balancer.splits if self._balancer is not None else 0

    @property
    def reabsorbed_subscribers(self) -> int:
        """Delegated subjects taken back after load drained."""
        return self._balancer.reabsorbed if self._balancer is not None else 0

    @property
    def balancer(self) -> DupBalancer | None:
        """The underlying balancer (tests and experiments introspect it)."""
        return self._balancer
