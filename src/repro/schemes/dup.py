"""DUP: Dynamic-tree based Update Propagation — the paper's scheme.

This adapter wires the pure protocol state machine
(:class:`repro.core.protocol.DupProtocol`) into the simulation engine:

- interest tracking at every query arrival (Figure 3 (A)), subscriptions
  piggybacked on request packets where possible;
- subscribe / unsubscribe / substitute payloads processed at each hop of
  the virtual path (Figure 3 (B), (C), (E));
- **direct pushes** along the DUP tree: one overlay hop per DUP-tree edge
  regardless of search-tree distance — the short-cut that gives DUP its
  advantage over CUP;
- interest-loss detection when a push arrives (Figure 3 (D));
- churn repair through :class:`repro.core.maintenance.DupMaintenance`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.leases import LeaseTable
from repro.core.maintenance import DupMaintenance
from repro.core.protocol import DupProtocol, StepResult
from repro.core.tree_state import push_edges
from repro.net.message import (
    Category,
    ControlMessage,
    LeaseRefresh,
    PushMessage,
    QueryMessage,
    RefreshSubscribe,
    Subscribe,
    SubscribeNack,
    Substitute,
    Unsubscribe,
)
from repro.schemes.base import PathCachingScheme

NodeId = int


class DupScheme(PathCachingScheme):
    """The dynamic update propagation tree scheme."""

    name = "dup"

    #: DUP's subscriber lists are hard state: a lost subscribe or
    #: substitute corrupts the tree until explicitly repaired, so control
    #: messages and pushes ride the reliable channel when one is enabled.
    reliable_delivery = True

    #: Crash-restart reconciliation counters.  Class defaults until the
    #: first reconcile, so that a bound instance stays below 30
    #: attributes: at 30, CPython 3.11 gives it a real ``__dict__`` in
    #: place of its inline values (one more tracked object per scheme,
    #: and a dict lookup behind every attribute read).
    _rejoin_reconciles = 0
    _rejoin_kept = 0
    _rejoin_excised = 0

    def __init__(self) -> None:
        super().__init__()
        self.protocol: DupProtocol | None = None
        self.maintenance: DupMaintenance | None = None
        self._leases: LeaseTable | None = None
        self._lease_expiries = 0
        self._recorder = None
        #: Graceful degradation: fanout cap (0 = uncapped) and, per
        #: refusing node, the subjects it redirected to its parent.
        self._max_subscribers = 0
        self._redirected: dict[NodeId, set[NodeId]] = {}
        self._rejected_subscribers = 0
        #: Flap-damping gate (``node -> bool``) installed by ``bind``
        #: when the fluctuation layer arms damping; ``None`` otherwise.
        self._flap_gate = None

    def bind(self, sim) -> None:
        super().bind(sim)
        # The root check on every arrival reads the tree's own ``_root``
        # (failover moves it in place; the tree object is never replaced).
        self._tree = sim.tree
        self._recorder = sim.recorder
        # An unoverridden push store goes straight to the host's copy
        # table, as an unoverridden reply store does (``dup-invalidate``
        # overrides).
        self._host_store_push = type(self)._store_push is DupScheme._store_push
        if self.overload is not None:
            self._max_subscribers = self.overload.plan.max_subscribers
            self._breakers = self.overload.plan.breakers_enabled
        sessions = sim.sessions
        if sessions is not None and sessions.plan.damping_enabled:
            self._flap_gate = sessions.suppressed
        # Both hold the host and the scheme themselves, not bound
        # methods of them: binding allocates nothing per key but them.
        self.protocol = DupProtocol(host=sim)
        self.maintenance = DupMaintenance(self.protocol, sim, self)
        if sim.config.lease_ttl > 0:
            self._leases = LeaseTable(
                sim.config.lease_ttl, clock=lambda: sim.env.now
            )
            sim.env.process(
                self._lease_refresh_loop(),
                name=f"dup-lease-refresh-{sim.key}",
            )
            sim.env.process(
                self._lease_expiry_loop(),
                name=f"dup-lease-expiry-{sim.key}",
            )

    def unbind(self) -> None:
        super().unbind()
        # The maintenance engine calls back into the scheme; the
        # protocol's root check and the lease clock read the host.
        self.protocol = self.maintenance = self._leases = None
        self._tree = self._recorder = self._flap_gate = None

    def _record(self, kind: str, node=None, subject=None, detail="") -> None:
        if self._recorder is not None:
            self._recorder.record(kind, node, subject, detail)

    # -- interest ------------------------------------------------------------
    def is_interested(self, node: NodeId) -> bool:
        """Whether ``node`` currently satisfies the interest policy."""
        interest = self._interest
        if interest is None:
            interest = self.interest()
        return interest.is_interested(node, self._env._now)

    # -- hooks into the shared query engine ------------------------------------
    def _on_query_arrival(
        self, node: NodeId, packet: Optional[QueryMessage]
    ) -> list[object]:
        now = self._env._now
        interest = self._interest
        if interest is None:
            interest = self.interest()
        if node == self._tree._root:
            interest.record(node, now)
            return []
        # The interest/subscription checks must run before the local-query
        # early return below: ``is_subscribed`` lazily creates the node's
        # subscriber-list entry, and downstream iteration order (e.g. the
        # lease loops walking ``nodes_with_state``) keys off when that
        # entry first appeared.
        protocol = self.protocol
        if not interest.arrive(node, now) or protocol.is_subscribed(node):
            return []
        if self._flap_gate is not None and self._flap_gate(node):
            # Flap damping: a suppressed peer's subscription attempts
            # are refused until its penalty decays below the reuse
            # threshold — no hard state for a peer that keeps crashing.
            return []
        if packet is None and not self.sim.config.eager_subscribe:
            # Local query with no packet yet: if it misses, the
            # subscription rides the outgoing request (paper: "piggybacks
            # subscribe(N6) by setting the interest bit in the request
            # packet"); if it hits, defer to the next miss rather than
            # paying an explicit hop-by-hop walk.
            return []
        self._record("subscribe", node=node, detail="query-arrival")
        return protocol.ensure_subscribed(node).upstream

    def _on_local_miss(self, node: NodeId) -> list[object]:
        if self.sim.is_root(node) or not self._should_subscribe(node):
            return []
        self._record("subscribe", node=node, detail="local-miss")
        return self.protocol.ensure_subscribed(node).upstream

    def _should_subscribe(self, node: NodeId) -> bool:
        if self._flap_gate is not None and self._flap_gate(node):
            return False
        return self.is_interested(node) and not self.protocol.is_subscribed(
            node
        )

    def _process_control(
        self, node: NodeId, payloads: list[object], explicit: bool
    ) -> list[object]:
        combined = StepResult()
        for payload in payloads:
            self._trace_note(
                node,
                f"dup.{type(payload).__name__.lower()}",
                repr(payload),
            )
            if isinstance(payload, LeaseRefresh):
                self._handle_lease_refresh(node, payload, combined)
                continue
            if isinstance(payload, SubscribeNack):
                self._handle_subscribe_nack(node, payload)
                continue
            if self._max_subscribers and self._degrade_control(
                node, payload, combined
            ):
                continue
            combined.merge(self.protocol.step(node, payload))
            self._note_lease_activity(node, payload)
        if (
            explicit
            and self.sim.config.immediate_push
            and self.protocol.in_dup_tree(node)
        ):
            # A subscriber added via an explicit subscribe missed the
            # reply that a piggybacked one would have ridden back on: the
            # node that caught the subscription — if it is itself a push
            # recipient (root or DUP-tree interior) — hands it the current
            # index right away (paper: the root "pushes the current and
            # future updated index").  Relay nodes on the virtual path do
            # not push: the subscription is not theirs to serve.
            self._push_current(node, combined.new_subscribers)
        return combined.upstream

    # -- graceful degradation (overload layer) --------------------------------
    def _degrade_control(
        self, node: NodeId, payload: object, combined
    ) -> bool:
        """Fanout-capped handling of one control payload at ``node``.

        Returns ``True`` when the payload was fully handled here (the
        normal ``protocol.step`` must be skipped).  Two cases:

        - the subject was previously *redirected* by this node: its
          subscription state lives at the parent, so subscribe /
          unsubscribe / refresh traffic is relayed upstream instead of
          being processed against a list that never held it (an
          unsubscribe would otherwise die here and leak the parent's
          entry forever);
        - a fresh ``Subscribe`` arriving at a node already at its
          fanout cap: refused with a redirect — the subscribe continues
          to the parent, the subject gets a direct NACK naming the
          refuser, and the subject is remembered as redirected.

        The root never refuses (someone must hold the subscription),
        and repair traffic (``RefreshSubscribe`` for non-redirected
        subjects, ``Substitute``) is never refused either.
        """
        subject = getattr(payload, "subject", None)
        if subject is None or subject == node:
            return False
        redirected = self._redirected.get(node)
        if redirected is not None and subject in redirected:
            if isinstance(payload, Unsubscribe):
                redirected.discard(subject)
            if isinstance(
                payload, (Subscribe, Unsubscribe, RefreshSubscribe)
            ):
                self._trace_note(node, "dup.redirect-relay", repr(payload))
                combined.upstream.append(payload)
                return True
            return False
        if not isinstance(payload, Subscribe):
            return False
        sim = self.sim
        if sim.is_root(node):
            return False
        s_list = self.protocol.s_list(node)
        if subject in s_list:
            return False  # already listed: renewal, not growth
        fanout = sum(1 for entry in s_list if entry != node)
        if fanout < self._max_subscribers:
            return False
        # Refuse: redirect the subscribe to the parent, NACK the subject.
        self._rejected_subscribers += 1
        if redirected is None:
            redirected = self._redirected.setdefault(node, set())
        redirected.add(subject)
        self._record(
            "reject-subscriber",
            node=node,
            subject=subject,
            detail=f"fanout={fanout}",
        )
        self._trace_note(node, "dup.reject-subscriber", f"subject={subject}")
        combined.upstream.append(payload)
        self._send_nack(node, subject)
        return True

    def _send_nack(self, refuser: NodeId, subject: NodeId) -> None:
        """Direct best-effort NACK to the refused subject.

        Deliberately unreliable: the NACK is advice (it feeds the
        subject's breaker for the refuser), not protocol state — the
        redirected subscribe is what actually keeps the subject served.
        """
        sim = self.sim
        if not sim.alive(subject):
            return
        message = ControlMessage(
            key=sim.key,
            payloads=[SubscribeNack(subject=subject, refuser=refuser)],
            sender=refuser,
        )
        message.trace_id = self._carrier_trace
        sim.transport.send(subject, message)

    def _handle_subscribe_nack(
        self, node: NodeId, payload: SubscribeNack
    ) -> None:
        """The subject learned a peer refused to list it."""
        self._record(
            "reject-subscriber",
            node=node,
            subject=payload.refuser,
            detail="nack-received",
        )
        if self._breakers and node == payload.subject:
            self.overload.record_failure(
                node, payload.refuser, reason="subscribe-nack"
            )

    @property
    def rejected_subscribers(self) -> int:
        """Subscribes refused (and redirected) by capped interior nodes."""
        return self._rejected_subscribers

    @property
    def split_subscribers(self) -> int:
        """Subscribes delegated sideways by capped nodes (``dup-balanced``
        overrides; 0 here so extras stay key-identical across the DUP
        family, which the differential harness relies on)."""
        return 0

    @property
    def reabsorbed_subscribers(self) -> int:
        """Delegated subjects taken back after load drained
        (``dup-balanced`` overrides; 0 here)."""
        return 0

    # -- pushes ---------------------------------------------------------------
    def on_new_version(self, version) -> None:
        root = self.sim.tree.root
        self._fan_out(root, self.protocol.members(root), version)

    def _handle_push(self, node: NodeId, message: PushMessage) -> None:
        version = message.version
        if self._host_store_push:
            self.sim.copies.put(version, self._env._now, node)
        else:
            self._store_push(node, version)
        # One read of the members serves the subscription test, the
        # leaf test and the fan-out; it is also where the node's entry
        # is lazily created, which fixes its place in
        # ``nodes_with_state`` (the lease loops walk that order) — keep
        # it after the store.
        members = self.protocol.members(node)
        if node in members:
            interest = self._interest
            if interest is None:
                interest = self.interest()
            # Figure 3 (D): the push is the natural moment to notice
            # that the node's interest lapsed during the last cycle.
            if not interest.is_interested(node, self._env._now):
                self._record("unsubscribe", node=node, detail="interest-lapse")
                result = self.protocol.drop_subscription(node)
                self._send_control(
                    node, result.upstream, trace_id=message.trace_id
                )
            elif len(members) == 1:
                return  # a subscribed leaf: nobody downstream to serve
        # ``drop_subscription`` edited this very list, but only the
        # node's own entry, which the fan-out skips either way.
        self._fan_out(node, members, version, message.trace_id)

    def _store_push(self, node: NodeId, version) -> None:
        """What a received push leaves in the node's cache (unless
        overridden, the push path stores into the host's copy table in
        its place)."""
        self.sim.copies.put(version, self._env._now, node)

    def _push_current(self, node: NodeId, targets: list[NodeId]) -> None:
        """Push the node's current valid copy to newly added subscribers."""
        if not targets:
            return
        sim = self.sim
        version = sim.lookup(node)
        if version is None:
            return
        gone = self._fan_out(node, targets, version, self._carrier_trace)
        for target in targets:
            if target != node and target not in gone:
                self._trace_note(
                    node, "dup.push_current", f"target={target}"
                )

    # -- churn -------------------------------------------------------------------
    def on_node_joined_edge(
        self, new: NodeId, upper: NodeId, lower: NodeId
    ) -> None:
        self.maintenance.node_joined_edge(new, upper, lower)

    def on_node_joined_leaf(self, parent: NodeId, new: NodeId) -> None:
        self.maintenance.node_joined_leaf(parent, new)

    def on_node_left(self, node: NodeId) -> None:
        self.maintenance.node_left(node)
        self._forget_interest(node)
        self._redirected.pop(node, None)
        if self._leases is not None:
            self._leases.drop_holder(node)
        self.sim.forget_node(node)

    def on_node_failed(self, node: NodeId) -> None:
        self.maintenance.node_failed(node)
        self._forget_interest(node)
        self._redirected.pop(node, None)
        if self._leases is not None:
            self._leases.drop_holder(node)
        self.sim.forget_node(node)

    def snapshot_for_rejoin(self, node: NodeId) -> dict:
        """The amnesia snapshot: what ``node`` still holds after a
        crash-restart — its subscriber list and its interest state
        (the engine captures the TTL cache itself)."""
        interest = self._interest
        return {
            "entries": self.protocol.peek_entries(node),
            "interest": None if interest is None else interest.snapshot(node),
        }

    def on_node_rejoined(
        self,
        node: NodeId,
        parent: NodeId,
        snapshot: "dict | None",
        suppressed: bool = False,
    ) -> None:
        """Crash-restart return: reconcile the retained hard state.

        The rejoiner comes back holding its pre-crash subscriber list,
        interest state, and cache.  The reconciliation handshake
        re-validates every retained entry against the current tree and
        the live lease table (:meth:`DupMaintenance.node_rejoined`),
        excises what the auditor would flag, renews the leases of the
        survivors, and re-advertises upstream.  Versions stay monotone
        throughout: the restored cache rejects pushes older than what it
        already holds, and newer pushes replace the stale copy as usual.

        When flap damping ``suppressed`` the peer, none of that happens:
        the node rejoins as a bare leaf with full amnesia and emits no
        re-graft/resubscribe traffic until its penalty decays.
        """
        sim = self.sim
        entries = tuple(snapshot["entries"]) if snapshot else ()
        if suppressed:
            self.protocol.drop_node(node)
            self._forget_interest(node)
            self._redirected.pop(node, None)
            if self._leases is not None:
                self._leases.drop_holder(node)
            if node not in sim.tree:
                self.maintenance.node_joined_leaf(parent, node)
            return
        if snapshot:
            self.interest().restore(node, snapshot.get("interest"))
        if node in entries and not self.is_interested(node):
            # Interest lapsed across the downtime: the self-subscription
            # does not survive reconciliation.
            entries = tuple(entry for entry in entries if entry != node)
            self._record(
                "stale-excise", node=node, subject=node, detail="interest-lapse"
            )
        leases = self._leases
        entry_valid = None
        if leases is not None:
            now = sim.env._now

            def entry_valid(entry: NodeId) -> bool:
                return leases.live(node, entry, now)

        kept, excised = self.maintenance.node_rejoined(
            node, parent, entries, entry_valid
        )
        if leases is not None:
            for entry in kept:
                if entry != node:
                    leases.touch(node, entry)
            for entry in excised:
                leases.drop(node, entry)
        self._rejoin_reconciles += 1
        self._rejoin_kept += len(kept)
        self._rejoin_excised += len(excised)

    @property
    def rejoin_reconciles(self) -> int:
        """Crash-restart reconciliation handshakes run."""
        return self._rejoin_reconciles

    @property
    def rejoin_kept_entries(self) -> int:
        """Retained subscriber entries that survived reconciliation."""
        return self._rejoin_kept

    @property
    def rejoin_excised_entries(self) -> int:
        """Retained subscriber entries excised as stale on rejoin."""
        return self._rejoin_excised

    def on_root_failed(self, new_root: NodeId) -> None:
        """Authority failure (paper failure case 5).

        ``new_root`` is either a fresh node taking over the failed
        root's position (the paper's scenario) or an existing tree node
        promoted by the standby failover machinery — the maintenance
        flows differ (a standby's old position must be spliced out and
        its state handed over first).
        """
        old_root = self.sim.tree.root
        if new_root in self.sim.tree:
            self.maintenance.promote_root(new_root)
        else:
            self.maintenance.root_failed(new_root)
        self._forget_interest(old_root)
        self._redirected.pop(old_root, None)
        if self._leases is not None:
            self._leases.drop_holder(old_root)

    def on_peer_suspected(self, reporter: NodeId, suspect: NodeId) -> None:
        """Local-only cleanup after a suspicion of a node still alive.

        The suspect's entry leaves the reporter's list (it stopped
        acking / refreshing, so pushes to it are wasted) but the overlay
        is untouched: if the suspect is in fact healthy its next lease
        refresh arrives with an unknown subject and re-subscribes it
        (see :meth:`_handle_lease_refresh`).
        """
        if suspect not in self.protocol.s_list(reporter):
            return
        if self._leases is not None:
            self._leases.drop(reporter, suspect)
        self._record(
            "unsubscribe", node=reporter, subject=suspect, detail="suspected"
        )
        result = self.protocol.step(reporter, Unsubscribe(suspect))
        self._send_control(reporter, result.upstream)

    # -- maintenance plumbing ------------------------------------------------------
    def _emit_maintenance(self, from_node: NodeId, payload: object) -> None:
        if not self.sim.functioning(from_node):
            # A silently failed node cannot originate repair traffic;
            # its orphans stay dark until leases or retries expose them.
            return
        self._send_control(from_node, [payload])

    def _charge_maintenance(self, hops: int) -> None:
        self.sim.ledger.charge(Category.CONTROL, hops)

    # -- leases --------------------------------------------------------------------
    @property
    def lease_expiries(self) -> int:
        """How many subscriber-list entries lapsed without refresh."""
        return self._lease_expiries

    def _note_lease_activity(self, node: NodeId, payload: object) -> None:
        """Grant / renew / drop lease records as control payloads mutate
        the node's subscriber list."""
        leases = self._leases
        if leases is None:
            return
        s_list = self.protocol.s_list(node)
        if isinstance(payload, (Subscribe, RefreshSubscribe)):
            subject = payload.subject
            if subject != node and subject in s_list:
                leases.touch(node, subject)
        elif isinstance(payload, Unsubscribe):
            leases.drop(node, payload.subject)
        elif isinstance(payload, Substitute):
            leases.drop(node, payload.old)
            if payload.new != node and payload.new in s_list:
                leases.touch(node, payload.new)

    def _handle_lease_refresh(
        self, node: NodeId, payload: LeaseRefresh, combined: StepResult
    ) -> None:
        leases = self._leases
        if leases is None:
            return  # refresh from a differently-configured run: ignore
        subject = payload.subject
        if subject in self.protocol.s_list(node):
            leases.touch(node, subject)
            return
        redirected = self._redirected.get(node)
        if redirected is not None and subject in redirected:
            # The subject's state lives at the parent (fanout-cap
            # redirect): relay the refresh instead of re-adopting it.
            combined.upstream.append(payload)
            return
        # Unknown subject: the entry was expired (or its subscribe was
        # lost before the reliable channel existed).  Self-heal by
        # treating the refresh as a subscribe.
        combined.merge(self.protocol.step(node, Subscribe(subject)))
        self._note_lease_activity(node, Subscribe(subject))

    def _lease_refresh_loop(self):
        sim = self.sim
        interval = self._leases.ttl / 3.0
        while True:
            yield sim.env.timeout(interval)
            for node in self.protocol.nodes_with_state():
                if sim.is_root(node) or not sim.functioning(node):
                    continue
                advertisement = self.protocol.advertisement(node)
                if advertisement is None:
                    continue
                parent = sim.parent(node)
                if parent is None:
                    continue
                # Deliberately unreliable: a lost refresh is absorbed by
                # the lease slack, and an expired entry self-heals on
                # the next refresh that does arrive.
                message = ControlMessage(
                    key=sim.key,
                    payloads=[LeaseRefresh(advertisement)],
                    sender=node,
                )
                sim.transport.send(parent, message)

    def _lease_expiry_loop(self):
        sim = self.sim
        interval = self._leases.ttl / 4.0
        while True:
            yield sim.env.timeout(interval)
            for node in list(self.protocol.nodes_with_state()):
                if not sim.functioning(node):
                    continue
                entries = [
                    entry
                    for entry in self.protocol.s_list(node).snapshot()
                    if entry != node
                ]
                self._leases.reconcile(node, entries)
                for entry in self._leases.expired(node, sim.env.now):
                    self._lease_expired(node, entry)

    def _lease_expired(self, node: NodeId, entry: NodeId) -> None:
        self._lease_expiries += 1
        self._record("lease-expiry", node=node, subject=entry)
        self._leases.drop(node, entry)
        # The suspicion routes to the full Section III-C repair when the
        # entry really is dead, or to local cleanup when it is alive.
        self.sim.suspect_peer(node, entry)

    # -- introspection (used by experiments/tests) -----------------------------------
    def subscribed_nodes(self) -> tuple[NodeId, ...]:
        """Nodes currently subscribed (in their own lists)."""
        return tuple(
            node
            for node in self.protocol.nodes_with_state()
            if self.protocol.is_subscribed(node)
        )

    def dup_tree_size(self) -> int:
        """Number of nodes involved in update propagation."""
        root = self.sim.tree.root
        return len({root, *(t for _, t in push_edges(self.protocol, root))})

    def threshold_bounds(self) -> Optional[tuple[int, int]]:
        """(min, max) effective interest threshold across the nodes with
        interest state.

        For the static window policy both bounds equal ``threshold_c``;
        under the adaptive policy they expose the spread the per-node
        tuning produced.  ``None`` when no node has interest state yet.
        """
        interest = self._interest
        return None if interest is None else interest.threshold_bounds()

    def max_fanout(self) -> int:
        """Largest subscriber fanout over all nodes holding DUP state
        (entries other than the node itself; the quantity the overload
        layer's ``max_subscribers`` cap bounds)."""
        protocol = self.protocol
        best = 0
        for node in protocol.nodes_with_state():
            s_list = protocol.s_list(node)
            fanout = sum(1 for entry in s_list if entry != node)
            if fanout > best:
                best = fanout
        return best
