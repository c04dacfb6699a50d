"""Subscriber-load balancing for fanout-capped DUP trees (``dup-balanced``).

PR 7's overload layer lets a capped interior node *refuse* a fresh
subscriber: the subscribe is redirected to the parent and the subject is
NACKed — load moves up, concentrating on the ancestors.  This module
turns the refusal into a *split*: the capped node hands the subscriber to
its best-ranked existing subscriber-list entry, which becomes a relay for
it.  Load moves **down**, the DUP tree widens, and the cap becomes a true
per-node bound instead of a pressure valve (the D3-Tree idea adapted to
the paper's subscriber lists).

:class:`DupBalancer` is a pure state machine over a
:class:`~repro.core.protocol.DupProtocol` — all I/O happens through
injected callbacks — so it can be driven both by the discrete-event
scheme adapter (:class:`repro.schemes.dup_balanced.DupBalancedScheme`)
and synchronously by the property-test suite.

Mechanics
---------
- A fresh ``Subscribe(s)`` at a capped node ``N`` picks the delegate
  ``d``: the entry of ``N``'s list with the smallest ``(fanout, id)``
  that is alive, under its own cap, not ``s`` itself, and not
  push-reachable *from* ``s`` (the acyclicity guard).  ``N`` records the
  mapping ``s -> d`` and sends a point-to-point :class:`Delegate`; ``d``
  processes it as a local subscribe, so ``s`` rides ``d``'s pushes.
- While the mapping lives, control traffic for ``s`` arriving at ``N``
  routes to ``d``: subscribes/refreshes re-issue the (idempotent)
  delegation, unsubscribes become a :class:`Reclaim`, substitutes re-key
  the mapping and forward.
- When ``N``'s own fanout drains below the cap, it *reabsorbs* delegated
  subjects (smallest id first): the subject re-enters ``N``'s list and
  the delegate receives a :class:`Reclaim`, dissolving the split.
- No candidate (all entries capped, dead, or cyclic) falls back to the
  PR-7 refusal — redirect upstream plus NACK — so coverage never drops.
- A Section III-C ``RefreshSubscribe`` reaching a capped node that does
  not list its subject is split or redirected the same way (without the
  NACK: repair traffic is no fault of the subject).

Delegated entries are deliberately *cross-branch* state: ``d`` lists a
subject that is not in its subtree, exactly like the parent does after a
PR-7 redirect.  The classic branch-uniqueness invariant therefore holds
for the underlying tree minus delegated entries; the suite asserts the
balanced-aware set (cap bound, push-graph acyclicity, exact coverage,
reabsorption to zero when load drains).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.protocol import DupProtocol, StepResult
from repro.net.message import (
    Delegate,
    Reclaim,
    RefreshSubscribe,
    Subscribe,
    Substitute,
    Unsubscribe,
)

NodeId = int


def _noop(*_args, **_kwargs) -> None:
    return None


class DupBalancer:
    """Delegation state and the capped-control pipeline of ``dup-balanced``.

    Parameters
    ----------
    protocol:
        The shared DUP state machine (subscriber lists live there).
    cap:
        The fanout cap (``OverloadPlan.max_subscribers``); the balancer
        is inert when 0.
    redirected:
        The *scheme's* redirect bookkeeping, shared by reference so the
        PR-7 fallback and the split pipeline never disagree about where
        a subject's state lives.
    alive / is_root:
        Liveness and authority oracles.
    send_down:
        ``send_down(sender, target, payload)`` — deliver one control
        payload point-to-point (reliably in the engine, synchronously in
        tests).
    on_reject:
        Called when the fallback refusal fires (the scheme counts it,
        records the flight event, and NACKs the subject).
    note_lease:
        Called with each synthetic Subscribe/Unsubscribe applied locally
        so lease bookkeeping tracks the list mutations.
    record / trace:
        Optional flight-recorder / span-annotation hooks.
    """

    def __init__(
        self,
        protocol: DupProtocol,
        cap: int,
        *,
        redirected: dict[NodeId, set[NodeId]],
        alive: Callable[[NodeId], bool],
        is_root: Callable[[NodeId], bool],
        send_down: Callable[[NodeId, NodeId, object], None],
        on_reject: Callable[[NodeId, NodeId], None],
        note_lease: Callable[[NodeId, object], None] = _noop,
        record: Callable[..., None] = _noop,
        trace: Callable[..., None] = _noop,
    ):
        self._protocol = protocol
        self._cap = int(cap)
        self._redirected = redirected
        self._alive = alive
        self._is_root = is_root
        self._send_down = send_down
        self._on_reject = on_reject
        self._note_lease = note_lease
        self._record = record
        self._trace = trace
        #: delegator -> {subject -> delegate}
        self._delegations: dict[NodeId, dict[NodeId, NodeId]] = {}
        #: Splits performed (Delegate issued for a fresh subscriber).
        self.splits = 0
        #: Delegated subjects taken back after local load drained.
        self.reabsorbed = 0

    # -- introspection -----------------------------------------------------
    @property
    def cap(self) -> int:
        """The fanout cap the balancer enforces."""
        return self._cap

    def delegate_for(self, node: NodeId, subject: NodeId) -> Optional[NodeId]:
        """The delegate currently serving ``subject`` for ``node``."""
        mapping = self._delegations.get(node)
        if mapping is None:
            return None
        return mapping.get(subject)

    def delegations_of(self, node: NodeId) -> dict[NodeId, NodeId]:
        """Snapshot of ``node``'s subject -> delegate mappings."""
        return dict(self._delegations.get(node, ()))

    def delegated_count(self) -> int:
        """Total live subject -> delegate mappings across all nodes."""
        return sum(len(m) for m in self._delegations.values())

    def fanout(self, node: NodeId) -> int:
        """Subscriber-list entries other than the node itself."""
        s_list = self._protocol.s_list(node)
        return sum(1 for entry in s_list if entry != node)

    # -- the capped-control pipeline ---------------------------------------
    def handle(self, node: NodeId, payload: object, combined: StepResult) -> bool:
        """Process one control payload at ``node`` under the cap.

        Returns ``True`` when the payload was fully handled here (the
        caller must skip the plain ``protocol.step``).  The pipeline, in
        order: delegation payloads, routing for delegated subjects,
        redirect relaying (the overload layer's flow), and — for a
        subscribe at a capped node that does not list its subject —
        split-or-refuse.  A III-C ``RefreshSubscribe`` counts as such a
        subscribe: at the first node that does not list the subject it
        becomes one.
        """
        if isinstance(payload, Delegate):
            self._accept_delegate(node, payload, combined)
            return True
        if isinstance(payload, Reclaim):
            self._accept_reclaim(node, payload, combined)
            return True
        if self._route(node, payload, combined):
            return True
        if self._relay_redirected(node, payload, combined):
            return True
        if self._relay_dissolution(node, payload, combined):
            return True
        if not isinstance(payload, (Subscribe, RefreshSubscribe)):
            return False
        subject = payload.subject
        if subject == node or self._is_root(node):
            return False
        s_list = self._protocol.s_list(node)
        if subject in s_list:
            return False  # already listed: renewal, not growth
        if self.fanout(node) < self._cap:
            return False
        delegate = self.choose_delegate(node, subject)
        if delegate is not None:
            self.delegate(node, subject, delegate)
            return True
        return self._refuse(node, payload, combined)

    # -- delegation payloads ------------------------------------------------
    def _accept_delegate(
        self, node: NodeId, payload: Delegate, combined: StepResult
    ) -> None:
        """``node`` was handed ``payload.subject`` by a capped delegator."""
        subscribe = Subscribe(payload.subject)
        if self._relay_redirected(node, subscribe, combined):
            return  # the subject's state lives at our parent already
        if payload.subject != node and not self._is_root(node):
            s_list = self._protocol.s_list(node)
            if payload.subject not in s_list and self.fanout(node) >= self._cap:
                # The delegate filled up while the Delegate was in
                # flight: no cascading splits — fall back to the PR-7
                # refusal *here* (redirect upstream, NACK the subject).
                self._refuse(node, subscribe, combined)
                return
        combined.merge(self._protocol.step(node, subscribe))
        self._note_lease(node, subscribe)

    def _accept_reclaim(
        self, node: NodeId, payload: Reclaim, combined: StepResult
    ) -> None:
        """The delegator took ``payload.subject`` back (or it left)."""
        unsubscribe = Unsubscribe(payload.subject)
        if self._relay_redirected(node, unsubscribe, combined):
            return  # we had redirected it upward; relay the removal too
        combined.merge(self._protocol.step(node, unsubscribe))
        self._note_lease(node, unsubscribe)

    # -- routing for delegated subjects --------------------------------------
    def _route(self, node: NodeId, payload: object, combined: StepResult) -> bool:
        mapping = self._delegations.get(node)
        if not mapping:
            return False
        subject = getattr(payload, "subject", None)
        if subject is not None and subject in mapping:
            if subject in self._protocol.s_list(node):
                # The subject re-entered the local list (substitute or
                # churn adoption): the local entry wins, drop the stale
                # mapping and process normally.
                self._unmap(node, subject)
                return False
            delegate = mapping[subject]
            if isinstance(payload, (Subscribe, RefreshSubscribe)):
                # Renewal / repair: re-issue the idempotent delegation.
                self._send_down(
                    node, delegate, Delegate(subject=subject, delegator=node)
                )
                return True
            if isinstance(payload, Unsubscribe):
                self._unmap(node, subject)
                self._send_down(
                    node, delegate, Reclaim(subject=subject, delegator=node)
                )
                return True
            return False
        if isinstance(payload, Substitute) and payload.old in mapping:
            if payload.old in self._protocol.s_list(node):
                # Stale mapping (churn adoption re-localized the
                # entry): the substitute targets the *local* list now.
                self._unmap(node, payload.old)
                return False
            delegate = mapping.pop(payload.old)
            mapping[payload.new] = delegate
            self._send_down(node, delegate, payload)
            return True
        if (
            isinstance(payload, Substitute)
            and mapping.get(payload.new) == payload.old
        ):
            # Natural dissolution: the delegate collapsed to a pure
            # relay for its last delegated subject and asks to be
            # bypassed.  Let the plain step swap the subject in for the
            # delegate, and flush the delegate's now-vestigial relay
            # entry so a later revival starts from a clean slate instead
            # of re-advertising a subject it no longer serves.
            self._unmap(node, payload.new)
            self._protocol.s_list(payload.old).discard(payload.new)
            return False
        return False

    def _relay_dissolution(
        self, node: NodeId, payload: object, combined: StepResult
    ) -> bool:
        """Drain a dissolution ``Substitute`` crossing a vestigial path.

        When a delegate collapses to a pure relay for its last delegated
        subject, its ``Substitute(delegate, subject)`` walks the tree
        path toward the delegator.  Every path entry it crosses is
        vestigial — it advertises a delegate that serves nobody — so
        rewriting those entries in place (the plain rule) strands relay
        entries that later re-advertise the subject, push to nodes that
        no longer want updates, and sneak past the fanout cap.  Instead:
        finish the bookkeeping at the delegator directly (point-to-point,
        like all delegation traffic) and drain the local path entry by
        the plain unsubscribe rules, whose upstream continuation clears
        the rest of the stale path hop by hop.
        """
        if not isinstance(payload, Substitute):
            return False
        delegate, subject = payload.old, payload.new
        for delegator, mapping in self._delegations.items():
            if delegator != node and mapping.get(subject) == delegate:
                self._unmap(delegator, subject)
                self._protocol.s_list(delegate).discard(subject)
                self._trace(
                    node,
                    "dup.dissolve-relay",
                    f"subject={subject} delegate={delegate}"
                    f" delegator={delegator}",
                )
                self._send_down(node, delegator, Substitute(delegate, subject))
                combined.merge(self._protocol.step(node, Unsubscribe(delegate)))
                return True
        return False

    # -- the PR-7 flows (shared bookkeeping with the base scheme) ------------
    def _relay_redirected(
        self, node: NodeId, payload: object, combined: StepResult
    ) -> bool:
        """Relay traffic for subjects whose state lives at the parent."""
        redirected = self._redirected.get(node)
        if not redirected:
            return False
        if isinstance(payload, Substitute):
            if payload.old in redirected and payload.new != node:
                # The redirected subject's advertisement changed
                # downstream (a junction formed beneath us).  Its entry
                # lives at an ancestor, so rewrite the bookkeeping and
                # relay the swap upward instead of applying it to the
                # local list — that would mint an orphaned entry no push
                # ever reaches.
                redirected.discard(payload.old)
                redirected.add(payload.new)
                self._trace(node, "dup.redirect-relay", repr(payload))
                combined.upstream.append(payload)
                return True
            return False
        subject = getattr(payload, "subject", None)
        if subject is None or subject == node:
            return False
        if subject not in redirected:
            return False
        if isinstance(payload, Unsubscribe):
            redirected.discard(subject)
        if isinstance(payload, (Subscribe, Unsubscribe, RefreshSubscribe)):
            self._trace(node, "dup.redirect-relay", repr(payload))
            combined.upstream.append(payload)
            return True
        return False

    def _refuse(
        self,
        node: NodeId,
        payload: "Subscribe | RefreshSubscribe",
        combined: StepResult,
    ) -> bool:
        """Refusal fallback: redirect the payload upstream.

        A refused subscribe NACKs its subject; a refused repair refresh
        does not (the subject did nothing wrong, as for the orphans
        ``shed_overflow`` redirects).
        """
        subject = payload.subject
        self._redirected.setdefault(node, set()).add(subject)
        combined.upstream.append(payload)
        if isinstance(payload, Subscribe):
            self._on_reject(node, subject)
        else:
            self._trace(node, "dup.refresh-redirect", f"subject={subject}")
        return True

    # -- splitting -----------------------------------------------------------
    def choose_delegate(self, node: NodeId, subject: NodeId) -> Optional[NodeId]:
        """Best-ranked entry of ``node``'s list to take ``subject``.

        Rank is ``(fanout, id)`` ascending over entries that are alive,
        under their own cap, not the subject, and not push-reachable
        from the subject (adding the edge must keep the push graph
        acyclic).  ``None`` when no entry qualifies.
        """
        protocol = self._protocol
        best: Optional[NodeId] = None
        best_key: Optional[tuple[int, NodeId]] = None
        for entry in protocol.s_list(node):
            if entry == node or entry == subject:
                continue
            if not self._alive(entry):
                continue
            fanout = self.fanout(entry)
            if fanout >= self._cap:
                continue
            if self._push_reaches(subject, entry):
                continue
            key = (fanout, entry)
            if best_key is None or key < best_key:
                best, best_key = entry, key
        return best

    def delegate(self, node: NodeId, subject: NodeId, target: NodeId) -> None:
        """Record the split and hand ``subject`` to ``target``."""
        self.splits += 1
        self._delegations.setdefault(node, {})[subject] = target
        self._record(
            "split-subscriber",
            node,
            subject,
            f"delegate={target}",
        )
        self._trace(
            node, "dup.split-subscriber", f"subject={subject} delegate={target}"
        )
        self._send_down(node, target, Delegate(subject=subject, delegator=node))

    def _push_reaches(self, src: NodeId, dst: NodeId) -> bool:
        """Whether ``dst`` is reachable from ``src`` over push edges."""
        protocol = self._protocol
        seen = {src}
        frontier = [src]
        while frontier:
            current = frontier.pop()
            for target in protocol.push_targets(current):
                if target == dst:
                    return True
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        return False

    # -- reabsorption ---------------------------------------------------------
    def rebalance(self, node: NodeId) -> Optional[StepResult]:
        """Reabsorb delegated subjects while ``node`` is under its cap.

        Smallest subject id first, for determinism.  Returns the merged
        local step result (upstream continuations + new subscribers for
        an immediate push), or ``None`` when nothing changed.
        """
        if not self._cap:
            return None
        mapping = self._delegations.get(node)
        if not mapping:
            return None
        protocol = self._protocol
        s_list = protocol.s_list(node)
        result: Optional[StepResult] = None
        while mapping:
            if not self._is_root(node) and self.fanout(node) >= self._cap:
                break
            subject = min(mapping)
            target = mapping.pop(subject)
            if subject in s_list:
                continue  # stale mapping: the entry is already local
            if result is None:
                result = StepResult()
            self.reabsorbed += 1
            self._record(
                "reabsorb-subscriber", node, subject, f"delegate={target}"
            )
            self._trace(
                node,
                "dup.reabsorb-subscriber",
                f"subject={subject} delegate={target}",
            )
            subscribe = Subscribe(subject)
            result.merge(protocol.step(node, subscribe))
            self._note_lease(node, subscribe)
            self._send_down(
                node, target, Reclaim(subject=subject, delegator=node)
            )
        if not mapping:
            self._delegations.pop(node, None)
        return result

    def shed_overflow(self, node: NodeId) -> Optional[StepResult]:
        """Re-cap a list grown past the cap by churn adoption.

        Churn adoption (:meth:`~repro.core.maintenance.DupMaintenance.node_left`
        hands a departed node's whole list to its parent) is the one
        flow that can grow a capped list without passing the subscribe
        pipeline.  Three passes restore the invariant: adopted entries
        that duplicate an existing delegation of ``node`` are simply
        dropped (the subject already receives pushes through the
        delegate); the remaining excess is split to best-ranked
        delegates exactly as the pipeline would have; anything still
        over the cap falls back to the PR-7 redirect — the entry moves
        upstream as a fresh ``Subscribe`` (no NACK, the subscribers did
        nothing wrong).  Returns the upstream payloads (redirected
        subscribes plus the advertisement correction when shedding
        changed what ``node`` advertises), or ``None``.
        """
        if not self._cap or self._is_root(node):
            return None
        if self.fanout(node) <= self._cap:
            return None
        s_list = self._protocol.s_list(node)
        pre = node if len(s_list) >= 2 else s_list.first
        result = StepResult()
        delegated = self._delegations.get(node, {})
        for subject in sorted(s_list):
            if self.fanout(node) <= self._cap:
                break
            if subject != node and subject in delegated:
                s_list.discard(subject)
                self._trace(node, "dup.shed-duplicate", f"subject={subject}")
        shed = True
        while shed and self.fanout(node) > self._cap:
            shed = False
            for subject in sorted(s_list):
                if subject == node:
                    continue
                target = self.choose_delegate(node, subject)
                if target is None:
                    continue
                s_list.discard(subject)
                self.delegate(node, subject, target)
                shed = True
                break
        while self.fanout(node) > self._cap:
            subject = next(s for s in sorted(s_list) if s != node)
            s_list.discard(subject)
            self._redirected.setdefault(node, set()).add(subject)
            self._trace(node, "dup.shed-redirect", f"subject={subject}")
            result.upstream.append(Subscribe(subject))
        post = node if len(s_list) >= 2 else s_list.first
        if pre is not None and post is not None and pre != post:
            result.upstream.append(Substitute(old=pre, new=post))
        return result if result.upstream else None
    # -- churn -----------------------------------------------------------------
    def node_gone(self, node: NodeId) -> list[tuple[NodeId, NodeId]]:
        """Unwind delegation state around a departing/failed ``node``.

        Must run *before* the maintenance repair flows so adoption sees
        plain-DUP state:

        - ``node`` as delegator: mappings are forgotten (the entries
          survive at their delegates; any leak decays via soft-state
          leases — documented behaviour).
        - ``node`` as delegate: its delegated cross-branch entries are
          stripped from its list and returned as ``(delegator, subject)``
          orphans for the scheme to re-home after maintenance runs.
        - ``node`` as delegated subject: the mapping is dropped and the
          delegate told to reclaim (drop) the dead subject's entry.
        """
        self._delegations.pop(node, None)
        orphans: list[tuple[NodeId, NodeId]] = []
        for delegator, mapping in list(self._delegations.items()):
            for subject, target in list(mapping.items()):
                if target == node:
                    self._protocol.s_list(node).discard(subject)
                    self._unmap(delegator, subject)
                    orphans.append((delegator, subject))
                elif subject == node:
                    self._unmap(delegator, subject)
                    self._send_down(
                        delegator,
                        target,
                        Reclaim(subject=subject, delegator=delegator),
                    )
        return orphans

    def _unmap(self, node: NodeId, subject: NodeId) -> None:
        mapping = self._delegations.get(node)
        if mapping is None:
            return
        mapping.pop(subject, None)
        if not mapping:
            self._delegations.pop(node, None)

    def check_caps(self, exclude_root: bool = True) -> list[NodeId]:
        """Nodes whose fanout exceeds the cap (test helper; empty = ok)."""
        if not self._cap:
            return []
        offenders = []
        for node in self._protocol.nodes_with_state():
            if exclude_root and self._is_root(node):
                continue
            if self.fanout(node) > self._cap:
                offenders.append(node)
        return offenders
