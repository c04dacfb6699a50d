"""The DUP protocol state machine (Figure 3 of the paper).

The protocol is implemented as pure state plus *step* functions so that it
can be driven both synchronously (unit / property tests) and by the
discrete-event engine (which turns continuation payloads into real
messages with latency and hop cost).

Per-node state is the subscriber list ``S_list``.  The transitions:

- ``ensure_subscribed(n)`` — Figure 3 (A): when node *n* finds itself
  interested and not yet in its own list, it subscribes.
- ``drop_subscription(n)`` — Figure 3 (D): node *n* lost interest.
- ``step(node, payload)`` — Figure 3 (B), (C), (E): processing of a
  ``subscribe`` / ``substitute`` / ``unsubscribe`` payload arriving at
  ``node`` from downstream.  Returns the payloads that must continue to
  ``node``'s parent (possibly transformed) plus any subscribers that were
  newly added at ``node`` (candidates for an immediate push of the current
  index).

Two deliberate deviations from the paper's pseudocode, both discussed in
DESIGN.md:

1. In ``process unsubscribe``, when the list becomes empty the paper
   forwards ``unsubscribe(N_i)`` (the processing node).  Upstream lists,
   however, hold the id this node last *advertised* — which for a pure
   relay is the removed subject, never the relay itself (the paper's own
   walk-through in Section III-B forwards ``unsubscribe(N6)`` unchanged
   along the virtual path).  We therefore forward the removed subject.
2. In ``process subscribe``, when the list grows from one to two and the
   previous single member was the node itself, the mandated
   ``substitute(N_k, N_i)`` would be a no-op ``substitute(n, n)``; we
   suppress it to avoid charging hops for messages that change nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Iterable, Optional

from repro.core.subscriber_list import SubscriberList
from repro.errors import SubscriptionError
from repro.net.message import (
    RefreshSubscribe,
    Subscribe,
    Substitute,
    Unsubscribe,
)

NodeId = int
Payload = object  # Subscribe | Unsubscribe | Substitute | RefreshSubscribe


@dataclass
class StepResult:
    """Outcome of processing one control payload at one node.

    Attributes
    ----------
    upstream:
        Payloads to forward to the node's parent (empty when the payload
        terminated here).
    new_subscribers:
        Ids just added to this node's subscriber list (other than the node
        itself) — candidates for an immediate push of the current index.
    """

    upstream: list[Payload] = field(default_factory=list)
    new_subscribers: list[NodeId] = field(default_factory=list)

    def merge(self, other: "StepResult") -> None:
        """Fold another result into this one."""
        self.upstream.extend(other.upstream)
        self.new_subscribers.extend(other.new_subscribers)


class DupProtocol:
    """All nodes' DUP state plus the Figure-3 transition functions.

    Parameters
    ----------
    is_root:
        Callable deciding whether a node is the authority (tree root);
        injected so root replacement under churn is reflected live.
    host:
        Instead of ``is_root``: an object whose ``is_root(node)`` method
        decides (a scheme's host), so the protocol holds no callable of
        its own.
    """

    def __init__(
        self,
        is_root: Optional[Callable[[NodeId], bool]] = None,
        *,
        host=None,
    ):
        self._host = SimpleNamespace(is_root=is_root) if host is None else host
        self._lists: dict[NodeId, SubscriberList] = {}

    # -- state access ------------------------------------------------------
    def s_list(self, node: NodeId) -> SubscriberList:
        """The node's subscriber list (created empty on first access)."""
        s_list = self._lists.get(node)
        if s_list is None:
            s_list = SubscriberList()
            self._lists[node] = s_list
        return s_list

    def members(self, node: NodeId) -> list[NodeId]:
        """The node's subscriber list's members: the list the
        :class:`SubscriberList` itself holds, live and in order (the list
        is created empty on first access, as :meth:`s_list` does).

        For the push path, which tests membership and length and fans
        out over it without a method call per read; edit the members
        through :meth:`step` and the other transitions only.
        """
        s_list = self._lists.get(node)
        if s_list is None:
            s_list = self._lists[node] = SubscriberList()
        return s_list._items

    def is_subscribed(self, node: NodeId) -> bool:
        """Whether ``node`` is in its own subscriber list (Figure 3 (A)).

        Creates the node's empty list on first access, as :meth:`s_list`
        does (every query arrival asks: the lookups are inlined).
        """
        s_list = self._lists.get(node)
        if s_list is None:
            s_list = self._lists[node] = SubscriberList()
        return node in s_list._items

    def in_dup_tree(self, node: NodeId) -> bool:
        """Whether ``node`` forwards pushes (root, or >= 2 subscribers)."""
        return self._host.is_root(node) or len(self.s_list(node)) >= 2

    def push_targets(self, node: NodeId) -> tuple[NodeId, ...]:
        """Who ``node`` pushes a received/issued update to (never itself)."""
        return tuple(n for n in self.s_list(node) if n != node)

    def advertisement(self, node: NodeId) -> "NodeId | None":
        """What ``node`` currently advertises upstream (None if nothing).

        A DUP-tree interior node (>= 2 entries) advertises itself; a
        relay advertises its single entry; an empty list advertises
        nothing.
        """
        s_list = self.s_list(node)
        if len(s_list) == 0:
            return None
        if len(s_list) >= 2:
            return node
        return s_list.first

    def peek_entries(self, node: NodeId) -> "tuple[NodeId, ...]":
        """Snapshot of ``node``'s list without creating state for it.

        The crash-restart amnesia snapshot must not leave an empty list
        behind for nodes that held nothing (that would perturb the
        iteration order of :meth:`nodes_with_state`).
        """
        s_list = self._lists.get(node)
        return () if s_list is None else s_list.snapshot()

    def nodes_with_state(self) -> tuple[NodeId, ...]:
        """All nodes holding a non-empty subscriber list."""
        return tuple(n for n, lst in self._lists.items() if len(lst) > 0)

    def drop_node(self, node: NodeId) -> SubscriberList:
        """Remove and return ``node``'s state (departure/failure)."""
        return self._lists.pop(node, SubscriberList())

    def adopt_entries(self, node: NodeId, entries: Iterable[NodeId]) -> None:
        """Merge inherited subscriber entries into ``node``'s list.

        Used by churn maintenance when a neighbor takes over a departed
        node's key space (paper: "N_j acts as N_i").
        """
        s_list = self.s_list(node)
        for entry in entries:
            if entry != node:
                s_list.add(entry)

    # -- Figure 3 (A): node-initiated subscription ---------------------------
    def ensure_subscribed(self, node: NodeId) -> StepResult:
        """Subscribe ``node`` itself; no-op if already subscribed."""
        if self.is_subscribed(node):
            return StepResult()
        return self._process_subscribe(node, node)

    # -- Figure 3 (D): node-initiated unsubscription -------------------------
    def drop_subscription(self, node: NodeId) -> StepResult:
        """Unsubscribe ``node`` itself; no-op if not subscribed."""
        if not self.is_subscribed(node):
            return StepResult()
        return self._process_unsubscribe(node, node)

    # -- payload dispatch (Figure 3 (B), (C), (E)) ---------------------------
    def step(self, node: NodeId, payload: Payload) -> StepResult:
        """Process ``payload`` arriving at ``node`` from downstream."""
        if isinstance(payload, Subscribe):
            return self._process_subscribe(payload.subject, node)
        if isinstance(payload, RefreshSubscribe):
            return self._process_refresh(payload.subject, node)
        if isinstance(payload, Unsubscribe):
            return self._process_unsubscribe(payload.subject, node)
        if isinstance(payload, Substitute):
            return self._process_substitute(payload.old, payload.new, node)
        raise SubscriptionError(f"unknown control payload {payload!r}")

    # -- Figure 3: process subscribe -----------------------------------------
    def _process_subscribe(self, subject: NodeId, node: NodeId) -> StepResult:
        result = StepResult()
        s_list = self.s_list(node)
        if self._host.is_root(node):
            if s_list.add(subject) and subject != node:
                result.new_subscribers.append(subject)
            return result
        previous = s_list.first if len(s_list) == 1 else None
        if not s_list.add(subject):
            # Already listed (e.g. a raced duplicate): nothing to do.
            return result
        if subject != node:
            result.new_subscribers.append(subject)
        if len(s_list) == 1:
            # Had no subscriber, now has one: extend the virtual path.
            result.upstream.append(Subscribe(subject))
        elif len(s_list) == 2:
            # Had one, now two: this node joins the DUP tree and replaces
            # its previous advertisement upstream with itself.
            if previous != node:
                result.upstream.append(Substitute(previous, node))
        # len > 2: already in the DUP tree; no upstream action.
        return result

    # -- failure repair: refresh subscribe -------------------------------------
    def _process_refresh(self, subject: NodeId, node: NodeId) -> StepResult:
        s_list = self.s_list(node)
        if subject in s_list:
            if self.in_dup_tree(node):
                # A live pusher already lists the subject: its own update
                # supply is intact (a failure above it would orphan the
                # node itself, triggering its own refresh), so the chain
                # to the subject is repaired — stop here.
                return StepResult()
            # A relay's knowledge may be a relic of a path through the
            # failed node: keep climbing until a pusher or an unknowing
            # node is found.
            return StepResult(upstream=[RefreshSubscribe(subject)])
        return self._process_subscribe(subject, node)

    # -- Figure 3: process unsubscribe ---------------------------------------
    def _process_unsubscribe(self, subject: NodeId, node: NodeId) -> StepResult:
        result = StepResult()
        s_list = self.s_list(node)
        if not s_list.discard(subject):
            # Unknown subject (race / already cleaned): stop here.
            return result
        if self._host.is_root(node):
            return result
        if len(s_list) == 0:
            # The virtual path through this node dissolves; upstream nodes
            # list the id this relay advertised — the removed subject.
            result.upstream.append(Unsubscribe(subject))
        elif len(s_list) == 1:
            # Leaves the DUP tree: hand the remaining subscriber to the
            # upstream pusher.  When the node itself is what remains, the
            # mandated substitute(n, n) changes nothing upstream — skip it.
            remaining = s_list.first
            if remaining != node:
                result.upstream.append(Substitute(node, remaining))
        return result

    # -- Figure 3: process substitute -------------------------------------------
    def _process_substitute(
        self, old: NodeId, new: NodeId, node: NodeId
    ) -> StepResult:
        result = StepResult()
        s_list = self.s_list(node)
        s_list.replace(old, new)
        if self._host.is_root(node):
            return result
        if len(s_list) == 1:
            # Not in the DUP tree: pass the substitution along.
            result.upstream.append(Substitute(old, new))
        return result
