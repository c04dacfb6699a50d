"""Message and control-payload types exchanged between overlay nodes.

Two layers are distinguished:

- **Messages** travel one overlay hop through the transport and are charged
  to a :class:`Category` (query / reply / push / control / keep-alive).
- **Control payloads** (:class:`Subscribe`, :class:`Substitute`,
  :class:`CupRegister`, ...) describe interest/tree maintenance.  They can
  either ride inside a :class:`QueryMessage` (the paper's "interest bit"
  piggybacking — zero extra hops) or travel standalone wrapped in a
  :class:`ControlMessage` (one charged hop per tree edge).

Every message additionally carries a **span context**: a ``trace_id``
linking it to the query whose causal chain it belongs to (issue →
per-hop forwarding → reply → control continuations → the pushes they
trigger).  The id is ``None`` for traffic outside any query's chain
(TTL-cycle pushes, keep-alives, churn repair) or when tracing is off;
it is propagated with :meth:`Message.inherit_trace` so the
:class:`repro.engine.tracing.TraceCollector` can reassemble full
end-to-end traces from transport events.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

NodeId = int


class Category(enum.Enum):
    """Cost-accounting category for one message hop."""

    QUERY = "query"
    REPLY = "reply"
    PUSH = "push"
    CONTROL = "control"
    KEEPALIVE = "keepalive"

    # Members compare by identity; ``Enum.__hash__`` is a Python function
    # the ledger's ``counts[category] += hops`` would run twice per hop.
    __hash__ = object.__hash__


# ---------------------------------------------------------------------------
# Control payloads (DUP: Figure 3 of the paper; CUP: register/unregister)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Subscribe:
    """``subscribe(N_i)``: node ``subject`` wants future index updates."""

    subject: NodeId


@dataclass(frozen=True, slots=True)
class Unsubscribe:
    """``unsubscribe(N_i)``: node ``subject`` no longer wants updates."""

    subject: NodeId


@dataclass(frozen=True, slots=True)
class Substitute:
    """``substitute(N_i, N_j)``: replace ``old`` with ``new`` upstream."""

    old: NodeId
    new: NodeId


@dataclass(frozen=True, slots=True)
class RefreshSubscribe:
    """Failure repair: re-establish ``subject``'s virtual path.

    Unlike a plain :class:`Subscribe`, a refresh keeps travelling upward
    through nodes that already list ``subject`` (their state may be a relic
    of a path through a failed node) and only converts to normal subscribe
    processing at the first node that does not (paper Section III-C,
    failure cases 3 and 4).
    """

    subject: NodeId


@dataclass(frozen=True, slots=True)
class LeaseRefresh:
    """Soft-state lease renewal: keep ``subject``'s entry alive upstream.

    Sent periodically by every node holding DUP state to its parent,
    naming the node's current upstream *advertisement* (itself when it is
    DUP-tree interior, its sole subscriber otherwise).  A parent that
    lists the subject renews the entry's lease; one that does not treats
    the refresh as a :class:`Subscribe`, healing state lost to message
    loss or a false expiry.  Lease traffic is deliberately unreliable —
    it is the redundancy that makes the rest of the state soft.
    """

    subject: NodeId


@dataclass(frozen=True, slots=True)
class SubscribeNack:
    """Overload refusal: ``refuser`` declined to list ``subject``.

    Sent directly to the subject by a DUP interior node at its fanout
    cap (see :class:`repro.net.overload.OverloadPlan.max_subscribers`).
    The refuser forwarded the subject's :class:`Subscribe` to its own
    parent — the redirect — so the subscription still lands, one level
    higher; the NACK is the subject's signal that the refuser is
    overloaded (it feeds the subject's circuit breaker for that peer).
    """

    subject: NodeId
    refuser: NodeId


@dataclass(frozen=True, slots=True)
class Delegate:
    """Load balancing: ``delegator`` hands ``subject`` to the receiver.

    Sent point-to-point by a ``dup-balanced`` interior node at its fanout
    cap to its best-ranked existing subscriber-list entry.  The receiver
    processes ``Subscribe(subject)`` locally — the split promotes it to
    relay duty for the subject — while the delegator remembers the
    mapping so renewals, unsubscribes, substitutes, and lease refreshes
    for the subject route to the delegate instead of the local list.
    """

    subject: NodeId
    delegator: NodeId


@dataclass(frozen=True, slots=True)
class Reclaim:
    """Load balancing: ``delegator`` takes ``subject`` back.

    Sent point-to-point when a delegated subject unsubscribes or when
    the delegator's fanout has drained below the cap and it reabsorbs
    the subject into its own list.  The receiver processes
    ``Unsubscribe(subject)`` locally, dissolving the split branch.
    """

    subject: NodeId
    delegator: NodeId


@dataclass(frozen=True, slots=True)
class CupRegister:
    """CUP: ``child`` registers with the receiving node for pushes."""

    child: NodeId


@dataclass(frozen=True, slots=True)
class CupUnregister:
    """CUP: ``child`` cancels its registration with the receiving node."""

    child: NodeId


ControlPayload = object  # any of the dataclasses above


# ---------------------------------------------------------------------------
# Wire messages
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Message:
    """Base class for everything the transport can carry.

    ``trace_id`` is the span context: the id of the query trace this
    message causally belongs to, or ``None`` when it is not part of any
    traced query (see the module docstring).

    ``TYPE_ID`` is a small per-class integer indexing the scheme layer's
    typed handler table (see
    :meth:`repro.schemes.base.PathCachingScheme.bind`): the four
    scheme-dispatched classes occupy slots 0-3; engine-consumed classes
    sit above the table so a stray one raises cleanly.
    """

    #: Handler-table slot; the base value is past the table on purpose.
    TYPE_ID = 8

    key: int

    category: Category = field(default=Category.CONTROL, init=False)
    trace_id: Optional[int] = field(default=None, init=False)
    #: Delivery id set by the reliable channel when this message is sent
    #: with ack/retry semantics (None for ordinary fire-and-forget hops).
    reliable_id: Optional[int] = field(default=None, init=False)

    def inherit_trace(self, source: "Message | int | None") -> "Message":
        """Adopt the span context of ``source`` (a message or raw id).

        Returns ``self`` so construction and propagation can be chained:
        ``transport.send(dst, PushMessage(...).inherit_trace(query))``.
        Mutates in place — no new message object is created, and a
        self-inheritance is a no-op.  ``source`` may be a message (its
        ``trace_id`` is adopted), a raw id, or ``None``.
        """
        self.trace_id = getattr(source, "trace_id", source)
        return self


@dataclass(slots=True, init=False)
class QueryMessage(Message):
    """An index request travelling up the search tree.

    Attributes
    ----------
    origin:
        The node that issued the query.
    path:
        Nodes visited so far, origin first; the reply retraces it (an
        empty or omitted path starts as ``[origin]``).
    control:
        Piggybacked control payloads (the paper's interest bit) processed
        at every hop free of charge.

    The constructor is written out, as :class:`PushMessage`'s is: every
    miss builds one, and the generated ``__init__`` + ``__post_init__``
    pair costs a second frame.
    """

    TYPE_ID = 0

    origin: NodeId
    issued_at: float = 0.0
    path: list[NodeId] = field(default_factory=list)
    control: list[ControlPayload] = field(default_factory=list)

    def __init__(
        self,
        key: int,
        origin: NodeId,
        issued_at: float = 0.0,
        path: Optional[list[NodeId]] = None,
        control: Optional[list[ControlPayload]] = None,
        trace_id: Optional[int] = None,
    ) -> None:
        self.key = key
        self.category = Category.QUERY
        self.trace_id = trace_id
        self.reliable_id = None
        self.origin = origin
        self.issued_at = issued_at
        self.path = path if path else [origin]
        self.control = [] if control is None else control

    @property
    def hops(self) -> int:
        """Hops the request has travelled so far."""
        return len(self.path) - 1


@dataclass(slots=True, init=False)
class ReplyMessage(Message):
    """An index reply retracing the query path back to the origin.

    ``path`` is the query's recorded path (origin first); ``position``
    indexes the node the reply currently sits at.  The constructor is
    written out, as :class:`QueryMessage`'s is: every served query builds
    one.
    """

    TYPE_ID = 1

    version: "object"  # repro.index.entry.IndexVersion (avoid import cycle)
    path: list[NodeId]
    position: int
    request_hops: int
    issued_at: float = 0.0

    def __init__(
        self,
        key: int,
        version: "object",
        path: list[NodeId],
        position: int,
        request_hops: int,
        issued_at: float = 0.0,
        trace_id: Optional[int] = None,
    ) -> None:
        self.key = key
        self.category = Category.REPLY
        self.trace_id = trace_id
        self.reliable_id = None
        self.version = version
        self.path = path
        self.position = position
        self.request_hops = request_hops
        self.issued_at = issued_at

    @property
    def destination(self) -> NodeId:
        """Final destination: the query's origin."""
        return self.path[0]

    def next_hop(self) -> Optional[NodeId]:
        """The node one step closer to the origin, or ``None`` at it."""
        if self.position == 0:
            return None
        return self.path[self.position - 1]


@dataclass(slots=True, init=False)
class PushMessage(Message):
    """A proactively pushed index update (CUP hop-by-hop, DUP direct).

    The constructor is written out: a push is built once per DUP-tree
    edge per update, and the generated ``__init__`` + ``__post_init__``
    pair costs a second frame on each.  It also takes the span context,
    so the fan-out need not set it afterwards.
    """

    TYPE_ID = 3

    version: "object"
    sender: NodeId

    def __init__(
        self,
        key: int,
        version: "object",
        sender: NodeId,
        trace_id: Optional[int] = None,
    ) -> None:
        self.key = key
        self.category = Category.PUSH
        self.trace_id = trace_id
        self.reliable_id = None
        self.version = version
        self.sender = sender


@dataclass(slots=True)
class ControlMessage(Message):
    """Standalone control payloads travelling one hop up the tree.

    Payloads generated together are bundled so they are processed in
    order at every hop (separate messages could overtake each other under
    random per-hop latencies and corrupt the subscriber lists).  The hop
    is charged once per payload — bundling is an ordering device, not a
    cost discount.
    """

    TYPE_ID = 2

    payloads: list[ControlPayload]
    sender: NodeId

    def __post_init__(self) -> None:
        self.category = Category.CONTROL


@dataclass(slots=True)
class AckMessage(Message):
    """Delivery acknowledgement for the reliable channel.

    ``acked`` names the :attr:`Message.reliable_id` being confirmed.
    Acks travel one charged control hop, are themselves fire-and-forget
    (a lost ack costs a retransmission, nothing more), and are consumed
    by the engine before scheme dispatch.
    """

    TYPE_ID = 4

    acked: int
    sender: NodeId

    def __post_init__(self) -> None:
        self.category = Category.CONTROL


@dataclass(slots=True)
class AuthorityHeartbeat(Message):
    """Authority liveness beacon sent to each standby between issues.

    Silence (no heartbeat and no replication for ``failover_timeout``)
    is what a standby interprets as an authority crash.
    """

    TYPE_ID = 6

    sender: NodeId

    def __post_init__(self) -> None:
        self.category = Category.KEEPALIVE


@dataclass(slots=True)
class AuthorityReplicate(Message):
    """Authority state replicated to a standby after each issue.

    Carries an :class:`repro.index.authority.AuthorityState` snapshot
    (typed as ``object`` to avoid an import cycle); doubles as a
    heartbeat for liveness purposes.
    """

    TYPE_ID = 7

    state: "object"
    sender: NodeId

    def __post_init__(self) -> None:
        self.category = Category.CONTROL
