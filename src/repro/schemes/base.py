"""Scheme interface and the shared path-caching query engine.

All three paper schemes (PCX, CUP, DUP) share the same query path: a
request climbs the index search tree until it meets a node with a valid
index copy (or the authority), and the reply retraces the request path,
being cached at every hop.  :class:`PathCachingScheme` implements that
engine once; the push schemes override the *hooks* to add interest
tracking, piggybacked control payloads, and update propagation.

The scheme talks to its engine through :class:`repro.schemes.host.SchemeHost`
alone: clock, tree, transport, the index's copy table, the authority, the
metric recorders, and the optional layers.
"""

from __future__ import annotations

import abc
from typing import Optional

from repro.core.interest import interest_table
from repro.index.entry import IndexVersion
from repro.net.message import (
    ControlMessage,
    Message,
    PushMessage,
    QueryMessage,
    ReplyMessage,
)
from repro.schemes.host import SchemeHost

NodeId = int


class Scheme(abc.ABC):
    """Behavioral interface every scheme implements."""

    #: Registry name, e.g. ``"dup"``.
    name: str = "abstract"

    #: Whether this scheme's control messages and pushes ride the
    #: reliable (ack + retransmit) channel when the engine provides one.
    #: Hard-state protocols (DUP) opt in: a lost subscribe corrupts tree
    #: state forever.  Soft-state protocols stay unreliable — their
    #: state self-repairs within a TTL.
    reliable_delivery: bool = False

    #: The adaptive plan this scheme runs unless ``config.interest_policy``
    #: is an ``AdaptivePlan`` of its own (``dup-adaptive``:
    #: ``AdaptivePlan()``); ``None`` follows the configuration.
    interest_policy_override = None

    def __init__(self) -> None:
        self.sim: "SchemeHost | None" = None
        #: The engine's overload manager, or ``None`` when the overload
        #: layer is disabled (set by :meth:`bind`).  Schemes consult it
        #: for circuit-breaker gates and graceful-degradation caps.
        self.overload = None
        #: Span context of the message currently being processed (set by
        #: the dispatch paths around control handling) so decision hooks
        #: can attribute annotations and triggered messages to the query
        #: that caused them.
        self._carrier_trace: "int | None" = None

    def bind(self, sim: SchemeHost) -> None:
        """Attach the scheme to its host (called once by the engine)."""
        self.sim = sim
        self.overload = sim.overload

    def unbind(self) -> None:
        """Undo :meth:`bind`: forget the host and every handle resolved
        from it.

        Called once, by an engine retiring the scheme after its run.  What
        bind built around host callbacks goes too (DUP's protocol and
        maintenance engine); what the run accumulated (the interest
        table, registrations) stays, and refers to neither the host nor
        the scheme, so a retired scheme is freed by reference counting
        alone.
        """
        self.sim = None
        self.overload = None

    def _trace_note(self, node: NodeId, event: str, detail: str = "") -> None:
        """Annotate the trace of the message currently being processed."""
        self.sim.trace_annotate(self._carrier_trace, node, event, detail)

    # -- events delivered by the engine -----------------------------------
    @abc.abstractmethod
    def on_local_query(self, node: NodeId) -> None:
        """A query for the index was generated at ``node``."""

    @abc.abstractmethod
    def on_message(self, node: NodeId, message: Message) -> None:
        """``message`` was delivered to ``node`` by the transport."""

    def on_new_version(self, version: IndexVersion) -> None:
        """The authority issued a new index version (push hooks go here)."""

    # -- churn events (default: topology-only handling) ----------------------
    def on_node_joined_edge(
        self, new: NodeId, upper: NodeId, lower: NodeId
    ) -> None:
        """A node joined on an existing tree edge."""
        self.sim.tree.insert_on_edge(upper, lower, new)

    def on_node_joined_leaf(self, parent: NodeId, new: NodeId) -> None:
        """A node joined as a fresh leaf."""
        self.sim.tree.add_leaf(parent, new)

    def on_node_left(self, node: NodeId) -> None:
        """A node departed gracefully."""
        self.sim.tree.splice_out(node)
        self.sim.forget_node(node)

    def on_node_failed(self, node: NodeId) -> None:
        """A node crashed."""
        self.sim.tree.splice_out(node)
        self.sim.forget_node(node)

    def on_root_failed(self, new_root: NodeId) -> None:
        """The authority crashed; ``new_root`` takes over its position.

        ``new_root`` may be a fresh node (paper failure case 5) or an
        existing tree node promoted by the standby failover machinery.
        Default: topology-only handling — schemes with per-node
        propagation state (DUP) override this to run their repair flows.
        """
        old_root = self.sim.tree.root
        if new_root in self.sim.tree:
            self.sim.tree.promote_to_root(new_root)
        else:
            self.sim.tree.replace_root(new_root)
        self.sim.forget_node(old_root)

    def snapshot_for_rejoin(self, node: NodeId) -> "object | None":
        """The protocol state ``node`` will still hold across a
        crash-restart (its amnesia snapshot).

        Captured by the engine at crash time and handed back to
        :meth:`on_node_rejoined`.  Soft-state schemes have nothing worth
        keeping beyond the cache (which the engine snapshots itself) and
        return ``None``.
        """
        return None

    def on_node_rejoined(
        self,
        node: NodeId,
        parent: NodeId,
        snapshot: "object | None",
        suppressed: bool = False,
    ) -> None:
        """``node`` returned from a crash-restart (fluctuation layer).

        ``parent`` is where to re-graft if a survivor's repair spliced
        the node out while it was down; ``snapshot`` is what
        :meth:`snapshot_for_rejoin` captured; ``suppressed`` means flap
        damping vetoed state restoration (the node rejoins with full
        amnesia and must not emit re-graft/resubscribe traffic).

        Default (soft-state schemes): re-graft as a leaf when needed and
        otherwise resume silently — TTL state self-repairs.
        """
        if node not in self.sim.tree:
            self.sim.tree.add_leaf(parent, node)

    def on_peer_suspected(self, reporter: NodeId, suspect: NodeId) -> None:
        """``reporter`` suspects ``suspect`` is dead, but it is alive.

        A false suspicion (e.g. acks lost to message loss rather than a
        crash) must never splice a live node out of the overlay; schemes
        may at most clean up the reporter's *local* state.  Default:
        nothing.
        """


class PathCachingScheme(Scheme):
    """Shared query/reply engine with path caching (the PCX substrate).

    Subclass hooks:

    - :meth:`_on_query_arrival` — called once per query arrival at a node
      (locally generated or forwarded); returns control payloads to
      propagate upstream from that node.
    - :meth:`_on_local_miss` — a local query missed; returns payloads to
      ride the request packet.
    - :meth:`_process_control` — transforms piggybacked/explicit control
      payloads arriving at a node; returns what continues upstream.
    - :meth:`_lookup` / :meth:`_store_reply` — where a valid copy is
      looked for and what a passing reply leaves behind.

    :meth:`bind` skips the two payload hooks when a class does not
    override them, and an unoverridden lookup or store goes straight to
    the host's copy table (a lookup at the root asks the host, whose
    authority answers there).

    Message dispatch indexes :attr:`_handlers`, one tuple of plain
    functions per class (``handler(scheme, node, message)``), built when
    the class is created, so binding a scheme allocates no bound method
    for it.
    """

    name = "pcx-base"

    #: Whether control payloads outlive their carrier packet: hard-state
    #: protocols (DUP) continue leftovers as explicit charged messages
    #: when the query is served mid-path or was a local hit; soft-state
    #: protocols (CUP) let them die with the packet.
    control_survives_serving = True

    #: Whether :meth:`_fan_out` consults the overload layer's circuit
    #: breakers before each push (DUP arms it when the plan has them).
    _breakers = False

    def __init__(self) -> None:
        super().__init__()
        #: Every node's interest state, created by the first
        #: :meth:`interest` call (only the push schemes measure
        #: interest); schemes that never ask stay at ``None``.
        self._interest = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._resolve_handlers()

    @classmethod
    def _resolve_handlers(cls) -> None:
        """The class's handler table, once per class."""
        # Indexed by :attr:`~repro.net.message.Message.TYPE_ID`, so the
        # per-message dispatch is a tuple index and a call: no isinstance
        # chain, no dict lookup, and a subclass's override (DUP's
        # ``_handle_push``) is the class's own entry.
        cls._handlers = (
            cls._handle_query,  # QueryMessage.TYPE_ID == 0
            cls._handle_reply,  # ReplyMessage.TYPE_ID == 1
            cls._handle_control,  # ControlMessage.TYPE_ID == 2
            cls._handle_push,  # PushMessage.TYPE_ID == 3
        )

    def bind(self, sim: SchemeHost) -> None:
        """Attach to a host and resolve the handles every query touches.

        Each is a reference to an object the host already holds (the
        clock, the parent and membership tests, the transport's shared
        ``send``), so binding allocates nothing per key.  ``sim.tracer``
        is not among them: ``enable_tracing()`` may follow ``bind()``.
        """
        super().bind(sim)
        self._env = sim.env
        self._piggyback = sim.config.piggyback
        self._parent = sim.parent
        self._alive = sim.alive
        self._send = sim.send
        # A hook the class does not override is skipped outright (the
        # query paths test for ``None``), and an unoverridden lookup or
        # store goes straight to the host's copy table (``NoCacheScheme``
        # overrides both).
        cls = type(self)
        if cls._on_query_arrival is PathCachingScheme._on_query_arrival:
            self._on_query_arrival = None
        if cls._on_local_miss is PathCachingScheme._on_local_miss:
            self._on_local_miss = None
        self._host_lookup = cls._lookup is PathCachingScheme._lookup
        self._host_store = cls._store_reply is PathCachingScheme._store_reply

    def unbind(self) -> None:
        super().unbind()
        self._env = self._parent = self._alive = self._send = None
        # What bind() skipped returns to the class methods.
        vars(self).pop("_on_query_arrival", None)
        vars(self).pop("_on_local_miss", None)

    def interest(self):
        """The scheme's interest table (created on first use): every
        node's interest state, read and fed through methods that take
        the node."""
        table = self._interest
        if table is None:
            table = self._interest = interest_table(
                self.sim.config, self.interest_policy_override
            )
        return table

    def _forget_interest(self, node: NodeId) -> None:
        """Drop ``node``'s interest state (a departure or failure)."""
        if self._interest is not None:
            self._interest.forget(node)

    # ------------------------------------------------------------------ hooks
    def _on_query_arrival(
        self, node: NodeId, packet: Optional[QueryMessage]
    ) -> list[object]:
        """Interest tracking hook; returns payloads to send upstream."""
        return []

    def _process_control(
        self, node: NodeId, payloads: list[object], explicit: bool
    ) -> list[object]:
        """Process control payloads at ``node``; returns continuations."""
        return []

    def _lookup(self, node: NodeId):
        """Where this scheme looks for a valid index copy at ``node``
        (unless overridden, the query paths read the host's copy table
        directly below the root, and ask the host at the root)."""
        return self.sim.lookup(node)

    def _on_local_miss(self, node: NodeId) -> list[object]:
        """Hook: a locally issued query missed and a request packet is
        about to leave ``node``; returns payloads to ride it."""
        return []

    # ---------------------------------------------------------------- queries
    def on_local_query(self, node: NodeId) -> None:
        sim = self.sim
        issued_at = self._env._now
        trace_id = None if sim.tracer is None else sim.trace_begin(node)
        self._carrier_trace = trace_id
        arrival = self._on_query_arrival
        payloads = None if arrival is None else arrival(node, None)
        if not self._host_lookup:
            version = self._lookup(node)
        elif node == sim.tree._root:
            version = sim.lookup(node)
        else:
            version = sim.copies.get(node, issued_at)
        if version is not None:
            # An untraced hit goes straight to the recorder; a traced one
            # takes the facade, which also closes the trace.
            if trace_id is None:
                sim.record_hops(0, issued_at)
            else:
                sim.record_latency(0, issued_at, trace_id)
            sim.note_read(version)
            # A cache hit leaves no packet to piggyback on: hard-state
            # control payloads travel explicitly, soft-state ones lapse.
            if payloads and self.control_survives_serving:
                self._send_control(node, payloads, trace_id=trace_id)
            self._carrier_trace = None
            return
        message = QueryMessage(
            key=sim.key, origin=node, issued_at=issued_at, trace_id=trace_id
        )
        local_miss = self._on_local_miss
        if local_miss is not None:
            if payloads is None:
                payloads = local_miss(node)
            else:
                payloads.extend(local_miss(node))
        if payloads:
            if self._piggyback:
                message.control.extend(payloads)
            else:
                self._send_control(node, payloads, trace_id=trace_id)
        self._carrier_trace = None
        parent = self._parent(node)
        if parent is None:  # pragma: no cover - root always has the index
            sim.record_latency(0, issued_at, trace_id)
            return
        self._send(parent, message, sender=node)

    def _handle_query(self, node: NodeId, message: QueryMessage) -> None:
        self._carrier_trace = message.trace_id
        try:
            arrival = self._on_query_arrival
            own_payloads = None if arrival is None else arrival(node, message)
            # Piggybacked control bits from downstream are processed at
            # every hop, free of charge; the node's own payloads are
            # destined for the parent and therefore appended only
            # afterwards.
            if message.control:
                message.control = self._process_control(
                    node, message.control, explicit=False
                )
            if own_payloads:
                if self._piggyback:
                    message.control.extend(own_payloads)
                else:
                    self._send_control(
                        node, own_payloads, trace_id=message.trace_id
                    )
            message.path.append(node)
            sim = self.sim
            if not self._host_lookup:
                version = self._lookup(node)
            elif node == sim.tree._root:
                version = sim.lookup(node)
            else:
                version = sim.copies.get(node, self._env._now)
            if version is not None:
                # Served here: hard-state leftovers continue explicitly,
                # soft-state ones die with the packet.
                leftovers = message.control
                if leftovers:
                    message.control = []
                    if self.control_survives_serving:
                        self._send_control(
                            node, leftovers, trace_id=message.trace_id
                        )
                self._serve(node, message, version)
                return
            parent = self._parent(node)
            if parent is None:
                # The root must hold the authoritative copy; reaching here
                # means the authority was not started - treat as served
                # with the authority's current version.
                leftovers, message.control = message.control, []
                if self.control_survives_serving:
                    self._send_control(
                        node, leftovers, trace_id=message.trace_id
                    )
                self._serve(node, message, sim.authority.current)
                return
            self._send(parent, message, sender=node)
        finally:
            self._carrier_trace = None

    def _serve(
        self, node: NodeId, message: QueryMessage, version: IndexVersion
    ) -> None:
        sim = self.sim
        path = message.path
        position = len(path) - 1
        reply = ReplyMessage(
            key=sim.key,
            version=version,
            path=path,
            position=position,
            request_hops=position,
            issued_at=message.issued_at,
            trace_id=message.trace_id,
        )
        if sim.tracer is not None:
            sim.trace_annotate(
                message.trace_id, node, "serve", f"version={version.version}"
            )
        # The first hop down the path, inline as in :meth:`_handle_reply`.
        next_node = path[position - 1]
        if self._alive(next_node):
            reply.position = position - 1
            self._send(next_node, reply, sender=path[position])
        else:
            self._forward_reply(reply)

    def _handle_reply(self, node: NodeId, reply: ReplyMessage) -> None:
        if self._host_store:
            self.sim.copies.put(reply.version, self._env._now, node)
        else:
            self._store_reply(node, reply.version)
        position = reply.position
        if position == 0:
            sim = self.sim
            if reply.trace_id is None:
                sim.record_hops(reply.request_hops, reply.issued_at)
            else:
                sim.record_latency(
                    reply.request_hops, reply.issued_at, reply.trace_id
                )
            sim.note_read(reply.version)
            return
        # :meth:`_forward_reply`'s common case, inline: the next hop down
        # the path is still a member.
        path = reply.path
        next_node = path[position - 1]
        if self._alive(next_node):
            reply.position = position - 1
            self._send(next_node, reply, sender=path[position])
        else:
            self._forward_reply(reply)

    def _store_reply(self, node: NodeId, version: IndexVersion) -> None:
        """Path caching: cache the reply at every hop (PCX behaviour).

        Unless a subclass overrides it, the reply path stores into the
        host's copy table in its place.
        """
        self.sim.copies.put(version, self._env._now, node)

    def _forward_reply(self, reply: ReplyMessage) -> None:
        alive = self._alive
        path = reply.path
        # The forwarding hop: captured before ``position`` moves so the
        # span records who actually relayed the reply (churn may skip
        # intermediate path entries).
        sender = path[reply.position]
        position = reply.position - 1
        next_node = path[position]
        if not alive(next_node):
            # The path broke under churn: skip the missing hop(s).
            while position > 0 and not alive(path[position]):
                position -= 1
            next_node = path[position]
            if not alive(next_node):
                reply.position = position
                sim = self.sim
                sim.transport.drop(
                    reply,
                    destination=next_node,
                    sender=sender,
                    reason="path",
                )
                sim.note_incomplete_query()
                return
        reply.position = position
        self._send(next_node, reply, sender=sender)

    # ---------------------------------------------------------------- control
    def _send_control(
        self,
        node: NodeId,
        payloads: list[object],
        trace_id: Optional[int] = None,
    ) -> None:
        """Send payloads explicitly to the parent, one charged hop each.

        Payloads are bundled into a single message so that their relative
        order is preserved at every hop; the hop is still charged once per
        payload.  ``trace_id`` tags the message with the span context of
        the query that produced the payloads (None for untraced traffic
        such as TTL-cycle maintenance).
        """
        if not payloads:
            return
        parent = self._parent(node)
        if parent is None:
            return
        sim = self.sim
        message = ControlMessage(
            key=sim.key, payloads=list(payloads), sender=node
        )
        message.trace_id = trace_id
        channel = sim.reliable
        if self.reliable_delivery and channel is not None:
            channel.send(parent, message, sender=node, hops=len(payloads))
        else:
            self._send(parent, message, hops=len(payloads))

    def _handle_control(self, node: NodeId, message: ControlMessage) -> None:
        self._carrier_trace = message.trace_id
        try:
            continuations = self._process_control(
                node, message.payloads, explicit=True
            )
            self._send_control(
                node, continuations, trace_id=message.trace_id
            )
        finally:
            self._carrier_trace = None

    # -------------------------------------------------------------- dispatch
    def on_message(self, node: NodeId, message: Message) -> None:
        # Typed dispatch: TYPE_ID indexes the class's handler table
        # (query/reply/control/push).  Engine-consumed classes carry ids
        # past the table and fall through to the TypeError.
        try:
            handler = self._handlers[message.TYPE_ID]
        except IndexError:
            raise TypeError(f"unhandled message {message!r}") from None
        handler(self, node, message)

    def _handle_push(self, node: NodeId, message: PushMessage) -> None:
        """Push handling; passive schemes receive none."""
        raise TypeError(f"{self.name} received unexpected push {message!r}")

    def _fan_out(
        self,
        node: NodeId,
        targets,
        version,
        trace_id: Optional[int] = None,
    ) -> list[NodeId]:
        """Push ``version`` from ``node`` to each of ``targets`` but itself.

        The one push loop of every push scheme.  Targets that left the
        overlay are skipped and returned, so soft-state callers can
        forget them (DUP leaves them to its failure flows).  A scheme
        with :attr:`reliable_delivery` sends acked and retried when the
        channel exists — an unacked push is also DUP's failure detector
        for silently dead subscribers: retry exhaustion raises the
        suspicion that triggers the Section III-C repair.  With
        :attr:`_breakers` armed, a peer whose breaker is OPEN gets no
        push (the subscription survives; the half-open probe resumes
        pushes once the peer answers again).
        """
        sim = self.sim
        alive = self._alive
        key = sim.key
        send = self._send
        channel = sim.reliable if self.reliable_delivery else None
        allows = self.overload.allows if self._breakers else None
        gone: list[NodeId] = []
        for target in targets:
            if target == node:
                continue
            if not alive(target):
                gone.append(target)
                continue
            if allows is not None and not allows(node, target):
                continue
            push = PushMessage(key, version, node, trace_id)
            if channel is not None:
                channel.send(target, push, sender=node)
            else:
                send(target, push)
        return gone


PathCachingScheme._resolve_handlers()
