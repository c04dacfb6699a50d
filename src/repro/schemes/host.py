"""The host a scheme is bound to: everything a scheme reads off its engine.

Both engines are hosts: :class:`~repro.engine.simulation.Simulation`, and
the scale engine's per-key host, which shares the clock, transport and
latency recorder with every other key.  Each host owns one copy table
for its index, slotted by the node holding the copy.  The defaults are the
layer-free host: no optional layer, every member node working, reads
unchecked for staleness, suspicions moot.  ``Simulation`` overrides only
what its layers add; ``tests/test_host_surface.py`` fails if a scheme
reads a member this class lacks.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.index.cache import IndexCache
from repro.index.entry import IndexVersion

NodeId = int


class SchemeHost:
    """Clock, topology, messaging, per-node state and metric recorders.

    ``parent(node)`` is the parent on the index search tree (``None`` at
    the root and, on a churned tree, for nodes outside it); ``alive(node)``
    is whether ``node`` is part of the overlay.  ``record_hops(hops,
    issued_at)`` records an untraced completed query; a subclass may
    define it as a method instead of passing it.  ``send`` is the
    transport's ``send``, passed in so that every key of a scale shard
    shares one bound method (default: bound here).
    """

    #: Optional layers, absent here and read once, at bind time;
    #: ``Simulation`` sets the ones its config arms.
    overload = None
    recorder = None
    sessions = None

    def __init__(
        self,
        *,
        env,
        config,
        transport,
        ledger,
        tree,
        key: int,
        parent: Callable[[NodeId], Optional[NodeId]],
        alive: Callable[[NodeId], bool],
        record_hops: Optional[Callable[[float, float], None]] = None,
        send: Optional[Callable[..., None]] = None,
    ):
        self.env = env
        self.config = config
        self.transport = transport
        self.send = transport.send if send is None else send
        self.ledger = ledger
        self.tree = tree
        self.key = key
        self.parent = parent
        self.alive = alive
        if record_hops is not None:
            self.record_hops = record_hops
        #: Read per message or per query, so held by the instance: the
        #: reliable channel (``Simulation`` arms it), the tracer
        #: (``Simulation.enable_tracing``) and the key's authority
        #: (installed when the run starts).
        self.reliable = None
        self.tracer = None
        self.authority = None
        #: Every node's TTL copy of this index, filed under the node.
        self.copies = IndexCache()
        self._incomplete = 0

    # -- topology ------------------------------------------------------------
    def is_root(self, node: NodeId) -> bool:
        """Whether ``node`` is the current authority (the tree's own root,
        which a failover moves in place)."""
        return node == self.tree._root

    def functioning(self, node: NodeId) -> bool:
        """Whether ``node`` is alive *and* responding (no faults: alive)."""
        return self.alive(node)

    # -- per-node state ------------------------------------------------------
    def lookup(self, node: NodeId) -> Optional[IndexVersion]:
        """A valid index copy at ``node``: the root's authoritative copy,
        or the node's TTL copy.

        The query paths call it at the root only, and read ``copies``
        below it; every reply and push stores into ``copies`` directly
        (``copies.put(version, now, node)``)."""
        if node == self.tree._root:
            if self.authority is None:
                return None
            return self.authority.current
        return self.copies.get(node, self.env._now)

    def forget_node(self, node: NodeId) -> None:
        """Drop per-node host state after a departure or failure."""
        self.copies.invalidate(node)

    # -- metrics -------------------------------------------------------------
    def record_latency(
        self,
        hops: float,
        issued_at: float,
        trace_id: Optional[int] = None,
    ) -> None:
        """Record one completed query; ``trace_id`` closes its trace."""
        self.record_hops(hops, issued_at)
        if self.tracer is not None and trace_id is not None:
            self.tracer.complete(trace_id, hops)

    def note_incomplete_query(self) -> None:
        """A query's reply was lost on the way; it never completes."""
        self._incomplete += 1

    def note_read(self, version: IndexVersion) -> None:
        """A query was answered with ``version`` (staleness untracked)."""

    def suspect_peer(self, reporter: NodeId, suspect: NodeId) -> None:
        """``reporter`` concluded ``suspect`` is unresponsive (no failures
        here, so the suspicion is moot)."""

    # -- tracing -------------------------------------------------------------
    def trace_begin(self, node: NodeId) -> Optional[int]:
        """Open a trace for a query issued now at ``node`` (``None`` when
        tracing is off or the query falls into the warm-up)."""
        if self.tracer is None:
            return None
        return self.tracer.begin(node)

    def trace_annotate(
        self,
        trace_id: Optional[int],
        node: NodeId,
        event: str,
        detail: str = "",
    ) -> None:
        """Record a scheme decision point on a trace (no-op untraced)."""
        if self.tracer is not None and trace_id is not None:
            self.tracer.annotate(trace_id, node, event, detail)
