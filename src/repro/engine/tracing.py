"""End-to-end query tracing.

:class:`TraceCollector` is built on the transport's public observer tap
(:meth:`repro.net.transport.Transport.add_observer`).  It reconstructs
each query's **full causal chain** as a :class:`QueryTrace`: the issue
event, every request hop up the search tree, the serving node, every
reply hop back down, the control continuations (subscribe / substitute
/ register), and the pushes they trigger.  Each hop is a timed
:class:`HopSpan` attributed to the search-tree level it landed on;
schemes annotate decision points (subscriptions, substitutions, push
decisions) through ``Simulation.trace_annotate``.

The collector turns the paper's two opaque aggregates (mean latency,
mean cost) into attributable quantities: tail percentiles (p50/p95/p99)
over per-query latencies and hop counts broken down by tree level, so a
regression or a win can be located *where* in the tree it happened.

Enable via ``Simulation.enable_tracing()`` before ``run()``.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.net.message import Category
from repro.net.transport import TransportEvent
from repro.stats.running import percentile

NodeId = int


# ---------------------------------------------------------------------------
# Query traces
# ---------------------------------------------------------------------------


@dataclass
class HopSpan:
    """One message hop inside a query's causal chain.

    ``level`` is the search-tree depth of the destination at delivery
    time (0 = the authority), giving per-tree-level hop attribution;
    ``None`` when the destination had already left the overlay.
    """

    category: str
    sender: Optional[NodeId]
    destination: Optional[NodeId]
    sent_at: float
    delivered_at: Optional[float] = None
    status: str = "in-flight"  # "in-flight" | "delivered" | "dropped"
    level: Optional[int] = None

    def to_dict(self) -> dict:
        """JSON-serializable view (the JSONL hop schema)."""
        return {
            "category": self.category,
            "from": self.sender,
            "to": self.destination,
            "sent_at": self.sent_at,
            "delivered_at": self.delivered_at,
            "status": self.status,
            "level": self.level,
        }


@dataclass(frozen=True)
class TraceAnnotation:
    """A scheme-emitted event on a trace (subscribe, substitute, ...)."""

    time: float
    node: NodeId
    event: str
    detail: str = ""

    def to_dict(self) -> dict:
        """JSON-serializable view (the JSONL annotation schema)."""
        return {
            "time": self.time,
            "node": self.node,
            "event": self.event,
            "detail": self.detail,
        }


@dataclass
class QueryTrace:
    """The reconstructed causal chain of one query."""

    trace_id: int
    origin: NodeId
    issued_at: float
    status: str = "open"  # "open" | "complete" | "incomplete"
    completed_at: Optional[float] = None
    latency_hops: Optional[float] = None
    spans: list[HopSpan] = field(default_factory=list)
    annotations: list[TraceAnnotation] = field(default_factory=list)

    @property
    def request_hops(self) -> int:
        """Delivered request (query-category) hops — the trace's latency."""
        return sum(
            1
            for span in self.spans
            if span.category == Category.QUERY.value
            and span.status == "delivered"
        )

    @property
    def hit(self) -> bool:
        """Whether the query was answered from the local cache."""
        return self.status == "complete" and self.latency_hops == 0

    def spans_of(self, category: Category | str) -> list[HopSpan]:
        """The trace's spans of one message category."""
        name = category.value if isinstance(category, Category) else category
        return [span for span in self.spans if span.category == name]

    def to_dict(self) -> dict:
        """JSON-serializable view (one JSONL trace record)."""
        return {
            "type": "trace",
            "trace_id": self.trace_id,
            "origin": self.origin,
            "issued_at": self.issued_at,
            "status": self.status,
            "completed_at": self.completed_at,
            "latency_hops": self.latency_hops,
            "request_hops": self.request_hops,
            "spans": [span.to_dict() for span in self.spans],
            "annotations": [note.to_dict() for note in self.annotations],
        }

    def __str__(self) -> str:
        latency = (
            "?" if self.latency_hops is None else f"{self.latency_hops:g}"
        )
        return (
            f"trace#{self.trace_id} origin={self.origin} "
            f"t={self.issued_at:.1f} {self.status} latency={latency} "
            f"spans={len(self.spans)}"
        )


class TraceCollector:
    """Assembles transport events and scheme annotations into traces.

    One instance observes a simulation's transport (wired up by
    ``Simulation.enable_tracing``).  The engine calls :meth:`begin` when
    a query is issued and :meth:`complete` when its latency is recorded;
    everything in between — hop spans, drops, annotations — is collected
    from the span context (``trace_id``) each message carries.

    Aggregates (latency percentiles, per-level hop attribution, status
    counts) are maintained incrementally and survive ring-buffer
    eviction of old trace records.

    Parameters
    ----------
    clock:
        Returns current simulation time.
    warmup:
        Queries issued before this time are not traced (matching the
        latency recorder's issue-time warm-up gate).
    depth_of:
        Optional callable mapping a node to its current search-tree
        depth (for per-level hop attribution).
    keep:
        Maximum finished traces retained (oldest evicted first).
    """

    def __init__(
        self,
        clock: Callable[[], float],
        warmup: float = 0.0,
        depth_of: Optional[Callable[[NodeId], Optional[int]]] = None,
        keep: int = 100_000,
    ):
        if keep < 1:
            raise ValueError(f"keep must be positive, got {keep}")
        self._clock = clock
        self._warmup = float(warmup)
        self._depth_of = depth_of
        self._keep = keep
        self._next_id = 1
        self._traces: dict[int, QueryTrace] = {}
        self._finished: deque[int] = deque()
        self._open: set[int] = set()
        self._pending: dict[int, HopSpan] = {}  # id(message) -> span
        # Aggregates that survive eviction.
        self._latencies: list[float] = []
        self._level_hops: Counter = Counter()
        self._completed = 0
        self._incomplete = 0
        self._untraced = 0

    # -- trace lifecycle ----------------------------------------------------
    def begin(self, origin: NodeId) -> Optional[int]:
        """Open a trace for a query issued now at ``origin``.

        Returns the trace id, or ``None`` during warm-up (the query is
        not traced, mirroring the metric recorders).
        """
        now = self._clock()
        if now < self._warmup:
            self._untraced += 1
            return None
        trace_id = self._next_id
        self._next_id += 1
        self._traces[trace_id] = QueryTrace(
            trace_id=trace_id, origin=origin, issued_at=now
        )
        self._open.add(trace_id)
        return trace_id

    def annotate(
        self,
        trace_id: Optional[int],
        node: NodeId,
        event: str,
        detail: str = "",
    ) -> None:
        """Record a scheme decision point on a trace (no-op if untraced)."""
        trace = self._traces.get(trace_id) if trace_id is not None else None
        if trace is None:
            return
        trace.annotations.append(
            TraceAnnotation(
                time=self._clock(), node=node, event=event, detail=detail
            )
        )

    def complete(self, trace_id: Optional[int], latency_hops: float) -> None:
        """Mark a trace complete with the latency the engine recorded."""
        trace = self._traces.get(trace_id) if trace_id is not None else None
        if trace is None or trace.status != "open":
            return
        trace.status = "complete"
        trace.completed_at = self._clock()
        trace.latency_hops = latency_hops
        self._latencies.append(float(latency_hops))
        self._completed += 1
        self._finish(trace_id)

    def _abandon(self, trace: QueryTrace) -> None:
        """The chain broke (churn): the query will never complete."""
        if trace.status != "open":
            return
        trace.status = "incomplete"
        trace.completed_at = self._clock()
        self._incomplete += 1
        self._finish(trace.trace_id)

    def _finish(self, trace_id: int) -> None:
        self._open.discard(trace_id)
        self._finished.append(trace_id)
        while len(self._finished) > self._keep:
            evicted = self._finished.popleft()
            self._traces.pop(evicted, None)

    # -- transport observation ----------------------------------------------
    def observe(self, event: TransportEvent) -> None:
        """Transport observer: fold one send/deliver/drop into its trace."""
        message = event.message
        trace = (
            self._traces.get(message.trace_id)
            if message.trace_id is not None
            else None
        )
        if event.kind == "send":
            if trace is None:
                return
            span = HopSpan(
                category=message.category.value,
                sender=event.sender,
                destination=event.destination,
                sent_at=event.time,
            )
            trace.spans.append(span)
            self._pending[id(message)] = span
            return
        span = self._pending.pop(id(message), None)
        if event.kind == "deliver":
            if span is None:
                return
            span.delivered_at = event.time
            span.status = "delivered"
            if self._depth_of is not None and span.destination is not None:
                span.level = self._depth_of(span.destination)
            if span.category == Category.QUERY.value and span.level is not None:
                self._level_hops[span.level] += 1
            return
        if event.kind == "drop":
            if span is not None:
                span.status = "dropped"
            # Losing a request or its reply ends the query; losing a push
            # or control continuation does not.
            if trace is not None and message.category in (
                Category.QUERY,
                Category.REPLY,
            ):
                self._abandon(trace)

    # -- inspection ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._traces)

    def get(self, trace_id: int) -> Optional[QueryTrace]:
        """The trace with ``trace_id``, if still retained."""
        return self._traces.get(trace_id)

    def traces(self, status: Optional[str] = None) -> list[QueryTrace]:
        """Retained traces in id order, optionally filtered by status."""
        ordered = [self._traces[k] for k in sorted(self._traces)]
        if status is None:
            return ordered
        return [trace for trace in ordered if trace.status == status]

    def slowest(self, count: int = 10) -> list[QueryTrace]:
        """The ``count`` retained completed traces with highest latency."""
        done = self.traces("complete")
        done.sort(key=lambda t: (-(t.latency_hops or 0), t.trace_id))
        return done[:count]

    @property
    def completed(self) -> int:
        """All-time completed traces (including evicted records)."""
        return self._completed

    @property
    def incomplete(self) -> int:
        """All-time traces that lost their request or reply to churn."""
        return self._incomplete

    @property
    def open_count(self) -> int:
        """Traces still in flight."""
        return len(self._open)

    @property
    def keep(self) -> int:
        """Maximum finished traces retained."""
        return self._keep

    @property
    def untraced(self) -> int:
        """Queries skipped by the warm-up gate."""
        return self._untraced

    @property
    def latencies(self) -> tuple[float, ...]:
        """Latencies of all completed traces (eviction-proof)."""
        return tuple(self._latencies)

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile of completed-trace latencies."""
        return percentile(self._latencies, q)

    def percentiles(self, qs=(50, 95, 99)) -> dict[str, float]:
        """Tail percentiles keyed ``"p50"``-style."""
        return {f"p{q:g}": percentile(self._latencies, q) for q in qs}

    def hops_by_level(self) -> dict[int, int]:
        """Delivered request hops attributed to destination tree depth."""
        return dict(sorted(self._level_hops.items()))

    def summary(self) -> dict[str, object]:
        """One-glance counts and tails (used by the CLI)."""
        return {
            "completed": self._completed,
            "incomplete": self._incomplete,
            "open": self.open_count,
            **self.percentiles(),
            "hops_by_level": self.hops_by_level(),
        }

    def __repr__(self) -> str:
        return (
            f"TraceCollector(completed={self._completed}, "
            f"incomplete={self._incomplete}, open={self.open_count})"
        )
