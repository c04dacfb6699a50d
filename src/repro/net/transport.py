"""One-overlay-hop message transport with latency and cost accounting.

Every transmission in the system is a single overlay hop (paper Section
II-B measures cost in hops): queries and replies hop along search-tree
edges; DUP pushes hop directly between arbitrary overlay nodes, which is
exactly the short-cut the paper exploits ("the physical distance between
N1 and N6 is not necessarily much longer than that between N1 and N2").

Each hop:

- is delayed by a latency drawn from the configured distribution (the
  paper uses Exponential with mean 0.1 s) — the transport reads the
  latency stream ahead a block at a time, which yields the very sequence
  one draw per hop would, and
- charges 1 hop to the message's :class:`~repro.net.message.Category` in
  the cost ledger — unless the hop is *free* (piggybacked control bits) or
  falls into the measurement warm-up.

Observability taps into the transport through **observers**: any number
of callables registered with :meth:`Transport.add_observer` receive a
:class:`TransportEvent` for every send, delivery, and drop.  The trace
collector is built on this tap; observers stack freely and never touch
the delivery handler.

An optional :class:`~repro.net.faults.FaultInjector` sits between send
and delivery: it may lose a transmission outright (the hop stays
charged — the network carried it), deliver it twice, stretch its delay,
or swallow it at a silently failed destination (blackhole).  Without an
injector none of those paths exist and the transport behaves exactly as
before — fault support is zero-cost when off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.net.message import Message, QueryMessage
from repro.sim.core import Environment
from repro.stats.distributions import Distribution

NodeId = int
DeliveryHandler = Callable[[NodeId, Message], None]

#: Hop latencies drawn per refill of the transport's look-ahead buffer.
_LATENCY_BLOCK = 1024


@dataclass(frozen=True)
class TransportEvent:
    """One observable transport occurrence.

    Attributes
    ----------
    kind:
        ``"send"`` (hop scheduled), ``"deliver"`` (hop completed), or
        ``"drop"`` (message lost).
    time:
        Simulation time of the event.
    destination:
        Receiving node (``None`` only for drops whose target is truly
        unknown).
    message:
        The message involved.
    sender:
        Transmitting node when known (derived from the message where
        possible).
    reason:
        For drops: why the message was lost — ``"churn"`` (destination
        left the overlay), ``"loss"`` (injected message loss),
        ``"blackhole"`` (silently failed destination), ``"partition"``
        (sender and destination sit in different components of an
        active partition), or ``"path"`` (a reply found its remaining
        path dead).
    """

    kind: str
    time: float
    destination: Optional[NodeId]
    message: Message
    sender: Optional[NodeId] = None
    reason: Optional[str] = None


TransportObserver = Callable[[TransportEvent], None]


def _derive_sender(message: Message) -> Optional[NodeId]:
    """Best-effort transmitting node for observer/drop attribution."""
    sender = getattr(message, "sender", None)
    if sender is None and isinstance(message, QueryMessage):
        sender = message.path[-1]
    return sender


class Transport:
    """Delivers messages one hop at a time, charging the cost ledger.

    Parameters
    ----------
    env:
        The simulation environment.
    latency:
        Per-hop latency distribution.
    rng:
        Random stream used to draw latencies (the ``"latency"`` stream).
        The transport must be its only consumer: draws are buffered
        ahead of use.
    ledger:
        The :class:`repro.metrics.counters.CostLedger` charged per hop.
    handler:
        Callback invoked as ``handler(destination, message)`` on delivery;
        set by the engine after node handlers exist (see :meth:`bind`).
    injector:
        Optional :class:`repro.net.faults.FaultInjector` consulted on
        every send and delivery (see :meth:`use_injector`).
    """

    def __init__(
        self,
        env: Environment,
        latency: Distribution,
        rng: np.random.Generator,
        ledger: "object",
        handler: Optional[DeliveryHandler] = None,
        injector: Optional["object"] = None,
    ):
        self._env = env
        self._latency = latency
        self._rng = rng
        self._ledger = ledger
        self._handler = handler
        self._injector = injector
        self._dropped = 0
        self._observers: list[TransportObserver] = []
        # Look-ahead latencies, next one last (``pop()`` takes it).
        self._delays: list[float] = []

    def bind(self, handler: DeliveryHandler) -> None:
        """Set the delivery callback (must happen before the first send)."""
        self._handler = handler

    def use_injector(self, injector: Optional["object"]) -> None:
        """Install (or clear) the fault injector (like an observer, it
        sees only the hops sent after it was installed)."""
        self._injector = injector

    @property
    def injector(self) -> Optional["object"]:
        """The installed fault injector, if any."""
        return self._injector

    # -- observer tap -------------------------------------------------------
    def add_observer(self, observer: TransportObserver) -> TransportObserver:
        """Register an observer for send/deliver/drop events.

        Observers stack: each registered callable sees every event, in
        registration order, before the delivery handler runs.  Returns
        the observer so call sites can keep the handle for
        :meth:`remove_observer`.  A hop sent while no observer and no
        injector was installed goes straight to the handler, so an
        observer added later sees only the hops sent after it.
        """
        self._observers.append(observer)
        return observer

    def remove_observer(self, observer: TransportObserver) -> None:
        """Unregister a previously added observer."""
        try:
            self._observers.remove(observer)
        except ValueError:
            raise ValueError("observer was not registered") from None

    @property
    def observers(self) -> tuple[TransportObserver, ...]:
        """The currently registered observers, in notification order."""
        return tuple(self._observers)

    def _notify(self, event: TransportEvent) -> None:
        for observer in self._observers:
            observer(event)

    def _next_delay(self) -> float:
        """The next hop latency of the stream (one per scheduled hop)."""
        delays = self._delays
        if not delays:
            delays = self._latency.sample_block(
                self._rng, _LATENCY_BLOCK
            ).tolist()
            delays.reverse()
            self._delays = delays
        return delays.pop()

    @property
    def dropped(self) -> int:
        """Messages dropped for any reason (churn, loss, blackhole)."""
        return self._dropped

    def send(
        self,
        destination: NodeId,
        message: Message,
        free: bool = False,
        hops: int = 1,
        sender: Optional[NodeId] = None,
    ) -> None:
        """Transmit ``message`` one overlay hop to ``destination``.

        Parameters
        ----------
        destination:
            Receiving node id.
        message:
            The message; its ``category`` decides the ledger account.
        free:
            When true the hop is not charged (piggybacked control bit).
        hops:
            Hop cost to charge (always 1 in the paper's model; kept
            explicit for clarity at call sites).
        sender:
            Transmitting node, for observers; derived from the message
            (``sender`` attribute, or the query path) when omitted.
        """
        if self._handler is None:
            raise RuntimeError("transport used before bind()")
        injector = self._injector
        if injector is None and not self._observers:
            # Fast branch: no injector and no observers attached — the
            # hop is charge + latency + delayed delivery, nothing else.
            # Once the ledger has published its post-warm-up counters the
            # hop is added to them here; before that (and for a negative
            # count, which ``charge`` refuses) the ledger decides.  The
            # latency is taken at the same point of the sequence as in
            # the instrumented path, so runs stay bit-identical.  defer()
            # pushes one flat heap record per delivery: no Timeout, no
            # callbacks list, and the record holds the bound handler
            # itself (no ``_deliver`` frame: it would find no injector
            # and no observer to consult).
            if not free:
                measured = self._ledger.measured
                if measured is None or hops < 0:
                    self._ledger.charge(message.category, hops)
                else:
                    measured[message.category] += hops
            delays = self._delays
            self._env.defer(
                delays.pop() if delays else self._next_delay(),
                self._handler,
                destination,
                message,
            )
            return
        if not free:
            self._ledger.charge(message.category, hops)
        if sender is None:
            sender = _derive_sender(message)
        if self._observers:
            self._notify(
                TransportEvent(
                    kind="send",
                    time=self._env.now,
                    destination=destination,
                    message=message,
                    sender=sender,
                )
            )
        if injector is not None:
            if injector.partition_active and injector.crosses_partition(
                sender, destination
            ):
                # The hop was charged — the packet left the sender and
                # died at the cut.
                self.drop(
                    message,
                    destination=destination,
                    sender=sender,
                    reason="partition",
                )
                return
            if injector.should_drop(message):
                # The hop was charged — the network carried the message;
                # the receiver just never saw it.
                self.drop(
                    message,
                    destination=destination,
                    sender=sender,
                    reason="loss",
                )
                return
            if injector.should_duplicate(message):
                self._env.defer(
                    injector.duplicate_delay(self._latency),
                    self._deliver,
                    destination,
                    message,
                )
        delay = self._next_delay()
        if injector is not None:
            delay += injector.extra_delay()
        self._env.defer(delay, self._deliver, destination, message)

    def _deliver(self, destination: NodeId, message: Message) -> None:
        injector = self._injector
        if injector is not None and injector.is_dead(destination):
            injector.note_blackholed()
            self.drop(
                message,
                destination=destination,
                sender=_derive_sender(message),
                reason="blackhole",
            )
            return
        if self._observers:
            self._notify(
                TransportEvent(
                    kind="deliver",
                    time=self._env.now,
                    destination=destination,
                    message=message,
                )
            )
        self._handler(destination, message)

    def drop(
        self,
        message: Optional[Message] = None,
        destination: Optional[NodeId] = None,
        sender: Optional[NodeId] = None,
        reason: str = "churn",
    ) -> None:
        """Record a lost message, attributing the loss to a link.

        ``destination`` and ``sender`` identify the link the message died
        on (the sender is derived from the message when omitted);
        ``reason`` distinguishes churn drops from injected losses,
        blackholes, and dead reply paths.
        """
        self._dropped += 1
        if self._observers and message is not None:
            if sender is None:
                sender = _derive_sender(message)
            self._notify(
                TransportEvent(
                    kind="drop",
                    time=self._env.now,
                    destination=destination,
                    message=message,
                    sender=sender,
                    reason=reason,
                )
            )
