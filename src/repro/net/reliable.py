"""Acked, retried delivery for DUP's hard-state traffic.

DUP's subscriber lists are *hard state*: a lost ``subscribe`` or
``substitute`` leaves the virtual path permanently wrong, and a lost
push starves a whole subtree until the next TTL cycle.  Under the benign
transport of the paper's evaluation that never happens; under a
:class:`~repro.net.faults.FaultPlan` it does.  This channel restores
delivery semantics the protocol can live with:

- every send is tagged with a delivery id and acknowledged by the
  receiving *engine* (one charged control hop per ack);
- an unacked delivery is retransmitted after a per-delivery timeout that
  doubles on every attempt (``base_timeout * 2 ** attempt``), each
  retransmission charged honestly to the cost ledger;
- after ``retry_budget`` retransmissions the sender gives up and raises
  a *dead-peer suspicion* via ``on_give_up`` — the engine routes it into
  the existing Section III-C repair flows;
- the receiver deduplicates by delivery id, so retransmissions (and
  injected duplicates) are acked but processed at most once.

The channel is deliberately *not* used for CUP's registrations or lease
refreshes: those are soft state, kept alive by their own periodic
redundancy — exactly the contrast the paper draws between the two
designs.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import ConfigError
from repro.net.message import AckMessage, Message
from repro.net.transport import Transport
from repro.sim.core import Environment

NodeId = int
GiveUpCallback = Callable[[NodeId, NodeId, Message], None]


@dataclass(frozen=True)
class RetryPlan:
    """The reliable channel of one run (``SimulationConfig.retry``).

    ``budget`` retransmissions per delivery before the sender gives up
    (>= 1).  ``timeout_cap`` bounds any single retransmission timeout:
    attempt ``k`` waits ``min(ack_timeout * 2**k, timeout_cap)`` (0, the
    default, leaves the backoff uncapped).
    """

    budget: int
    timeout_cap: float = 0.0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ConfigError` on any invalid parameter."""
        if self.budget < 1:
            raise ConfigError(f"budget must be >= 1, got {self.budget}")
        if self.timeout_cap < 0:
            raise ConfigError(
                f"timeout_cap must be >= 0, got {self.timeout_cap}"
            )


@dataclass
class _Pending:
    """One in-flight reliable delivery awaiting its ack."""

    destination: NodeId
    message: Message
    sender: NodeId
    hops: int
    attempts: int = field(default=0)


class ReliableChannel:
    """Ack/retry/dedup wrapper around :class:`Transport`.

    Parameters
    ----------
    env:
        The simulation environment (schedules retry timers).
    transport:
        The underlying lossy transport.
    retry_budget:
        Maximum retransmissions per delivery before giving up.
    base_timeout:
        Initial ack timeout in simulated seconds; attempt ``k`` waits
        ``base_timeout * 2 ** k``.
    timeout_cap:
        Upper bound on any single retransmission timeout; attempt ``k``
        waits ``min(base_timeout * 2 ** k, timeout_cap)``.  The
        default (infinity) preserves pure exponential backoff.
    on_give_up:
        ``on_give_up(sender, destination, message)`` invoked when a
        delivery exhausts its budget — the dead-peer suspicion hook.
    functioning:
        Liveness predicate for *senders*: a node that crashed after
        transmitting must not keep retrying posthumously, so its timers
        are cancelled on expiry.
    dedup_window:
        Receiver-side memory of recently seen delivery ids.
    """

    def __init__(
        self,
        env: Environment,
        transport: Transport,
        retry_budget: int,
        base_timeout: float,
        timeout_cap: float = math.inf,
        on_give_up: Optional[GiveUpCallback] = None,
        functioning: Optional[Callable[[NodeId], bool]] = None,
        dedup_window: int = 65536,
    ):
        if retry_budget < 0:
            raise ValueError(f"retry_budget must be >= 0, got {retry_budget}")
        if base_timeout <= 0:
            raise ValueError(f"base_timeout must be > 0, got {base_timeout}")
        if timeout_cap < base_timeout:
            raise ValueError(
                f"timeout_cap ({timeout_cap}) must be >= base_timeout "
                f"({base_timeout})"
            )
        self._env = env
        self._transport = transport
        self._budget = retry_budget
        self._base_timeout = base_timeout
        self._timeout_cap = timeout_cap
        self._on_give_up = on_give_up
        self._functioning = functioning
        self._ids = itertools.count(1)
        self._pending: dict[int, _Pending] = {}
        self._seen: set[int] = set()
        self._seen_order: deque[int] = deque(maxlen=dedup_window)
        self.retries = 0
        self.acked = 0
        self.give_ups = 0
        self.acks_sent = 0
        self.duplicates_suppressed = 0

    # -- sender side ---------------------------------------------------------
    def send(
        self,
        destination: NodeId,
        message: Message,
        sender: NodeId,
        hops: int = 1,
    ) -> int:
        """Transmit with ack/retry semantics; returns the delivery id."""
        delivery_id = next(self._ids)
        message.reliable_id = delivery_id
        self._pending[delivery_id] = _Pending(
            destination=destination,
            message=message,
            sender=sender,
            hops=hops,
        )
        self._transmit(delivery_id)
        return delivery_id

    @property
    def outstanding(self) -> int:
        """Deliveries currently awaiting an ack."""
        return len(self._pending)

    def _transmit(self, delivery_id: int) -> None:
        pending = self._pending[delivery_id]
        self._transport.send(
            pending.destination,
            pending.message,
            hops=pending.hops,
            sender=pending.sender,
        )
        timeout = min(
            self._base_timeout * 2.0**pending.attempts,
            self._timeout_cap,
        )
        self._env.defer(
            timeout, self._expire, delivery_id, pending.attempts
        )

    def _expire(self, delivery_id: int, attempt: int) -> None:
        pending = self._pending.get(delivery_id)
        if pending is None or pending.attempts != attempt:
            return  # acked, or superseded by a newer timer
        if self._functioning is not None and not self._functioning(
            pending.sender
        ):
            # The sender itself died: its retry timers die with it.
            del self._pending[delivery_id]
            return
        if pending.attempts >= self._budget:
            del self._pending[delivery_id]
            self.give_ups += 1
            if self._on_give_up is not None:
                self._on_give_up(
                    pending.sender, pending.destination, pending.message
                )
            return
        pending.attempts += 1
        self.retries += 1
        self._transmit(delivery_id)

    def on_ack(self, destination: NodeId, ack: AckMessage) -> None:
        """An ack arrived at ``destination`` (the original sender)."""
        pending = self._pending.get(ack.acked)
        if pending is None or pending.sender != destination:
            return  # late duplicate, or ack gone astray
        del self._pending[ack.acked]
        self.acked += 1

    def drop_sender(self, node: NodeId) -> None:
        """Cancel every pending delivery transmitted by ``node``.

        Called when a node fails: a dead sender neither retries nor
        develops suspicions.
        """
        stale = [
            delivery_id
            for delivery_id, pending in self._pending.items()
            if pending.sender == node
        ]
        for delivery_id in stale:
            del self._pending[delivery_id]

    # -- receiver side -------------------------------------------------------
    def deliver(self, destination: NodeId, message: Message) -> bool:
        """Ack a reliable delivery; returns False for an already-seen one.

        The ack goes back to the message's sender (one charged control
        hop) even for duplicates — the previous ack may be the very
        thing that was lost.  The engine skips scheme dispatch when this
        returns False.
        """
        delivery_id = message.reliable_id
        origin = getattr(message, "sender", None)
        if origin is not None:
            ack = AckMessage(
                key=message.key, acked=delivery_id, sender=destination
            )
            ack.inherit_trace(message)
            self._transport.send(origin, ack, sender=destination)
            self.acks_sent += 1
        if delivery_id in self._seen:
            self.duplicates_suppressed += 1
            return False
        if (
            self._seen_order.maxlen is not None
            and len(self._seen_order) == self._seen_order.maxlen
        ):
            self._seen.discard(self._seen_order[0])
        self._seen_order.append(delivery_id)
        self._seen.add(delivery_id)
        return True
