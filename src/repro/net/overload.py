"""Overload resilience: bounded inboxes, priority shedding, breakers.

The paper evaluates DUP under steady Zipf arrivals; this module supplies
the machinery for the *bursty* regime ROADMAP item 4 asks about.  Three
cooperating pieces, all deterministic and RNG-free:

``OverloadPlan``
    The declarative configuration (frozen dataclass) hung off
    :class:`~repro.engine.config.SimulationConfig.overload`.  Every
    default leaves the layer disabled; a config with ``overload=None``
    or an all-default plan is bit-identical to a build without this
    module.

Bounded priority-classed inboxes
    Every node gets a finite inbox and a service rate.  A message
    arriving at an idle node is processed immediately and the node is
    busy for ``1 / service_rate`` simulated seconds; arrivals during
    the busy period queue.  The queue is priority-classed: *control*
    traffic (subscribes, leases, acks, heartbeats, repairs — the
    ``CONTROL`` and ``KEEPALIVE`` categories) outranks *data* traffic
    (queries, replies, pushes).  When the inbox is full, an arriving
    data message is shed; an arriving control message evicts the
    newest queued data message instead, so control is only ever
    dropped when the entire inbox is already control.  Pending pushes
    for the same key coalesce by version (the authority's update storm
    collapses to the newest version in flight).  Every drop decision
    is a pure function of queue state — no RNG stream is consumed, so
    drop accounting is identical under any worker count.

Per-peer circuit breakers
    A breaker per ``(owner, peer)`` ordered pair trips to OPEN after
    ``breaker_threshold`` consecutive failures (reliable-channel
    give-ups or subscribe rejections), suppresses sends for
    ``breaker_cooldown`` simulated seconds, then HALF-OPENs: exactly
    one probe send is allowed through.  A success (an ack, or any
    recorded contact) closes the breaker; a failed probe re-opens it.
    A success arriving while the breaker is still OPEN — the peer
    healed before the cooldown elapsed — also closes it immediately,
    which is the "half-open race" the tests pin down.

The manager is a observer-friendly citizen: when a flight recorder is
armed it emits ``overload-shed``, ``breaker-trip``,
``breaker-half-open`` and ``breaker-close`` events, but recording never
changes a decision.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import ConfigError
from repro.net.message import Category, Message, PushMessage

#: Message categories that form the protected *control* class.
CONTROL_CATEGORIES = frozenset({Category.CONTROL, Category.KEEPALIVE})

#: Drop reasons, in the order they appear in the accounting table.
SHED_INBOX_FULL = "inbox-full"
SHED_EVICTED = "evicted-for-control"
SHED_CONTROL_OVERFLOW = "control-overflow"
SHED_COALESCED = "coalesced-push"


@dataclass(frozen=True)
class OverloadPlan:
    """Declarative overload-protection configuration.

    Attributes
    ----------
    inbox_capacity:
        Messages a busy node may hold queued (the server slot is not
        counted).  ``0`` means no waiting room at all: anything arriving
        while the node is busy is shed.
    service_rate:
        Messages per simulated second one node can process; ``0``
        disables the inbox/queueing model entirely (messages deliver
        instantly, exactly as without the layer).
    max_subscribers:
        Fanout cap for scheme-level graceful degradation: a DUP
        interior node holding this many subscribers refuses new ones
        with a redirect-to-parent NACK, and a CUP node stops accepting
        registrations beyond it.  ``0`` leaves fanout uncapped.
    coalesce_pushes:
        Whether a push queued behind another pending push for the same
        key is coalesced to the newest version instead of occupying a
        second slot.
    authority_coalesce_gap:
        Minimum simulated seconds between *forced* authority issues;
        ``force_update`` calls arriving faster are coalesced into one
        deferred issue (``0`` disables, keeping the authority
        bit-identical).
    breaker_threshold:
        Consecutive failures (give-ups / rejections) against one peer
        that trip that peer's circuit breaker (``0`` disables
        breakers).
    breaker_cooldown:
        Simulated seconds an OPEN breaker suppresses sends before it
        half-opens for a probe.
    """

    inbox_capacity: int = 64
    service_rate: float = 0.0
    max_subscribers: int = 0
    coalesce_pushes: bool = True
    authority_coalesce_gap: float = 0.0
    breaker_threshold: int = 0
    breaker_cooldown: float = 60.0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ConfigError` on any invalid parameter."""
        if self.inbox_capacity < 0:
            raise ConfigError(
                f"inbox_capacity must be >= 0, got {self.inbox_capacity}"
            )
        if self.service_rate < 0:
            raise ConfigError(
                f"service_rate must be >= 0, got {self.service_rate}"
            )
        if self.max_subscribers < 0:
            raise ConfigError(
                f"max_subscribers must be >= 0, got {self.max_subscribers}"
            )
        if self.authority_coalesce_gap < 0:
            raise ConfigError(
                "authority_coalesce_gap must be >= 0, got "
                f"{self.authority_coalesce_gap}"
            )
        if self.breaker_threshold < 0:
            raise ConfigError(
                "breaker_threshold must be >= 0, got "
                f"{self.breaker_threshold}"
            )
        if self.breaker_threshold > 0 and self.breaker_cooldown <= 0:
            raise ConfigError(
                "breaker_cooldown must be positive when breakers are "
                f"enabled, got {self.breaker_cooldown}"
            )

    @property
    def inboxes_enabled(self) -> bool:
        """Whether the bounded-inbox service model is active."""
        return self.service_rate > 0

    @property
    def breakers_enabled(self) -> bool:
        """Whether per-peer circuit breakers are active."""
        return self.breaker_threshold > 0

    @property
    def enabled(self) -> bool:
        """Whether any part of the layer does anything at all."""
        return (
            self.inboxes_enabled
            or self.breakers_enabled
            or self.max_subscribers > 0
            or self.authority_coalesce_gap > 0
        )


class _Inbox:
    """One node's bounded, two-class inbox plus its server state."""

    __slots__ = ("busy", "control", "data", "peak")

    def __init__(self) -> None:
        self.busy = False
        self.control: deque = deque()
        self.data: deque = deque()
        self.peak = 0

    def depth(self) -> int:
        return len(self.control) + len(self.data)


#: Breaker states (module-level ints keep `_Breaker` slot-friendly).
CLOSED, OPEN, HALF_OPEN = 0, 1, 2

_STATE_NAMES = {CLOSED: "closed", OPEN: "open", HALF_OPEN: "half-open"}


class _Breaker:
    """Circuit-breaker state for one ``(owner, peer)`` pair."""

    __slots__ = ("state", "failures", "opened_at")

    def __init__(self) -> None:
        self.state = CLOSED
        self.failures = 0
        self.opened_at = 0.0


class OverloadManager:
    """Runtime state of the overload layer for one simulation.

    Parameters
    ----------
    env:
        The simulation environment (for ``now`` and ``defer``;
        scheduling consumes no RNG).
    plan:
        The validated :class:`OverloadPlan`.
    deliver:
        Callback ``(destination, message)`` that performs the actual
        dispatch of a message popped from an inbox.
    recorder:
        Optional flight recorder; a pure observer of shed/breaker
        decisions.
    """

    def __init__(
        self,
        env,
        plan: OverloadPlan,
        deliver: Callable[[object, Message], None],
        recorder=None,
    ) -> None:
        self._env = env
        self.plan = plan
        self._deliver = deliver
        self._recorder = recorder
        self._service_time = (
            1.0 / plan.service_rate if plan.service_rate > 0 else 0.0
        )
        self._inboxes: dict = {}
        self._breakers: dict = {}
        # Deterministic drop accounting.
        self.offered = 0
        self.shed_data = 0
        self.shed_control = 0
        self.evicted_for_control = 0
        self.pushes_coalesced = 0
        self.breaker_trips = 0
        self.breaker_suppressed = 0
        self.breaker_probes = 0

    # -- flight recorder ------------------------------------------------

    def _record(self, kind: str, node, subject=None, detail: str = "") -> None:
        recorder = self._recorder
        if recorder is not None:
            recorder.record(kind, node=node, subject=subject, detail=detail)

    # -- bounded priority inbox ----------------------------------------

    def admit(self, destination, message: Message) -> bool:
        """Admit ``message`` at ``destination``'s inbox.

        Returns ``True`` when the caller should process the message
        *now* (the node was idle); ``False`` when it was queued for
        later service or shed.  The decision is a pure function of the
        inbox state — no randomness.
        """
        self.offered += 1
        inbox = self._inboxes.get(destination)
        if inbox is None:
            inbox = self._inboxes[destination] = _Inbox()
        if not inbox.busy:
            inbox.busy = True
            self._env.defer(
                self._service_time, self._drain, destination, inbox
            )
            return True

        control = message.category in CONTROL_CATEGORIES
        if (
            not control
            and self.plan.coalesce_pushes
            and type(message) is PushMessage
            and self._coalesce(inbox, destination, message)
        ):
            return False

        if inbox.depth() >= self.plan.inbox_capacity:
            if control and inbox.data:
                # Control outranks data: the newest pending data
                # message gives up its slot.
                victim = inbox.data.pop()
                self.shed_data += 1
                self.evicted_for_control += 1
                self._record(
                    "overload-shed",
                    destination,
                    detail=f"{SHED_EVICTED}:{type(victim).__name__}",
                )
            else:
                if control:
                    self.shed_control += 1
                    reason = SHED_CONTROL_OVERFLOW
                else:
                    self.shed_data += 1
                    reason = SHED_INBOX_FULL
                self._record(
                    "overload-shed",
                    destination,
                    detail=f"{reason}:{type(message).__name__}",
                )
                return False
        (inbox.control if control else inbox.data).append(message)
        depth = inbox.depth()
        if depth > inbox.peak:
            inbox.peak = depth
        return False

    def _coalesce(self, inbox: _Inbox, destination, message) -> bool:
        """Merge ``message`` with a pending push for the same key.

        The slot keeps whichever version is newer; either way one of
        the two duplicates is shed, which is exactly the "authority
        sheds duplicate pending pushes" degradation under a storm.
        """
        for index, pending in enumerate(inbox.data):
            if type(pending) is PushMessage and pending.key == message.key:
                if pending.version.version <= message.version.version:
                    inbox.data[index] = message
                self.pushes_coalesced += 1
                self._record(
                    "overload-shed",
                    destination,
                    detail=f"{SHED_COALESCED}:{message.key}",
                )
                return True
        return False

    def _drain(self, destination, inbox: _Inbox) -> None:
        """Service completion: pop the next message, control first."""
        if inbox.control:
            message = inbox.control.popleft()
        elif inbox.data:
            message = inbox.data.popleft()
        else:
            inbox.busy = False
            return
        self._env.defer(
            self._service_time, self._drain, destination, inbox
        )
        self._deliver(destination, message)

    # -- per-peer circuit breakers -------------------------------------

    def allows(self, owner, peer) -> bool:
        """Whether ``owner`` may send to ``peer`` right now.

        OPEN breakers past their cooldown transition to HALF_OPEN and
        let exactly one probe through; everything else while OPEN or
        HALF_OPEN is suppressed (and counted).
        """
        breaker = self._breakers.get((owner, peer))
        if breaker is None or breaker.state == CLOSED:
            return True
        if breaker.state == OPEN:
            if self._env.now - breaker.opened_at >= self.plan.breaker_cooldown:
                breaker.state = HALF_OPEN
                self.breaker_probes += 1
                self._record("breaker-half-open", owner, subject=peer)
                return True
            self.breaker_suppressed += 1
            return False
        # HALF_OPEN with the probe still in flight.
        self.breaker_suppressed += 1
        return False

    def record_failure(self, owner, peer, reason: str = "") -> None:
        """Count one failure (give-up / rejection) of ``owner -> peer``."""
        if self.plan.breaker_threshold <= 0:
            return
        key = (owner, peer)
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = self._breakers[key] = _Breaker()
        if breaker.state == OPEN:
            return
        if breaker.state == HALF_OPEN:
            breaker.state = OPEN
            breaker.opened_at = self._env.now
            breaker.failures = 0
            self.breaker_trips += 1
            self._record(
                "breaker-trip", owner, subject=peer, detail="probe-failed"
            )
            return
        breaker.failures += 1
        if breaker.failures >= self.plan.breaker_threshold:
            breaker.state = OPEN
            breaker.opened_at = self._env.now
            breaker.failures = 0
            self.breaker_trips += 1
            self._record("breaker-trip", owner, subject=peer, detail=reason)

    def record_success(self, owner, peer) -> None:
        """Count one successful contact ``peer -> owner``.

        Closes an OPEN or HALF_OPEN breaker: a peer that answered is a
        peer that healed, even if the cooldown has not elapsed yet (the
        half-open race the tests cover).
        """
        breaker = self._breakers.get((owner, peer))
        if breaker is None:
            return
        if breaker.state == CLOSED:
            breaker.failures = 0
            return
        breaker.state = CLOSED
        breaker.failures = 0
        self._record("breaker-close", owner, subject=peer)

    def breaker_state(self, owner, peer) -> str:
        """The named breaker state for tests and dashboards."""
        breaker = self._breakers.get((owner, peer))
        return _STATE_NAMES[breaker.state if breaker else CLOSED]

    # -- accounting -----------------------------------------------------

    @property
    def shed_total(self) -> int:
        return self.shed_data + self.shed_control

    @property
    def shed_fraction(self) -> float:
        """Fraction of offered messages shed (coalesces excluded)."""
        return self.shed_total / self.offered if self.offered else 0.0

    @property
    def max_queue_depth(self) -> int:
        """The deepest any node's inbox ever got."""
        if not self._inboxes:
            return 0
        return max(inbox.peak for inbox in self._inboxes.values())

    def queue_depth_percentile(self, fraction: float) -> int:
        """Percentile over the per-node peak queue depths."""
        peaks = sorted(inbox.peak for inbox in self._inboxes.values())
        if not peaks:
            return 0
        index = min(len(peaks) - 1, max(0, int(fraction * len(peaks))))
        return peaks[index]

    def counters(self) -> dict:
        """All accounting counters, for extras / snapshots / tests."""
        return {
            "overload_offered": self.offered,
            "overload_shed_data": self.shed_data,
            "overload_shed_control": self.shed_control,
            "overload_evicted_for_control": self.evicted_for_control,
            "pushes_coalesced": self.pushes_coalesced,
            "shed_fraction": self.shed_fraction,
            "max_queue_depth": self.max_queue_depth,
            "queue_depth_p99": self.queue_depth_percentile(0.99),
            "breaker_trips": self.breaker_trips,
            "breaker_suppressed": self.breaker_suppressed,
            "breaker_probes": self.breaker_probes,
        }


def build_manager(
    env, plan: Optional[OverloadPlan], deliver, recorder=None
) -> Optional[OverloadManager]:
    """An :class:`OverloadManager` when the plan enables anything.

    Mirrors the fault-injector convention: a disabled plan yields
    ``None`` so the hot path keeps its one-attribute check and the run
    stays bit-identical to a build without the layer.
    """
    if plan is None or not plan.enabled:
        return None
    return OverloadManager(env, plan, deliver, recorder=recorder)
