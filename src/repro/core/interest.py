"""Interest measurement policies.

The paper's policy (Section III-B): "if the number of queries a node
receives in the last TTL interval is greater than a threshold value c, the
node is considered to be interested in the index."  Queries *received*
covers both locally generated queries and forwarded requests arriving from
downstream.

:class:`WindowInterestPolicy` implements exactly that sliding window.
:class:`EwmaInterestPolicy` is an alternative (exponentially weighted
arrival-rate estimate) used by the ablation benchmark to quantify how much
the policy choice matters.  :class:`AdaptiveInterestPolicy` keeps the
paper's decision rule but lets each node tune its own threshold from the
query rate it observes (ROADMAP item 5; the ``dup-adaptive`` scheme).

Both window policies keep a fixed ring of the most recent arrival times,
never the whole window: a decision needs only the ``(c + 1)``-th most
recent arrival.

A scheme keeps every node's interest state in one *table*, whose methods
take the node.  :class:`WindowInterestTable` stores the paper's window
rings flat, ``c + 1`` doubles per node in one ``array('d')``, so a
scheme holds no Python object per node; :class:`PolicyTable` keeps one
policy object per node behind the same methods, for the EWMA and
adaptive policies.  :func:`interest_table` picks the table a run
configuration (or a scheme's override) selects.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import partial
from typing import Iterator, Optional, Protocol

from repro.errors import ConfigError


class InterestPolicy(Protocol):
    """Per-node interest estimator fed with query arrival times."""

    def record(self, now: float) -> None:
        """Register one query arrival at time ``now``."""
        ...

    def is_interested(self, now: float) -> bool:
        """Whether the node currently qualifies as interested."""
        ...

    def arrive(self, now: float) -> bool:
        """:meth:`record` then :meth:`is_interested`, in one call."""
        ...


class WindowInterestPolicy:
    """The paper's sliding-window threshold policy.

    Only the ``threshold + 1`` most recent arrival times are kept, in a
    ring pre-filled with ``-inf``: the node is interested exactly when
    the oldest of them (the ``(threshold + 1)``-th most recent arrival)
    is still inside the window.  That is "more than ``threshold``
    arrivals in ``(now - window, now]``" as long as recorded times never
    decrease, which the engine clock guarantees.

    Parameters
    ----------
    window:
        Length of the trailing interval (the index TTL in the paper).
    threshold:
        The paper's ``c``: the node is interested when *more than*
        ``threshold`` queries arrived within the window.
    """

    __slots__ = ("_window", "_threshold", "_recent", "_next")

    def __init__(self, window: float, threshold: int):
        if window <= 0:
            raise ConfigError(f"window must be positive, got {window}")
        if threshold < 0:
            raise ConfigError(f"threshold must be >= 0, got {threshold}")
        self._window = float(window)
        self._threshold = int(threshold)
        self._recent = [-math.inf] * (self._threshold + 1)
        self._next = 0  # the oldest slot, overwritten by the next arrival

    def record(self, now: float) -> None:
        """Register one query arrival."""
        slot = self._next
        self._recent[slot] = now
        self._next = slot + 1 if slot < self._threshold else 0

    def is_interested(self, now: float) -> bool:
        """More than ``threshold`` arrivals in ``(now - window, now]``."""
        return self._recent[self._next] > now - self._window

    def arrive(self, now: float) -> bool:
        """Register one query arrival; then whether the node is interested."""
        recent = self._recent
        slot = self._next
        recent[slot] = now
        slot = self._next = slot + 1 if slot < self._threshold else 0
        return recent[slot] > now - self._window

    def count(self, now: float) -> int:
        """Arrivals inside the window, capped at ``threshold + 1``."""
        horizon = now - self._window
        return sum(1 for arrival in self._recent if arrival > horizon)

    @property
    def window(self) -> float:
        """The trailing interval length."""
        return self._window

    @property
    def threshold(self) -> int:
        """The paper's ``c``."""
        return self._threshold

    def __repr__(self) -> str:
        return (
            f"WindowInterestPolicy(window={self._window}, "
            f"threshold={self._threshold}, kept={_kept(self._recent)})"
        )


class EwmaInterestPolicy:
    """Interest from an exponentially weighted query-rate estimate.

    The estimated arrival rate decays between arrivals; the node is
    interested while the estimated number of arrivals per window exceeds
    the threshold.  Compared to the window policy this reacts faster to
    bursts and forgets faster after them — the ablation quantifies the
    difference under Pareto arrivals.

    Parameters
    ----------
    window:
        Reference interval used to convert the rate into an expected
        arrival count (kept equal to the TTL for comparability).
    threshold:
        Interested while ``rate * window > threshold``.
    half_life:
        Time for the rate estimate to decay by half with no arrivals.
    """

    __slots__ = ("_window", "_threshold", "_decay", "_rate", "_last")

    def __init__(self, window: float, threshold: int, half_life: float | None = None):
        if window <= 0:
            raise ConfigError(f"window must be positive, got {window}")
        if threshold < 0:
            raise ConfigError(f"threshold must be >= 0, got {threshold}")
        half_life = half_life if half_life is not None else window / 2
        if half_life <= 0:
            raise ConfigError(f"half_life must be positive, got {half_life}")
        self._window = float(window)
        self._threshold = int(threshold)
        self._decay = math.log(2.0) / half_life
        self._rate = 0.0
        self._last = 0.0

    def record(self, now: float) -> None:
        """Register one query arrival; bumps the decayed rate estimate."""
        self._advance(now)
        self._rate += self._decay  # unit impulse normalized by the decay

    def is_interested(self, now: float) -> bool:
        """Whether the decayed rate maps to > threshold arrivals/window."""
        self._advance(now)
        return self._rate * self._window > self._threshold

    def arrive(self, now: float) -> bool:
        """Register one query arrival; then whether the node is interested."""
        self.record(now)
        return self._rate * self._window > self._threshold

    def _advance(self, now: float) -> None:
        if now > self._last:
            self._rate *= math.exp(-self._decay * (now - self._last))
            self._last = now

    @property
    def window(self) -> float:
        """The reference interval length."""
        return self._window

    @property
    def threshold(self) -> int:
        """Arrivals-per-window threshold."""
        return self._threshold

    def __repr__(self) -> str:
        return (
            f"EwmaInterestPolicy(window={self._window}, "
            f"threshold={self._threshold}, rate={self._rate:.4g})"
        )


class AdaptiveInterestPolicy:
    """Sliding-window policy with a self-tuning threshold.

    The decision rule is the paper's (more than ``threshold`` arrivals in
    the trailing window), but the threshold tracks the node's own observed
    query rate instead of a global constant.  Time is cut into consecutive
    window-length epochs; when an epoch closes, its arrival count folds
    into an exponentially smoothed per-window rate estimate and the
    effective threshold becomes ``clamp(round(gain * rate), floor,
    ceiling)``.  Entirely deterministic — no RNG, and the estimator state
    advances only on ``record``/``is_interested`` calls, so replays are
    bit-identical.

    With ``floor == ceiling == c`` the threshold is pinned at ``c`` and
    every decision matches ``WindowInterestPolicy(window, c)`` exactly —
    the frozen-rate equivalence proven by ``tests/test_differential.py``.
    Like that policy it keeps a ring of the most recent arrival times,
    ``ceiling + 1`` of them, and reads the ``(threshold + 1)``-th most
    recent one.

    Parameters
    ----------
    window:
        Trailing interval (the index TTL) — also the epoch length.
    floor / ceiling:
        Hard bounds on the effective threshold.
    gain:
        Scales the rate estimate into a threshold: a node observing
        ``r`` queries per window settles near ``round(gain * r)``.
    smoothing:
        Weight of the newest closed epoch in the rate estimate
        (``rate = (1 - smoothing) * rate + smoothing * count``).
    """

    __slots__ = (
        "_window",
        "_floor",
        "_ceiling",
        "_gain",
        "_smoothing",
        "_recent",
        "_next",
        "_epoch_start",
        "_epoch_count",
        "_rate",
        "_threshold",
    )

    def __init__(
        self,
        window: float,
        floor: int,
        ceiling: int,
        gain: float = 0.5,
        smoothing: float = 0.5,
    ):
        if window <= 0:
            raise ConfigError(f"window must be positive, got {window}")
        AdaptivePlan(floor, ceiling, gain)  # validates the bounds and gain
        if not 0 < smoothing <= 1:
            raise ConfigError(f"smoothing must be in (0, 1], got {smoothing}")
        self._window = float(window)
        self._floor = int(floor)
        self._ceiling = int(ceiling)
        self._gain = float(gain)
        self._smoothing = float(smoothing)
        self._recent = [-math.inf] * (self._ceiling + 1)
        self._next = 0  # the oldest slot, overwritten by the next arrival
        self._epoch_start = 0.0
        self._epoch_count = 0
        self._rate = 0.0
        self._threshold = self._clamp(0.0)

    def record(self, now: float) -> None:
        """Register one query arrival."""
        self._advance(now)
        slot = self._next
        self._recent[slot] = now
        self._next = slot + 1 if slot < self._ceiling else 0
        self._epoch_count += 1

    def is_interested(self, now: float) -> bool:
        """More than the current threshold arrivals in ``(now - window, now]``."""
        self._advance(now)
        # A negative index wraps: threshold <= ceiling keeps it in range.
        recent = self._recent[self._next - self._threshold - 1]
        return recent > now - self._window

    def arrive(self, now: float) -> bool:
        """Register one query arrival; then whether the node is interested."""
        self.record(now)
        recent = self._recent[self._next - self._threshold - 1]
        return recent > now - self._window

    def count(self, now: float) -> int:
        """Arrivals inside the window, capped at ``ceiling + 1``."""
        horizon = now - self._window
        return sum(1 for arrival in self._recent if arrival > horizon)

    def _advance(self, now: float) -> None:
        # Close every whole epoch that ended at or before ``now``.  The
        # loop is bounded: an idle stretch folds in as zero-count epochs,
        # each halving (by default) the rate estimate.
        while now - self._epoch_start >= self._window:
            self._rate = (
                1.0 - self._smoothing
            ) * self._rate + self._smoothing * self._epoch_count
            self._epoch_count = 0
            self._epoch_start += self._window
            self._threshold = self._clamp(self._gain * self._rate)

    def _clamp(self, raw: float) -> int:
        return max(self._floor, min(self._ceiling, int(round(raw))))

    @property
    def window(self) -> float:
        """The trailing interval / epoch length."""
        return self._window

    @property
    def threshold(self) -> int:
        """The current effective threshold (clamped)."""
        return self._threshold

    @property
    def floor(self) -> int:
        """Lower bound on the effective threshold."""
        return self._floor

    @property
    def ceiling(self) -> int:
        """Upper bound on the effective threshold."""
        return self._ceiling

    @property
    def rate_estimate(self) -> float:
        """Smoothed arrivals-per-window estimate over closed epochs."""
        return self._rate

    def __repr__(self) -> str:
        return (
            f"AdaptiveInterestPolicy(window={self._window}, "
            f"floor={self._floor}, ceiling={self._ceiling}, "
            f"threshold={self._threshold}, rate={self._rate:.4g}, "
            f"kept={_kept(self._recent)})"
        )


def _kept(recent: list) -> int:
    """How many ring slots hold an arrival (the rest are still ``-inf``)."""
    return sum(1 for arrival in recent if arrival != -math.inf)


@dataclass(frozen=True)
class AdaptivePlan:
    """The adaptive policy as a run configuration's ``interest_policy``.

    ``floor`` and ``ceiling`` bound the per-node threshold, and a node
    seeing ``r`` queries per TTL settles near ``round(gain * r)`` within
    them (:class:`AdaptiveInterestPolicy`).  With ``floor == ceiling ==
    threshold_c`` the policy is bit-identical to the static window one.
    """

    floor: int = 2
    ceiling: int = 10
    gain: float = 0.5

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ConfigError` on any invalid parameter."""
        if self.floor < 0:
            raise ConfigError(f"floor must be >= 0, got {self.floor}")
        if self.ceiling < self.floor:
            raise ConfigError(
                f"ceiling must be >= floor, got {self.ceiling} < {self.floor}"
            )
        if self.gain < 0:
            raise ConfigError(f"gain must be >= 0, got {self.gain}")


class WindowInterestTable:
    """Every node's :class:`WindowInterestPolicy` ring, stored flat.

    The ring of the node filed under slot ``s`` is the ``threshold + 1``
    doubles of ``_times`` from ``s * (threshold + 1)`` on, pre-filled
    with ``-inf``, and ``_heads[s]`` is the offset of its oldest arrival
    (the one the next arrival overwrites).  ``_slots`` maps a node to
    its slot in the order nodes first arrived; a forgotten node's slot
    is reused by the next new node.  Decisions are exactly those of one
    :class:`WindowInterestPolicy` per node, but the table is five
    objects however many nodes it holds, and its dict of ints is not
    tracked by the cyclic collector.
    """

    __slots__ = (
        "_window",
        "_threshold",
        "_width",
        "_slots",
        "_times",
        "_heads",
        "_free",
    )

    def __init__(self, window: float, threshold: int):
        if window <= 0:
            raise ConfigError(f"window must be positive, got {window}")
        if threshold < 0:
            raise ConfigError(f"threshold must be >= 0, got {threshold}")
        self._window = float(window)
        self._threshold = int(threshold)
        self._width = self._threshold + 1
        self._slots: dict[int, int] = {}
        self._times = array("d")
        self._heads: list[int] = []
        self._free: list[int] = []

    def _open(self, node: int) -> int:
        """File ``node`` under a blank ring; returns its slot."""
        width = self._width
        blank = array("d", (-math.inf,)) * width
        if self._free:
            slot = self._free.pop()
            base = slot * width
            self._times[base : base + width] = blank
            self._heads[slot] = 0
        else:
            slot = len(self._heads)
            self._times.extend(blank)
            self._heads.append(0)
        self._slots[node] = slot
        return slot

    def record(self, node: int, now: float) -> None:
        """Register one query arrival at ``node``."""
        slot = self._slots.get(node)
        if slot is None:
            slot = self._open(node)
        head = self._heads[slot]
        self._times[slot * self._width + head] = now
        self._heads[slot] = head + 1 if head < self._threshold else 0

    def is_interested(self, node: int, now: float) -> bool:
        """More than ``threshold`` arrivals at ``node`` in ``(now -
        window, now]`` (never, for a node with no arrival)."""
        slot = self._slots.get(node)
        if slot is None:
            return False
        oldest = self._times[slot * self._width + self._heads[slot]]
        return oldest > now - self._window

    def arrive(self, node: int, now: float) -> bool:
        """:meth:`record` then :meth:`is_interested`, in one call."""
        slot = self._slots.get(node)
        if slot is None:
            slot = self._open(node)
        heads = self._heads
        head = heads[slot]
        oldest = slot * self._width + head
        times = self._times
        times[oldest] = now
        # The next oldest follows, or the ring wraps to its first double.
        if head < self._threshold:
            heads[slot] = head + 1
            return times[oldest + 1] > now - self._window
        heads[slot] = 0
        return times[oldest - head] > now - self._window

    def forget(self, node: int) -> None:
        """Drop ``node``'s ring (a departure); its slot is reused."""
        slot = self._slots.pop(node, None)
        if slot is not None:
            self._free.append(slot)

    def snapshot(self, node: int) -> "Optional[tuple[array, int]]":
        """A copy of ``node``'s ring and head (``None`` without one)."""
        slot = self._slots.get(node)
        if slot is None:
            return None
        base = slot * self._width
        return self._times[base : base + self._width], self._heads[slot]

    def restore(self, node: int, snapshot) -> None:
        """Put back what :meth:`snapshot` returned, over any ring
        ``node`` holds now."""
        if snapshot is None:
            return
        slot = self._slots.get(node)
        if slot is None:
            slot = self._open(node)
        recent, head = snapshot
        base = slot * self._width
        self._times[base : base + self._width] = recent
        self._heads[slot] = head

    def threshold_bounds(self) -> Optional[tuple[int, int]]:
        """``(c, c)``, or ``None`` while no node has a ring."""
        if not self._slots:
            return None
        return (self._threshold, self._threshold)

    def __len__(self) -> int:
        return len(self._slots)

    def __iter__(self) -> Iterator[int]:
        """The nodes with a ring, in the order they first arrived."""
        return iter(self._slots)


class PolicyTable:
    """One per-node policy object per node, behind the table methods.

    The EWMA and adaptive policies keep more than a ring per node; this
    table creates each node's policy with ``new()`` at its first
    arrival.  A snapshot is the policy object itself.
    """

    __slots__ = ("_new", "_policies")

    def __init__(self, new) -> None:
        self._new = new
        self._policies: dict[int, InterestPolicy] = {}

    def record(self, node: int, now: float) -> None:
        """Register one query arrival at ``node``."""
        policy = self._policies.get(node)
        if policy is None:
            policy = self._policies[node] = self._new()
        policy.record(now)

    def is_interested(self, node: int, now: float) -> bool:
        """Whether ``node`` qualifies (never, with no arrival yet)."""
        policy = self._policies.get(node)
        return policy is not None and policy.is_interested(now)

    def arrive(self, node: int, now: float) -> bool:
        """:meth:`record` then :meth:`is_interested`, in one call."""
        policy = self._policies.get(node)
        if policy is None:
            policy = self._policies[node] = self._new()
        return policy.arrive(now)

    def forget(self, node: int) -> None:
        """Drop ``node``'s policy (a departure)."""
        self._policies.pop(node, None)

    def snapshot(self, node: int) -> "InterestPolicy | None":
        """``node``'s policy object (``None`` without one)."""
        return self._policies.get(node)

    def restore(self, node: int, snapshot) -> None:
        """File the policy :meth:`snapshot` returned under ``node``."""
        if snapshot is not None:
            self._policies[node] = snapshot

    def threshold_bounds(self) -> Optional[tuple[int, int]]:
        """(min, max) effective threshold over every node's policy."""
        thresholds = [policy.threshold for policy in self._policies.values()]
        if not thresholds:
            return None
        return (min(thresholds), max(thresholds))

    def __len__(self) -> int:
        return len(self._policies)

    def __iter__(self) -> Iterator[int]:
        """The nodes with a policy, in the order they first arrived."""
        return iter(self._policies)


def interest_table(
    config, override: "AdaptivePlan | None" = None
) -> "WindowInterestTable | PolicyTable":
    """A scheme's interest table: the flat window table, or a table of
    per-node EWMA or adaptive policies.

    ``config`` is a :class:`~repro.engine.config.SimulationConfig` (any
    object with its interest fields will do).  ``override`` is a
    scheme's ``interest_policy_override`` (``dup-adaptive``'s is
    ``AdaptivePlan()``): it replaces ``config.interest_policy`` unless
    that is an :class:`AdaptivePlan` already.  A scheme calls this once,
    at its first interest decision.
    """
    policy = config.interest_policy
    if override is not None and not isinstance(policy, AdaptivePlan):
        policy = override
    if policy == "window":
        return WindowInterestTable(config.ttl, config.threshold_c)
    if isinstance(policy, AdaptivePlan):
        return PolicyTable(
            partial(
                AdaptiveInterestPolicy,
                config.ttl,
                policy.floor,
                policy.ceiling,
                policy.gain,
            )
        )
    return PolicyTable(
        partial(EwmaInterestPolicy, config.ttl, config.threshold_c)
    )
