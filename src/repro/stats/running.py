"""Running (single-pass) statistical estimators.

:class:`RunningStat` implements Welford's numerically stable online
algorithm for mean and variance; :class:`TimeWeightedStat` integrates a
piecewise-constant signal over simulated time (used for, e.g., average
number of subscribed nodes).  :func:`percentile` is the shared
linear-interpolation quantile estimator used for the tail-latency
metrics (p50/p95/p99); :func:`percentile_of_counts` is the same
estimator over a value-count summary of the values.
"""

from __future__ import annotations

import math
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``values`` by linear interpolation.

    ``q`` is given in percent (0-100).  Returns ``nan`` for an empty
    sequence; matches numpy's default ("linear") interpolation so
    results are consistent with offline analysis of exported samples.
    """
    ordered = sorted(values)
    return _interpolate(len(ordered), ordered.__getitem__, q)


def percentile_of_counts(
    counts: Sequence[tuple[float, int]], q: float
) -> float:
    """:func:`percentile` of a multiset given as ascending value counts.

    ``counts`` lists ``(value, count)`` pairs in increasing value order,
    every count positive.  The order statistics are read off the running
    counts, so the result equals ``percentile`` of the expanded values
    bit for bit without building or sorting them.
    """

    def order_statistic(index: int):
        for value, count in counts:
            if index < count:
                return value
            index -= count
        raise IndexError("order statistic out of range")

    size = sum(count for _, count in counts)
    return _interpolate(size, order_statistic, q)


def _interpolate(size: int, order_statistic, q: float) -> float:
    """The linear-interpolation percentile of ``size`` ordered values,
    the ``i``-th (0-based) of which is ``order_statistic(i)``."""
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must lie in [0, 100], got {q}")
    if not size:
        return math.nan
    rank = (size - 1) * (q / 100.0)
    lower = math.floor(rank)
    upper = math.ceil(rank)
    low = order_statistic(lower)
    if lower == upper:
        return float(low)
    fraction = rank - lower
    return float(low * (1 - fraction) + order_statistic(upper) * fraction)


class RunningStat:
    """Single-pass mean / variance / extrema accumulator (Welford).

    Example
    -------
    >>> stat = RunningStat()
    >>> for x in (2.0, 4.0, 6.0):
    ...     stat.add(x)
    >>> stat.mean
    4.0
    >>> stat.variance
    4.0
    """

    __slots__ = ("_count", "_mean", "_m2", "_min", "_max", "_total")

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._total = 0.0

    def add(self, value: float) -> None:
        """Accumulate one observation."""
        value = float(value)
        self._count += 1
        self._total += value
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def extend(self, values) -> None:
        """Accumulate an iterable of observations."""
        for value in values:
            self.add(value)

    def merge(self, other: "RunningStat") -> "RunningStat":
        """Return a new accumulator combining two (Chan et al. merge)."""
        merged = RunningStat()
        if self._count == 0:
            merged.__setstate(other)
            return merged
        if other._count == 0:
            merged.__setstate(self)
            return merged
        count = self._count + other._count
        delta = other._mean - self._mean
        merged._count = count
        merged._total = self._total + other._total
        merged._mean = self._mean + delta * other._count / count
        merged._m2 = (
            self._m2
            + other._m2
            + delta * delta * self._count * other._count / count
        )
        merged._min = min(self._min, other._min)
        merged._max = max(self._max, other._max)
        return merged

    def __setstate(self, source: "RunningStat") -> None:
        self._count = source._count
        self._mean = source._mean
        self._m2 = source._m2
        self._min = source._min
        self._max = source._max
        self._total = source._total

    @property
    def count(self) -> int:
        """Number of observations."""
        return self._count

    @property
    def total(self) -> float:
        """Sum of observations."""
        return self._total

    @property
    def mean(self) -> float:
        """Sample mean (``nan`` when empty)."""
        return self._mean if self._count else math.nan

    @property
    def variance(self) -> float:
        """Unbiased sample variance (``nan`` for fewer than 2 samples)."""
        if self._count < 2:
            return math.nan
        return self._m2 / (self._count - 1)

    @property
    def stdev(self) -> float:
        """Unbiased sample standard deviation."""
        variance = self.variance
        return math.sqrt(variance) if variance == variance else math.nan

    @property
    def minimum(self) -> float:
        """Smallest observation (``nan`` when empty)."""
        return self._min if self._count else math.nan

    @property
    def maximum(self) -> float:
        """Largest observation (``nan`` when empty)."""
        return self._max if self._count else math.nan

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:
        return (
            f"RunningStat(count={self._count}, mean={self.mean:.6g}, "
            f"stdev={self.stdev:.6g})"
        )


class TimeWeightedStat:
    """Time-average of a piecewise-constant signal.

    Call :meth:`update` whenever the tracked value changes; the accumulator
    weights each value by how long it was held.

    Example
    -------
    >>> stat = TimeWeightedStat(start_time=0.0, value=0.0)
    >>> stat.update(at=10.0, value=4.0)   # value was 0 during [0, 10)
    >>> stat.mean(at=20.0)                # 0*10 + 4*10 over 20
    2.0
    """

    __slots__ = ("_last_time", "_value", "_area", "_start")

    def __init__(self, start_time: float = 0.0, value: float = 0.0):
        self._start = float(start_time)
        self._last_time = float(start_time)
        self._value = float(value)
        self._area = 0.0

    def update(self, at: float, value: float) -> None:
        """Record that the signal changed to ``value`` at time ``at``."""
        if at < self._last_time:
            raise ValueError(
                f"time moved backwards: {at} < {self._last_time}"
            )
        self._area += self._value * (at - self._last_time)
        self._last_time = float(at)
        self._value = float(value)

    @property
    def current(self) -> float:
        """The last recorded value."""
        return self._value

    def mean(self, at: float) -> float:
        """Time-average of the signal over ``[start, at]``."""
        if at < self._last_time:
            raise ValueError(
                f"time moved backwards: {at} < {self._last_time}"
            )
        elapsed = at - self._start
        if elapsed <= 0:
            return math.nan
        area = self._area + self._value * (at - self._last_time)
        return area / elapsed

    def __repr__(self) -> str:
        return (
            f"TimeWeightedStat(current={self._value}, "
            f"since={self._start})"
        )
