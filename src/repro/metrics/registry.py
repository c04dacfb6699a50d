"""The histogram behind the silent-failure detection-latency extras.

A :class:`Histogram` keeps every observation, so its percentiles are
exact; ``Simulation`` observes one value per detected crash and reports
the count, median and 95th percentile as ``detection_*`` result extras.
"""

from __future__ import annotations

from typing import Iterable

from repro.stats.running import RunningStat, percentile


class Histogram:
    """An observation accumulator with mean, extrema, and percentiles.

    Keeps raw samples (one float each) so arbitrary percentiles are
    exact; the paper-scale runs observe one value per query, matching
    the latency recorder's own memory profile.
    """

    __slots__ = ("name", "_stat", "_samples")

    def __init__(self, name: str):
        self.name = name
        self._stat = RunningStat()
        self._samples: list[float] = []

    def observe(self, value: float) -> None:
        """Record one observation."""
        self._stat.add(value)
        self._samples.append(float(value))

    @property
    def count(self) -> int:
        """Number of observations."""
        return self._stat.count

    @property
    def mean(self) -> float:
        """Mean observation (``nan`` when empty)."""
        return self._stat.mean

    @property
    def minimum(self) -> float:
        """Smallest observation (``nan`` when empty)."""
        return self._stat.minimum

    @property
    def maximum(self) -> float:
        """Largest observation (``nan`` when empty)."""
        return self._stat.maximum

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile of the observations."""
        return percentile(self._samples, q)

    def summary(self, qs: Iterable[float] = (50, 95, 99)) -> dict[str, float]:
        """Count/mean/min/max plus the requested percentiles."""
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            **{f"p{q:g}": self.percentile(q) for q in qs},
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count})"
