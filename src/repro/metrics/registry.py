"""Unified metrics registry: counters, gauges, and histograms.

One :class:`MetricsRegistry` per simulation absorbs every metric series
behind a single interface: the cost ledger's per-category hop counts,
the latency recorder's mean/percentiles/hit-rate, the transport's drop
count, population, and any monitor probes — all registered as *gauges*
reading the live source, so the registry adds no bookkeeping to the hot
path.  Schemes and experiments can additionally create their own
counters and histograms by name.

Snapshots (:meth:`MetricsRegistry.snapshot`) flatten the whole registry
into one ``{name: value}`` mapping; :meth:`record_snapshot` appends a
timestamped copy to the in-memory series, which the engine samples
periodically when snapshotting is enabled and the JSONL exporter dumps
for offline analysis.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Optional

from repro.stats.running import RunningStat, percentile


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str):
        self.name = name
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the count."""
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0: {amount}")
        self._value += amount

    @property
    def value(self) -> int:
        """The current count."""
        return self._value

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self._value})"


class Gauge:
    """A point-in-time value, either set directly or read via callback."""

    __slots__ = ("name", "_fn", "_value")

    def __init__(self, name: str, fn: Optional[Callable[[], float]] = None):
        self.name = name
        self._fn = fn
        self._value = float("nan")

    def set(self, value: float) -> None:
        """Set the gauge (only valid for non-callback gauges)."""
        if self._fn is not None:
            raise ValueError(f"gauge {self.name!r} is callback-backed")
        self._value = float(value)

    @property
    def value(self) -> float:
        """The current value (samples the callback when present)."""
        if self._fn is not None:
            return float(self._fn())
        return self._value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self.value})"


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


class MetricsRegistry:
    """Central name-to-instrument registry with periodic snapshotting.

    Parameters
    ----------
    clock:
        Returns current simulation time (stamps snapshots).
    """

    def __init__(self, clock: Callable[[], float] = lambda: 0.0):
        self._clock = clock
        self._instruments: dict[str, object] = {}
        self._snapshots: list[dict] = []

    # -- registration -------------------------------------------------------
    def _get_or_create(self, name: str, kind: type, factory):
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise ValueError(
                    f"metric {name!r} is a {type(existing).__name__}, "
                    f"not a {kind.__name__}"
                )
            return existing
        instrument = factory()
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        return self._get_or_create(name, Counter, lambda: Counter(name))

    def gauge(
        self, name: str, fn: Optional[Callable[[], float]] = None
    ) -> Gauge:
        """Get or create the gauge called ``name``.

        A callback passed on first registration makes the gauge read
        live from its source; re-registration must not change the
        callback.
        """
        gauge = self._get_or_create(name, Gauge, lambda: Gauge(name, fn))
        if fn is not None and gauge._fn is not fn and gauge._fn is not None:
            raise ValueError(f"gauge {name!r} already has a callback")
        return gauge

    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram called ``name``."""
        return self._get_or_create(name, Histogram, lambda: Histogram(name))

    # -- inspection ----------------------------------------------------------
    @property
    def names(self) -> tuple[str, ...]:
        """All registered metric names, sorted."""
        return tuple(sorted(self._instruments))

    def get(self, name: str):
        """The instrument called ``name`` (KeyError when absent)."""
        return self._instruments[name]

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    # -- snapshots -----------------------------------------------------------
    def snapshot(self) -> dict[str, object]:
        """Flatten the registry into one timestamped mapping.

        Counters and gauges contribute their value under their name;
        histograms contribute their summary dict.
        """
        values: dict[str, object] = {}
        for name in self.names:
            instrument = self._instruments[name]
            if isinstance(instrument, Histogram):
                values[name] = instrument.summary()
            else:
                values[name] = instrument.value
        return {"time": self._clock(), "values": values}

    def record_snapshot(self) -> dict[str, object]:
        """Take a snapshot and append it to the retained series."""
        shot = self.snapshot()
        self._snapshots.append(shot)
        return shot

    @property
    def snapshots(self) -> tuple[Mapping[str, object], ...]:
        """All recorded snapshots, in time order."""
        return tuple(self._snapshots)

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(instruments={len(self._instruments)}, "
            f"snapshots={len(self._snapshots)})"
        )
