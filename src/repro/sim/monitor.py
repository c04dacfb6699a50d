"""Time-series probes for simulations.

A :class:`Monitor` samples named quantities on a fixed cadence (one
simulation process per monitor) and stores `(time, value)` series; probes
are plain callables, so anything reachable from the engine — subscriber
counts, hit rates, cache occupancy, DUP-tree size — can be observed
without touching the measured code.  A monitor may also carry one
snapshot: a callable returning a ``{name: value}`` mapping, sampled on
the same ticks and kept as ``{"time", "values"}`` records.

``Simulation.monitor(interval, max_samples)`` gives a run its one
monitor: the experiments probe it for the convergence plots, the CLI
puts the tree-shape probes of :mod:`repro.metrics.windows` and the
run's result snapshot on it, and the test-suite uses it for temporal
assertions (e.g. "the subscriber count stabilizes after the first TTL").
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Optional

from repro.errors import ConfigError
from repro.sim.core import Environment

Probe = Callable[[], float]


@dataclass(frozen=True)
class Sample:
    """One observation of a probed quantity."""

    time: float
    value: float


class Series:
    """An append-only time series with simple summaries.

    ``max_samples`` bounds retention: when set, only the most recent
    ``max_samples`` observations are kept (a sliding window), so a
    probe sampled every few seconds of a week-long run stays
    fixed-memory.  ``total_appended`` counts every observation ever
    made, retained or not.  ``None`` keeps everything (the historical
    behaviour).
    """

    __slots__ = ("name", "max_samples", "total_appended", "_times", "_values")

    def __init__(self, name: str, max_samples: Optional[int] = None):
        if max_samples is not None and max_samples < 1:
            raise ConfigError(
                f"max_samples must be positive, got {max_samples}"
            )
        self.name = name
        self.max_samples = max_samples
        self.total_appended = 0
        self._times: list[float] = []
        self._values: list[float] = []

    def append(self, time: float, value: float) -> None:
        """Record one sample (times must be non-decreasing)."""
        if self._times and time < self._times[-1]:
            raise ConfigError(
                f"samples must be time-ordered: {time} < {self._times[-1]}"
            )
        self._times.append(float(time))
        self._values.append(float(value))
        self.total_appended += 1
        if self.max_samples is not None and len(self._times) > self.max_samples:
            excess = len(self._times) - self.max_samples
            del self._times[:excess]
            del self._values[:excess]

    @property
    def times(self) -> tuple[float, ...]:
        """Sample times."""
        return tuple(self._times)

    @property
    def values(self) -> tuple[float, ...]:
        """Sample values."""
        return tuple(self._values)

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[Sample]:
        return (
            Sample(t, v) for t, v in zip(self._times, self._values)
        )

    @property
    def last(self) -> Optional[Sample]:
        """The most recent sample, if any."""
        if not self._times:
            return None
        return Sample(self._times[-1], self._values[-1])

    def window(self, start: float, end: float) -> "Series":
        """The sub-series with ``start <= time <= end``."""
        clipped = Series(self.name, max_samples=self.max_samples)
        for time, value in zip(self._times, self._values):
            if start <= time <= end:
                clipped.append(time, value)
        return clipped

    def mean(self) -> float:
        """Unweighted mean of the sampled values (``nan`` when empty)."""
        if not self._values:
            return float("nan")
        return sum(self._values) / len(self._values)

    def minimum(self) -> float:
        """Smallest sample (``nan`` when empty)."""
        return min(self._values) if self._values else float("nan")

    def maximum(self) -> float:
        """Largest sample (``nan`` when empty)."""
        return max(self._values) if self._values else float("nan")

    def is_stable(self, last_fraction: float = 0.5, tolerance: float = 0.1) -> bool:
        """Whether the trailing ``last_fraction`` of samples varies by at
        most ``tolerance`` relative to its mean (convergence heuristic)."""
        if len(self._values) < 4:
            return False
        tail = self._values[int(len(self._values) * (1 - last_fraction)) :]
        center = sum(tail) / len(tail)
        if center == 0:
            return max(abs(v) for v in tail) <= tolerance
        return all(abs(v - center) <= tolerance * abs(center) for v in tail)

    def __repr__(self) -> str:
        return f"Series({self.name!r}, samples={len(self)})"


class Monitor:
    """Samples registered probes on a fixed simulated-time cadence.

    Parameters
    ----------
    env:
        The simulation environment.
    interval:
        Seconds of simulated time between samples; the first sample is
        taken one interval after the first probe (or the snapshot) is
        registered.
    max_samples:
        Retention bound for every created series and for the snapshots
        (sliding window of the most recent samples).  Defaults to 4096;
        pass ``None`` for the old unbounded behaviour.
    """

    DEFAULT_MAX_SAMPLES = 4096

    def __init__(
        self,
        env: Environment,
        interval: float,
        max_samples: Optional[int] = DEFAULT_MAX_SAMPLES,
    ):
        if interval <= 0:
            raise ConfigError(f"interval must be positive, got {interval}")
        if max_samples is not None and max_samples < 1:
            raise ConfigError(
                f"max_samples must be positive, got {max_samples}"
            )
        self._env = env
        self._interval = float(interval)
        self._max_samples = max_samples
        self._probes: dict[str, Probe] = {}
        self._series: dict[str, Series] = {}
        self._snapshot: Optional[Callable[[], Mapping[str, object]]] = None
        self._snapshots: deque = deque(maxlen=max_samples)
        self._started = False

    def probe(self, name: str, function: Probe) -> Series:
        """Register a probe; returns its (live) series."""
        if name in self._probes:
            raise ConfigError(f"probe {name!r} already registered")
        self._probes[name] = function
        series = Series(name, max_samples=self._max_samples)
        self._series[name] = series
        self._start()
        return series

    def record(self, snapshot: Callable[[], Mapping[str, object]]) -> None:
        """Sample ``snapshot()`` (a ``{name: value}`` mapping) at every
        tick; the retained samples are :attr:`snapshots`."""
        if self._snapshot is not None:
            raise ConfigError("the monitor already records a snapshot")
        self._snapshot = snapshot
        self._start()

    def _start(self) -> None:
        if not self._started:
            self._started = True
            self._env.process(self._sampling_loop(), name="monitor")

    def series(self, name: str) -> Series:
        """The series recorded for ``name``."""
        try:
            return self._series[name]
        except KeyError:
            raise ConfigError(f"unknown probe {name!r}") from None

    @property
    def interval(self) -> float:
        """Seconds of simulated time between samples."""
        return self._interval

    @property
    def max_samples(self) -> Optional[int]:
        """Samples each series keeps (``None``: unbounded)."""
        return self._max_samples

    @property
    def names(self) -> tuple[str, ...]:
        """All registered probe names."""
        return tuple(self._series)

    @property
    def snapshots(self) -> tuple[dict, ...]:
        """The retained ``{"time", "values"}`` snapshots, oldest first."""
        return tuple(self._snapshots)

    def sample_now(self) -> None:
        """Take one sample of every probe (and the snapshot) now."""
        now = self._env.now
        for name, function in self._probes.items():
            self._series[name].append(now, float(function()))
        if self._snapshot is not None:
            self._snapshots.append(
                {"time": now, "values": dict(self._snapshot())}
            )

    def _sampling_loop(self):
        while True:
            yield self._env.timeout(self._interval)
            self.sample_now()
