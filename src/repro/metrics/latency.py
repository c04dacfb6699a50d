"""Query latency recording (in hops), gated on the warm-up period."""

from __future__ import annotations

import math
from array import array
from collections import Counter
from typing import Callable

from repro.stats.confidence import ConfidenceInterval, batch_means_interval
from repro.stats.running import percentile_of_counts


class LatencyRecorder:
    """Accumulates per-query request latencies measured in hops.

    A query served from the local cache has latency 0; otherwise latency is
    the number of hops the request travelled before reaching the first node
    holding a valid index (replies do not add latency — they add cost).

    Parameters
    ----------
    clock:
        Returns current simulation time; used to apply the warm-up gate at
        *query issue time*.
    warmup:
        Queries issued before this time are ignored.
    keep_samples:
        Whether to retain individual latencies (needed for batch-means
        confidence intervals and percentiles).  They are kept in an
        ``array``: one byte per query while every latency is an integer
        below 256, eight (a double) once any value is not.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        warmup: float = 0.0,
        keep_samples: bool = True,
    ):
        self._clock = clock
        self._warmup = float(warmup)
        self._keep_samples = keep_samples
        # Count, running mean (Welford's update) and maximum, kept here
        # rather than in a ``RunningStat``: one frame fewer per query.
        self._count = 0
        self._mean = 0.0
        self._max = -math.inf
        self._samples = array("B")
        #: ``(len(samples), sorted (value, count) pairs)`` of the last
        #: percentile query, reused while no sample has been added.
        self._counts: "tuple[int, list[tuple[float, int]]] | None" = None
        self._hits = 0
        self._warmup_queries = 0

    def record(self, latency_hops: float, issued_at: float) -> None:
        """Record one completed query.

        Parameters
        ----------
        latency_hops:
            Request hops until a valid index was reached.
        issued_at:
            Simulation time the query was issued (for the warm-up gate).
        """
        if latency_hops < 0:
            raise ValueError(f"latency must be non-negative: {latency_hops}")
        if issued_at < self._warmup:
            self._warmup_queries += 1
            return
        value = float(latency_hops)
        count = self._count = self._count + 1
        self._mean += (value - self._mean) / count
        if value > self._max:
            self._max = value
        if latency_hops == 0:
            self._hits += 1
        if self._keep_samples:
            try:
                self._samples.append(latency_hops)
            except (OverflowError, TypeError):
                # Wider than a byte or not an integer: store doubles.
                self._samples = array("d", self._samples)
                self._samples.append(latency_hops)

    @property
    def count(self) -> int:
        """Completed post-warm-up queries."""
        return self._count

    @property
    def warmup_queries(self) -> int:
        """Queries discarded by the warm-up gate."""
        return self._warmup_queries

    @property
    def mean(self) -> float:
        """Average query latency in hops (``nan`` before any query)."""
        return self._mean if self._count else math.nan

    @property
    def hits(self) -> int:
        """Queries served from the local cache (latency 0).

        Exposed as a raw count so sharded runs can merge recorders
        exactly (a merged hit rate needs the numerators, not the
        per-shard ratios).
        """
        return self._hits

    @property
    def total_hops(self) -> float:
        """Sum of recorded latencies (for exact cross-shard merging)."""
        return self._mean * self._count if self._count else 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of queries served from the local cache."""
        if self._count == 0:
            return float("nan")
        return self._hits / self._count

    @property
    def maximum(self) -> float:
        """Worst observed latency (``nan`` before any query)."""
        return self._max if self._count else math.nan

    def confidence_interval(
        self, confidence: float = 0.95, batches: int = 20
    ) -> ConfidenceInterval:
        """Batch-means CI over the recorded latencies.

        Requires ``keep_samples=True``; the paper runs each simulation
        until a 95 % CI of the latency is obtained.
        """
        if not self._keep_samples:
            raise RuntimeError("samples were not kept; CI unavailable")
        return batch_means_interval(self._samples, batches, confidence)

    def value_counts(self) -> list[tuple[float, int]]:
        """The samples as ascending ``(latency, count)`` pairs.

        Requires ``keep_samples``.  Counts add across recorders, so
        sharded runs merge them into exact percentiles with
        :func:`~repro.stats.running.percentile_of_counts`.
        """
        if not self._keep_samples:
            raise RuntimeError("samples were not kept; counts unavailable")
        samples = self._samples
        if self._counts is None or self._counts[0] != len(samples):
            self._counts = (len(samples), sorted(Counter(samples).items()))
        return self._counts[1]

    def percentile(self, q: float) -> float:
        """The ``q``-th latency percentile (requires ``keep_samples``).

        Returns ``nan`` when no samples were recorded.  Read off the
        samples' value counts, so no sorted copy of them is built.
        """
        if not self._keep_samples:
            raise RuntimeError("samples were not kept; percentile unavailable")
        return percentile_of_counts(self.value_counts(), q)

    def percentiles(self, qs=(50, 95, 99)) -> dict[str, float]:
        """Tail percentiles keyed ``"p50"``-style (requires samples)."""
        return {f"p{q:g}": self.percentile(q) for q in qs}

    @property
    def samples(self) -> tuple[float, ...]:
        """The raw recorded latencies (post-warm-up only)."""
        return tuple(self._samples)

    def __repr__(self) -> str:
        return (
            f"LatencyRecorder(count={self.count}, mean={self.mean:.4g}, "
            f"hit_rate={self.hit_rate:.3g})"
        )
