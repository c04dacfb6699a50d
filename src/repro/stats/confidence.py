"""Confidence intervals for simulation output analysis.

The paper runs each configuration "until at least the 95% confidence
interval of the query latency is obtained".  We provide the two standard
estimators used for that:

- :func:`mean_confidence_interval` over independent replications, and
- :func:`batch_means_interval` over one long run split into batches.

Both use the Student-t quantile from :mod:`repro.stats.special`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.stats.running import RunningStat
from repro.stats.special import student_t_quantile


@dataclass(frozen=True)
class ConfidenceInterval:
    """A mean estimate with a symmetric confidence half-width.

    Attributes
    ----------
    mean:
        Point estimate of the mean.
    half_width:
        Half the width of the interval (``nan`` for < 2 samples).
    confidence:
        Confidence level, e.g. ``0.95``.
    count:
        Number of samples (replications or batches) behind the estimate.
    """

    mean: float
    half_width: float
    confidence: float
    count: int

    @property
    def low(self) -> float:
        """Lower bound of the interval."""
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        """Upper bound of the interval."""
        return self.mean + self.half_width

    @property
    def relative_half_width(self) -> float:
        """Half-width divided by |mean| (``inf`` for mean 0)."""
        if self.mean == 0:
            return math.inf
        return abs(self.half_width / self.mean)

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the interval."""
        if self.half_width != self.half_width:  # nan
            return False
        return self.low <= value <= self.high

    def __str__(self) -> str:
        if self.half_width != self.half_width:  # nan
            return f"{self.mean:.4g} (±n/a)"
        return f"{self.mean:.4g} ± {self.half_width:.2g}"


def mean_confidence_interval(
    samples: Sequence[float], confidence: float = 0.95
) -> ConfidenceInterval:
    """Student-t confidence interval for the mean of i.i.d. samples.

    Parameters
    ----------
    samples:
        Observations, typically one summary value per replication.
    confidence:
        Confidence level in (0, 1).

    Returns
    -------
    ConfidenceInterval
        With ``half_width = nan`` when fewer than two samples are given.
    """
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    samples = [float(x) for x in samples]
    count = len(samples)
    if count == 0:
        return ConfidenceInterval(math.nan, math.nan, confidence, 0)
    stat = RunningStat()
    stat.extend(samples)
    if count == 1:
        return ConfidenceInterval(stat.mean, math.nan, confidence, 1)
    t_quantile = student_t_quantile((1 + confidence) / 2, count - 1)
    half_width = t_quantile * stat.stdev / math.sqrt(count)
    return ConfidenceInterval(stat.mean, half_width, confidence, count)


def batch_means_interval(
    observations: Sequence[float],
    batches: int = 20,
    confidence: float = 0.95,
) -> ConfidenceInterval:
    """Batch-means confidence interval over one long output sequence.

    The sequence is split into ``batches`` contiguous batches; batch means
    are treated as approximately independent samples.  Used when only a
    single long simulation run is available.

    Parameters
    ----------
    observations:
        Per-query observations from a single run, in order.  Any
        sliceable sequence: an ``array`` of integer hop counts is read in
        place, its integer batch sums divided exactly as float sums of
        the same values would be.
    batches:
        Number of batches to split into (observations beyond an exact
        multiple are dropped from the tail).
    confidence:
        Confidence level in (0, 1).
    """
    if batches < 2:
        raise ValueError(f"need at least 2 batches, got {batches}")
    batch_size = len(observations) // batches
    if batch_size == 0:
        return mean_confidence_interval(observations, confidence)
    means = [
        sum(observations[index * batch_size : (index + 1) * batch_size])
        / batch_size
        for index in range(batches)
    ]
    return mean_confidence_interval(means, confidence)
