"""Predicting the interested-node population analytically.

Under the paper's workload, queries arrive network-wide as a Poisson
process of rate ``lambda`` and land on the node of Zipf rank ``i`` with
probability ``P_i = (1/i^theta) / H_n(theta)``.  The number of *local*
queries node ``i`` receives in a TTL window is then Poisson with mean
``mu_i = lambda * P_i * TTL``, and the node is interested when that count
exceeds the threshold ``c``.

``expected_interested`` sums ``P[Poisson(mu_i) > c]`` over ranks — the
expected size of the interested set at a random instant, which predicts
the size of the DUP tree (and hence its per-cycle push cost) as a
function of lambda, theta, n, TTL, and c.  The tests check it against
the simulated subscriber counts.

The model deliberately ignores forwarded-query arrivals (they also count
toward interest in the protocol), so it is a slight *under*-estimate for
interior nodes; at the paper's parameters the correction is small because
forwarded traffic concentrates on a few junctions.
"""

from __future__ import annotations

import math

from repro.errors import ConfigError
from repro.stats.special import poisson_tail


def zipf_probabilities(n: int, theta: float) -> list[float]:
    """The paper's Zipf-like rank probabilities ``P_1 .. P_n``."""
    if n < 1:
        raise ConfigError(f"need at least one node, got n={n}")
    if theta < 0:
        raise ConfigError(f"theta must be >= 0, got {theta}")
    weights = [1.0 / (rank**theta) for rank in range(1, n + 1)]
    total = sum(weights)
    return [w / total for w in weights]


def expected_interested(
    n: int,
    theta: float,
    rate: float,
    ttl: float,
    threshold_c: int,
) -> float:
    """Expected number of interested nodes at a random instant.

    Parameters mirror the simulation configuration: ``rate`` is the
    network-wide query rate, ``ttl`` the window length, ``threshold_c``
    the paper's ``c`` ("more than c queries in the last TTL interval").
    """
    if rate <= 0 or ttl <= 0:
        raise ConfigError("rate and ttl must be positive")
    if threshold_c < 0:
        raise ConfigError(f"threshold_c must be >= 0, got {threshold_c}")
    expected = 0.0
    for probability in zipf_probabilities(n, theta):
        expected += poisson_tail(threshold_c, rate * probability * ttl)
    return expected


def interested_rank_cutoff(
    n: int,
    theta: float,
    rate: float,
    ttl: float,
    threshold_c: int,
) -> int:
    """The deterministic-rate rank cutoff: ranks with ``mu_i > c``.

    A cruder estimate than :func:`expected_interested` (it ignores
    Poisson noise around the threshold) but useful for back-of-envelope
    scaling arguments: the cutoff grows like ``(lambda * ttl / c)^(1/theta)``.
    """
    count = 0
    for probability in zipf_probabilities(n, theta):
        if rate * probability * ttl > threshold_c:
            count += 1
        else:
            break  # probabilities are non-increasing in rank
    return count


def predicted_dup_relative_push_cost(
    interested: float, mean_depth: float
) -> float:
    """Paper-style envelope: DUP push cost over PCX re-fetch cost.

    With ``k`` subscribers at mean depth ``d``, PCX pays about ``2kd``
    per TTL, DUP about ``k`` plus a few junctions — bounded here by
    ``1.5k`` — giving a relative cost near ``0.75 / d`` (Figure 2's
    example: depth 4 gives 12.5 %, the paper's 87.5 % saving).
    """
    if interested <= 0 or mean_depth <= 0:
        return math.nan
    return (1.5 * interested) / (2 * interested * mean_depth)
