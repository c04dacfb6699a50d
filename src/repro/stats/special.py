"""The two special functions the package needs, from the standard library.

:func:`student_t_quantile` backs the replication confidence intervals and
:func:`poisson_tail` the analytical interested-set model.  Each is one call
deep in a report, so neither justifies loading a numerical library into
every simulation process; the test suite checks both against one.
"""

from __future__ import annotations

import math
from statistics import NormalDist
from sys import float_info

_EPSILON = float_info.epsilon
_TINY = 1e-300


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Lentz's evaluation of the incomplete-beta continued fraction.

    ``I_x(a, b) = x**a * (1 - x)**b / (a * B(a, b))`` times this value;
    it converges quickly for ``x < (a + 1) / (a + b + 2)``.
    """
    c = 1.0
    h = d = 1.0 / ((1.0 - (a + b) * x / (a + 1.0)) or _TINY)
    for m in range(1, 10_000):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 / ((1.0 + numerator * d) or _TINY)
            c = (1.0 + numerator / c) or _TINY
            h *= d * c
        if abs(d * c - 1.0) <= _EPSILON:
            return h
    raise ArithmeticError(f"incomplete beta({a}, {b}, {x}) did not converge")


def student_t_quantile(p: float, df: float) -> float:
    """The ``p``-quantile of Student's t with ``df`` degrees of freedom."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    if not df >= 1:
        raise ValueError(f"df must be >= 1, got {df}")
    if p > 0.5:
        return -student_t_quantile(1.0 - p, df)  # 1 - p is exact here
    if p == 0.5:
        return 0.0
    # From here p is the tail P[T < -t] = P[T > t]: solve for t > 0.
    if df == 1:
        if p > 0.25:
            return -math.tan(math.pi * (0.5 - p))
        return -1.0 / math.tan(math.pi * p)
    if df == 2:
        return -(1.0 - 2.0 * p) / math.sqrt(2.0 * p * (1.0 - p))
    # Newton on the upper tail P[T > t] = I_x(df/2, 1/2) / 2 with
    # x = df / (df + t*t), from a Cornish-Fisher start.  The tail is convex
    # for t > 0, so from below the root the iteration climbs to it without
    # overshooting, and from above it lands below in one step.
    z = -NormalDist().inv_cdf(p)
    t = z + (z**3 + z) / (4 * df) + (5 * z**5 + 16 * z**3 + 3 * z) / (96 * df**2)
    log_norm = (
        math.lgamma((df + 1) / 2) - math.lgamma(df / 2)
        - 0.5 * math.log(df * math.pi)
    )
    converged = False
    for _ in range(100):
        square = t * t
        density = math.exp(log_norm - (df + 1) / 2 * math.log1p(square / df))
        # x**a * (1 - x)**b / B(a, b) is t * density here; which side of
        # the beta symmetry converges depends on t alone.
        if square * (df + 2) > 3 * df:
            step = t * _beta_fraction(df / 2, 0.5, df / (df + square)) / df
            step -= p / density
        else:
            step = (0.5 - p) / density
            step -= t * _beta_fraction(0.5, df / 2, square / (df + square))
        t = t + step if t + step > 0 else t / 2
        # Convergence is quadratic: the step after a 1e-9 one is below
        # the rounding of x, which for large df is what limits t.
        if converged:
            return -t
        converged = abs(step) <= 1e-9 * t
    raise ArithmeticError(f"t quantile({p}, {df}) did not converge")


def poisson_tail(threshold: float, mean: float) -> float:
    """``P[N > threshold]`` for ``N ~ Poisson(mean)``."""
    if not threshold >= 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    if not mean >= 0:
        raise ValueError(f"mean must be >= 0, got {mean}")
    if mean == 0:
        return 0.0
    threshold = math.floor(threshold)
    log_mean = math.log(mean)
    if mean <= threshold + 1:
        # Terms past the mode shrink: sum the tail itself, so a tiny mean
        # does not cancel to zero.
        k = threshold + 1
        term = math.exp(k * log_mean - mean - math.lgamma(k + 1))
        total = term
        while term > _EPSILON * total:
            k += 1
            term *= mean / k
            total += term
        return total
    # Terms up to the threshold grow toward the mode: sum them downward
    # from the largest, in log space so a huge mean underflows to 0.
    term = math.exp(threshold * log_mean - mean - math.lgamma(threshold + 1))
    total = 0.0
    for k in range(threshold, -1, -1):
        total += term
        term *= k / mean
    return 1.0 - total
