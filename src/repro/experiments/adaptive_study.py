"""Adaptive & load-balanced DUP ablation across the overload storm engine.

The PR-8 variants change *when* a node subscribes (``dup-adaptive``: a
self-tuning per-node threshold instead of the paper's global ``c``) and
*where* a capped interior node parks excess subscribers
(``dup-balanced``: split to the best-ranked existing entry instead of
the PR-7 redirect-and-NACK).  Both collapse to plain ``dup`` when their
mechanism is inert — proven bit-identically by
``tests/test_differential.py`` — so this experiment asks the complement:
what do they buy when the mechanism *does* engage?

Every variant runs under the same finite service rate, bounded inbox,
and fanout cap (one shared :class:`~repro.net.overload.OverloadPlan`),
driven by the three storm kinds of :mod:`repro.workload.storms` at
increasing intensity:

- ``dup`` — the PR-7 protected baseline: at-cap subscribes are refused
  (redirected upstream + NACK), concentrating load on the ancestors.
- ``dup-adaptive`` — same protection, but each node's subscribe
  threshold tracks its own observed query rate between a floor and a
  ceiling, so cold nodes need sustained interest to join the DUP tree
  while hot nodes join eagerly.
- ``dup-balanced`` — the cap becomes a true per-node bound: capped
  interiors split excess subscribers onto under-loaded entries and
  reabsorb them when load drains.
- ``cup`` / ``pcx`` — the paper's baselines under the same plan.

Reported per (intensity, variant): latency (mean, p99), cost per query,
goodput, shed fraction, refused subscribers, splits / reabsorptions,
the widest subscriber fanout, and the adaptive threshold span.
"""

from __future__ import annotations

from functools import partial

from repro.experiments.common import (
    BENCH_INTENSITIES,
    MAX_SUBSCRIBERS,
    RATE,
    SMOKE_INTENSITIES,
    cost,
    extra_mean,
    goodput,
    goodput_holds,
    latency,
    peak,
    percentile,
    storm_config,
    storm_overload,
    storm_plan,
    storm_retries,
    sweep,
    total,
)
from repro.experiments.spec import ExperimentResult, ShapeCheck

EXPERIMENT_ID = "adaptive"
TITLE = "Adaptive & balanced DUP variants under overload storms"

VARIANTS = ("dup", "dup-adaptive", "dup-balanced", "cup", "pcx")
DUP_FAMILY = ("dup", "dup-adaptive", "dup-balanced")

COLUMNS = {
    "latency": latency,
    "p99": lambda a: percentile(a, "p99"),
    "cost": cost,
    "goodput": goodput,
    "shed_frac": lambda a: extra_mean(a, "shed_fraction", 0.0),
    "rejected": lambda a: total(a, "rejected_subscribers"),
    "splits": lambda a: total(a, "split_subscribers"),
    "reabsorbed": lambda a: total(a, "reabsorbed_subscribers"),
    "max_fanout": lambda a: peak(a, "dup_max_fanout"),
    "threshold_min": lambda a: min(
        (int(r.extras["threshold_min"]) for r in a.runs
         if "threshold_min" in r.extras),
        default=0,
    ),
    "threshold_max": lambda a: max(
        (int(r.extras["threshold_max"]) for r in a.runs
         if "threshold_max" in r.extras),
        default=0,
    ),
}


def _variant_config(base, variant: str, intensity: float):
    # One shared plan for every variant (the overload study's protected
    # plan); the DUP family keeps the reliable channel on because
    # Delegate/Reclaim and the NACK flows assume the retry machinery.
    config = base.replace(
        scheme=variant,
        overload=storm_overload(),
        storms=storm_plan(base, intensity),
    )
    if variant in DUP_FAMILY:
        config = storm_retries(config)
    return config


def run(
    scale: str = "bench",
    replications: int = 2,
    seed: int = 1,
    intensities=None,
    rate: float = RATE,
    workers=None,
) -> ExperimentResult:
    """Sweep storm intensity for every variant under one shared plan."""
    if intensities is None:
        intensities = (
            SMOKE_INTENSITIES if scale == "smoke" else BENCH_INTENSITIES
        )
    base = storm_config(seed).replace(query_rate=rate)
    return sweep(
        EXPERIMENT_ID,
        TITLE,
        points=intensities,
        variants=VARIANTS,
        config_for=partial(_variant_config, base),
        key=("intensity", "variant"),
        columns=COLUMNS,
        checks=lambda results: _shape_checks(intensities, results),
        notes=(
            "No paper figure exists for these variants; dup-adaptive "
            "and dup-balanced are PR-8 extensions proven equivalent to "
            "plain dup when inert (tests/test_differential.py).  All "
            "variants share one OverloadPlan; latency is in hops.  The "
            "root is cap-exempt, so max_fanout compares variants rather "
            "than asserting a global bound."
        ),
        replications=replications,
        workers=workers,
    )


def _shape_checks(intensities, results):
    stormy = [i for i in intensities if i > 0]
    if not stormy:
        return
    top = max(stormy)

    splits_by_intensity = {
        i: total(results[(i, "dup-balanced")], "split_subscribers")
        for i in intensities
    }
    yield ShapeCheck(
        claim=(
            "dup-balanced splits engage somewhere in the sweep "
            "(the cap binds and delegation actually fires)"
        ),
        passed=any(v > 0 for v in splits_by_intensity.values()),
        detail=" ".join(f"i{i:g}={v}" for i, v in splits_by_intensity.items()),
    )

    def rejected(variant):
        return sum(
            total(results[(i, variant)], "rejected_subscribers")
            for i in intensities
        )

    dup_rejected = rejected("dup")
    balanced_rejected = rejected("dup-balanced")
    yield ShapeCheck(
        claim=(
            "splitting absorbs subscribers the redirect baseline "
            "refuses (balanced rejects <= dup rejects)"
        ),
        passed=balanced_rejected <= dup_rejected,
        detail=f"dup={dup_rejected} balanced={balanced_rejected}",
    )

    def fanout(variant):
        return max(
            peak(results[(i, variant)], "dup_max_fanout") for i in intensities
        )

    dup_fanout = fanout("dup")
    balanced_fanout = fanout("dup-balanced")
    yield ShapeCheck(
        claim=(
            "splitting spreads load down: the widest balanced "
            "fanout never exceeds the redirect baseline's "
            "(the cap-exempt root concentrates redirects)"
        ),
        passed=balanced_fanout <= dup_fanout,
        detail=f"dup={dup_fanout} balanced={balanced_fanout} "
        f"cap={MAX_SUBSCRIBERS}",
    )

    spread = {
        i: max(
            int(r.extras.get("threshold_max", 0))
            - int(r.extras.get("threshold_min", 0))
            for r in results[(i, "dup-adaptive")].runs
        )
        for i in intensities
    }
    yield ShapeCheck(
        claim=(
            "adaptive thresholds actually diverge across nodes "
            "somewhere in the sweep (the estimator is live)"
        ),
        passed=any(v > 0 for v in spread.values()),
        detail=" ".join(f"i{i:g}={v}" for i, v in spread.items()),
    )

    for variant in DUP_FAMILY:
        yield goodput_holds(results, variant, intensities[0], top, variant)
