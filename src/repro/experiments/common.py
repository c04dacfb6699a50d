"""Shared scaffolding for the paper experiments and the sweep studies.

The six sweep studies (resilience, partition, overload, adaptive,
fluctuation, churn) are declarations over one harness: each names its
grid, its ``_variant_config``, an ordered column table of reducers and
its shape checks, and :func:`sweep` runs the grid and tabulates it.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Mapping, Sequence

from repro.engine.config import SimulationConfig
from repro.engine.results import ReplicatedResult
from repro.engine.runner import replicate_many
from repro.errors import ExperimentError
from repro.experiments.spec import ExperimentResult, ShapeCheck
from repro.net.overload import OverloadPlan
from repro.net.reliable import RetryPlan
from repro.workload.storms import StormPhase, StormPlan

#: The paper's three compared schemes, in presentation order.
PAPER_SCHEMES = ("pcx", "cup", "dup")

#: ``(num_nodes, duration, warmup)`` of each scale's base configuration.
SCALES = {
    "smoke": (128, 3600.0 * 3, 3600.0),
    "quick": (512, 3600.0 * 5, 3600.0 * 2),
    "bench": (1024, 3600.0 * 6, 3600.0 * 2),
    "paper": (4096, 180_000.0, 3600.0),
}


def base_config(scale: str = "bench", seed: int = 1, **overrides) -> SimulationConfig:
    """The per-scale starting configuration for an experiment.

    ``"bench"`` trims the population and horizon so a full experiment
    finishes in minutes of wall-clock on a laptop; ``"quick"`` trims
    further for the committed records of ``benchmarks/results/``
    (``repro-dup run --record``; seconds per table/figure, and some
    experiments trim their sweep there too); ``"smoke"`` trims further
    still for CI regression and golden-file tests (seconds per figure);
    ``"paper"`` uses the full Table I parameters (4096 nodes, >= 180,000
    simulated seconds), which takes hours in pure Python — exactly like
    the original runs.
    """
    try:
        num_nodes, duration, warmup = SCALES[scale]
    except KeyError:
        raise ExperimentError(
            f"unknown scale {scale!r}; use 'smoke', 'quick', 'bench', "
            "or 'paper'"
        ) from None
    defaults = dict(
        num_nodes=num_nodes, duration=duration, warmup=warmup, seed=seed
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


# -- the sweep studies' bases --------------------------------------------------

#: Network-wide query rate of every sweep study: high enough that the
#: DUP tree is populated and pushes flow every TTL cycle.
RATE = 3.0
#: The ``dup-reliable`` stack's retry budget and initial ack timeout.
RETRY_BUDGET = 4
ACK_TIMEOUT = 2.0


def study_base(scale: str, seed: int, **overrides) -> SimulationConfig:
    """A study's base: :func:`base_config`, or a CI-sized one at smoke.

    The smoke base (64 nodes, one simulated hour) keeps a whole study
    sweep to about a minute of wall clock.
    """
    if scale != "smoke":
        return base_config(scale, seed=seed, **overrides)
    return base_config(
        "quick",
        seed=seed,
        num_nodes=64,
        ttl=600.0,
        push_lead=60.0,
        warmup=900.0,
        duration=3600.0,
        **overrides,
    )


def dup_reliable(base: SimulationConfig, **changes) -> SimulationConfig:
    """``base`` as the ``dup-reliable`` stack, plus ``changes``.

    DUP with acked, retried control messages and pushes and lease-based
    subscriptions at half the TTL.
    """
    return base.replace(
        scheme="dup",
        retry=RetryPlan(RETRY_BUDGET),
        ack_timeout=ACK_TIMEOUT,
        lease_ttl=base.ttl / 2.0,
        **changes,
    )


# -- the storm studies (overload, adaptive) ------------------------------------

#: Storm intensity multipliers per sweep level (0 = no storm).
BENCH_INTENSITIES = (0.0, 1.0, 2.0, 4.0)
SMOKE_INTENSITIES = (0.0, 1.0, 4.0)
#: Per-node service rate (messages/second).  Chosen so the storm-free
#: run is comfortably under capacity while a high-intensity update storm
#: (per-subscriber push arrival = storm rate) pushes nodes past it.
SERVICE_RATE = 1.5
#: Bounded inbox of the protected variants.
INBOX_CAPACITY = 48
#: DUP fanout / CUP registration cap for the protected variants.  The
#: search tree's node degree tops out around 4, so the cap must sit
#: below that to ever bind.
MAX_SUBSCRIBERS = 3
#: Minimum gap between forced authority issues (update-storm shedding).
COALESCE_GAP = 30.0
#: Storm event rates at intensity 1 (scaled linearly by intensity).
#: UPDATE_RATE straddles SERVICE_RATE across the sweep: subcritical at
#: intensity 1, supercritical (uncoalesced push arrival > service rate)
#: at 2 and beyond — that crossing is what makes unprotected queue
#: growth superlinear in intensity.
FLASH_RATE = 2.0 * RATE
FLASH_RANK_FLIPS = 8
UPDATE_RATE = 0.5
THRASH_RATE = 0.05
#: Queries per thrash burst, aimed at one node: sized to overflow a
#: bounded inbox so a protected run demonstrably sheds.
THRASH_BURST = 2 * INBOX_CAPACITY


def storm_config(seed: int) -> SimulationConfig:
    """The purpose-built base every scale of a storm study runs on.

    The TTL is short relative to the Zipf tail's per-node query gap so
    tail nodes are genuinely cold between thrash bursts — at ttl=600 the
    whole 64-node overlay stays warm and no storm can make DUP forward
    anything.  Stock quick/full configs keep their long TTL and bigger
    overlay, which only scales *offered* control load past what any
    bounded inbox can absorb (the flash crowd's subscribe flood exceeds
    the service rate outright, forcing control-class drops) without
    adding phenomenon; ``scale`` therefore selects the intensity grid,
    not the topology.
    """
    return study_base("smoke", seed).replace(ttl=120.0, push_lead=30.0)


def storm_plan(base: SimulationConfig, intensity: float):
    """The three overlapping storm phases, scaled by ``intensity``."""
    if intensity <= 0:
        return None
    warmup = base.warmup
    window = base.duration - warmup
    return StormPlan(
        phases=(
            StormPhase(
                kind="flash-crowd",
                start=warmup + 0.1 * window,
                duration=0.6 * window,
                rate=FLASH_RATE * intensity,
                rank_flips=FLASH_RANK_FLIPS,
            ),
            StormPhase(
                kind="update-storm",
                start=warmup + 0.2 * window,
                duration=0.5 * window,
                rate=UPDATE_RATE * intensity,
            ),
            StormPhase(
                kind="thrash",
                start=warmup + 0.3 * window,
                duration=0.4 * window,
                rate=THRASH_RATE * intensity,
                burst=THRASH_BURST,
            ),
        )
    )


def storm_overload(**changes) -> OverloadPlan:
    """The protected variants' plan: service model, inbox bound, cap."""
    return OverloadPlan(
        service_rate=SERVICE_RATE,
        inbox_capacity=INBOX_CAPACITY,
        max_subscribers=MAX_SUBSCRIBERS,
        authority_coalesce_gap=COALESCE_GAP,
        **changes,
    )


def storm_retries(config: SimulationConfig) -> SimulationConfig:
    """``config`` with the storm studies' reliable channel switched on."""
    return config.replace(
        retry=RetryPlan(3, timeout_cap=16.0), ack_timeout=2.0
    )


# -- reducers: one sweep point's replicated runs -> one table cell -------------

Reducer = Callable[[ReplicatedResult], object]


def finite_mean(values) -> float:
    """The mean of the non-NaN ``values`` (NaN when none remain)."""
    values = [v for v in values if not math.isnan(v)]
    if not values:
        return float("nan")
    return sum(values) / len(values)


def latency(aggregated: ReplicatedResult) -> float:
    return aggregated.latency.mean


def cost(aggregated: ReplicatedResult) -> float:
    return aggregated.cost.mean


def stale_fraction(aggregated: ReplicatedResult) -> float:
    return finite_mean([r.stale_read_fraction for r in aggregated.runs])


def incomplete(aggregated: ReplicatedResult) -> int:
    return sum(r.incomplete_queries for r in aggregated.runs)


def goodput(aggregated: ReplicatedResult) -> float:
    """Completed queries per post-warm-up second, per run."""
    runs = aggregated.runs
    horizon = runs[0].config.duration - runs[0].config.warmup
    return sum(r.queries for r in runs) / (len(runs) * horizon)


def percentile(aggregated: ReplicatedResult, name: str) -> float:
    """The finite mean of one latency percentile over the runs."""
    return finite_mean(
        [float(r.latency_percentiles.get(name, "nan")) for r in aggregated.runs]
    )


def extra_mean(aggregated: ReplicatedResult, key: str, default="nan") -> float:
    """The finite mean of one float extra over the runs."""
    return finite_mean(
        [float(r.extras.get(key, default)) for r in aggregated.runs]
    )


def total(aggregated: ReplicatedResult, *keys: str) -> int:
    """The sum of the integer extras ``keys`` over the runs."""
    return sum(
        int(r.extras.get(key, 0)) for key in keys for r in aggregated.runs
    )


def peak(aggregated: ReplicatedResult, key: str) -> int:
    """The largest value of one integer extra over the runs."""
    return max(int(r.extras.get(key, 0)) for r in aggregated.runs)


# -- shape-check helpers -------------------------------------------------------


def within_2x(value: float, reference: float) -> bool:
    """Neither is NaN and ``value`` is within 2x (or +2pp) of ``reference``."""
    if math.isnan(value) or math.isnan(reference):
        return False
    return value <= max(2.0 * reference, reference + 0.02)


def goodput_holds(results, variant, calm, top, who: str) -> ShapeCheck:
    """``variant``'s goodput at intensity ``top`` keeps half of ``calm``'s."""
    before = goodput(results[(calm, variant)])
    after = goodput(results[(top, variant)])
    return ShapeCheck(
        claim=(
            f"{who} goodput does not collapse at intensity "
            f"{top:g} (>= 50% of the storm-free rate)"
        ),
        passed=after >= 0.5 * before,
        detail=f"calm={before:.4g}/s stressed={after:.4g}/s",
    )


# -- the one sweep -------------------------------------------------------------


def sweep(
    experiment_id: str,
    title: str,
    *,
    points: Sequence,
    variants: Sequence[str],
    config_for: Callable[..., SimulationConfig],
    key: Sequence[str],
    columns: Mapping[str, Reducer],
    checks: Callable[[dict], Iterable[ShapeCheck]],
    notes: str,
    replications: int,
    workers,
) -> ExperimentResult:
    """Run a study's point x variant grid and tabulate it.

    Every ``config_for(variant, *point)`` is replicated in one
    :func:`replicate_many` fan-out, keyed by ``(*point, variant)`` (a
    scalar point is a 1-tuple).  Rows come points outer, variants inner;
    each opens with the ``key`` columns, named after the key's parts,
    followed by the ``columns`` table in order.  ``checks`` receives the
    ``{key: ReplicatedResult}`` map.
    """
    points = [p if isinstance(p, tuple) else (p,) for p in points]
    results = replicate_many(
        {
            (*point, variant): config_for(variant, *point)
            for point in points
            for variant in variants
        },
        replications,
        workers=workers,
        experiment=experiment_id,
    )
    rows = [
        {
            **dict(zip(key, grid_key)),
            **{name: reduce(aggregated) for name, reduce in columns.items()},
        }
        for grid_key, aggregated in results.items()
    ]
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        rows=rows,
        shape_checks=tuple(checks(results)),
        notes=notes,
    )
