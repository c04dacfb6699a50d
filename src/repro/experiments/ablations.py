"""Ablations of DESIGN.md's design choices.

Six studies, each isolating one mechanism:

- ``cut_off``     — real soft-state CUP vs the idealized hard-state
                    variant (``cup-ideal``): how much of DUP's edge comes
                    from CUP's cut-off problem alone.
- ``piggyback``   — DUP with subscription piggybacking disabled (every
                    control payload pays explicit hops).
- ``interest``    — the paper's sliding-window interest policy vs the
                    EWMA alternative under bursty arrivals.
- ``invalidate``  — pushing the updated index (the paper's choice) vs
                    pushing an invalidation that forces a re-fetch.
- ``topology``    — the paper's synthetic random tree vs a search tree
                    derived from real Chord lookup paths.
- ``extremes``    — the no-cache and push-all anchors bracketing every
                    scheme.
"""

from __future__ import annotations

from repro.engine.runner import compare_many, compare_schemes, replicate_many
from repro.experiments.common import base_config
from repro.experiments.spec import ExperimentResult, ShapeCheck

EXPERIMENT_ID = "ablations"
TITLE = "Design-choice ablations"

RATE = 10.0


def run_cut_off(
    scale="bench", replications=2, seed=1, rate=RATE, workers=None
) -> ExperimentResult:
    """The CUP design space vs DUP: no registration, soft-state, ideal."""
    schemes = ("pcx", "cup", "cup-ideal", "dup")
    comparison = compare_schemes(
        base_config(scale, seed=seed, query_rate=rate),
        schemes=schemes,
        replications=replications,
        workers=workers,
        experiment="ablation-cutoff",
    )
    rows = [
        {
            "scheme": scheme,
            "latency": comparison.latency(scheme).mean,
            "relcost": comparison.relative_cost[scheme].mean,
        }
        for scheme in schemes
    ]
    cup = comparison.latency("cup").mean
    ideal = comparison.latency("cup-ideal").mean
    pcx = comparison.latency("pcx").mean
    dup = comparison.latency("dup").mean
    checks = (
        ShapeCheck(
            claim="hard-state registration removes CUP's cut-off latency",
            passed=ideal < cup,
            detail=f"cup={cup:.4g} cup-ideal={ideal:.4g}",
        ),
        ShapeCheck(
            claim=(
                "stronger registration means lower latency: "
                "none (pcx) >= soft-state >= hard-state"
            ),
            passed=pcx >= cup * 0.95 and cup >= ideal,
            detail=f"pcx={pcx:.4g} cup={cup:.4g} ideal={ideal:.4g}",
        ),
        ShapeCheck(
            claim="DUP matches or beats even the idealized CUP on latency",
            passed=dup <= ideal * 1.35 + 1e-3,
            detail=f"dup={dup:.4g} cup-ideal={ideal:.4g}",
        ),
    )
    return ExperimentResult(
        "ablation-cutoff",
        "CUP soft-state cut-off vs idealized registration",
        rows,
        checks,
    )


def run_piggyback(
    scale="bench", replications=2, seed=1, rate=RATE, workers=None
) -> ExperimentResult:
    """DUP with and without control piggybacking / deferred subscribes."""
    variants = (
        ("dup (piggyback, deferred)", {}),
        ("dup (eager explicit subscribe)", {"eager_subscribe": True}),
        ("dup (no piggyback at all)", {"piggyback": False}),
    )
    values = replicate_many(
        {
            label: base_config(
                scale, seed=seed, scheme="dup", query_rate=rate, **overrides
            )
            for label, overrides in variants
        },
        replications,
        workers=workers,
        experiment="ablation-piggyback",
    )
    rows = []
    for label, aggregated in values.items():
        control = sum(
            r.hop_breakdown.get("control", 0) for r in aggregated.runs
        )
        rows.append(
            {
                "variant": label,
                "latency": aggregated.latency.mean,
                "cost": aggregated.cost.mean,
                "control_hops": control,
            }
        )
    default = values["dup (piggyback, deferred)"].cost.mean
    explicit = values["dup (no piggyback at all)"].cost.mean
    checks = (
        ShapeCheck(
            claim="piggybacking lowers DUP's total cost",
            passed=default <= explicit + 1e-9,
            detail=f"piggyback={default:.4g} explicit={explicit:.4g}",
        ),
    )
    return ExperimentResult(
        "ablation-piggyback", "Subscription piggybacking", rows, checks
    )


def run_interest_policy(
    scale="bench", replications=2, seed=1, rate=RATE, workers=None
) -> ExperimentResult:
    """Window vs EWMA interest policies under bursty (Pareto) arrivals."""
    aggregates = replicate_many(
        {
            policy: base_config(
                scale,
                seed=seed,
                scheme="dup",
                query_rate=rate,
                pareto_alpha=1.05,
                interest_policy=policy,
            )
            for policy in ("window", "ewma")
        },
        replications,
        workers=workers,
        experiment="ablation-interest",
    )
    rows = []
    for policy, aggregated in aggregates.items():
        rows.append(
            {
                "policy": policy,
                "latency": aggregated.latency.mean,
                "cost": aggregated.cost.mean,
                "hit_rate": aggregated.hit_rate,
            }
        )
    checks = (
        ShapeCheck(
            claim="both policies keep DUP functional under bursty arrivals",
            passed=all(row["hit_rate"] > 0.3 for row in rows),
            detail=f"hit rates: {[round(r['hit_rate'], 3) for r in rows]}",
        ),
    )
    return ExperimentResult(
        "ablation-interest", "Interest policy (window vs EWMA)", rows, checks
    )


def run_topology(
    scale="bench", replications=2, seed=1, rate=RATE, workers=None
) -> ExperimentResult:
    """Random-tree vs Chord-derived search trees."""
    comparisons = compare_many(
        {
            topology: base_config(
                scale, seed=seed, query_rate=rate, topology=topology
            )
            for topology in ("random-tree", "chord")
        },
        ("pcx", "cup", "dup"),
        replications,
        workers=workers,
        experiment="ablation-topology",
    )
    rows = []
    gaps = {}
    for topology in ("random-tree", "chord"):
        comparison = comparisons[topology]
        gaps[topology] = (
            comparison.relative_cost["cup"].mean
            - comparison.relative_cost["dup"].mean
        )
        for scheme in ("pcx", "cup", "dup"):
            rows.append(
                {
                    "topology": topology,
                    "scheme": scheme,
                    "latency": comparison.latency(scheme).mean,
                    "relcost": comparison.relative_cost[scheme].mean,
                }
            )
    checks = (
        ShapeCheck(
            claim=(
                "DUP's advantage over CUP survives on Chord-derived trees "
                "(not an artifact of the synthetic generator)"
            ),
            passed=gaps["chord"] > -0.02,
            detail=f"cup-dup relcost gap: random={gaps['random-tree']:.3f} "
            f"chord={gaps['chord']:.3f}",
        ),
    )
    return ExperimentResult(
        "ablation-topology", "Random tree vs Chord-derived tree", rows, checks
    )


def run_invalidate(
    scale="bench", replications=2, seed=1, rate=RATE, workers=None
) -> ExperimentResult:
    """Push the update vs push an invalidation (paper Section I).

    "Because the index size is very small, to do cache invalidation, the
    updated index should be sent so that caching nodes need not request
    for the updated index again" — this ablation measures the cost of
    doing it the other way.
    """
    comparison = compare_schemes(
        base_config(scale, seed=seed, query_rate=rate),
        schemes=("dup", "dup-invalidate"),
        replications=replications,
        workers=workers,
        experiment="ablation-invalidate",
    )
    rows = [
        {
            "variant": scheme,
            "latency": comparison.latency(scheme).mean,
            "relcost": comparison.relative_cost[scheme].mean,
        }
        for scheme in ("dup", "dup-invalidate")
    ]
    update = comparison.latency("dup").mean
    invalidate = comparison.latency("dup-invalidate").mean
    update_cost = comparison.relative_cost["dup"].mean
    invalidate_cost = comparison.relative_cost["dup-invalidate"].mean
    checks = (
        ShapeCheck(
            claim=(
                "pushing the updated index beats pushing invalidations on "
                "latency (subscribers need not re-fetch)"
            ),
            passed=update <= invalidate + 1e-9,
            detail=f"update={update:.4g} invalidate={invalidate:.4g}",
        ),
        ShapeCheck(
            claim="...and on total cost (same pushes, no re-fetch round trips)",
            passed=update_cost <= invalidate_cost + 1e-9,
            detail=f"update={update_cost:.3f} invalidate={invalidate_cost:.3f}",
        ),
    )
    return ExperimentResult(
        "ablation-invalidate",
        "Push updates vs push invalidations",
        rows,
        checks,
    )


def run_extremes(
    scale="bench", replications=1, seed=1, rate=RATE, workers=None
) -> ExperimentResult:
    """No-cache and push-all anchors around the three paper schemes."""
    comparison = compare_schemes(
        base_config(scale, seed=seed, query_rate=rate),
        schemes=("nocache", "pcx", "cup", "dup", "push-all"),
        replications=replications,
        workers=workers,
        experiment="ablation-extremes",
    )
    rows = [
        {
            "scheme": scheme,
            "latency": comparison.latency(scheme).mean,
            "relcost": comparison.relative_cost[scheme].mean,
        }
        for scheme in ("nocache", "pcx", "cup", "dup", "push-all")
    ]
    latencies = {row["scheme"]: row["latency"] for row in rows}
    checks = (
        ShapeCheck(
            claim="latency ordering: push-all <= dup <= cup <= pcx <= nocache",
            passed=(
                latencies["push-all"] <= latencies["dup"] * 1.2 + 1e-9
                and latencies["dup"] <= latencies["cup"] * 1.05 + 1e-9
                and latencies["cup"] <= latencies["pcx"] * 1.05 + 1e-9
                and latencies["pcx"] <= latencies["nocache"] * 1.05 + 1e-9
            ),
            detail=str({k: round(v, 4) for k, v in latencies.items()}),
        ),
    )
    return ExperimentResult(
        "ablation-extremes", "No-cache / push-all anchors", rows, checks
    )


def run(scale: str = "bench", replications: int = 2, seed: int = 1, workers=None):
    """Run every ablation; returns a list of results."""
    return [
        run_cut_off(scale, replications, seed, workers=workers),
        run_piggyback(scale, replications, seed, workers=workers),
        run_interest_policy(scale, replications, seed, workers=workers),
        run_topology(scale, replications, seed, workers=workers),
        run_invalidate(scale, replications, seed, workers=workers),
        run_extremes(scale, max(1, replications - 1), seed, workers=workers),
    ]
