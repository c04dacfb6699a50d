"""Figure 8: the effects of Pareto (bursty) query arrivals.

The paper replaces the exponential inter-arrival times with the
heavy-tailed Pareto distribution (alpha in {1.05, 1.20}; smaller alpha =
burstier) and finds that (a) DUP keeps beating CUP, (b) *everything*
performs better under the burstier alpha=1.05 — bursts mean many queries
land while a fetched copy is still fresh — and (c) at very high bursty
rates the push schemes' relative cost can tick up slightly because
interest flaps between bursts and idle periods, wasting some pushes.
"""

from __future__ import annotations

from repro.engine.runner import compare_many
from repro.experiments.common import PAPER_SCHEMES, base_config
from repro.experiments.spec import ExperimentResult, ShapeCheck

EXPERIMENT_ID = "figure8"
TITLE = "Effects of Pareto (bursty) arrivals"

ALPHAS = (1.05, 1.20)
BENCH_RATES = (0.3, 1.0, 3.0, 10.0, 30.0)
PAPER_RATES = (0.3, 1.0, 3.0, 10.0, 30.0, 100.0)


def run(
    scale: str = "bench",
    replications: int = 2,
    seed: int = 1,
    alphas=ALPHAS,
    rates=None,
    workers=None,
) -> ExperimentResult:
    """Regenerate Figure 8 (a) and (b)."""
    if rates is None:
        rates = PAPER_RATES if scale in ("quick", "paper") else BENCH_RATES
    comparisons = compare_many(
        {
            (alpha, rate): base_config(
                scale,
                seed=seed,
                pareto_alpha=alpha,
                query_rate=rate,
            )
            for alpha in alphas
            for rate in rates
        },
        PAPER_SCHEMES,
        replications,
        workers=workers,
        experiment=EXPERIMENT_ID,
    )

    rows = []
    for alpha in alphas:
        for rate in rates:
            comparison = comparisons[(alpha, rate)]
            row = {"alpha": alpha, "lambda": rate}
            for scheme in PAPER_SCHEMES:
                row[f"latency_{scheme}"] = comparison.latency(scheme).mean
            for scheme in ("cup", "dup"):
                row[f"relcost_{scheme}"] = comparison.relative_cost[
                    scheme
                ].mean
            rows.append(row)

    checks = []
    for alpha in alphas:
        for rate in rates:
            comparison = comparisons[(alpha, rate)]
            dup = comparison.latency("dup").mean
            cup = comparison.latency("cup").mean
            checks.append(
                ShapeCheck(
                    claim=(
                        f"DUP latency <= CUP at alpha={alpha:g}, "
                        f"lambda={rate:g} (Fig 8a)"
                    ),
                    passed=dup <= cup * 1.05 + 1e-9,
                    detail=f"dup={dup:.4g} cup={cup:.4g}",
                )
            )
    # Burstiness helps: alpha=1.05 latency below alpha=1.20 for PCX at
    # most rates ("the query burstyness improves the system performance").
    wins = 0
    for rate in rates:
        bursty = comparisons[(1.05, rate)].latency("pcx").mean
        smooth = comparisons[(1.20, rate)].latency("pcx").mean
        if bursty <= smooth * 1.05:
            wins += 1
    checks.append(
        ShapeCheck(
            claim=(
                "burstier arrivals (alpha=1.05) give PCX lower-or-equal "
                "latency at most rates (Fig 8a)"
            ),
            passed=wins >= len(rates) - 1,
            detail=f"{wins}/{len(rates)} rates",
        )
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        shape_checks=tuple(checks),
    )
