"""Figure 4: performance as a function of the mean query arrival rate.

Figure 4(a) plots average query latency (with 95 % confidence interval)
against ``lambda``; Figure 4(b) plots the cost of CUP and DUP relative to
PCX.  The paper's claims:

- latency decreases with the arrival rate for every scheme (warmer
  caches), with DUP lowest because updates are pushed proactively and
  take short-cuts;
- at low rates both push schemes shave ~20 % off PCX's cost, DUP ahead;
- as the rate grows, CUP's relative cost flattens out (the ~50 % ceiling
  of hop-by-hop pushing) while DUP keeps dropping well below it.
"""

from __future__ import annotations

from repro.engine.runner import compare_many
from repro.experiments.common import PAPER_SCHEMES, base_config
from repro.experiments.format import monotone
from repro.experiments.plot import plot_experiment_series
from repro.experiments.spec import ExperimentResult, ShapeCheck

EXPERIMENT_ID = "figure4"
TITLE = "Effects of the query arrival rate lambda"

QUICK_RATES = (0.1, 1.0, 3.0, 10.0, 30.0)
BENCH_RATES = (0.1, 0.3, 1.0, 3.0, 10.0, 30.0)
PAPER_RATES = (0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0)


def run(
    scale: str = "bench",
    replications: int = 2,
    seed: int = 1,
    rates=None,
    workers=None,
) -> ExperimentResult:
    """Regenerate Figure 4 (a) and (b)."""
    if rates is None:
        # Smoke-scale populations are too small for the paper's extreme
        # rates to order cleanly; they get the trimmed bench grid.
        rates = {"quick": QUICK_RATES, "paper": PAPER_RATES}.get(scale, BENCH_RATES)
    comparisons = compare_many(
        {
            rate: base_config(scale, seed=seed, query_rate=rate)
            for rate in rates
        },
        PAPER_SCHEMES,
        replications,
        workers=workers,
        experiment=EXPERIMENT_ID,
    )

    rows = []
    for rate, comparison in comparisons.items():
        row = {"lambda": rate}
        for scheme in PAPER_SCHEMES:
            row[f"latency_{scheme}"] = comparison.latency(scheme).mean
        row["latency_ci_dup"] = str(comparison.latency("dup"))
        for scheme in ("cup", "dup"):
            row[f"relcost_{scheme}"] = comparison.relative_cost[scheme].mean
        rows.append(row)

    checks = []
    for scheme in PAPER_SCHEMES:
        latencies = [comparisons[r].latency(scheme).mean for r in rates]
        checks.append(
            ShapeCheck(
                claim=f"{scheme} latency decreases with lambda (Fig 4a)",
                passed=monotone(latencies, decreasing=True, slack=0.2),
                detail=f"{[round(v, 4) for v in latencies]}",
            )
        )
    for rate in rates:
        ordering = [
            comparisons[rate].latency(s).mean for s in ("dup", "cup", "pcx")
        ]
        checks.append(
            ShapeCheck(
                claim=f"latency order dup <= cup <= pcx at lambda={rate:g}",
                passed=ordering[0] <= ordering[1] * 1.05 + 1e-9
                and ordering[1] <= ordering[2] * 1.05 + 1e-9,
                detail=f"dup={ordering[0]:.4g} cup={ordering[1]:.4g} "
                f"pcx={ordering[2]:.4g}",
            )
        )
    high = max(rates)
    rel_dup = comparisons[high].relative_cost["dup"].mean
    rel_cup = comparisons[high].relative_cost["cup"].mean
    checks.append(
        ShapeCheck(
            claim=(
                "at the highest rate DUP's relative cost is below CUP's "
                "(Fig 4b: DUP breaks CUP's ceiling)"
            ),
            passed=rel_dup < rel_cup,
            detail=f"dup={rel_dup:.3f} cup={rel_cup:.3f}",
        )
    )
    rel_series_dup = [comparisons[r].relative_cost["dup"].mean for r in rates]
    checks.append(
        ShapeCheck(
            claim="DUP relative cost decreases with lambda (Fig 4b)",
            passed=monotone(rel_series_dup, decreasing=True, slack=0.1),
            detail=f"{[round(v, 3) for v in rel_series_dup]}",
        )
    )
    plots = (
        plot_experiment_series(
            rows,
            "lambda",
            ["latency_pcx", "latency_cup", "latency_dup"],
            log_x=True,
        ),
        plot_experiment_series(
            rows, "lambda", ["relcost_cup", "relcost_dup"], log_x=True
        ),
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        shape_checks=tuple(checks),
        notes=(
            "Fig 4a series: latency_* columns; Fig 4b series: relcost_* "
            "columns (relative to PCX on paired seeds)."
        ),
        plots=plots,
    )
