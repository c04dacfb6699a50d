"""Figure 7: the effects of the Zipf parameter theta.

Large theta concentrates the queries on a few hot nodes.  The paper's
claims: DUP's latency stays very low across the sweep; as theta grows,
DUP's cost relative to PCX keeps falling ("DUP can deliver the update to
hot spots with very low overhead") while CUP stops helping ("to push the
index to interested nodes, CUP relies on many intermediate nodes; since
these nodes are less likely to access the index when theta is large, CUP
does not perform well").
"""

from __future__ import annotations

from repro.engine.runner import compare_many
from repro.experiments.common import PAPER_SCHEMES, base_config
from repro.experiments.plot import plot_experiment_series
from repro.experiments.spec import ExperimentResult, ShapeCheck

EXPERIMENT_ID = "figure7"
TITLE = "Effects of the Zipf parameter theta"

THETAS = (0.5, 1.0, 2.0, 3.0, 4.0)
QUICK_THETAS = (0.5, 1.0, 2.0, 4.0)
RATE = 10.0


def run(
    scale: str = "bench",
    replications: int = 2,
    seed: int = 1,
    thetas=None,
    rate: float = RATE,
    workers=None,
) -> ExperimentResult:
    """Regenerate Figure 7 (a) and (b)."""
    if thetas is None:
        thetas = QUICK_THETAS if scale == "quick" else THETAS
    comparisons = compare_many(
        {
            theta: base_config(
                scale, seed=seed, zipf_theta=theta, query_rate=rate
            )
            for theta in thetas
        },
        PAPER_SCHEMES,
        replications,
        workers=workers,
        experiment=EXPERIMENT_ID,
    )

    rows = []
    for theta, comparison in comparisons.items():
        row = {"theta": theta}
        for scheme in PAPER_SCHEMES:
            row[f"latency_{scheme}"] = comparison.latency(scheme).mean
        for scheme in ("cup", "dup"):
            row[f"relcost_{scheme}"] = comparison.relative_cost[scheme].mean
        rows.append(row)

    checks = []
    for theta in thetas:
        dup = comparisons[theta].latency("dup").mean
        pcx = comparisons[theta].latency("pcx").mean
        checks.append(
            ShapeCheck(
                claim=f"DUP latency well below PCX at theta={theta:g} (Fig 7a)",
                passed=dup <= pcx * 0.8 + 1e-9,
                detail=f"dup={dup:.4g} pcx={pcx:.4g}",
            )
        )
    rel_dup = [comparisons[t].relative_cost["dup"].mean for t in thetas]
    rel_cup = [comparisons[t].relative_cost["cup"].mean for t in thetas]
    checks.append(
        ShapeCheck(
            claim=(
                "at large theta DUP's relative cost is clearly below CUP's "
                "(Fig 7b: CUP 'does not perform well')"
            ),
            passed=rel_dup[-1] < rel_cup[-1],
            detail=f"theta={thetas[-1]:g}: dup={rel_dup[-1]:.3f} "
            f"cup={rel_cup[-1]:.3f}",
        )
    )
    checks.append(
        ShapeCheck(
            claim="DUP's relative cost at theta max below its theta-min value",
            passed=rel_dup[-1] <= rel_dup[0] + 0.05,
            detail=f"{[round(v, 3) for v in rel_dup]}",
        )
    )
    plots = (
        plot_experiment_series(
            rows, "theta", ["relcost_cup", "relcost_dup"]
        ),
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        shape_checks=tuple(checks),
        notes=f"run at lambda={rate:g}",
        plots=plots,
    )
