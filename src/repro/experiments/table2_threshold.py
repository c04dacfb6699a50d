"""Table II: the effect of the threshold value ``c`` on DUP.

The paper runs DUP with c in {2..10} at three query rates and reports
average query cost and latency, concluding: cost decreases with ``c`` at
low rates (fewer nodes qualify as interested, fewer wasted pushes); at
``lambda = 10`` the cost is U-shaped — too small a ``c`` pushes to nodes
that never query again, too large a ``c`` starves nodes that should be
subscribed — with the sweet spot around ``c = 6`` (the paper's chosen
default).
"""

from __future__ import annotations

from repro.engine.runner import replicate_many
from repro.experiments.common import base_config
from repro.experiments.format import monotone
from repro.experiments.spec import ExperimentResult, ShapeCheck

EXPERIMENT_ID = "table2"
TITLE = "Effects of the threshold value c (DUP)"

C_VALUES = (2, 4, 6, 8, 10)
QUICK_C_VALUES = (2, 6, 10)
RATES = (0.1, 1.0, 10.0)


def run(
    scale: str = "bench",
    replications: int = 2,
    seed: int = 1,
    c_values=None,
    rates=RATES,
    workers=None,
) -> ExperimentResult:
    """Regenerate Table II."""
    if c_values is None:
        c_values = QUICK_C_VALUES if scale == "quick" else C_VALUES
    aggregates = replicate_many(
        {
            (rate, c): base_config(
                scale, seed=seed, scheme="dup", query_rate=rate, threshold_c=c
            )
            for rate in rates
            for c in c_values
        },
        replications,
        workers=workers,
        experiment=EXPERIMENT_ID,
    )
    cells: dict[tuple[float, int], tuple[float, float]] = {
        key: (aggregated.cost.mean, aggregated.latency.mean)
        for key, aggregated in aggregates.items()
    }

    rows = []
    for rate in rates:
        rows.append(
            {
                "metric": f"cost (lambda={rate:g})",
                **{f"c={c}": cells[(rate, c)][0] for c in c_values},
            }
        )
        rows.append(
            {
                "metric": f"latency (lambda={rate:g})",
                **{f"c={c}": cells[(rate, c)][1] for c in c_values},
            }
        )

    checks = []
    # Latency grows (weakly) with c: large c means fewer subscribed nodes.
    for rate in rates:
        latencies = [cells[(rate, c)][1] for c in c_values]
        checks.append(
            ShapeCheck(
                claim=f"latency non-decreasing in c at lambda={rate:g}",
                passed=monotone(latencies, decreasing=False, slack=0.25),
                detail=f"{[round(v, 4) for v in latencies]}",
            )
        )
    # At the highest rate, the largest c is not the cheapest (the paper's
    # U-shape: pushing too selectively forces re-fetches).
    high = max(rates)
    high_costs = [cells[(high, c)][0] for c in c_values]
    checks.append(
        ShapeCheck(
            claim=(
                f"cost at lambda={high:g} is not minimized by the largest c "
                "(U-shape)"
            ),
            passed=min(high_costs) < high_costs[-1] * 1.0001
            and high_costs.index(min(high_costs)) < len(c_values) - 1,
            detail=f"{[round(v, 4) for v in high_costs]}",
        )
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        shape_checks=tuple(checks),
        notes=(
            "Paper picks c=6 as the balance point; compare the cost rows "
            "against Table II's trends, not its absolute values."
        ),
    )
