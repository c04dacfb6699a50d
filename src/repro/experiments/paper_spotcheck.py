"""Paper-scale spot check: Table I parameters, no scaling at all.

Runs the three schemes at the paper's exact defaults — 4096 nodes,
maximum degree 4, TTL 3600 s, threshold 6, 180,000 simulated seconds —
across a lambda sweep, single seed.  This is the full-fidelity
counterpart of Figure 4 / Table III's lambda rows; expect tens of
minutes of wall-clock (pure Python, like the original study's runs).
Every row carries each scheme's p99 latency and the half-width of its
95 % batch-means latency CI (``ci_<scheme>``); latency samples cost one
byte per query, so they are kept at every lambda.

Results from one complete run are recorded in EXPERIMENTS.md under
"paper-scale spot check".
"""

from __future__ import annotations

import math

from repro.engine.config import SimulationConfig
from repro.engine.parallel import ParallelRunner, TrialSpec
from repro.experiments.format import monotone
from repro.experiments.spec import ExperimentResult, ShapeCheck

EXPERIMENT_ID = "paper-spotcheck"
TITLE = "Full Table-I fidelity lambda sweep (single seed)"

RATES = (0.1, 1.0, 10.0, 30.0)
SCHEMES = ("pcx", "cup", "dup")


def run(
    scale: str = "paper",  # accepted for interface parity; always paper
    replications: int = 1,
    seed: int = 1,
    rates=RATES,
    workers=None,
) -> ExperimentResult:
    """Run the spot check (slow: full paper parameters)."""
    del scale, replications  # one fidelity, one seed: that is the point
    specs = [
        TrialSpec(
            config=SimulationConfig(
                scheme=scheme,
                query_rate=rate,
                seed=seed,
            ),
            experiment=EXPERIMENT_ID,
            point=rate,
            scheme=scheme,
        )
        for rate in rates
        for scheme in SCHEMES
    ]
    runner = ParallelRunner(workers=workers, experiment=EXPERIMENT_ID)
    outputs = runner.run_trials(specs)
    results = {
        (spec.point, spec.scheme): result
        for spec, result in zip(specs, outputs)
    }

    rows = []
    for rate in rates:
        row = {"lambda": rate}
        for scheme in SCHEMES:
            result = results[(rate, scheme)]
            row[f"latency_{scheme}"] = result.mean_latency
            row[f"cost_{scheme}"] = result.cost_per_query
            row[f"p99_{scheme}"] = result.latency_percentiles.get(
                "p99", math.nan
            )
            ci = result.latency_ci
            row[f"ci_{scheme}"] = math.nan if ci is None else ci.half_width
        pcx_cost = results[(rate, "pcx")].cost_per_query
        row["relcost_cup"] = results[(rate, "cup")].cost_per_query / pcx_cost
        row["relcost_dup"] = results[(rate, "dup")].cost_per_query / pcx_cost
        rows.append(row)

    checks = []
    for rate in rates:
        dup = results[(rate, "dup")].mean_latency
        cup = results[(rate, "cup")].mean_latency
        pcx = results[(rate, "pcx")].mean_latency
        checks.append(
            ShapeCheck(
                claim=f"latency order dup <= cup <= pcx at lambda={rate:g}",
                passed=dup <= cup * 1.02 + 1e-9 and cup <= pcx * 1.02 + 1e-9,
                detail=f"dup={dup:.4g} cup={cup:.4g} pcx={pcx:.4g}",
            )
        )
    rel_dup = [row["relcost_dup"] for row in rows]
    checks.append(
        ShapeCheck(
            claim="DUP relative cost decreases with lambda",
            passed=monotone(rel_dup, decreasing=True, slack=0.05),
            detail=f"{[round(v, 3) for v in rel_dup]}",
        )
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        shape_checks=tuple(checks),
        notes="n=4096, D=4, theta=0.95, c=6, TTL=3600s, T=180000s, seed=1",
    )
