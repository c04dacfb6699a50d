"""Churn study: quantifying Section III-C's repair machinery.

The paper describes DUP's handling of node arrival, departure, and
failure but evaluates it only qualitatively ("most of these adjustments
are kept local ... and the overhead is small").  This experiment drives
DUP (and the baselines) under increasing churn rates and reports latency,
cost, dropped messages, and incomplete queries — quantifying that claim.
"""

from __future__ import annotations

from functools import partial

from repro.experiments.common import (
    RATE,
    base_config,
    cost,
    incomplete,
    latency,
    sweep,
)
from repro.experiments.spec import ExperimentResult, ShapeCheck
from repro.workload.churn import ChurnConfig

EXPERIMENT_ID = "churn"
TITLE = "DUP repair under churn (Section III-C, quantified)"

#: Churn intensity in events/second network-wide; half the rate is joins
#: and the other half departures (split between graceful leaves and
#: crashes), keeping the expected population stable over the run.
BENCH_LEVELS = (0.0, 0.005, 0.02, 0.08)
QUICK_LEVELS = (0.0, 0.02, 0.08)


def _p95_tail(aggregated) -> float:
    """Tail latency across replications: churn hurts the tail long
    before it moves the mean."""
    p95s = [
        r.latency_percentiles["p95"]
        for r in aggregated.runs
        if "p95" in r.latency_percentiles
    ]
    return max(p95s) if p95s else float("nan")


COLUMNS = {
    "latency": latency,
    "latency_p95": _p95_tail,
    "cost": cost,
    "dropped_msgs": lambda a: sum(r.dropped_messages for r in a.runs),
    "incomplete": incomplete,
    "population": lambda a: a.runs[-1].final_population,
}


def _variant_config(base, scheme: str, level: float):
    churn = ChurnConfig(
        join_rate=level / 2, leave_rate=level / 4, fail_rate=level / 4
    ) if level != 0.0 else None
    return base.replace(scheme=scheme, churn=churn)


def run(
    scale: str = "bench",
    replications: int = 2,
    seed: int = 1,
    levels=None,
    rate: float = RATE,
    schemes=("pcx", "dup"),
    workers=None,
) -> ExperimentResult:
    """Sweep churn intensity for the given schemes."""
    if levels is None:
        levels = QUICK_LEVELS if scale == "quick" else BENCH_LEVELS
    base = base_config(scale, seed=seed, query_rate=rate)
    return sweep(
        EXPERIMENT_ID,
        TITLE,
        points=levels,
        variants=schemes,
        config_for=partial(_variant_config, base),
        key=("churn_rate", "scheme"),
        columns=COLUMNS,
        checks=lambda results: _shape_checks(levels, schemes, results),
        notes=(
            "No paper figure exists for churn; this quantifies the "
            "Section III-C claim that repair overhead is small."
        ),
        replications=replications,
        workers=workers,
    )


def _shape_checks(levels, schemes, results):
    if "dup" not in schemes:
        return
    quiet = results[(levels[0], "dup")].latency.mean
    stormy = results[(levels[-1], "dup")].latency.mean
    yield ShapeCheck(
        claim=(
            "DUP degrades gracefully under churn (latency within "
            "4x of the churn-free value at the highest level)"
        ),
        passed=stormy <= max(quiet * 4, quiet + 0.5),
        detail=f"quiet={quiet:.4g} stormy={stormy:.4g}",
    )
    if "pcx" in schemes:
        for level in levels:
            dup = results[(level, "dup")].latency.mean
            pcx = results[(level, "pcx")].latency.mean
            yield ShapeCheck(
                claim=f"DUP still beats PCX at churn={level:g}",
                passed=dup <= pcx * 1.05 + 1e-9,
                detail=f"dup={dup:.4g} pcx={pcx:.4g}",
            )
