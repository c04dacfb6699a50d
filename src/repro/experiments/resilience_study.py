"""Resilience study: DUP's hard state under loss and silent failures.

The paper's evaluation assumes every hop is delivered and every crash is
announced to the repair machinery instantly (Section III-C's failure
cases fire "when a node detects the failure" — detection itself is
assumed).  This experiment drops both assumptions and sweeps the
control/push loss rate for four variants on the same seeds:

- ``dup-reliable`` — DUP with the full resilience stack: acked/retried
  control messages and pushes, lease-based soft-state subscriptions, and
  *silent* failures (crashed nodes blackhole traffic until a survivor's
  exhausted retries or expired lease raises the suspicion that triggers
  the Section III-C flows).
- ``dup-oracle`` — DUP under the same message loss but with the paper's
  oracle failure detection and no retries/leases: the upper bound the
  detection machinery is measured against.
- ``cup`` / ``pcx`` — the baselines under the same loss (their soft
  state needs no reliable channel; failures stay oracle-notified since
  neither has a detection mechanism to exercise).

Reported per (loss level, variant): latency, cost per query, stale-read
fraction, incomplete queries, retries, lease expiries, injected losses,
and — for ``dup-reliable`` — the failure-detection-latency percentiles.
"""

from __future__ import annotations

import math
from functools import partial

from repro.experiments.common import (
    RATE,
    cost,
    dup_reliable,
    extra_mean,
    incomplete,
    latency,
    stale_fraction,
    study_base,
    sweep,
    total,
    within_2x,
)
from repro.experiments.spec import ExperimentResult, ShapeCheck
from repro.net.faults import FaultPlan
from repro.workload.churn import ChurnConfig

EXPERIMENT_ID = "resilience"
TITLE = "DUP under message loss and silent failures"

#: Fraction of control/push transmissions lost, per sweep level.
BENCH_LEVELS = (0.0, 0.05, 0.1, 0.2)
SMOKE_LEVELS = (0.0, 0.1)
#: Total churn intensity in events/second; joins and crashes only, so
#: every departure exercises the failure (not the graceful-leave) path.
CHURN = 0.01

VARIANTS = ("dup-reliable", "dup-oracle", "cup", "pcx")

COLUMNS = {
    "latency": latency,
    "cost": cost,
    "stale_frac": stale_fraction,
    "incomplete": incomplete,
    "inj_losses": lambda a: total(a, "injected_losses"),
    "retries": lambda a: total(a, "retries"),
    "lease_exp": lambda a: total(a, "lease_expiries"),
    "det_p50": lambda a: extra_mean(a, "detection_p50"),
    "det_p95": lambda a: extra_mean(a, "detection_p95"),
}


def _fault_plan(level: float, silent: bool) -> FaultPlan | None:
    if level == 0.0 and not silent:
        return None
    return FaultPlan(
        loss_by_category={"control": level, "push": level},
        silent_failures=silent,
    )


def _variant_config(base, variant: str, level: float):
    if variant == "dup-reliable":
        return dup_reliable(base, faults=_fault_plan(level, silent=True))
    scheme = {"dup-oracle": "dup"}.get(variant, variant)
    return base.replace(scheme=scheme, faults=_fault_plan(level, silent=False))


def run(
    scale: str = "bench",
    replications: int = 2,
    seed: int = 1,
    levels=None,
    rate: float = RATE,
    workers=None,
) -> ExperimentResult:
    """Sweep the control/push loss rate for every variant."""
    if levels is None:
        levels = SMOKE_LEVELS if scale == "smoke" else BENCH_LEVELS
    churn = ChurnConfig(join_rate=CHURN / 2, fail_rate=CHURN / 2)
    base = study_base(scale, seed, query_rate=rate, churn=churn)
    return sweep(
        EXPERIMENT_ID,
        TITLE,
        points=levels,
        variants=VARIANTS,
        config_for=partial(_variant_config, base),
        key=("loss_rate", "variant"),
        columns=COLUMNS,
        checks=lambda results: _shape_checks(scale, levels, results),
        notes=(
            "No paper figure exists for faults; this probes the Section "
            "III-C assumption that failures are detected instantly and "
            "repair messages never lost.  'dup-oracle' is the paper's "
            "benign-detection upper bound."
        ),
        replications=replications,
        workers=workers,
    )


def _shape_checks(scale, levels, results):
    lossy = [level for level in levels if level > 0]
    if not lossy:
        return
    # The level closest to the headline 10%-loss operating point.
    probe = min(lossy, key=lambda level: abs(level - 0.1))

    reliable = results[(probe, "dup-reliable")]
    retries = total(reliable, "retries")
    acked = total(reliable, "acked")
    yield ShapeCheck(
        claim=(
            f"the reliable channel is exercised at loss={probe:g} "
            "(acks flow and lost transmissions are retried)"
        ),
        passed=acked > 0 and retries > 0,
        detail=f"acked={acked} retries={retries}",
    )
    if scale == "smoke":
        # CI-sized runs see too few silent failures for the stale-read
        # comparison to be statistically meaningful; the full criteria
        # run at quick/bench/paper scales.
        return

    rel = stale_fraction(reliable)
    orc = stale_fraction(results[(probe, "dup-oracle")])
    yield ShapeCheck(
        claim=(
            "retries + leases keep DUP's stale-read fraction within "
            f"2x of oracle-repair DUP at loss={probe:g} despite "
            "silent failures"
        ),
        passed=within_2x(rel, orc),
        detail=f"reliable={rel:.4g} oracle={orc:.4g}",
    )
    detections = sum(1 for r in reliable.runs if "detection_p95" in r.extras)
    p95 = extra_mean(reliable, "detection_p95")
    yield ShapeCheck(
        claim=(
            "silent failures are detected (finite detection-latency "
            f"p95 at loss={probe:g})"
        ),
        passed=detections > 0 and math.isfinite(p95),
        detail=f"runs_with_detections={detections} p95={p95:.4g}s",
    )
