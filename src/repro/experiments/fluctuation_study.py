"""Fluctuation study: DUP under crash-restart peer churn.

The paper's churn model is memoryless — a failed node is gone forever
and its state with it.  Measured peer-to-peer populations instead cycle
the *same* peers between alive and down: heavy-tailed sessions, repair
times clustered around an MTTR, and the repeat offenders ("flappers")
dominating the event count.  This experiment sweeps mean session length
x MTTR for four variants on the same seeds:

- ``dup-reliable`` — DUP with the resilience stack (acked control
  messages, leases, silent failures) under the crash-restart lifecycle:
  every rejoin runs the amnesia reconciliation handshake
  (:meth:`~repro.core.maintenance.DupMaintenance.node_rejoined`).
- ``dup-damped`` — the same plus BGP-style flap damping: a peer whose
  crash penalty crosses the suppress threshold rejoins with full
  amnesia and is refused re-subscription until the penalty decays.
- ``cup`` / ``pcx`` — the soft-state baselines under the same lifecycle
  (their TTL state needs no reconciliation; rejoin is a re-graft).

Reported per (session, MTTR, variant): latency (mean and p95 tail),
cost per query, control+push hops per query (the repair-traffic cost
damping is meant to cut), stale-read fraction, and the session/flap
counters.  The headline shape check: at equal session/MTTR operating
points, damping reduces the control-message cost of flapping peers
without giving up stale-read consistency.
"""

from __future__ import annotations

import math
from functools import partial

from repro.experiments.common import (
    RATE,
    cost,
    dup_reliable,
    latency,
    percentile,
    stale_fraction,
    study_base,
    sweep,
    total,
    within_2x,
)
from repro.experiments.spec import ExperimentResult, ShapeCheck
from repro.net.faults import FaultPlan
from repro.workload.sessions import SessionPlan

EXPERIMENT_ID = "fluctuation"
TITLE = "DUP under crash-restart peer fluctuation"

#: (mean session length, mean downtime) operating points, in seconds.
BENCH_POINTS = (
    (1800.0, 120.0),
    (1800.0, 600.0),
    (600.0, 120.0),
    (600.0, 600.0),
)
SMOKE_POINTS = ((900.0, 120.0),)
#: Flap-damping knobs of the ``dup-damped`` variant.
DAMPING = dict(
    damp_penalty=1.0, damp_half_life=600.0, damp_suppress=3.0, damp_reuse=1.5
)

VARIANTS = ("dup-reliable", "dup-damped", "cup", "pcx")


def _control_hops_per_query(aggregated) -> float:
    """Control+push hops per completed query: the repair-traffic cost."""
    queries = sum(r.queries for r in aggregated.runs)
    if queries <= 0:
        return float("nan")
    return sum(
        r.hop_breakdown.get("control", 0) + r.hop_breakdown.get("push", 0)
        for r in aggregated.runs
    ) / queries


COLUMNS = {
    "latency": latency,
    "latency_p95": lambda a: percentile(a, "p95"),
    "cost": cost,
    "ctrl_hops_per_query": _control_hops_per_query,
    "stale_frac": stale_fraction,
    "crashes": lambda a: total(a, "session_crashes"),
    "rejoins": lambda a: total(a, "session_rejoins"),
    "rejoins_damped": lambda a: total(a, "session_rejoins_damped"),
    "flap_suppressions": lambda a: total(a, "flap_suppressions"),
    "rejoin_excised": lambda a: total(a, "rejoin_excised_entries"),
}


def _variant_config(base, variant: str, session: float, mttr: float):
    plan = SessionPlan(
        mean_session=session,
        mean_downtime=mttr,
        **(DAMPING if variant == "dup-damped" else {}),
    )
    if variant in ("dup-reliable", "dup-damped"):
        return dup_reliable(
            base, sessions=plan, faults=FaultPlan(silent_failures=True)
        )
    return base.replace(scheme=variant, sessions=plan)


def run(
    scale: str = "bench",
    replications: int = 2,
    seed: int = 1,
    points=None,
    rate: float = RATE,
    workers=None,
) -> ExperimentResult:
    """Sweep mean session length x MTTR for every variant."""
    if points is None:
        points = SMOKE_POINTS if scale == "smoke" else BENCH_POINTS
    base = study_base(scale, seed, query_rate=rate)
    return sweep(
        EXPERIMENT_ID,
        TITLE,
        points=points,
        variants=VARIANTS,
        config_for=partial(_variant_config, base),
        key=("mean_session", "mttr", "variant"),
        columns=COLUMNS,
        checks=lambda results: _shape_checks(scale, points, results),
        notes=(
            "No paper figure exists for crash-restart churn; the paper's "
            "failure model loses a crashed node's state forever.  This "
            "probes the opposite regime — the same peers cycling alive/"
            "down — and the flap-damping defence against its repair-"
            "traffic cost."
        ),
        replications=replications,
        workers=workers,
    )


def _shape_checks(scale, points, results):
    # The flappiest operating point: shortest sessions, then longest MTTR.
    probe = min(points, key=lambda p: (p[0], -p[1]))
    session, mttr = probe

    reliable = results[(session, mttr, "dup-reliable")]
    crashes = total(reliable, "session_crashes")
    reconciles = total(reliable, "rejoin_reconciles")
    yield ShapeCheck(
        claim=(
            f"the lifecycle is exercised at session={session:g}s "
            f"mttr={mttr:g}s (peers crash and rejoin reconciliation "
            "runs)"
        ),
        passed=crashes > 0 and reconciles > 0,
        detail=f"crashes={crashes} reconciles={reconciles}",
    )
    damped = results[(session, mttr, "dup-damped")]
    suppressions = total(damped, "flap_suppressions")
    yield ShapeCheck(
        claim=(
            "flap damping trips at the flappiest operating point "
            f"(session={session:g}s mttr={mttr:g}s)"
        ),
        passed=suppressions > 0,
        detail=f"suppressions={suppressions}",
    )
    if scale == "smoke":
        # CI-sized runs see too few flap cycles for the cost comparison
        # to be statistically meaningful; the full criteria run at
        # quick/bench/paper scales.
        return

    undamped_cost = _control_hops_per_query(reliable)
    damped_cost = _control_hops_per_query(damped)
    yield ShapeCheck(
        claim=(
            "flap damping reduces control+push hops per query vs "
            f"undamped DUP at session={session:g}s mttr={mttr:g}s"
        ),
        passed=(not math.isnan(damped_cost))
        and (not math.isnan(undamped_cost))
        and damped_cost < undamped_cost,
        detail=f"damped={damped_cost:.4g} undamped={undamped_cost:.4g}",
    )
    undamped_stale = stale_fraction(reliable)
    damped_stale = stale_fraction(damped)
    yield ShapeCheck(
        claim=(
            "damping holds the stale-read fraction within 2x (or "
            "+2pp) of undamped DUP at the same operating point"
        ),
        passed=within_2x(damped_stale, undamped_stale),
        detail=f"damped={damped_stale:.4g} undamped={undamped_stale:.4g}",
    )
