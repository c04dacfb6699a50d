"""Partition study: divergence and reconvergence under network splits.

The paper's evaluation never cuts the network: every DUP repair message
reaches its destination, so the hard-state tree can only diverge for one
message latency.  This experiment partitions the overlay and crashes the
authority *inside* the partition — the worst case for a hard-state
protocol, because subscriptions, repairs, and the failover hand-off all
race the cut — and sweeps the partition duration for four variants on
the same seeds:

- ``dup-reliable`` — DUP with the full resilience stack (acked/retried
  control traffic, leases, silent failures) plus authority standbys and
  the runtime consistency auditor.  The crash is *silent*: standbys must
  starve on heartbeats before one promotes itself.
- ``dup-oracle`` — DUP with oracle failure detection: the crash promotes
  a standby immediately and repair flows fire instantly.  The benign
  upper bound the detection machinery is measured against.
- ``cup`` / ``pcx`` — the soft-state baselines under the same partition
  and (oracle) crash; their state self-heals within a TTL, which is
  exactly the latency/staleness trade the study quantifies.

Every sweep point is built by applying a :class:`ChaosScenario` (one
partition window opening 300 s after warm-up, the authority crashing at
its midpoint, two standbys, the auditor sweeping every 150 s) to the
variant's base configuration, so the CLI's ``repro-dup chaos`` replays
single points of this grid.

Reported per (partition duration, variant): latency, cost per query,
stale-read fraction, incomplete queries, cross-cut drops, whether the
failover fired and when, and — for the DUP variants — the auditor's
violation/repair counts and time-to-reconvergence percentiles.
"""

from __future__ import annotations

import math
from functools import partial

from repro.engine.chaos import ChaosScenario
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
)
from repro.experiments.spec import ExperimentResult, ShapeCheck

EXPERIMENT_ID = "partition"
TITLE = "DUP under partitions and in-partition authority failure"

#: Partition durations (seconds) per sweep level.
BENCH_DURATIONS = (60.0, 300.0, 900.0)
SMOKE_DURATIONS = (60.0,)
#: The partition opens this long after warm-up ends.
PARTITION_OFFSET = 300.0
#: Failover and audit cadence shared by every variant.
STANDBYS = 2
FAILOVER_TIMEOUT = 120.0
AUDIT_INTERVAL = 150.0

VARIANTS = ("dup-reliable", "dup-oracle", "cup", "pcx")

COLUMNS = {
    "latency": latency,
    "cost": cost,
    "stale_frac": stale_fraction,
    "incomplete": incomplete,
    "cut_drops": lambda a: total(a, "partition_drops"),
    "failovers": lambda a: sum(
        1 for r in a.runs if r.extras.get("failover_promoted", -1) >= 0
    ),
    "failover_at": lambda a: extra_mean(a, "failover_at"),
    "violations": lambda a: total(a, "audit_violations"),
    "repairs": lambda a: total(a, "audit_repairs"),
    "reconv_p50": lambda a: extra_mean(a, "audit_reconvergence_p50"),
    "reconv_max": lambda a: extra_mean(a, "audit_reconvergence_max"),
}


def _scenario(duration: float, silent: bool) -> ChaosScenario:
    """One sweep point: a partition with the authority dying inside it."""
    return ChaosScenario(
        name=f"partition-{duration:g}s",
        description="partition sweep point (see partition_study)",
        partitions=((PARTITION_OFFSET, duration, 2),),
        crash_offset=PARTITION_OFFSET + duration / 2.0,
        silent_failures=silent,
        standbys=STANDBYS,
        failover_timeout=FAILOVER_TIMEOUT,
        audit_interval=AUDIT_INTERVAL,
    )


def _variant_config(base, variant: str, duration: float):
    if variant == "dup-reliable":
        return _scenario(duration, silent=True).apply(dup_reliable(base))
    scheme = {"dup-oracle": "dup"}.get(variant, variant)
    return _scenario(duration, silent=False).apply(
        base.replace(scheme=scheme)
    )


def run(
    scale: str = "bench",
    replications: int = 2,
    seed: int = 1,
    durations=None,
    rate: float = RATE,
    workers=None,
) -> ExperimentResult:
    """Sweep the partition duration for every variant."""
    if durations is None:
        durations = SMOKE_DURATIONS if scale == "smoke" else BENCH_DURATIONS
    base = study_base(scale, seed, query_rate=rate)
    return sweep(
        EXPERIMENT_ID,
        TITLE,
        points=durations,
        variants=VARIANTS,
        config_for=partial(_variant_config, base),
        key=("partition_s", "variant"),
        columns=COLUMNS,
        checks=lambda results: _shape_checks(durations, results),
        notes=(
            "No paper figure exists for partitions; this probes the "
            "implicit assumption that repair traffic always gets "
            "through.  'dup-oracle' is the instant-detection upper "
            "bound; the crash always lands inside the partition window."
        ),
        replications=replications,
        workers=workers,
    )


def _shape_checks(durations, results):
    probe = max(durations)

    cut_drops = sum(
        total(results[(probe, variant)], "partition_drops")
        for variant in VARIANTS
    )
    yield ShapeCheck(
        claim=(
            f"the {probe:g}s partition actually cuts traffic "
            "(cross-component messages dropped-but-charged)"
        ),
        passed=cut_drops > 0,
        detail=f"cut_drops={cut_drops}",
    )

    reliable = results[(probe, "dup-reliable")].runs
    promoted = sum(
        int(r.extras.get("failover_promoted", -1)) >= 0 for r in reliable
    )
    yield ShapeCheck(
        claim=(
            "every dup-reliable run detects the silent authority "
            "crash and promotes a standby"
        ),
        passed=promoted == len(reliable),
        detail=f"promoted={promoted}/{len(reliable)}",
    )

    # Every oracle run must promote at its own crash time; the detail
    # names the first run that did not (or the first run, if all did).
    oracle = results[(probe, "dup-oracle")].runs
    late = [
        r for r in oracle
        if float(r.extras.get("failover_at", "nan"))
        != r.config.replication.crash_at
    ]
    shown = (late or oracle)[0]
    yield ShapeCheck(
        claim=(
            "oracle failover is instantaneous (promotion at the "
            "crash time itself)"
        ),
        passed=not late,
        detail=(
            f"failover_at={float(shown.extras.get('failover_at', 'nan'))}"
            f" crash_at={shown.config.replication.crash_at}"
        ),
    )

    reconverged = sum(
        math.isfinite(float(r.extras.get("audit_reconvergence_max", "nan")))
        for r in reliable
    )
    yield ShapeCheck(
        claim=(
            "the auditor certifies reconvergence for every "
            "dup-reliable run (a clean sweep after the partition "
            "heals and the failover completes)"
        ),
        passed=reconverged == len(reliable),
        detail=f"reconverged={reconverged}/{len(reliable)}",
    )
