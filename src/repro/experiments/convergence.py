"""Convergence study: how fast the DUP tree forms and repairs.

Not a paper figure — the paper reports steady-state averages — but the
natural follow-up question for anyone deploying DUP: how long after a
cold start until the propagation tree covers the interested population,
and how quickly does coverage recover after a correlated failure burst?

Two phases, observed through sampled time series:

1. **cold start** — subscriber count and cumulative hit rate from t=0;
   convergence time = first sample where the subscriber count reaches
   90 % of its steady value.
2. **mass failure** — at a chosen instant a fraction of non-root nodes
   crash simultaneously (Section III-C's repair flows all fire at once);
   we track how many surviving subscribers remain push-reachable and how
   long until coverage returns to ~steady state.
"""

from __future__ import annotations

import numpy as np

from repro.engine.simulation import Simulation
from repro.experiments.common import base_config
from repro.experiments.spec import ExperimentResult, ShapeCheck

EXPERIMENT_ID = "convergence"
TITLE = "DUP tree formation and post-failure recovery"

RATE = 10.0
FAIL_FRACTION = 0.10


def run(
    scale: str = "bench",
    replications: int = 1,  # a time-series study; one seed per run
    seed: int = 1,
    rate: float = RATE,
    fail_fraction: float = FAIL_FRACTION,
    workers=None,
) -> ExperimentResult:
    """Run the two-phase convergence study.

    ``workers`` is accepted for interface parity with the other
    experiments but ignored: this is a single continuous time-series
    simulation with in-process probes and an injected failure process —
    there is no trial grid to fan out.
    """
    del workers
    config = base_config(
        scale,
        seed=seed,
        scheme="dup",
        query_rate=rate,
        warmup=0.0,
    )
    sim = Simulation(config)
    monitor = sim.monitor(interval=config.ttl / 6)
    subscribed = monitor.probe(
        "subscribed", lambda: float(len(sim.scheme.subscribed_nodes()))
    )
    coverage = monitor.probe(
        "dup_tree_size", lambda: float(sim.scheme.dup_tree_size())
    )

    fail_at = config.duration * 0.6
    failed_count = [0]

    def mass_failure(env):
        yield env.timeout(fail_at)
        rng = np.random.default_rng(seed + 1000)
        non_root = [n for n in sim.tree.nodes if n != sim.tree.root]
        victims = rng.choice(
            non_root,
            size=max(1, int(len(non_root) * fail_fraction)),
            replace=False,
        )
        for victim in victims:
            if sim.alive(int(victim)):
                sim.scheme.on_node_failed(int(victim))
                failed_count[0] += 1

    sim.env.process(mass_failure(sim.env), name="mass-failure")
    sim.run()

    # -- cold-start convergence -------------------------------------------
    before = subscribed.window(0.0, fail_at - 1.0)
    steady = before.values[-1] if len(before) else float("nan")
    converged_at = float("nan")
    for sample in before:
        if steady and sample.value >= 0.9 * steady:
            converged_at = sample.time
            break

    # -- post-failure recovery ---------------------------------------------
    after = subscribed.window(fail_at, config.duration)
    drop = after.values[0] if len(after) else float("nan")
    recovery_target = 0.85 * steady
    recovered_at = float("nan")
    for sample in after:
        if sample.value >= recovery_target:
            recovered_at = sample.time - fail_at
            break

    rows = [
        {
            "phase": "cold start",
            "steady_subscribers": steady,
            "time_to_90pct_s": converged_at,
            "ttl_multiples": converged_at / config.ttl,
        },
        {
            "phase": f"mass failure ({failed_count[0]} nodes)",
            "steady_subscribers": drop,
            "time_to_90pct_s": recovered_at,
            "ttl_multiples": recovered_at / config.ttl
            if recovered_at == recovered_at
            else float("nan"),
        },
    ]
    checks = (
        ShapeCheck(
            claim="the DUP tree converges within ~2 TTLs of a cold start",
            passed=converged_at == converged_at
            and converged_at <= 2.2 * config.ttl,
            detail=f"{converged_at:.0f}s (= {converged_at / config.ttl:.2f} TTL)",
        ),
        ShapeCheck(
            claim=(
                "after a correlated failure of "
                f"{fail_fraction:.0%} of nodes, coverage recovers within "
                "~2 TTLs"
            ),
            passed=recovered_at == recovered_at
            and recovered_at <= 2.2 * config.ttl,
            detail=f"{recovered_at:.0f}s after the burst"
            if recovered_at == recovered_at
            else "never recovered",
        ),
        ShapeCheck(
            claim="the propagation tree never exceeds the overlay",
            passed=coverage.maximum() <= config.num_nodes,
            detail=f"peak tree size {coverage.maximum():.0f} of "
            f"{config.num_nodes} nodes",
        ),
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        shape_checks=checks,
        notes=(
            f"single-seed time-series study at lambda={rate:g}; failure "
            f"burst at t={fail_at:.0f}s"
        ),
    )
