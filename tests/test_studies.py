"""A fence around the six sweep studies at every scale, without simulating.

The seam replaces :meth:`ParallelRunner.run_trials` with a fake that
records each :class:`TrialSpec` and answers with a deterministic
synthetic :class:`SimulationResult` drawn from a hash of the trial's
config.  Each synthetic result carries every extras key, percentile,
hop category and ``stale_read_fraction`` the studies read, so one run
of a study exercises its whole grid, column table and shape checks in
milliseconds.

For each study x scale the ``study`` pins hold the digests of the spec
list (config fingerprint, point, scheme, replication), of
``canonical(result)`` as the goldens take it, and of ``result.render()``
(shape-check details and column order included).  They were taken with
the same seam before the studies were rebuilt on the shared sweep
harness; the ``signature`` pins hold each study's entry point.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect

import pytest

from repro.engine.parallel import ParallelRunner
from repro.engine.results import SimulationResult
from repro.experiments import get_experiment
from tests.pins import canonical

STUDIES = ("resilience", "partition", "overload", "adaptive", "fluctuation",
           "churn")
SCALES = ("smoke", "quick", "bench", "paper")

#: Integer extras the studies total, count or take the max of.
COUNTS = (
    "overload_shed_control", "max_queue_depth", "breaker_trips",
    "rejected_subscribers", "pushes_coalesced", "authority_coalesced_updates",
    "delivery_give_ups", "split_subscribers", "reabsorbed_subscribers",
    "dup_max_fanout", "injected_losses", "retries", "acked",
    "lease_expiries", "partition_drops", "audit_violations", "audit_repairs",
    "session_crashes", "session_rejoins", "session_rejoins_damped",
    "flap_suppressions", "rejoin_excised_entries", "rejoin_reconciles",
)
#: Float extras the studies average; a quarter of them come out NaN so
#: the finite-mean path is exercised.
FLOATS = (
    "shed_fraction", "queue_depth_p99", "detection_p50", "detection_p95",
    "failover_at", "audit_reconvergence_p50", "audit_reconvergence_max",
)


def _draw(fingerprint: bytes, label: str) -> float:
    """A uniform [0, 1) value from a config fingerprint and a label."""
    digest = hashlib.sha256(fingerprint + label.encode()).digest()
    return int.from_bytes(digest[:6], "big") / 2**48


def synthetic(spec) -> SimulationResult:
    """The deterministic stand-in result of one trial."""
    fingerprint = hashlib.sha256(repr(spec.config).encode()).digest()

    def draw(label: str) -> float:
        return _draw(fingerprint, label)

    def count(label: str, top: int = 50) -> int:
        return int(draw(label) * top)

    extras: dict = {key: count(key) for key in COUNTS}
    for key in FLOATS:
        nan = draw(key + "?") < 0.25
        extras[key] = float("nan") if nan else draw(key) * 100.0
    extras["failover_promoted"] = count("failover_promoted", 4) - 1
    if draw("threshold?") < 0.75:
        extras["threshold_min"] = count("threshold_min", 4)
        extras["threshold_max"] = extras["threshold_min"] + count(
            "threshold_max", 6
        )
    return SimulationResult(
        config=spec.config,
        scheme=spec.config.scheme,
        queries=count("queries", 5000) + 1,
        mean_latency=draw("latency") * 5.0,
        latency_ci=None,
        cost_per_query=draw("cost") * 10.0,
        hit_rate=draw("hit_rate"),
        hop_breakdown={
            category: count(category, 10_000)
            for category in ("query", "control", "push")
        },
        dropped_messages=count("dropped"),
        incomplete_queries=count("incomplete"),
        final_population=count("population", 1000) + 2,
        wall_seconds=0.0,
        extras=extras,
        latency_percentiles={
            name: draw(name) * 20.0 for name in ("p50", "p95", "p99")
        },
        stale_read_fraction=draw("stale"),
    )


def run_study(monkeypatch, study: str, scale: str, answer=synthetic):
    """Run ``study`` through the seam; returns ``(result, specs)``."""
    specs: list = []

    def fake_run_trials(self, trials):
        trials = list(trials)
        specs.extend(trials)
        return [answer(spec) for spec in trials]

    monkeypatch.setattr(ParallelRunner, "run_trials", fake_run_trials)
    result = get_experiment(study)(scale=scale, replications=2, seed=1)
    return result, specs


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fence_digests(monkeypatch, study: str, scale: str) -> dict:
    """The ``study/<study>/<scale>/{specs,canonical,render}`` sha256
    digests of one study run."""
    result, specs = run_study(monkeypatch, study, scale)
    spec_lines = "\n".join(
        f"{_sha(repr(spec.config))} {spec.point!r} {spec.scheme} "
        f"{spec.replication}"
        for spec in specs
    )
    name = f"study/{study}/{scale}"
    return {
        f"{name}/specs": _sha(spec_lines),
        f"{name}/canonical": _sha(canonical(result)),
        f"{name}/render": _sha(result.render()),
    }


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("study", STUDIES)
def test_study_fence(study, scale, monkeypatch, pins):
    pins.check(fence_digests(monkeypatch, study, scale))


@pytest.mark.parametrize("study", STUDIES)
def test_run_signature(study, pins):
    signature = str(inspect.signature(get_experiment(study)))
    pins.check({f"signature/{study}": signature})


@pytest.mark.parametrize("late", [False, True])
def test_oracle_failover_check_reads_every_run(late, monkeypatch):
    """A late promotion in any oracle run fails the instant-failover check."""

    def answer(spec):
        result = synthetic(spec)
        if spec.point[-1] != "dup-oracle":
            return result
        at = spec.config.authority_crash_at
        if late and spec.replication == 1:
            at += 30.0
        return dataclasses.replace(
            result, extras={**result.extras, "failover_at": at}
        )

    result, _ = run_study(monkeypatch, "partition", "quick", answer)
    (check,) = [
        c for c in result.shape_checks
        if c.claim.startswith("oracle failover is instantaneous")
    ]
    assert check.passed is not late
