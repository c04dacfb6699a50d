"""Tests for the multiprocess experiment engine (the tentpole).

The load-bearing guarantee: a sweep run with N workers is bit-identical
to the same sweep run serially, because every trial's randomness is a
pure function of its derived seed and workers return only picklable
results that are reassembled in submission order.  ``wall_seconds`` is
host wall-clock and therefore excluded from every fingerprint.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.engine import (
    ParallelRunner,
    SimulationConfig,
    TrialSpec,
    compare_schemes,
    resolve_workers,
    run_replications,
)
from repro.engine.parallel import WORKERS_ENV
from repro.errors import ExperimentError
from repro.experiments import get_experiment
from repro.sim.rng import RandomStreams, derive_trial_seed

SMOKE = dict(
    num_nodes=64,
    duration=3600.0 * 2,
    warmup=1800.0,
    query_rate=3.0,
)


def fingerprint(result) -> str:
    """Canonical JSON of a SimulationResult, minus host wall-clock."""
    record = dataclasses.asdict(result)
    record.pop("wall_seconds")
    return json.dumps(record, sort_keys=True, default=repr)


# -- seed derivation ----------------------------------------------------------


class TestSeedDerivation:
    def test_default_matches_historical_rule(self):
        # The engine has always used seed + replication; the derivation
        # must preserve it bit-for-bit so published numbers never move.
        for seed in (1, 7, 12345):
            for rep in range(5):
                assert derive_trial_seed(seed, rep) == seed + rep

    def test_keyed_derivation_is_stable_and_distinct(self):
        a = derive_trial_seed(1, 0, experiment="figure4", point=1.0)
        b = derive_trial_seed(1, 0, experiment="figure4", point=1.0)
        c = derive_trial_seed(1, 0, experiment="figure4", point=3.0)
        d = derive_trial_seed(1, 0, experiment="figure8", point=1.0)
        assert a == b
        assert len({a, c, d}) == 3

    def test_for_trial_streams_reproduce(self):
        one = RandomStreams.for_trial(1, 2, experiment="x", point=0.5)
        two = RandomStreams.for_trial(1, 2, experiment="x", point=0.5)
        assert one.get("arrivals").random() == two.get("arrivals").random()


# -- worker resolution --------------------------------------------------------


class TestResolveWorkers:
    def test_explicit_integer(self):
        assert resolve_workers(3) == 3

    def test_auto_uses_cores(self):
        import os

        assert resolve_workers("auto") == len(os.sched_getaffinity(0))

    def test_auto_counts_usable_cpus_not_host_cpus(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert resolve_workers("auto") == 1

    def test_none_defaults_to_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(None) == 1

    def test_none_consults_environment(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "2")
        assert resolve_workers(None) == 2

    def test_string_integer(self):
        assert resolve_workers("4") == 4

    def test_rejects_garbage(self):
        with pytest.raises(ExperimentError):
            resolve_workers("many")
        with pytest.raises(ExperimentError):
            resolve_workers(0)


# -- serial == parallel -------------------------------------------------------


class TestSerialParallelEquivalence:
    def test_run_replications_bit_identical(self):
        config = SimulationConfig(scheme="dup", seed=3, **SMOKE)
        serial = run_replications(config, replications=3, workers=1)
        pooled = run_replications(config, replications=3, workers=3)
        assert [fingerprint(r) for r in serial.runs] == [
            fingerprint(r) for r in pooled.runs
        ]
        assert serial.latency.mean == pooled.latency.mean
        assert serial.cost.mean == pooled.cost.mean

    def test_compare_schemes_bit_identical(self):
        config = SimulationConfig(seed=5, **SMOKE)
        serial = compare_schemes(config, replications=2, workers=1)
        pooled = compare_schemes(config, replications=2, workers=4)
        for scheme in serial.schemes:
            assert [
                fingerprint(r) for r in serial.by_scheme[scheme].runs
            ] == [fingerprint(r) for r in pooled.by_scheme[scheme].runs]
            if scheme in serial.relative_cost:
                assert (
                    serial.relative_cost[scheme].mean
                    == pooled.relative_cost[scheme].mean
                )

    def test_worker_count_does_not_reorder_results(self):
        specs = [
            TrialSpec(
                config=SimulationConfig(scheme="dup", seed=seed, **SMOKE),
                experiment="order",
                replication=index,
            )
            for index, seed in enumerate((11, 7, 29, 2))
        ]
        serial = ParallelRunner(workers=1).run_trials(specs)
        pooled = ParallelRunner(workers=4).run_trials(specs)
        assert [r.config.seed for r in serial] == [11, 7, 29, 2]
        assert [fingerprint(r) for r in serial] == [
            fingerprint(r) for r in pooled
        ]


class TestChaosEquivalence:
    """Chaos runs must parallelize like calm ones: a scenario's faults,
    failover, and audit sweeps are all driven by the trial's derived
    seed, so workers=N stays bit-identical to serial."""

    def run_chaos(self, workers):
        from repro.engine.chaos import get_scenario

        config = get_scenario("blackout").apply(
            SimulationConfig(scheme="dup", seed=3, **SMOKE)
        )
        return run_replications(config, replications=2, workers=workers)

    def test_blackout_bit_identical_across_workers(self):
        serial = self.run_chaos(1)
        pooled = self.run_chaos(2)
        assert [fingerprint(r) for r in serial.runs] == [
            fingerprint(r) for r in pooled.runs
        ]
        # The scenario actually fired in both lanes.
        for result in serial.runs:
            assert result.extras["partitions_started"] >= 1
            assert result.extras["failover_promoted"] >= 0
            assert result.extras["audit_sweeps"] > 0


class TestFigure4Equivalence:
    """The ISSUE's regression gate: figure4 smoke, workers 1 vs 4."""

    RATES = (1.0, 10.0)

    def run_figure4(self, workers):
        return get_experiment("figure4")(
            scale="smoke",
            replications=1,
            seed=1,
            rates=self.RATES,
            workers=workers,
        )

    def test_smoke_rows_and_checks_identical(self):
        serial = self.run_figure4(1)
        pooled = self.run_figure4(4)
        encode = lambda rows: json.dumps(rows, sort_keys=True, default=repr)
        assert encode(serial.rows) == encode(pooled.rows)
        assert serial.render() == pooled.render()
        assert [c.passed for c in serial.shape_checks] == [
            c.passed for c in pooled.shape_checks
        ]


# -- failure propagation ------------------------------------------------------


class TestProgressAndFailures:
    def test_worker_failure_names_the_trial(self):
        good = SimulationConfig(scheme="dup", seed=1, **SMOKE)
        bad = good.replace(seed=9)
        # Corrupt a validated field after construction so the failure
        # fires inside the worker process, not at spec-build time.
        object.__setattr__(bad, "scheme", "no-such-scheme")
        specs = [
            TrialSpec(config=good, experiment="boom", point=0.5),
            TrialSpec(config=bad, experiment="boom", point=1.5),
        ]
        for workers in (1, 2):
            with pytest.raises(ExperimentError) as excinfo:
                ParallelRunner(workers=workers).run_trials(specs)
            message = str(excinfo.value)
            assert "boom" in message
            assert "point=1.5" in message
            assert "seed=9" in message

    def test_rejects_non_spec_input(self):
        with pytest.raises(ExperimentError):
            ParallelRunner(workers=1).run_trials(["not a spec"])
