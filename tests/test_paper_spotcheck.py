"""``paper-spotcheck`` rows through a fake runner (no simulation).

Same seam as ``tests/test_studies.py``: :meth:`ParallelRunner.run_trials`
answers each trial with a synthetic result, here carrying a latency CI,
so the test checks what the spot check asks for and what each row
reports at every lambda.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.engine.parallel import ParallelRunner
from repro.experiments import get_experiment
from repro.experiments.paper_spotcheck import RATES, SCHEMES
from repro.stats.confidence import ConfidenceInterval
from tests.test_studies import synthetic


def _with_ci(spec):
    result = synthetic(spec)
    half_width = result.mean_latency / 100.0
    return dataclasses.replace(
        result,
        latency_ci=ConfidenceInterval(
            result.mean_latency, half_width, 0.95, 20
        ),
    )


@pytest.fixture
def spotcheck(monkeypatch):
    specs: list = []
    answers: dict = {}

    def fake_run_trials(self, trials):
        trials = list(trials)
        specs.extend(trials)
        results = [_with_ci(spec) for spec in trials]
        for spec, result in zip(trials, results):
            answers[(spec.point, spec.scheme)] = result
        return results

    monkeypatch.setattr(ParallelRunner, "run_trials", fake_run_trials)
    result = get_experiment("paper-spotcheck")(seed=1)
    return result, specs, answers


def test_samples_are_kept_at_every_rate(spotcheck):
    _, specs, _ = spotcheck
    assert [(spec.point, spec.scheme) for spec in specs] == [
        (rate, scheme) for rate in RATES for scheme in SCHEMES
    ]
    assert all(spec.config.keep_latency_samples for spec in specs)


def test_every_row_reports_p99_and_ci(spotcheck):
    result, _, answers = spotcheck
    assert [row["lambda"] for row in result.rows] == list(RATES)
    for row in result.rows:
        for scheme in SCHEMES:
            answer = answers[(row["lambda"], scheme)]
            assert row[f"p99_{scheme}"] == answer.latency_percentiles["p99"]
            assert row[f"ci_{scheme}"] == answer.latency_ci.half_width
            assert row[f"latency_{scheme}"] == answer.mean_latency


def test_a_run_without_samples_reports_nan(monkeypatch):
    def bare(self, trials):
        return [
            dataclasses.replace(synthetic(spec), latency_percentiles={})
            for spec in trials
        ]

    monkeypatch.setattr(ParallelRunner, "run_trials", bare)
    result = get_experiment("paper-spotcheck")(seed=1, rates=(1.0,))
    (row,) = result.rows
    for scheme in SCHEMES:
        assert math.isnan(row[f"p99_{scheme}"])
        assert math.isnan(row[f"ci_{scheme}"])
