"""Tests for streaming sweep telemetry: structured progress events,
failure recording, the JSONL writer, and the ``top`` dashboard view."""

from __future__ import annotations

import math

import pytest

from repro.engine import (
    ParallelRunner,
    SimulationConfig,
    TelemetryWriter,
    TrialSpec,
    render_top,
    set_default_event_sink,
)
from repro.engine.parallel import ProgressEvent
from repro.errors import ExperimentError
from repro.metrics.export import read_jsonl

SMOKE = dict(
    num_nodes=64,
    duration=3600.0 * 2,
    warmup=1800.0,
    query_rate=3.0,
)


def make_specs(count: int = 2, experiment: str = "probe"):
    config = SimulationConfig(scheme="dup", seed=1, **SMOKE)
    return [
        TrialSpec(
            config=config.replace(seed=i + 1),
            experiment=experiment,
            point=float(i),
            replication=i,
        )
        for i in range(count)
    ]


def broken_spec(experiment: str = "boom", seed: int = 9):
    bad = SimulationConfig(scheme="dup", seed=seed, **SMOKE)
    # Corrupt a validated field after construction so the failure fires
    # inside the worker, not at spec-build time.
    object.__setattr__(bad, "scheme", "no-such-scheme")
    return TrialSpec(config=bad, experiment=experiment, point=1.5)


class TestProgressEvents:
    def test_one_event_per_trial_with_live_gauges(self):
        events: list[ProgressEvent] = []
        runner = ParallelRunner(workers=1, event_sink=events.append)
        runner.run_trials(make_specs(3))
        assert [e.kind for e in events] == ["trial-done"] * 3
        assert [e.done for e in events] == [1, 2, 3]
        assert all(e.total == 3 for e in events)
        assert all(e.failed == 0 for e in events)
        assert all(0.0 <= e.utilization <= 1.0 for e in events)
        assert all(math.isfinite(e.eta_seconds) for e in events)
        assert events[-1].eta_seconds == pytest.approx(0.0)
        assert all(math.isfinite(e.mean_latency) for e in events)
        record = events[0].to_record()
        assert record["type"] == "progress"
        assert record["trial"].startswith("probe")

    def test_default_event_sink_is_used_and_restored(self):
        events = []

        def sink(event):
            events.append(event)

        previous = set_default_event_sink(sink)
        try:
            ParallelRunner(workers=1).run_trials(make_specs(1))
        finally:
            assert set_default_event_sink(previous) is sink
        assert len(events) == 1

    def test_pool_path_emits_events_too(self):
        events = []
        runner = ParallelRunner(workers=2, event_sink=events.append)
        runner.run_trials(make_specs(2))
        assert len(events) == 2
        assert {e.kind for e in events} == {"trial-done"}


class TestKeepGoing:
    def test_strict_default_still_raises_with_failures_attached(self):
        events = []
        specs = [make_specs(1)[0], broken_spec()]
        for workers in (1, 2):
            runner = ParallelRunner(workers=workers, event_sink=events.append)
            with pytest.raises(ExperimentError) as excinfo:
                runner.run_trials(specs)
            failures = excinfo.value.trial_failures
            assert len(failures) == 1
            assert failures[0].experiment == "boom"
            assert "seed=9" in failures[0].trial
            assert "no-such-scheme" in failures[0].error.replace("'", "")
        failed_events = [e for e in events if e.kind == "trial-failed"]
        assert len(failed_events) == 2  # one per workers lane
        assert all(e.error for e in failed_events)


class TestRunAllFailureTable:
    def test_format_failure_table_groups_by_experiment(self):
        from repro.engine.parallel import TrialFailure
        from repro.experiments.registry import format_failure_table

        table = format_failure_table(
            [
                TrialFailure("figure4", "figure4 point=1 seed=2", "boom"),
                TrialFailure("figure4", "figure4 point=2 seed=3", "boom"),
                TrialFailure("table2", "table2 point=4 seed=1", "crash"),
            ]
        )
        assert "3 failed trial(s) in 2 experiment(s)" in table
        assert "figure4 (2 failed)" in table
        assert "table2 (1 failed)" in table
        assert format_failure_table([]) == "no failures"


class TestTelemetryWriter:
    def test_streams_events_and_failures_as_jsonl(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with TelemetryWriter(str(path)) as writer:
            runner = ParallelRunner(workers=1, event_sink=writer)
            with pytest.raises(ExperimentError) as excinfo:
                runner.run_trials([make_specs(1)[0], broken_spec()])
            for failure in excinfo.value.trial_failures:
                writer.write_record(failure.to_record())
        records = read_jsonl(str(path))
        kinds = [record["type"] for record in records]
        assert kinds == ["progress", "progress", "trial-failure"]
        assert writer.written == 3

    def test_write_after_close_rejected(self, tmp_path):
        writer = TelemetryWriter(str(tmp_path / "x.jsonl"))
        writer.close()
        with pytest.raises(ValueError):
            writer.write_record({"type": "progress"})


class TestRenderTop:
    def make_record(self, **overrides):
        record = {
            "type": "progress",
            "kind": "trial-done",
            "experiment": "figure4",
            "trial": "figure4 point=1.0 scheme=dup rep=0 seed=2",
            "done": 3,
            "failed": 0,
            "total": 8,
            "workers": 4,
            "wall_seconds": 2.0,
            "elapsed_seconds": 10.0,
            "eta_seconds": 16.7,
            "utilization": 0.8,
            "mean_latency": 1.25,
            "cost_per_query": 3.5,
            "error": "",
        }
        record.update(overrides)
        return record

    def test_renders_progress_eta_and_gauges(self):
        view = render_top(
            [
                self.make_record(done=2),
                self.make_record(),
                self.make_record(
                    experiment="table2", done=1, total=4, failed=1,
                    kind="trial-failed", error="RuntimeError('x')",
                ),
            ]
        )
        assert "4/12 trials done" in view
        assert "1 failed" in view
        assert "figure4" in view and "table2" in view
        assert "util=80%" in view
        assert "lat=1.25" in view and "cost=3.50" in view
        assert "[FAIL]" in view and "RuntimeError" in view

    def test_live_events_render_directly(self):
        events = []
        ParallelRunner(workers=1, event_sink=events.append).run_trials(
            make_specs(1)
        )
        view = render_top(events)
        assert "1/1 trials done" in view

    def test_empty_stream_mentions_other_record_types(self):
        assert render_top([]) == "no progress events yet"
        view = render_top([{"type": "timeline"}, {"type": "flight-event"}])
        assert "1 timeline record(s)" in view
        assert "1 flight event(s)" in view


class TestCliTop:
    def test_top_renders_a_telemetry_file(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "sweep.jsonl"
        with TelemetryWriter(str(path)) as writer:
            ParallelRunner(workers=1, event_sink=writer).run_trials(
                make_specs(2)
            )
        assert main(["top", str(path)]) == 0
        out = capsys.readouterr().out
        assert "2/2 trials done" in out
        assert "recent trials:" in out
