"""Tests of percentile reporting, result snapshots, and JSONL export."""

import math

import pytest

from repro.cli import main
from repro.engine import Simulation, SimulationConfig, run_simulation
from repro.index.authority import ReplicationPlan
from repro.metrics import (
    Histogram,
    LatencyRecorder,
    MetricsReport,
    read_jsonl,
    write_jsonl,
)
from repro.net.faults import FaultPlan
from repro.net.overload import OverloadPlan
from repro.net.reliable import RetryPlan
from repro.stats import percentile
from repro.stats.confidence import ConfidenceInterval
from repro.workload.sessions import SessionPlan
from repro.workload.storms import StormPhase, StormPlan


class TestPercentileFunction:
    def test_interpolates_like_numpy(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == 2.5

    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 50))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)
        with pytest.raises(ValueError):
            percentile([1.0], -1)


class TestLatencyPercentiles:
    def recorder(self, samples):
        recorder = LatencyRecorder(clock=lambda: 10.0)
        for value in samples:
            recorder.record(value, issued_at=5.0)
        return recorder

    def test_percentiles_over_samples(self):
        recorder = self.recorder([0, 0, 0, 0, 2, 5])
        tails = recorder.percentiles()
        assert set(tails) == {"p50", "p95", "p99"}
        assert tails["p50"] == 0.0
        assert tails["p95"] <= tails["p99"] <= 5.0

    def test_requires_kept_samples(self):
        recorder = LatencyRecorder(clock=lambda: 0.0, keep_samples=False)
        recorder.record(1, issued_at=0.0)
        with pytest.raises(RuntimeError):
            recorder.percentile(95)


class TestMetricsRegistry:
    """``repro.metrics.registry``: the detection-latency histogram."""

    def test_histogram_summary(self):
        histogram = Histogram("latency")
        for value in (0, 1, 2, 3, 10):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 5
        assert summary["min"] == 0.0
        assert summary["max"] == 10.0
        assert summary["p50"] == 2.0


class TestMetricsReport:
    def report(self, **overrides):
        defaults = dict(
            scheme="dup",
            queries=100,
            mean_latency=0.25,
            latency_ci=ConfidenceInterval(0.25, 0.05, 0.95, 100),
            cost_per_query=1.5,
            hit_rate=0.8,
            hop_breakdown={"query": 20, "reply": 20},
            latency_percentiles={"p50": 0.0, "p95": 1.0, "p99": 3.0},
            dropped=4,
        )
        defaults.update(overrides)
        return MetricsReport(**defaults)

    def test_row_carries_percentiles_and_drops(self):
        row = self.report().to_row()
        assert row["p50"] == 0.0
        assert row["p95"] == 1.0
        assert row["p99"] == 3.0
        assert row["dropped"] == 4

    def test_str_renders_percentiles_and_drops(self):
        text = str(self.report())
        assert "p50=0" in text and "p95=1" in text and "p99=3" in text
        assert "dropped=4" in text

    def test_str_omits_absent_tails(self):
        text = str(self.report(latency_percentiles={}, dropped=0))
        assert "p95" not in text
        assert "dropped" not in text
        row = self.report(latency_percentiles={}).to_row()
        assert math.isnan(row["p95"])


def small_config(scheme, **overrides):
    defaults = dict(
        scheme=scheme,
        num_nodes=64,
        query_rate=2.0,
        ttl=600.0,
        duration=4_000.0,
        warmup=500.0,
        threshold_c=2,
        seed=3,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestSchemeReports:
    @pytest.mark.parametrize("scheme", ["pcx", "cup", "dup"])
    def test_report_has_tail_percentiles(self, scheme):
        result = run_simulation(small_config(scheme))
        assert set(result.latency_percentiles) == {"p50", "p95", "p99"}
        row = result.report.to_row()
        for key in ("p50", "p95", "p99"):
            assert math.isfinite(row[key])
        assert f"p95={result.latency_percentiles['p95']:.4g}"[:4] in str(
            result
        )


class TestJsonlExport:
    def test_write_read_roundtrip(self, tmp_path):
        path = tmp_path / "records.jsonl"
        records = [
            {"type": "snapshot", "time": 1.0, "values": {"x": 2}},
            {"type": "snapshot", "time": 2.0, "values": {"x": float("nan")}},
        ]
        assert write_jsonl(str(path), records) == 2
        loaded = read_jsonl(str(path))
        assert loaded[0]["values"]["x"] == 2
        # Non-finite floats become null so any JSON reader can load it.
        assert loaded[1]["values"]["x"] is None


class TestSnapshotVocabulary:
    def test_every_extras_key_is_a_snapshot_name(self):
        """With every extras-producing layer armed, the final snapshot
        names each quantity as the result does."""
        config = small_config(
            "dup",
            duration=3000.0,
            faults=FaultPlan(loss_rate=0.05, silent_failures=True),
            retry=RetryPlan(3),
            ack_timeout=2.0,
            replication=ReplicationPlan(standbys=1, crash_at=1500.0),
            overload=OverloadPlan(service_rate=20.0, max_subscribers=4),
            storms=StormPlan(
                (StormPhase("update-storm", 600.0, 600.0, 0.05),)
            ),
            sessions=SessionPlan(mean_session=1200.0, mean_downtime=120.0),
            audit_interval=300.0,
            lease_ttl=300.0,
        )
        sim = Simulation(config)
        monitor = sim.monitor(interval=500.0)
        monitor.record(sim.snapshot)
        result = sim.run()
        final = monitor.snapshots[-1]
        assert final["time"] == config.duration
        # One key per armed layer, so none of them is missing from both.
        assert {
            "detection_p95", "undetected_failures", "retries",
            "failover_at", "shed_fraction", "storm_queries",
            "session_crashes", "audit_sweeps", "lease_expiries",
        } <= set(result.extras)
        assert set(result.extras) <= set(final["values"])
        assert set(result.hop_breakdown) <= set(final["values"])
        assert final["values"]["queries"] == result.queries


class TestTraceExportAcceptance:
    """The ISSUE acceptance path: simulate --trace-out yields JSONL where
    every post-warm-up query's reconstructed hop count matches the
    latency the recorder reported for it."""

    def test_simulate_trace_out(self, tmp_path, capsys):
        trace_path = tmp_path / "traces.jsonl"
        code = main(
            [
                "simulate",
                "--scheme",
                "dup",
                "--nodes",
                "64",
                "--rate",
                "2",
                "--duration",
                "4000",
                "--warmup",
                "500",
                "--trace-out",
                str(trace_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trace records" in out
        records = read_jsonl(str(trace_path))
        assert records, "no traces exported"
        complete = [r for r in records if r["status"] == "complete"]
        assert complete, "no completed traces"
        for record in complete:
            delivered_request_hops = sum(
                1
                for span in record["spans"]
                if span["category"] == "query"
                and span["status"] == "delivered"
            )
            assert record["latency_hops"] == record["request_hops"]
            assert record["request_hops"] == delivered_request_hops

    def test_simulate_trace_count_matches_recorder(self, tmp_path):
        config = small_config("dup")
        sim = Simulation(config)
        tracer = sim.enable_tracing()
        sim.run()
        assert tracer.completed == sim.latency.count
        assert sorted(tracer.latencies) == sorted(sim.latency.samples)

    def test_metrics_out_snapshots(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.jsonl"
        code = main(
            [
                "simulate",
                "--scheme",
                "pcx",
                "--nodes",
                "32",
                "--rate",
                "1",
                "--duration",
                "2000",
                "--warmup",
                "0",
                "--metrics-out",
                str(metrics_path),
                "--snapshot-interval",
                "500",
            ]
        )
        assert code == 0
        records = read_jsonl(str(metrics_path))
        assert len(records) == 4  # 2000s / 500s
        assert [r["time"] for r in records] == [500.0, 1000.0, 1500.0, 2000.0]
        values = records[-1]["values"]
        hops = sum(values[c] for c in ("query", "reply", "push", "control"))
        assert hops > 0
        assert hops == pytest.approx(
            values["cost_per_query"] * values["queries"]
        )


    def test_one_sampler_for_both_exports(self, tmp_path, monkeypatch):
        from repro.sim import Environment

        started = []
        process = Environment.process

        def counting(env, generator, name=""):
            started.append(name)
            return process(env, generator, name)

        monkeypatch.setattr(Environment, "process", counting)
        metrics_path = tmp_path / "metrics.jsonl"
        telemetry_path = tmp_path / "telemetry.jsonl"
        code = main(
            ["simulate", "--scheme", "dup", "--nodes", "32", "--rate", "1",
             "--duration", "2000", "--warmup", "0",
             "--metrics-out", str(metrics_path),
             "--telemetry-out", str(telemetry_path),
             "--snapshot-interval", "500"]
        )
        assert code == 0
        assert started.count("monitor") == 1
        snapshots = [r["time"] for r in read_jsonl(str(metrics_path))]
        timeline = {r["time"] for r in read_jsonl(str(telemetry_path))}
        assert snapshots == sorted(timeline) == [500.0, 1000.0, 1500.0, 2000.0]


class TestSimulateTraceSummary:
    def test_trace_out_prints_the_summary_and_exports(self, tmp_path, capsys):
        trace_path = tmp_path / "traces.jsonl"
        metrics_path = tmp_path / "metrics.jsonl"
        code = main(
            [
                "simulate",
                "--scheme",
                "dup",
                "--nodes",
                "64",
                "--rate",
                "2",
                "--duration",
                "4000",
                "--warmup",
                "500",
                "--trace-out",
                str(trace_path),
                "--metrics-out",
                str(metrics_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "latency percentiles (hops):" in out
        assert "traces:" in out
        assert "trace#" in out
        assert trace_path.exists() and metrics_path.exists()

    def test_exports_leave_the_result_line_unchanged(self, tmp_path, capsys):
        argv = ["simulate", "--scheme", "dup", "--nodes", "64", "--rate", "2",
                "--duration", "4000", "--warmup", "500", "--churn-rate",
                "0.01", "--seed", "3"]
        exports = [
            f"--{name}-out={tmp_path / name}.jsonl"
            for name in ("trace", "metrics", "flight", "telemetry")
        ]
        reports = []
        for extra in ([], exports):
            assert main(argv + extra) == 0
            reports.append([
                line for line in capsys.readouterr().out.splitlines()
                if line.startswith(("[dup]", "extras:"))
            ])
        plain, observed = reports
        assert len(plain) == 2
        assert observed == plain
