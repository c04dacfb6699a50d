"""Tests of the metrics registry, percentile reporting, and JSONL export."""

import math

import pytest

from repro.cli import main
from repro.engine import Simulation, SimulationConfig, run_simulation
from repro.metrics import (
    LatencyRecorder,
    MetricsRegistry,
    MetricsReport,
    read_jsonl,
    write_jsonl,
)
from repro.metrics.export import export_registry
from repro.stats import percentile
from repro.stats.confidence import ConfidenceInterval


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
    def test_counter_roundtrip(self):
        registry = MetricsRegistry()
        counter = registry.counter("queries")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert registry.counter("queries") is counter
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_and_callback(self):
        registry = MetricsRegistry()
        manual = registry.gauge("depth")
        manual.set(3.5)
        assert manual.value == 3.5
        live = registry.gauge("pop", fn=lambda: 42.0)
        assert live.value == 42.0
        with pytest.raises(ValueError):
            live.set(1.0)
        with pytest.raises(ValueError):
            registry.gauge("pop", fn=lambda: 0.0)

    def test_histogram_summary(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency")
        for value in (0, 1, 2, 3, 10):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 5
        assert summary["min"] == 0.0
        assert summary["max"] == 10.0
        assert summary["p50"] == 2.0

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_inspection(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.gauge("a")
        assert registry.names == ("a", "b")
        assert "a" in registry and "z" not in registry
        assert len(registry) == 2
        with pytest.raises(KeyError):
            registry.get("z")

    def test_snapshot_series(self):
        times = iter([1.0, 2.0])
        registry = MetricsRegistry(clock=lambda: next(times))
        registry.counter("n").inc(7)
        registry.histogram("h").observe(3.0)
        first = registry.record_snapshot()
        assert first["time"] == 1.0
        assert first["values"]["n"] == 7
        assert first["values"]["h"]["count"] == 1
        registry.record_snapshot()
        assert len(registry.snapshots) == 2


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

    def test_registry_export_falls_back_to_current(self, tmp_path):
        registry = MetricsRegistry(clock=lambda: 9.0)
        registry.counter("n").inc(3)
        path = tmp_path / "metrics.jsonl"
        assert export_registry(registry, str(path)) == 1
        [record] = read_jsonl(str(path))
        assert record["type"] == "snapshot"
        assert record["time"] == 9.0
        assert record["values"]["n"] == 3


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
        assert "hops.total" in records[-1]["values"]


class TestObserveCommand:
    def test_observe_runs_and_exports(self, tmp_path, capsys):
        trace_path = tmp_path / "traces.jsonl"
        metrics_path = tmp_path / "metrics.jsonl"
        code = main(
            [
                "observe",
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
                "--top",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "latency percentiles (hops):" in out
        assert "traces:" in out
        assert "trace#" in out
        assert trace_path.exists() and metrics_path.exists()
