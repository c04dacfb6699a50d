"""Tests of the time-series monitor and its engine integration."""

import math

import pytest

from repro.engine import Simulation, SimulationConfig
from repro.errors import ConfigError
from repro.sim import Environment
from repro.sim.monitor import Monitor, Series


class TestSeries:
    def test_append_and_iterate(self):
        series = Series("x")
        series.append(1.0, 10.0)
        series.append(2.0, 20.0)
        assert series.times == (1.0, 2.0)
        assert series.values == (10.0, 20.0)
        assert len(series) == 2
        samples = list(series)
        assert samples[0].time == 1.0
        assert samples[1].value == 20.0

    def test_time_ordering_enforced(self):
        series = Series("x")
        series.append(5.0, 1.0)
        with pytest.raises(ConfigError):
            series.append(4.0, 1.0)

    def test_last_and_summaries(self):
        series = Series("x")
        assert series.last is None
        assert math.isnan(series.mean())
        series.append(0.0, 2.0)
        series.append(1.0, 4.0)
        assert series.last.value == 4.0
        assert series.mean() == pytest.approx(3.0)
        assert series.minimum() == 2.0
        assert series.maximum() == 4.0

    def test_window(self):
        series = Series("x")
        for t in range(10):
            series.append(float(t), float(t))
        clipped = series.window(3.0, 6.0)
        assert clipped.times == (3.0, 4.0, 5.0, 6.0)

    def test_stability_detection(self):
        stable = Series("s")
        for t in range(20):
            stable.append(float(t), 100.0 + (t % 2))
        assert stable.is_stable(tolerance=0.05)
        ramp = Series("r")
        for t in range(20):
            ramp.append(float(t), float(t) * 10)
        assert not ramp.is_stable(tolerance=0.05)

    def test_stability_needs_samples(self):
        series = Series("x")
        series.append(0.0, 1.0)
        assert not series.is_stable()


class TestMonitor:
    def test_samples_on_cadence(self):
        env = Environment()
        monitor = Monitor(env, interval=10.0)
        series = monitor.probe("clock", lambda: env.now)
        env.run(until=35.0)
        assert series.times == (10.0, 20.0, 30.0)
        assert series.values == (10.0, 20.0, 30.0)

    def test_cadence_counts_from_the_first_probe(self):
        env = Environment()
        env.run(until=5.0)
        monitor = Monitor(env, interval=10.0)
        series = monitor.probe("x", lambda: 1.0)
        env.run(until=26.0)
        assert series.times == (15.0, 25.0)

    def test_multiple_probes_share_cadence(self):
        env = Environment()
        monitor = Monitor(env, interval=10.0)
        ones = monitor.probe("one", lambda: 1.0)
        twos = monitor.probe("two", lambda: 2.0)
        env.run(until=21.0)
        assert len(ones) == len(twos) == 2
        assert monitor.names == ("one", "two")

    def test_duplicate_probe_rejected(self):
        monitor = Monitor(Environment(), interval=1.0)
        monitor.probe("x", lambda: 0.0)
        with pytest.raises(ConfigError):
            monitor.probe("x", lambda: 0.0)

    def test_unknown_series_rejected(self):
        with pytest.raises(ConfigError):
            Monitor(Environment(), interval=1.0).series("nope")

    def test_invalid_interval(self):
        with pytest.raises(ConfigError):
            Monitor(Environment(), interval=0.0)

    def test_sample_now(self):
        env = Environment()
        monitor = Monitor(env, interval=100.0)
        series = monitor.probe("x", lambda: 42.0)
        monitor.sample_now()
        assert series.values == (42.0,)

    def test_snapshot_shares_the_ticks_and_the_bound(self):
        env = Environment()
        monitor = Monitor(env, interval=10.0, max_samples=3)
        monitor.record(lambda: {"now": env.now})
        series = monitor.probe("x", lambda: env.now)
        env.run(until=55.0)
        assert monitor.snapshots == tuple(
            {"time": t, "values": {"now": t}} for t in (30.0, 40.0, 50.0)
        )
        assert series.times == (30.0, 40.0, 50.0)
        with pytest.raises(ConfigError):
            monitor.record(lambda: {})
        with pytest.raises(ConfigError):
            Monitor(env, interval=1.0, max_samples=0)


class TestSeriesRetention:
    """The unbounded-growth fix: Series.max_samples sliding window."""

    def test_keeps_only_the_newest_samples(self):
        series = Series("x", max_samples=3)
        for t in range(10):
            series.append(float(t), float(t * 2))
        assert len(series) == 3
        assert series.times == (7.0, 8.0, 9.0)
        assert series.values == (14.0, 16.0, 18.0)
        assert series.total_appended == 10
        assert series.last.value == 18.0

    def test_unbounded_by_default(self):
        series = Series("x")
        for t in range(5000):
            series.append(float(t), 1.0)
        assert len(series) == 5000
        assert series.max_samples is None

    def test_max_samples_validated(self):
        with pytest.raises(ConfigError):
            Series("x", max_samples=0)

    def test_window_inherits_the_bound(self):
        series = Series("x", max_samples=4)
        for t in range(10):
            series.append(float(t), float(t))
        clipped = series.window(6.0, 9.0)
        assert clipped.max_samples == 4
        assert clipped.times == (6.0, 7.0, 8.0, 9.0)

    def test_monitor_probes_are_bounded_by_default(self):
        env = Environment()
        monitor = Monitor(env, interval=1.0)
        series = monitor.probe("x", lambda: env.now)
        assert series.max_samples == Monitor.DEFAULT_MAX_SAMPLES
        env.run(until=float(Monitor.DEFAULT_MAX_SAMPLES + 100))
        assert len(series) == Monitor.DEFAULT_MAX_SAMPLES
        assert series.total_appended > Monitor.DEFAULT_MAX_SAMPLES

    def test_monitor_bound_is_configurable(self):
        env = Environment()
        monitor = Monitor(env, interval=1.0, max_samples=5)
        series = monitor.probe("x", lambda: env.now)
        env.run(until=20.0)
        assert len(series) == 5
        unbounded = Monitor(Environment(), interval=1.0, max_samples=None)
        assert unbounded.probe("y", lambda: 0.0).max_samples is None


class TestEngineIntegration:
    def test_probe_observes_simulation(self):
        config = SimulationConfig(
            scheme="dup",
            num_nodes=64,
            query_rate=2.0,
            duration=3600.0 * 4,
            warmup=3600.0,
            seed=5,
        )
        sim = Simulation(config)
        series = sim.monitor(interval=1800.0).probe(
            "subscribed", lambda: float(len(sim.scheme.subscribed_nodes()))
        )
        sim.run()
        assert len(series) >= 6
        # Subscribers appear once interest accumulates.
        assert series.maximum() > 0

    def test_subscriber_count_stabilizes(self):
        # After warm-up the interested set under a stationary workload
        # settles into a band (flapping only at the threshold boundary).
        config = SimulationConfig(
            scheme="dup",
            num_nodes=128,
            query_rate=5.0,
            duration=3600.0 * 8,
            warmup=3600.0,
            seed=7,
        )
        sim = Simulation(config)
        series = sim.monitor(interval=900.0).probe(
            "subscribed", lambda: float(len(sim.scheme.subscribed_nodes()))
        )
        sim.run()
        tail = series.window(3600.0 * 4, 3600.0 * 8)
        assert tail.minimum() > 0
        spread = (tail.maximum() - tail.minimum()) / max(tail.mean(), 1.0)
        assert spread < 0.6


def small_sim() -> Simulation:
    return Simulation(
        SimulationConfig(
            scheme="dup",
            num_nodes=32,
            query_rate=1.0,
            duration=1200.0,
            warmup=300.0,
            seed=3,
        )
    )


class TestAttachAfterRun:
    """An observer attached after ``run()`` would record nothing, so it
    is refused (``run()`` itself refuses a second call)."""

    @pytest.mark.parametrize(
        "attach",
        [lambda sim: sim.monitor(), lambda sim: sim.enable_tracing()],
        ids=["monitor", "enable_tracing"],
    )
    def test_refused_after_run(self, attach, request):
        sim = small_sim()
        sim.run()
        method = request.node.callspec.id
        with pytest.raises(RuntimeError, match=f"{method} must precede run"):
            attach(sim)

    @pytest.mark.parametrize(
        "call, refusal",
        [
            (lambda sim: sim.monitor(60.0), None),
            (
                lambda sim: sim.monitor(60.0, max_samples=8),
                "max_samples 8.*with max_samples 4096",
            ),
        ],
        ids=["same-arguments", "other-max-samples"],
    )
    def test_repeat_monitor_call(self, call, refusal):
        """The first call fixes the run's one sampler: a repeat with the
        same arguments returns it, one with others is refused."""
        sim = small_sim()
        first = sim.monitor(60.0)
        if refusal is None:
            assert call(sim) is first
        else:
            with pytest.raises(ConfigError, match=refusal):
                call(sim)

    def test_probe_interval_mismatch_refused(self):
        """Probes share the run's one sampler, so a probe asking for
        another interval is refused."""
        sim = small_sim()
        sim.monitor(60.0).probe("a", lambda: 1.0)
        sim.monitor(60.0).probe("b", lambda: 2.0)
        with pytest.raises(ConfigError, match="interval 120.0.*every 60.0"):
            sim.monitor(120.0).probe("c", lambda: 3.0)

    def test_repeat_snapshots_sample_once(self):
        sim = small_sim()
        monitor = sim.monitor(interval=300.0)
        monitor.record(sim.snapshot)
        series = sim.monitor(interval=300.0).probe("x", lambda: 1.0)
        sim.run()
        times = [snapshot["time"] for snapshot in monitor.snapshots]
        assert times == [300.0, 600.0, 900.0, 1200.0]
        assert series.times == tuple(times)

    def test_snapshot_interval_mismatch_refused(self):
        """The snapshot records on the run's one sampler, so snapshots at
        another interval are refused."""
        sim = small_sim()
        sim.monitor(60.0).record(sim.snapshot)
        with pytest.raises(ConfigError, match="interval 120.0.*every 60.0"):
            sim.monitor(120.0).record(sim.snapshot)

    def test_tracing_keep_mismatch_refused(self):
        sim = small_sim()
        sim.enable_tracing(keep=50)
        with pytest.raises(ConfigError, match="keep 10 traces.*keeps 50"):
            sim.enable_tracing(keep=10)
