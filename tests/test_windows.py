"""Tests for the tree-evolution timeline (metrics.windows).

The timeline is a :class:`~repro.sim.monitor.Monitor` carrying the
tree-shape probes.  Covers the acceptance criterion: a churny run's
tree-depth timeline is reconstructible from a JSONL export while memory
stays bounded by the window count, not the run length, and enabling it
leaves the run bit-identical.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.engine import Simulation, SimulationConfig
from repro.errors import ConfigError
from repro.metrics.export import read_jsonl, write_jsonl
from repro.metrics.windows import reconstruct_series, timeline_records
from repro.sim import Environment
from repro.sim.monitor import Monitor
from repro.workload.churn import ChurnConfig


def churny_sim() -> Simulation:
    config = SimulationConfig(
        scheme="dup",
        num_nodes=64,
        duration=7200.0,
        warmup=600.0,
        query_rate=2.0,
        seed=7,
        churn=ChurnConfig(join_rate=0.02, leave_rate=0.02),
    )
    return Simulation(config)


class TestTreeTimeline:
    def test_observe_and_series(self):
        # Churn-free, so the tree's shape at the end holds at every
        # sample; the DUP-only probes are present for a DUP scheme.
        sim = Simulation(
            SimulationConfig(
                scheme="dup",
                num_nodes=64,
                duration=600.0,
                warmup=100.0,
                query_rate=2.0,
                seed=7,
            )
        )
        timeline = sim.enable_timeline(window=100.0)
        sim.run()
        assert timeline.names == (
            "tree-depth",
            "population",
            "mean-fanout",
            "subscribers",
            "dup-tree-size",
            "interior-load",
        )
        depth = timeline.series("tree-depth")
        assert depth.times == (100.0, 200.0, 300.0, 400.0, 500.0, 600.0)
        assert set(depth.values) == {float(sim.tree.height())}
        assert set(timeline.series("population").values) == {64.0}
        assert timeline.series("subscribers").last.value == float(
            len(sim.scheme.subscribed_nodes())
        )

    def test_unknown_metric_rejected(self):
        timeline = churny_sim().enable_timeline(window=60.0)
        with pytest.raises(ConfigError):
            timeline.series("no-such-metric")

    def test_records_round_trip(self, tmp_path):
        env = Environment()
        timeline = Monitor(env, 10.0)
        timeline.probe("tree-depth", lambda: env.now / 10.0)
        env.run(until=55.0)
        path = tmp_path / "timeline.jsonl"
        write_jsonl(str(path), timeline_records(timeline))
        records = read_jsonl(str(path))
        assert records[0] == {
            "type": "timeline",
            "metric": "tree-depth",
            "time": 10.0,
            "value": 1.0,
        }
        assert reconstruct_series(records, "tree-depth") == [
            (10.0 * t, float(t)) for t in range(1, 6)
        ]


    def test_retention_is_bounded(self):
        env = Environment()
        timeline = Monitor(env, 1.0, max_samples=8)
        timeline.probe("tree-depth", lambda: env.now)
        env.run(until=100.5)
        depth = timeline.series("tree-depth")
        assert len(depth) == 8
        assert depth.total_appended == 100
        # The survivors are the newest samples.
        assert depth.times == tuple(float(t) for t in range(93, 101))
        assert depth.values == depth.times


class TestTimelineUnderChurn:
    """Acceptance: a churny run's tree-depth timeline is reconstructible
    from its JSONL export, with memory bounded by the window count even
    when the run spans far more windows than the retention cap."""

    def test_timeline_bounded_and_reconstructible(self, tmp_path, pins):
        sim = churny_sim()
        # 7200 s / 60 s window = 120 samples >> 16 retained.
        timeline = sim.enable_timeline(window=60.0, max_buckets=16)
        sim.run()
        depth = timeline.series("tree-depth")
        assert depth.total_appended == 120
        assert len(depth) == 16
        assert depth.times[0] == 6300.0 and depth.times[-1] == 7200.0
        assert "subscribers" in timeline.names
        assert "interior-load" in timeline.names

        path = tmp_path / "telemetry.jsonl"
        write_jsonl(str(path), timeline_records(timeline))
        restored = reconstruct_series(read_jsonl(str(path)), "tree-depth")
        assert restored == list(zip(depth.times, depth.values))

        series = {
            name: list(zip(timeline.series(name).times,
                           timeline.series(name).values))
            for name in timeline.names
        }
        # The pin is the SHA-256 of the retained ``(time, value)`` pairs
        # of every metric, taken from the per-window ``last`` values of
        # the bucketed timeline the Monitor took over from.
        text = json.dumps(series, sort_keys=True)
        pins.check({
            "series/timeline-under-churn":
                hashlib.sha256(text.encode()).hexdigest()
        })

    def test_enable_timeline_is_idempotent(self):
        sim = churny_sim()
        first = sim.enable_timeline(window=60.0)
        assert sim.enable_timeline(window=600.0) is first
        assert sim.timeline is first

    def test_timeline_is_a_pure_observer(self):
        """Enabling a timeline must not perturb the simulation."""
        import dataclasses

        def run(enable):
            sim = churny_sim()
            if enable:
                sim.enable_timeline(window=60.0)
            result = sim.run()
            record = dataclasses.asdict(result)
            record.pop("wall_seconds")
            return json.dumps(record, sort_keys=True, default=repr)

        assert run(False) == run(True)
