"""Tests of query traces and trace replay."""

import pytest

from repro.engine import Simulation, SimulationConfig
from repro.errors import WorkloadError
from repro.net.faults import FaultPlan
from repro.workload import QueryTrace, TraceEvent


class TestTraceConstruction:
    def test_ordering_enforced(self):
        with pytest.raises(WorkloadError):
            QueryTrace([TraceEvent(2.0, 1), TraceEvent(1.0, 2)])

    def test_negative_time_rejected(self):
        with pytest.raises(WorkloadError):
            QueryTrace([TraceEvent(-1.0, 1)])

    def test_basic_access(self):
        trace = QueryTrace([TraceEvent(1.0, 5), TraceEvent(2.0, 7)])
        assert len(trace) == 2
        assert trace[1].node == 7
        assert trace.duration == 2.0
        assert trace.nodes == {5, 7}

    def test_synthesize_matches_model(self):
        trace = QueryTrace.synthesize(
            nodes=list(range(1, 100)),
            rate=2.0,
            duration=5000.0,
            seed=3,
        )
        assert trace.duration < 5000.0
        assert trace.mean_rate() == pytest.approx(2.0, rel=0.15)
        assert trace.nodes <= set(range(1, 100))

    def test_synthesize_deterministic(self):
        kwargs = dict(nodes=[1, 2, 3], rate=1.0, duration=500.0, seed=9)
        first = QueryTrace.synthesize(**kwargs)
        second = QueryTrace.synthesize(**kwargs)
        assert list(first) == list(second)

    def test_synthesize_pareto(self):
        trace = QueryTrace.synthesize(
            nodes=[1, 2], rate=1.0, duration=2000.0, seed=1,
            arrival="pareto", pareto_alpha=1.2,
        )
        assert len(trace) > 0

    def test_clipped_rebases(self):
        trace = QueryTrace(
            [TraceEvent(float(t), 1) for t in range(10)]
        )
        clipped = trace.clipped(3.0, 7.0)
        assert len(clipped) == 4
        assert clipped[0].time == 0.0


class TestTraceSerialization:
    def test_roundtrip(self, tmp_path):
        trace = QueryTrace.synthesize([1, 2, 3], 1.0, 200.0, seed=4)
        path = tmp_path / "workload.trace"
        trace.save(path)
        loaded = QueryTrace.load(path)
        assert len(loaded) == len(trace)
        assert loaded[0].node == trace[0].node
        assert loaded[0].time == pytest.approx(trace[0].time, abs=1e-6)

    def test_parse_with_comments_and_blanks(self):
        text = """
        # a comment
        1.5 10

        2.5 11  # trailing comment
        """
        trace = QueryTrace.parse(text)
        assert [(e.time, e.node) for e in trace] == [(1.5, 10), (2.5, 11)]

    def test_parse_rejects_malformed(self):
        with pytest.raises(WorkloadError):
            QueryTrace.parse("1.0\n")
        with pytest.raises(WorkloadError):
            QueryTrace.parse("abc 2\n")


class TestReplay:
    def make_sim(self, scheme="pcx", **overrides):
        config = SimulationConfig(
            scheme=scheme,
            num_nodes=32,
            topology="chain",
            duration=5000.0,
            warmup=0.0,
            seed=1,
            **overrides,
        )
        return Simulation(config)

    def test_replay_issues_exact_queries(self):
        trace = QueryTrace(
            [TraceEvent(10.0, 31), TraceEvent(20.0, 31), TraceEvent(30.0, 15)]
        )
        sim = self.make_sim()
        sim.use_trace(trace)
        result = sim.run()
        assert result.queries == 3
        # First query from the chain tail walks 31 hops; the second hits.
        assert sim.latency.samples[0] == 31.0
        assert sim.latency.samples[1] == 0.0

    def test_replay_skips_silently_crashed_nodes(self):
        # A silently failed node is still ``alive`` (a member until some
        # survivor detects it) but generates no queries: the replay must
        # gate on functioning(), like the generated workload does.
        trace = QueryTrace(
            [TraceEvent(10.0, 31), TraceEvent(20.0, 31), TraceEvent(30.0, 15)]
        )
        sim = self.make_sim(faults=FaultPlan(silent_failures=True))
        sim.use_trace(trace)
        sim.fail_silently(31)
        assert sim.alive(31) and not sim.functioning(31)
        result = sim.run()
        assert result.queries == 1
        assert result.incomplete_queries == 0
        # Only node 15's climb to the root is charged.
        assert result.hop_breakdown["query"] == 15

    def test_replay_is_scheme_comparable(self):
        trace = QueryTrace.synthesize(
            nodes=list(range(1, 32)), rate=0.05, duration=4000.0, seed=5
        )
        counts = []
        for scheme in ("pcx", "dup"):
            sim = self.make_sim(scheme)
            sim.use_trace(trace)
            counts.append(sim.run().queries)
        assert counts[0] == counts[1] == len(trace)

    def test_use_trace_after_run_rejected(self):
        sim = self.make_sim()
        sim.run()
        with pytest.raises(RuntimeError):
            sim.use_trace(QueryTrace([]))

    def test_empty_trace(self):
        sim = self.make_sim()
        sim.use_trace(QueryTrace([]))
        result = sim.run()
        assert result.queries == 0
