"""Tests of transport observers and query tracing."""

import pytest

from repro.engine import Simulation, SimulationConfig
from repro.engine.tracing import TraceCollector
from repro.index.authority import ReplicationPlan
from repro.net.message import Category, QueryMessage
from repro.workload.churn import ChurnConfig


def chain_sim(scheme="dup", **overrides):
    defaults = dict(
        scheme=scheme,
        num_nodes=6,
        topology="chain",
        hop_latency_mean=0.001,
        duration=50_000.0,
        warmup=0.0,
        threshold_c=1,
        seed=1,
    )
    defaults.update(overrides)
    sim = Simulation(SimulationConfig(**defaults))
    sim.start()
    sim.env.run(until=0.0)
    return sim


class TestTransportObserver:
    def test_stacked_observers_in_order(self):
        sim = chain_sim("pcx")
        seen = []
        sim.transport.add_observer(lambda e: seen.append(("a", e.kind)))
        sim.transport.add_observer(lambda e: seen.append(("b", e.kind)))
        sim.scheme.on_local_query(5)
        sim.env.run(until=5.0)
        assert seen, "observers saw no events"
        # Both observers see every event, in registration order.
        assert seen[0][0] == "a" and seen[1][0] == "b"
        assert len(seen) % 2 == 0
        assert {kind for _, kind in seen} == {"send", "deliver"}

    def test_remove_observer(self):
        sim = chain_sim("pcx")
        events = []
        observer = sim.transport.add_observer(events.append)
        sim.scheme.on_local_query(5)
        sim.env.run(until=5.0)
        count = len(events)
        sim.transport.remove_observer(observer)
        sim.scheme.on_local_query(4)
        sim.env.run(until=10.0)
        assert len(events) == count
        with pytest.raises(ValueError):
            sim.transport.remove_observer(observer)

    def test_send_events_carry_sender(self):
        sim = chain_sim("pcx")
        sends = []
        sim.transport.add_observer(
            lambda e: sends.append(e) if e.kind == "send" else None
        )
        sim.scheme.on_local_query(5)
        sim.env.run(until=5.0)
        query_hops = [
            (e.sender, e.destination)
            for e in sends
            if e.message.category is Category.QUERY
        ]
        assert query_hops == [(5, 4), (4, 3), (3, 2), (2, 1), (1, 0)]
        reply_hops = [
            (e.sender, e.destination)
            for e in sends
            if e.message.category is Category.REPLY
        ]
        assert reply_hops == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]

    def test_observer_sees_only_hops_sent_after_it(self):
        # A hop sent with no observer attached goes straight to the
        # engine's dispatch: an observer added while it is in flight
        # sees every later hop but not that one's delivery.
        sim = chain_sim("pcx")
        sim.scheme.on_local_query(5)  # the 5 -> 4 request hop, in flight
        events = []
        sim.transport.add_observer(events.append)
        sim.env.run(until=5.0)
        delivered = [
            (e.message.category, e.destination)
            for e in events
            if e.kind == "deliver"
        ]
        assert (Category.QUERY, 4) not in delivered
        assert len(delivered) == 9
        assert sum(e.kind == "send" for e in events) == 9

    def test_drop_event_counts(self):
        sim = chain_sim("pcx")
        drops = []
        sim.transport.add_observer(
            lambda e: drops.append(e) if e.kind == "drop" else None
        )
        before = sim.transport.dropped
        sim.transport.drop(QueryMessage(key=sim.key, origin=5))
        assert sim.transport.dropped == before + 1
        assert len(drops) == 1


def traced_chain_sim(scheme="pcx", **overrides):
    sim = chain_sim(scheme, **overrides)
    tracer = sim.enable_tracing()
    return sim, tracer


class TestTraceCollector:
    def test_full_chain_reconstruction(self):
        sim, tracer = traced_chain_sim("pcx")
        sim.scheme.on_local_query(5)
        sim.env.run(until=5.0)
        assert tracer.completed == 1
        trace = tracer.traces("complete")[0]
        assert trace.origin == 5
        assert trace.status == "complete"
        assert trace.latency_hops == 5
        assert trace.request_hops == 5
        # Request climbs the chain contiguously from the origin...
        query_spans = trace.spans_of(Category.QUERY)
        assert query_spans[0].sender == 5
        for earlier, later in zip(query_spans, query_spans[1:]):
            assert later.sender == earlier.destination
        assert query_spans[-1].destination == 0
        # ... and the reply retraces it back down.
        reply_spans = trace.spans_of(Category.REPLY)
        assert [s.destination for s in reply_spans] == [1, 2, 3, 4, 5]
        assert all(s.status == "delivered" for s in trace.spans)
        # Span levels are the chain depth of the destination.
        assert [s.level for s in query_spans] == [4, 3, 2, 1, 0]
        # The serving node annotated the trace.
        assert any(n.event == "serve" and n.node == 0
                   for n in trace.annotations)

    def test_local_hit_completes_with_no_spans(self):
        sim, tracer = traced_chain_sim("pcx")
        sim.scheme.on_local_query(5)
        sim.env.run(until=5.0)
        sim.scheme.on_local_query(5)  # cache still warm: local hit
        sim.env.run(until=6.0)
        hits = [t for t in tracer.traces("complete") if t.hit]
        assert len(hits) == 1
        assert hits[0].latency_hops == 0
        assert hits[0].spans == []

    def test_warmup_queries_not_traced(self):
        sim, tracer = traced_chain_sim("pcx", warmup=100.0)
        sim.scheme.on_local_query(5)
        sim.env.run(until=5.0)
        assert tracer.untraced == 1
        assert len(tracer.traces()) == 0
        assert sim.latency.count == 0  # recorder gated identically

    def test_dup_annotations_and_traced_control(self):
        sim, tracer = traced_chain_sim("dup")
        # Subscribe recipe: miss, hit, miss-with-subscription.
        sim.scheme.on_local_query(5)
        sim.env.run(until=3550.0)
        sim.scheme.on_local_query(5)
        sim.env.run(until=3650.0)
        sim.scheme.on_local_query(5)
        sim.env.run(until=3700.0)
        events = [
            note.event
            for trace in tracer.traces()
            for note in trace.annotations
        ]
        assert "dup.subscribe" in events

    def test_aggregates_survive_eviction(self):
        sim, tracer = traced_chain_sim("pcx")
        tracer._keep = 2
        for _ in range(5):
            sim.scheme.on_local_query(5)
            sim.env.run(until=sim.env.now + 10.0)
        assert tracer.completed == 5
        assert len(tracer.traces()) <= 2
        assert len(tracer.latencies) == 5
        assert tracer.percentile(50) >= 0

    def test_percentiles_and_summary(self):
        sim, tracer = traced_chain_sim("pcx")
        sim.scheme.on_local_query(5)
        sim.env.run(until=5.0)
        tails = tracer.percentiles()
        assert set(tails) == {"p50", "p95", "p99"}
        assert tails["p50"] == 5.0
        summary = tracer.summary()
        assert summary["completed"] == 1
        assert summary["hops_by_level"] == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}
        assert "TraceCollector" in repr(tracer)

    def test_invalid_keep(self):
        with pytest.raises(ValueError):
            TraceCollector(clock=lambda: 0.0, keep=0)


def check_trace_invariants(tracer):
    for trace in tracer.traces():
        assert trace.status in ("complete", "incomplete", "open")
        delivered_queries = [
            s for s in trace.spans_of(Category.QUERY)
            if s.status == "delivered"
        ]
        # Request hops form a contiguous chain from the origin even
        # when later nodes departed.
        if delivered_queries:
            assert delivered_queries[0].sender == trace.origin
            for earlier, later in zip(
                delivered_queries, delivered_queries[1:]
            ):
                assert later.sender == earlier.destination
        if trace.status == "complete":
            # The acceptance invariant: the reconstructed hop count
            # equals the latency the recorder was told.
            assert trace.request_hops == trace.latency_hops
        elif trace.status == "incomplete":
            # Abandoned: never recorded a latency, but the abandon
            # time is known.  (The chain may end without a dropped
            # span when a reply found its whole remaining path dead
            # before the next hop was even attempted.)
            assert trace.latency_hops is None
            assert trace.completed_at is not None
            assert not any(
                s.category in ("query", "reply")
                and s.status == "delivered"
                and s.delivered_at > trace.completed_at
                for s in trace.spans
            ), "orphan hop delivered after the trace was abandoned"


class TestTracingUnderChurn:
    """Traces stay orphan-free and consistent when path nodes depart."""

    def run_churny(self, scheme="dup"):
        config = SimulationConfig(
            scheme=scheme,
            num_nodes=96,
            query_rate=2.0,
            hop_latency_mean=15.0,
            ttl=600.0,
            duration=12_000.0,
            warmup=1_000.0,
            threshold_c=2,
            seed=7,
            churn=ChurnConfig(
                join_rate=0.04, leave_rate=0.02, fail_rate=0.02
            ),
        )
        sim = Simulation(config)
        tracer = sim.enable_tracing()
        result = sim.run()
        return sim, tracer, result

    # DUP's pushes keep caches warm enough that nothing is in flight
    # when nodes depart; PCX keeps long request/reply chains in the air
    # and reliably loses some to churn.
    @pytest.mark.parametrize("scheme", ["dup", "pcx"])
    def test_traces_consistent_under_churn(self, scheme):
        sim, tracer, result = self.run_churny(scheme)
        assert tracer.completed > 100, "churn run produced too few traces"
        if scheme == "pcx":
            assert tracer.incomplete > 0, "churn never broke a path"
        self.check_invariants(tracer)

    def check_invariants(self, tracer):
        check_trace_invariants(tracer)

    def test_completed_traces_biject_with_recorder(self):
        sim, tracer, result = self.run_churny("dup")
        # Every post-warm-up recorded latency belongs to exactly one
        # completed trace and vice versa.
        assert tracer.completed == sim.latency.count
        assert sorted(tracer.latencies) == sorted(sim.latency.samples)
        begun = tracer.completed + tracer.incomplete + tracer.open_count
        assert begun == tracer._next_id - 1


class TestTracingAcrossFailoverAndRepair:
    """Trace-id inheritance beyond the steady state: control payloads
    keep their carrier's trace id hop by hop, traces stay bijective
    with the latency recorder across an authority failover re-root
    (``promote_to_root``), and auditor-initiated repairs run as
    untraced background flows that never bleed into query traces."""

    def test_subscribe_control_inherits_the_carrier_trace(self):
        # Deterministic chain: the third query carries the subscribe up
        # the whole chain, and every hop that processes it annotates
        # the SAME trace — the id is inherited, not re-minted.
        sim, tracer = traced_chain_sim("dup")
        sim.scheme.on_local_query(5)  # miss: interest noted
        sim.env.run(until=3550.0)
        sim.scheme.on_local_query(5)  # hit: threshold crossed
        sim.env.run(until=3650.0)
        sim.scheme.on_local_query(5)  # miss: subscribe rides the request
        sim.env.run(until=3700.0)
        subscribed = [
            trace
            for trace in tracer.traces()
            if any(n.event == "dup.subscribe" for n in trace.annotations)
        ]
        assert len(subscribed) == 1, "subscribe attributed to >1 trace"
        trace = subscribed[0]
        nodes = [
            note.node
            for note in trace.annotations
            if note.event == "dup.subscribe"
        ]
        assert nodes == [4, 3, 2, 1, 0]
        # The annotated trace is the query that carried the payload.
        assert trace.origin == 5
        assert trace.status == "complete"

    def run_failover(self):
        config = SimulationConfig(
            scheme="dup",
            num_nodes=48,
            query_rate=3.0,
            ttl=600.0,
            push_lead=60.0,
            duration=3600.0,
            warmup=600.0,
            threshold_c=2,
            seed=11,
            replication=ReplicationPlan(
                standbys=2, failover_timeout=120.0, crash_at=1500.0
            ),
        )
        sim = Simulation(config)
        tracer = sim.enable_tracing()
        result = sim.run()
        return sim, tracer, result

    def test_traces_consistent_across_failover_rerooting(self):
        sim, tracer, result = self.run_failover()
        promoted = result.extras["failover_promoted"]
        assert promoted >= 0
        assert sim.tree.root == promoted
        # The recorder bijection survives the re-root: no query is lost
        # or double-counted while the tree changes authority mid-run.
        assert tracer.completed == sim.latency.count
        assert sorted(tracer.latencies) == sorted(sim.latency.samples)
        failover_at = result.extras["failover_at"]
        post = [
            trace
            for trace in tracer.traces("complete")
            if trace.issued_at > failover_at
        ]
        assert post, "no queries completed after the re-root"
        check_trace_invariants(tracer)

    def test_auditor_repairs_stay_out_of_query_traces(self):
        config = SimulationConfig(
            scheme="dup",
            num_nodes=96,
            query_rate=2.0,
            hop_latency_mean=15.0,
            ttl=600.0,
            duration=12_000.0,
            warmup=1_000.0,
            threshold_c=2,
            seed=7,
            audit_interval=300.0,
            churn=ChurnConfig(
                join_rate=0.04, leave_rate=0.02, fail_rate=0.02
            ),
        )
        sim = Simulation(config)
        tracer = sim.enable_tracing()
        result = sim.run()
        # The sweeps actually repaired something, and the bijection with
        # the latency recorder held while they did.
        assert result.extras["audit_repairs"] > 0
        assert tracer.completed == sim.latency.count
        assert sorted(tracer.latencies) == sorted(sim.latency.samples)
        check_trace_invariants(tracer)
        events = {
            note.event
            for trace in tracer.traces()
            for note in trace.annotations
        }
        # Query-carried control still annotates its carrier's trace...
        assert "dup.subscribe" in events
        # ... but auditor rewalks travel as background control with no
        # carrier trace, so they never annotate any query's trace.
        assert "dup.refreshsubscribe" not in events
