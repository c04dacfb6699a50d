"""Unit tests for messages, transport, and the metric recorders."""

import inspect

import numpy as np
import pytest

from repro.index.entry import IndexVersion
from repro.metrics import CostLedger, LatencyRecorder
from repro.net import (
    Category,
    ControlMessage,
    PushMessage,
    QueryMessage,
    ReplyMessage,
    Subscribe,
    Transport,
)
from repro.net import message as message_types
from repro.net.faults import FaultInjector, FaultPlan
from repro.sim import Environment
from repro.sim.rng import RandomStreams
from repro.stats.distributions import Deterministic, Exponential


class FakeClock:
    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now


class TestMessages:
    def test_query_message_defaults(self):
        message = QueryMessage(key=1, origin=42)
        assert message.category is Category.QUERY
        assert message.path == [42]
        assert message.hops == 0
        assert message.control == []

    def test_query_hops_counts_path_edges(self):
        message = QueryMessage(key=1, origin=1)
        message.path.extend([2, 3])
        assert message.hops == 2

    def test_reply_next_hop(self):
        reply = ReplyMessage(
            key=1, version=None, path=[10, 11, 12], position=2, request_hops=2
        )
        assert reply.category is Category.REPLY
        assert reply.destination == 10
        assert reply.next_hop() == 11

    def test_reply_at_origin_has_no_next_hop(self):
        reply = ReplyMessage(
            key=1, version=None, path=[10, 11], position=0, request_hops=1
        )
        assert reply.next_hop() is None

    def test_push_and_control_categories(self):
        assert PushMessage(key=1, version=None, sender=2).category is Category.PUSH
        control = ControlMessage(key=1, payloads=[Subscribe(3)], sender=2)
        assert control.category is Category.CONTROL


    def test_type_ids_are_distinct_and_slots_0_to_3_are_scheme_dispatched(self):
        # Simulation._dispatch hands ``TYPE_ID < 4`` to the scheme's
        # handler table and consumes every other type itself.
        owners = {}
        for cls in vars(message_types).values():
            if inspect.isclass(cls) and "TYPE_ID" in vars(cls):
                assert cls.TYPE_ID not in owners, (cls, owners[cls.TYPE_ID])
                owners[cls.TYPE_ID] = cls
        assert [owners.get(slot) for slot in range(4)] == [
            QueryMessage,
            ReplyMessage,
            ControlMessage,
            PushMessage,
        ]


class TestCostLedger:
    def test_charges_by_category(self):
        ledger = CostLedger(clock=FakeClock())
        ledger.charge(Category.QUERY, 3)
        ledger.charge(Category.PUSH, 2)
        assert ledger.hops(Category.QUERY) == 3
        assert ledger.total_hops == 5
        assert ledger.breakdown()["query"] == 3

    def test_warmup_hops_excluded(self):
        clock = FakeClock(0.0)
        ledger = CostLedger(clock=clock, warmup=100.0)
        ledger.charge(Category.QUERY, 5)
        clock.now = 150.0
        ledger.charge(Category.QUERY, 7)
        assert ledger.hops(Category.QUERY) == 7
        assert ledger.warmup_hops(Category.QUERY) == 5

    def test_keepalive_excluded_by_default(self):
        ledger = CostLedger(clock=FakeClock())
        ledger.charge(Category.KEEPALIVE, 10)
        ledger.charge(Category.QUERY, 1)
        assert ledger.total_hops == 1

    def test_cost_per_query(self):
        ledger = CostLedger(clock=FakeClock())
        ledger.charge(Category.QUERY, 10)
        assert ledger.cost_per_query(4) == pytest.approx(2.5)
        assert np.isnan(ledger.cost_per_query(0))

    def test_negative_hops_rejected(self):
        with pytest.raises(ValueError):
            CostLedger(clock=FakeClock()).charge(Category.QUERY, -1)

    def test_a_charge_runs_no_python_level_hash(self):
        # ``Enum.__hash__`` is a Python function; two of its frames per
        # message used to sit under every ``counts[category] += hops``.
        import sys

        clock = FakeClock(0.0)
        ledger = CostLedger(clock=clock, warmup=100.0)
        frames = []

        def profiler(frame, event, arg):
            if event == "call":
                frames.append(frame.f_code.co_filename)

        sys.setprofile(profiler)
        try:
            for index in range(1000):
                clock.now = float(index)  # warm-up and measured charges
                ledger.charge(Category.PUSH, 2)
        finally:
            sys.setprofile(None)
        assert len(frames) >= 1000  # the profiler did see ``charge``
        assert not [name for name in frames if name.endswith("enum.py")]
        # Same readings, same key order, same repr as with the name hash.
        assert ledger.warmup_hops(Category.PUSH) == 200
        assert ledger.hops(Category.PUSH) == ledger.total_hops == 1800
        assert list(ledger.breakdown().items()) == [
            ("query", 0),
            ("reply", 0),
            ("push", 1800),
            ("control", 0),
            ("keepalive", 0),
        ]
        assert repr(ledger) == "CostLedger(push=1800)"

    def test_categories_survive_pickling_and_lookup_by_value(self):
        import pickle

        assert pickle.loads(pickle.dumps(Category.PUSH)) is Category.PUSH
        assert Category("control") is Category.CONTROL
        assert {Category.PUSH: 1}[pickle.loads(pickle.dumps(Category.PUSH))] == 1


class TestLatencyRecorder:
    def test_records_and_averages(self):
        recorder = LatencyRecorder(clock=FakeClock())
        recorder.record(0, issued_at=0.0)
        recorder.record(4, issued_at=1.0)
        assert recorder.count == 2
        assert recorder.mean == pytest.approx(2.0)
        assert recorder.hit_rate == pytest.approx(0.5)

    def test_warmup_queries_discarded(self):
        recorder = LatencyRecorder(clock=FakeClock(), warmup=10.0)
        recorder.record(3, issued_at=5.0)
        recorder.record(3, issued_at=15.0)
        assert recorder.count == 1
        assert recorder.warmup_queries == 1

    def test_confidence_interval(self):
        recorder = LatencyRecorder(clock=FakeClock())
        for latency in range(100):
            recorder.record(float(latency), issued_at=1.0)
        ci = recorder.confidence_interval(batches=10)
        assert ci.mean == pytest.approx(49.5)

    def test_ci_requires_samples(self):
        recorder = LatencyRecorder(clock=FakeClock(), keep_samples=False)
        recorder.record(1, issued_at=0.0)
        with pytest.raises(RuntimeError):
            recorder.confidence_interval()

    def test_negative_latency_rejected(self):
        recorder = LatencyRecorder(clock=FakeClock())
        with pytest.raises(ValueError):
            recorder.record(-1, issued_at=0.0)

    def test_in_place_welford_is_running_stat(self):
        # The recorder keeps its own count, mean and maximum: every
        # reading must equal RunningStat's over the same values exactly.
        from repro.stats.running import RunningStat

        recorder = LatencyRecorder(clock=FakeClock())
        assert np.isnan(recorder.mean) and np.isnan(recorder.maximum)
        assert recorder.total_hops == 0.0
        stat = RunningStat()
        values = np.random.default_rng(5).geometric(0.7, 2000) - 1
        for value in values.tolist() + [0.5, 2.25, 0]:
            recorder.record(value, issued_at=1.0)
            stat.add(value)
        assert recorder.count == stat.count
        assert recorder.mean == stat.mean
        assert recorder.maximum == stat.maximum
        assert recorder.total_hops == stat.mean * stat.count


class TestTransport:
    def make_transport(self, env, latency=None):
        ledger = CostLedger(clock=lambda: env.now)
        transport = Transport(
            env=env,
            latency=latency or Deterministic(0.5),
            rng=np.random.default_rng(0),
            ledger=ledger,
        )
        return transport, ledger

    def test_delivers_after_latency(self):
        env = Environment()
        transport, _ = self.make_transport(env)
        delivered = []
        transport.bind(lambda dst, msg: delivered.append((env.now, dst)))
        transport.send(7, QueryMessage(key=1, origin=2))
        env.run()
        assert delivered == [(0.5, 7)]

    def test_charges_category(self):
        env = Environment()
        transport, ledger = self.make_transport(env)
        transport.bind(lambda dst, msg: None)
        transport.send(7, QueryMessage(key=1, origin=2))
        transport.send(7, PushMessage(key=1, version=None, sender=1))
        assert ledger.hops(Category.QUERY) == 1
        assert ledger.hops(Category.PUSH) == 1

    def test_free_hop_not_charged(self):
        env = Environment()
        transport, ledger = self.make_transport(env)
        transport.bind(lambda dst, msg: None)
        transport.send(7, QueryMessage(key=1, origin=2), free=True)
        assert ledger.total_hops == 0

    def test_multi_hop_charge(self):
        env = Environment()
        transport, ledger = self.make_transport(env)
        transport.bind(lambda dst, msg: None)
        message = ControlMessage(key=1, payloads=[Subscribe(1), Subscribe(2)], sender=3)
        transport.send(7, message, hops=2)
        assert ledger.hops(Category.CONTROL) == 2

    def test_unbound_transport_raises(self):
        env = Environment()
        transport, _ = self.make_transport(env)
        with pytest.raises(RuntimeError):
            transport.send(7, QueryMessage(key=1, origin=2))

    def test_exponential_latency_mean(self):
        env = Environment()
        transport, _ = self.make_transport(env, latency=Exponential(0.1))
        arrivals = []
        transport.bind(lambda dst, msg: arrivals.append(env.now))
        for _ in range(5000):
            transport.send(1, QueryMessage(key=1, origin=2))
        env.run()
        assert np.mean(arrivals) == pytest.approx(0.1, rel=0.1)

    def test_drop_counter(self):
        env = Environment()
        transport, _ = self.make_transport(env)
        assert transport.dropped == 0
        transport.drop()
        assert transport.dropped == 1


class TestTransportWarmupGate:
    """The transport charges a measured hop itself once the ledger has
    published its counters; the ledger still decides where the warm-up
    ends.  Both branches of ``send`` (bare, and with an observer) agree."""

    WARMUP = 100.0

    @pytest.fixture(params=[False, True], ids=["bare", "observed"])
    def setup(self, request):
        env = Environment()
        ledger = CostLedger(clock=env.now_getter(), warmup=self.WARMUP)
        charges = []
        charge = ledger.charge

        def counting_charge(category, hops=1):
            charges.append(hops)
            charge(category, hops)

        ledger.charge = counting_charge
        transport = Transport(
            env, Deterministic(0.5), np.random.default_rng(0), ledger
        )
        transport.bind(lambda dst, msg: None)
        if request.param:
            transport.add_observer(lambda event: None)
        return env, transport, ledger, charges

    def test_a_hop_before_the_warmup_ends_is_a_warmup_hop(self, setup):
        env, transport, ledger, charges = setup
        env.run(until=self.WARMUP - 0.5)
        transport.send(7, QueryMessage(key=1, origin=2))
        assert ledger.warmup_hops(Category.QUERY) == 1
        assert ledger.hops(Category.QUERY) == 0
        assert ledger.measured is None
        assert charges == [1]  # the ledger decided

    def test_a_hop_at_the_warmup_boundary_and_after_is_measured(self, setup):
        env, transport, ledger, charges = setup
        transport.send(7, QueryMessage(key=1, origin=2))
        env.run(until=self.WARMUP)
        assert env.now == self.WARMUP
        transport.send(7, QueryMessage(key=1, origin=2))
        transport.send(7, PushMessage(key=1, version=None, sender=1))
        env.run(until=self.WARMUP + 10.0)
        transport.send(7, PushMessage(key=1, version=None, sender=1), hops=2)
        assert ledger.warmup_hops(Category.QUERY) == 1
        assert ledger.hops(Category.QUERY) == 1
        assert ledger.hops(Category.PUSH) == 3
        assert ledger.total_hops == 4
        assert ledger.measured is not None
        # The bare branch charges through the ledger until the first
        # measured hop has opened the gate, and by itself after it.
        assert charges == ([1, 1, 1, 2] if transport.observers else [1, 1])

    def test_a_free_hop_charges_nothing(self, setup):
        env, transport, ledger, charges = setup
        transport.send(7, QueryMessage(key=1, origin=2), free=True)
        env.run(until=self.WARMUP)
        transport.send(7, QueryMessage(key=1, origin=2))  # opens the gate
        transport.send(7, QueryMessage(key=1, origin=2), free=True)
        assert ledger.warmup_hops(Category.QUERY) == 0
        assert ledger.hops(Category.QUERY) == 1

    def test_a_negative_hop_count_is_refused_on_both_sides(self, setup):
        env, transport, ledger, charges = setup
        for until in (1.0, self.WARMUP, self.WARMUP + 1.0):
            env.run(until=until)
            queued = len(env._queue)
            with pytest.raises(ValueError):
                transport.send(7, QueryMessage(key=1, origin=2), hops=-1)
            assert len(env._queue) == queued  # nothing was sent
            transport.send(7, QueryMessage(key=1, origin=2))
        assert ledger.warmup_hops(Category.QUERY) == 1
        assert ledger.hops(Category.QUERY) == 2


class TestLatencyLookAhead:
    """Hop latencies are read ahead in blocks; the sequence must be the
    one-draw-per-hop stream on every branch of ``send``."""

    SENDS = 2500  # crosses two refills, ends mid-block

    def delays(self, attach=None, plan=None):
        """Per-send delays of ``SENDS`` hops issued at t=0 (``None`` for
        a dropped hop); ``attach(index, transport)`` runs before each."""
        env = Environment()
        transport = Transport(
            env=env,
            latency=Exponential(0.1),
            rng=np.random.default_rng(3),
            ledger=CostLedger(clock=lambda: env.now),
        )
        if plan is not None:
            transport.use_injector(
                FaultInjector(plan, RandomStreams(5), clock=lambda: env.now)
            )
        delivered = {}
        transport.bind(
            lambda dst, msg: delivered.setdefault(msg.origin, env.now)
        )
        for index in range(self.SENDS):
            if attach is not None:
                attach(index, transport)
            transport.send(1, QueryMessage(key=1, origin=index))
        env.run()
        return [delivered.get(index) for index in range(self.SENDS)]

    def scalar_stream(self):
        generator = np.random.default_rng(3)
        latency = Exponential(0.1)
        return [latency.sample(generator) for _ in range(self.SENDS)]

    def test_fast_path_is_the_scalar_stream(self):
        assert self.delays() == self.scalar_stream()

    def test_observer_and_injector_take_the_same_delays(self):
        def observe_from_start(index, transport):
            if index == 0:
                transport.add_observer(lambda event: None)

        bare = self.delays()
        observed = self.delays(attach=observe_from_start)
        injected = self.delays(plan=FaultPlan())
        assert observed == bare
        assert injected == bare

    def test_attaching_mid_run_keeps_the_sequence(self):
        seen = []

        def attach(index, transport):
            if index == 700:  # mid-block: buffered draws stay in order
                transport.add_observer(seen.append)
            elif index == 1500:
                transport.use_injector(
                    FaultInjector(
                        FaultPlan(), RandomStreams(5), clock=lambda: 0.0
                    )
                )
            elif index == 2100:
                transport.remove_observer(seen.append)
                transport.use_injector(None)

        assert self.delays(attach=attach) == self.delays()
        assert sum(event.kind == "send" for event in seen) == 1400

    def test_dropped_hops_take_no_latency(self):
        delays = self.delays(plan=FaultPlan(loss_rate=0.3))
        delivered = [delay for delay in delays if delay is not None]
        assert 0 < len(delivered) < self.SENDS
        assert delivered == self.scalar_stream()[: len(delivered)]


class TestVersionedDelivery:
    def test_push_carries_version(self):
        env = Environment()
        ledger = CostLedger(clock=lambda: env.now)
        transport = Transport(env, Deterministic(0.1), np.random.default_rng(0), ledger)
        got = []
        transport.bind(lambda dst, msg: got.append(msg.version))
        version = IndexVersion(key=1, version=3, issued_at=0.0, ttl=60.0)
        transport.send(5, PushMessage(key=1, version=version, sender=0))
        env.run()
        assert got[0].version == 3
