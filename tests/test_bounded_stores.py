"""The two bounded stores against the unbounded ones they replaced.

The interest policies keep a ring of the ``c + 1`` (adaptive: ``ceiling
+ 1``) most recent arrival times; the latency recorder keeps its samples
in a byte array that widens only when a value does not fit.  Each is
checked here against a test-local copy of the old store — a ``deque`` of
every arrival in the window, a ``list`` of every sample sorted per
percentile — and fenced on memory with ``tracemalloc`` (no clock).
"""

from __future__ import annotations

import math
import tracemalloc
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.schemes.base as scheme_base
from repro.core.interest import (
    AdaptiveInterestPolicy,
    AdaptivePlan,
    PolicyTable,
    WindowInterestPolicy,
    WindowInterestTable,
)
from repro.engine.config import SimulationConfig
from repro.engine.simulation import Simulation
from repro.metrics.latency import LatencyRecorder
from repro.stats.confidence import (
    ConfidenceInterval,
    batch_means_interval,
    mean_confidence_interval,
)
from repro.stats.running import percentile, percentile_of_counts


# ---------------------------------------------------------------------------
# oracles: the unbounded stores, as they were
# ---------------------------------------------------------------------------


class DequeWindowPolicy:
    """Every arrival in the window, pruned on each call."""

    def __init__(self, window: float, threshold: int):
        self._window = float(window)
        self._threshold = int(threshold)
        self._arrivals: deque[float] = deque()

    def record(self, now: float) -> None:
        self._prune(now)
        self._arrivals.append(now)

    def is_interested(self, now: float) -> bool:
        self._prune(now)
        return len(self._arrivals) > self._threshold

    def count(self, now: float) -> int:
        self._prune(now)
        return len(self._arrivals)

    def _prune(self, now: float) -> None:
        horizon = now - self._window
        arrivals = self._arrivals
        while arrivals and arrivals[0] <= horizon:
            arrivals.popleft()


class DequeAdaptivePolicy(DequeWindowPolicy):
    """The adaptive policy's epoch estimator over the unbounded deque."""

    def __init__(self, window, floor, ceiling, gain=0.5, smoothing=0.5):
        super().__init__(window, floor)
        self._floor = floor
        self._ceiling = ceiling
        self._gain = gain
        self._smoothing = smoothing
        self._epoch_start = 0.0
        self._epoch_count = 0
        self._rate = 0.0
        self._threshold = self._clamp(0.0)

    def record(self, now: float) -> None:
        self._advance(now)
        super().record(now)
        self._epoch_count += 1

    def is_interested(self, now: float) -> bool:
        self._advance(now)
        return super().is_interested(now)

    def _advance(self, now: float) -> None:
        while now - self._epoch_start >= self._window:
            self._rate = (
                1.0 - self._smoothing
            ) * self._rate + self._smoothing * self._epoch_count
            self._epoch_count = 0
            self._epoch_start += self._window
            self._threshold = self._clamp(self._gain * self._rate)

    def _clamp(self, raw: float) -> int:
        return max(self._floor, min(self._ceiling, int(round(raw))))


def sorted_percentile(values, q: float) -> float:
    """The percentile estimator as it was: interpolate a sorted copy."""
    if not values:
        return math.nan
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * (q / 100.0)
    lower = math.floor(rank)
    upper = math.ceil(rank)
    if lower == upper:
        return float(ordered[int(rank)])
    fraction = rank - lower
    return float(ordered[lower] * (1 - fraction) + ordered[upper] * fraction)


class ListRecorder:
    """Every sample in a list; the CI and percentiles as they were."""

    def __init__(self):
        self.samples: list = []

    def record(self, latency_hops) -> None:
        self.samples.append(latency_hops)

    def confidence_interval(self, batches: int = 20) -> ConfidenceInterval:
        observations = [float(x) for x in self.samples]
        batch_size = len(observations) // batches
        if batch_size == 0:
            return mean_confidence_interval(observations)
        means = []
        for index in range(batches):
            chunk = observations[index * batch_size : (index + 1) * batch_size]
            means.append(sum(chunk) / batch_size)
        return mean_confidence_interval(means)

    def percentile(self, q: float) -> float:
        return sorted_percentile(self.samples, q)


# ---------------------------------------------------------------------------
# interest rings
# ---------------------------------------------------------------------------

#: (op, gap) steps on a quarter-unit grid with an 8-unit window: gaps of
#: 0 make ties, and gap sums of 32 quarters land arrivals exactly one
#: window old — the half-open boundary.
_steps = st.lists(
    st.tuples(st.sampled_from(("record", "probe")), st.integers(0, 40)),
    min_size=1,
    max_size=80,
)
WINDOW = 8.0


def _replay(ring, oracle, steps):
    t = 0.0
    for op, gap in steps:
        t += gap * 0.25
        if op == "record":
            ring.record(t)
            oracle.record(t)
        else:
            assert ring.is_interested(t) == oracle.is_interested(t)
        assert (ring.count(t) == 0) == (oracle.count(t) == 0)
    return t


class TestWindowRing:
    @given(_steps, st.integers(0, 8))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_unbounded_deque(self, steps, threshold):
        ring = WindowInterestPolicy(WINDOW, threshold)
        oracle = DequeWindowPolicy(WINDOW, threshold)
        t = _replay(ring, oracle, steps)
        assert ring.count(t) == min(oracle.count(t), threshold + 1)

    def test_arrival_exactly_one_window_old_is_out(self):
        ring = WindowInterestPolicy(10.0, 1)
        ring.record(0.0)
        ring.record(0.0)
        assert ring.is_interested(9.75)
        assert not ring.is_interested(10.0)
        assert ring.count(10.0) == 0

    def test_probing_a_past_time_leaves_the_ring_unchanged(self):
        ring = WindowInterestPolicy(100.0, 2)
        twin = WindowInterestPolicy(100.0, 2)
        for t in (150.0, 160.0, 170.0):
            ring.record(t)
            twin.record(t)
        state = (list(ring._recent), ring._next)
        assert ring.is_interested(50.0)
        assert ring.count(-500.0) == 3
        assert (list(ring._recent), ring._next) == state
        ring.record(180.0)
        twin.record(180.0)
        for t in (200.0, 255.0, 265.0, 275.0):
            assert ring.is_interested(t) == twin.is_interested(t)
            assert ring.count(t) == twin.count(t)

    def test_repr_names_the_kept_arrivals(self):
        ring = WindowInterestPolicy(10.0, 2)
        assert repr(ring).endswith("kept=0)")
        for t in range(5):
            ring.record(float(t))
        assert repr(ring) == (
            "WindowInterestPolicy(window=10.0, threshold=2, kept=3)"
        )


class TestAdaptiveRing:
    @given(
        _steps,
        st.integers(0, 4),
        st.integers(0, 4),
        st.sampled_from((0.25, 0.5, 1.0, 2.0)),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_unbounded_deque(self, steps, floor, span, gain):
        ceiling = floor + span
        ring = AdaptiveInterestPolicy(WINDOW, floor, ceiling, gain)
        oracle = DequeAdaptivePolicy(WINDOW, floor, ceiling, gain)
        t = 0.0
        for op, gap in steps:
            t += gap * 0.25
            if op == "record":
                ring.record(t)
                oracle.record(t)
            else:
                assert ring.is_interested(t) == oracle.is_interested(t)
            assert ring.threshold == oracle._threshold
            assert ring.rate_estimate == oracle._rate
            assert (ring.count(t) == 0) == (oracle.count(t) == 0)
        assert ring.count(t) == min(oracle.count(t), ceiling + 1)

    def test_probing_a_past_time_leaves_the_ring_unchanged(self):
        ring = AdaptiveInterestPolicy(100.0, floor=1, ceiling=3)
        for t in (150.0, 160.0, 170.0):
            ring.record(t)
        state = (list(ring._recent), ring._next, ring.threshold)
        assert ring.is_interested(50.0)
        assert (list(ring._recent), ring._next, ring.threshold) == state


class TestTrackerConstruction:
    """The interest-table dispatch runs once per scheme, not per node."""

    def _run(self, monkeypatch, scheme, **config):
        calls = []
        factory = scheme_base.interest_table

        def counted(*args):
            calls.append(args)
            return factory(*args)

        monkeypatch.setattr(scheme_base, "interest_table", counted)
        sim = Simulation(
            SimulationConfig(
                scheme=scheme,
                num_nodes=64,
                query_rate=2.0,
                duration=2000.0,
                warmup=200.0,
                **config,
            )
        )
        sim.run()
        return sim.scheme, calls

    def test_one_dispatch_for_many_trackers(self, monkeypatch):
        scheme, calls = self._run(monkeypatch, "dup")
        assert len(scheme.interest()) > 10
        assert len(calls) == 1
        assert type(scheme.interest()) is WindowInterestTable

    def test_the_scheme_override_still_wins(self, monkeypatch):
        scheme, calls = self._run(
            monkeypatch, "dup-adaptive", interest_policy="window"
        )
        assert [override for _, override in calls] == [AdaptivePlan()]
        table = scheme.interest()
        assert type(table) is PolicyTable and len(table) > 0
        assert all(
            type(table.snapshot(node)) is AdaptiveInterestPolicy
            for node in table
        )

    def test_a_scheme_without_trackers_never_dispatches(self, monkeypatch):
        scheme, calls = self._run(monkeypatch, "pcx")
        assert calls == [] and scheme._interest is None


# ---------------------------------------------------------------------------
# latency samples
# ---------------------------------------------------------------------------

QUANTILES = (0, 50, 95, 99, 100)


def _hex(value: float) -> str:
    return float(value).hex()


def _assert_same(recorder: LatencyRecorder, oracle: ListRecorder) -> None:
    assert recorder.samples == tuple(oracle.samples)
    for batches in (2, 20):
        got = recorder.confidence_interval(batches=batches)
        want = oracle.confidence_interval(batches=batches)
        assert _hex(got.mean) == _hex(want.mean)
        assert _hex(got.half_width) == _hex(want.half_width)
        assert (got.confidence, got.count) == (want.confidence, want.count)
    for q in QUANTILES:
        assert _hex(recorder.percentile(q)) == _hex(oracle.percentile(q))


def _both(values):
    recorder = LatencyRecorder(clock=lambda: 0.0)
    oracle = ListRecorder()
    for value in values:
        recorder.record(value, issued_at=0.0)
        oracle.record(value)
    return recorder, oracle


class TestLatencySamples:
    def test_empty(self):
        recorder, oracle = _both([])
        _assert_same(recorder, oracle)
        assert math.isnan(recorder.percentile(50))

    def test_one_sample(self):
        recorder, oracle = _both([3])
        _assert_same(recorder, oracle)
        assert recorder.percentile(99) == 3.0

    @given(st.lists(st.integers(0, 12), max_size=400))
    @settings(max_examples=200, deadline=None)
    def test_hop_counts_match_the_list(self, values):
        _assert_same(*_both(values))

    @given(
        st.lists(
            st.one_of(
                st.integers(0, 70_000),
                st.floats(0, 1e6, allow_nan=False, allow_infinity=False),
            ),
            max_size=200,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_any_latency_matches_the_list(self, values):
        _assert_same(*_both(values))

    def test_promotion_with_300_then_2_5(self):
        values = [0, 1, 255, 0, 2]
        recorder, oracle = _both(values)
        assert recorder._samples.typecode == "B"
        for value in (300, 4, 2.5, 7):
            recorder.record(value, issued_at=0.0)
            oracle.record(value)
            _assert_same(recorder, oracle)
        assert recorder._samples.typecode == "d"

    def test_percentiles_follow_new_samples(self):
        recorder, oracle = _both([5, 5, 5])
        assert recorder.percentile(50) == 5.0
        for value in (0, 0, 0, 0):
            recorder.record(value, issued_at=0.0)
            oracle.record(value)
        _assert_same(recorder, oracle)
        assert recorder.percentile(50) == 0.0

    def test_batch_means_reads_an_array_like_its_floats(self):
        recorder, _ = _both([i % 9 for i in range(1013)])
        floats = [float(x) for x in recorder.samples]
        got = batch_means_interval(recorder._samples)
        want = batch_means_interval(floats)
        assert (_hex(got.mean), _hex(got.half_width)) == (
            _hex(want.mean),
            _hex(want.half_width),
        )

    def test_percentile_of_counts_errors(self):
        with pytest.raises(ValueError):
            percentile_of_counts([(1, 1)], 101)
        assert math.isnan(percentile_of_counts([], 50))

    @given(
        st.lists(st.floats(0, 1e6, allow_nan=False), max_size=60),
        st.floats(0, 100),
    )
    @settings(max_examples=200, deadline=None)
    def test_shared_interpolation_matches_the_sorted_copy(self, values, q):
        assert _hex(percentile(values, q)) == _hex(
            sorted_percentile(values, q)
        )


# ---------------------------------------------------------------------------
# memory fences (bytes, never seconds)
# ---------------------------------------------------------------------------


def _traced(fn):
    """(bytes still allocated, peak bytes) while ``fn`` runs."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        keep = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del keep
    return current - before, peak - before


class TestMemoryFences:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: WindowInterestPolicy(3600.0, 6),
            lambda: AdaptiveInterestPolicy(3600.0, floor=2, ceiling=10),
        ],
        ids=["window", "adaptive"],
    )
    def test_policy_does_not_grow_with_arrivals(self, make):
        policy = make()
        t = 0.0
        for _ in range(50):
            t += 0.01
            policy.record(t)

        def arrivals():
            now = t
            for _ in range(10_000):  # all inside the 3600 s window
                now += 0.01
                policy.record(now)
                policy.is_interested(now)
            return None

        grown, _ = _traced(arrivals)
        assert policy.count(t + 100.0) > 0
        assert grown < 1024

    def test_million_samples_and_their_summary_under_3_mb(self):
        def run():
            recorder = LatencyRecorder(clock=lambda: 0.0)
            record = recorder.record
            for i in range(1_000_000):
                record(i % 7, 0.0)
            ci = recorder.confidence_interval()
            tails = recorder.percentiles()
            return recorder, ci, tails

        _, peak = _traced(run)
        assert peak < 3 * 1024 * 1024
