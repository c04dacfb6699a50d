"""Unit and metamorphic tests for the interest measurement policies."""

import copy
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.interest_model import predicted_dup_relative_push_cost
from repro.core.interest import (
    AdaptiveInterestPolicy,
    EwmaInterestPolicy,
    PolicyTable,
    WindowInterestPolicy,
    WindowInterestTable,
)
from repro.errors import ConfigError


class TestWindowPolicy:
    def test_threshold_is_strict(self):
        # "greater than a threshold value c" — exactly c is not enough.
        policy = WindowInterestPolicy(window=100.0, threshold=3)
        for t in (1.0, 2.0, 3.0):
            policy.record(t)
        assert not policy.is_interested(4.0)
        policy.record(4.0)
        assert policy.is_interested(5.0)

    def test_window_expiry(self):
        policy = WindowInterestPolicy(window=10.0, threshold=1)
        policy.record(0.0)
        policy.record(1.0)
        assert policy.is_interested(5.0)
        # At t=10.5 the arrival at t=0 left the window; count drops to 1.
        assert not policy.is_interested(10.5)
        assert policy.count(10.5) == 1
        # At t=11.5 both arrivals are gone.
        assert policy.count(11.5) == 0

    def test_boundary_is_half_open(self):
        policy = WindowInterestPolicy(window=10.0, threshold=0)
        policy.record(0.0)
        assert policy.count(10.0) == 0  # arrival exactly window-old: gone
        policy2 = WindowInterestPolicy(window=10.0, threshold=0)
        policy2.record(0.1)
        assert policy2.count(10.0) == 1

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            WindowInterestPolicy(window=0.0, threshold=1)
        with pytest.raises(ConfigError):
            WindowInterestPolicy(window=10.0, threshold=-1)

    def test_zero_threshold(self):
        policy = WindowInterestPolicy(window=10.0, threshold=0)
        assert not policy.is_interested(0.0)
        policy.record(0.0)
        assert policy.is_interested(1.0)


class TestEwmaPolicy:
    def test_burst_triggers_interest(self):
        policy = EwmaInterestPolicy(window=3600.0, threshold=6)
        for t in range(10):
            policy.record(float(t))
        assert policy.is_interested(10.0)

    def test_decay_removes_interest(self):
        policy = EwmaInterestPolicy(
            window=3600.0, threshold=6, half_life=600.0
        )
        for t in range(10):
            policy.record(float(t))
        assert policy.is_interested(10.0)
        # Many half-lives later the estimate has collapsed.
        assert not policy.is_interested(10.0 + 20 * 600.0)

    def test_faster_half_life_reacts_faster_to_bursts(self):
        # The EWMA attributes a burst to roughly its half-life window, so
        # a short half-life sees a small burst as a high rate while a
        # long one dilutes it below the threshold.
        slow = EwmaInterestPolicy(3600.0, 6, half_life=3600.0)
        fast = EwmaInterestPolicy(3600.0, 6, half_life=300.0)
        for t in range(4):
            slow.record(float(t))
            fast.record(float(t))
        assert fast.is_interested(5.0)
        assert not slow.is_interested(5.0)
        # ...and it also forgets the burst within a few half-lives.
        assert not fast.is_interested(5.0 + 10 * 300.0)

    def test_sustained_rate_above_threshold(self):
        # ~12 arrivals per window with threshold 6: steadily interested.
        policy = EwmaInterestPolicy(window=3600.0, threshold=6)
        t = 0.0
        for _ in range(50):
            t += 300.0
            policy.record(t)
        assert policy.is_interested(t + 1.0)

    def test_sustained_rate_below_threshold(self):
        # ~2 arrivals per window with threshold 6: never interested.
        policy = EwmaInterestPolicy(window=3600.0, threshold=6)
        t = 0.0
        for _ in range(50):
            t += 1800.0
            policy.record(t)
        assert not policy.is_interested(t + 1.0)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            EwmaInterestPolicy(window=0.0, threshold=1)
        with pytest.raises(ConfigError):
            EwmaInterestPolicy(window=10.0, threshold=-1)
        with pytest.raises(ConfigError):
            EwmaInterestPolicy(window=10.0, threshold=1, half_life=0.0)

    def test_time_never_runs_backwards_internally(self):
        policy = EwmaInterestPolicy(window=100.0, threshold=1)
        policy.record(10.0)
        # Probing the past must not corrupt the estimate.
        policy.is_interested(5.0)
        policy.record(11.0)
        assert policy.is_interested(11.5)


#: Interleavings of arrivals and probes as (op, gap) steps.  Gaps are
#: quarter-unit multiples so that scaling by a power of two stays exact
#: in binary floating point — the window-boundary comparison is half-open
#: and must not flip from rounding.
_history = st.lists(
    st.tuples(st.sampled_from(("record", "probe")), st.integers(0, 80)),
    min_size=1,
    max_size=60,
)


class TestWindowMetamorphic:
    """Satellite: metamorphic properties of WindowInterestPolicy."""

    @given(_history, st.sampled_from((0.25, 0.5, 2.0, 4.0)), st.integers(0, 5))
    @settings(max_examples=200, deadline=None)
    def test_timestamp_scaling_invariance(self, steps, k, threshold):
        # Scaling every timestamp AND the window by the same factor must
        # leave every interest decision unchanged: the policy measures a
        # pure count over a relative interval, not absolute time.
        base = WindowInterestPolicy(window=16.0, threshold=threshold)
        scaled = WindowInterestPolicy(window=16.0 * k, threshold=threshold)
        t = 0.0
        for op, gap in steps:
            t += gap * 0.25
            if op == "record":
                base.record(t)
                scaled.record(t * k)
            else:
                assert base.is_interested(t) == scaled.is_interested(t * k)
        assert base.count(t) == scaled.count(t * k)


class TestAdaptivePolicy:
    """Unit behaviour of the self-tuning threshold."""

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            AdaptiveInterestPolicy(window=0.0, floor=1, ceiling=2)
        with pytest.raises(ConfigError):
            AdaptiveInterestPolicy(window=10.0, floor=-1, ceiling=2)
        with pytest.raises(ConfigError):
            AdaptiveInterestPolicy(window=10.0, floor=3, ceiling=2)
        with pytest.raises(ConfigError):
            AdaptiveInterestPolicy(window=10.0, floor=1, ceiling=2, gain=-0.1)
        with pytest.raises(ConfigError):
            AdaptiveInterestPolicy(
                window=10.0, floor=1, ceiling=2, smoothing=0.0
            )

    def test_constant_rate_settles_threshold(self):
        # 8 arrivals per epoch, gain 0.5: the smoothed rate converges to
        # 8 and the threshold settles at round(0.5 * 8) = 4.
        policy = AdaptiveInterestPolicy(
            window=100.0, floor=0, ceiling=50, gain=0.5
        )
        for epoch in range(30):
            for j in range(8):
                policy.record(epoch * 100.0 + 5.0 + j * 10.0)
        policy.is_interested(30 * 100.0)
        assert policy.rate_estimate == pytest.approx(8.0, abs=1e-6)
        assert policy.threshold == 4

    def test_idle_decay_returns_threshold_to_floor(self):
        policy = AdaptiveInterestPolicy(
            window=100.0, floor=2, ceiling=50, gain=1.0
        )
        for epoch in range(10):
            for j in range(10):
                policy.record(epoch * 100.0 + 5.0 + j * 9.0)
        policy.is_interested(10 * 100.0)
        assert policy.threshold > 2
        # A long idle stretch folds in as zero-count epochs; the rate
        # estimate collapses and the threshold falls back to the floor.
        assert not policy.is_interested(10 * 100.0 + 40 * 100.0)
        assert policy.threshold == 2

    def test_probing_the_past_does_not_corrupt_state(self):
        policy = AdaptiveInterestPolicy(window=100.0, floor=0, ceiling=10)
        policy.record(150.0)
        policy.is_interested(50.0)
        policy.record(160.0)
        assert policy.count(170.0) == 2


class TestAdaptiveMetamorphic:
    """Satellite: metamorphic properties of AdaptiveInterestPolicy."""

    @given(
        st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, 12)),
            min_size=1,
            max_size=20,
        ),
        st.integers(0, 3),
        st.integers(5, 12),
        st.sampled_from((0.25, 0.5, 1.0)),
    )
    @settings(max_examples=200, deadline=None)
    def test_threshold_monotone_in_observed_rate(
        self, epochs, floor, ceiling, gain
    ):
        # Pointwise-greater per-epoch arrival counts can never produce a
        # *smaller* threshold: the smoothed rate is a positive-weighted
        # sum of epoch counts and clamp(round(gain * rate)) is monotone.
        window = 10.0
        hi = AdaptiveInterestPolicy(window, floor, ceiling, gain)
        lo = AdaptiveInterestPolicy(window, floor, ceiling, gain)
        for index, (a, b) in enumerate(epochs):
            lo_count, hi_count = min(a, b), max(a, b)
            start = index * window
            for j in range(hi_count):
                t = start + (j + 1) * window / (hi_count + 1)
                hi.record(t)
                if j < lo_count:
                    lo.record(t)
            close = (index + 1) * window
            hi.is_interested(close)
            lo.is_interested(close)
            assert hi.threshold >= lo.threshold
            assert hi.rate_estimate >= lo.rate_estimate

    @given(_history, st.integers(0, 6))
    @settings(max_examples=200, deadline=None)
    def test_frozen_bounds_match_window_policy(self, steps, c):
        # floor == ceiling == c pins the threshold: every decision must
        # match the static policy exactly (the unit-level face of the
        # simulation-level equivalence in test_differential.py).
        frozen = AdaptiveInterestPolicy(window=25.0, floor=c, ceiling=c)
        static = WindowInterestPolicy(window=25.0, threshold=c)
        t = 0.0
        for op, gap in steps:
            t += gap * 0.25
            if op == "record":
                frozen.record(t)
                static.record(t)
            else:
                assert frozen.is_interested(t) == static.is_interested(t)
        assert frozen.threshold == c
        assert frozen.count(t) == static.count(t)

    @given(_history, st.sampled_from((0.25, 0.5, 2.0, 4.0)))
    @settings(max_examples=200, deadline=None)
    def test_timestamp_scaling_invariance(self, steps, k):
        # Epochs scale with the window, so the whole estimator — not
        # just the decision rule — is invariant under time rescaling.
        base = AdaptiveInterestPolicy(16.0, floor=1, ceiling=8, gain=0.5)
        scaled = AdaptiveInterestPolicy(
            16.0 * k, floor=1, ceiling=8, gain=0.5
        )
        t = 0.0
        for op, gap in steps:
            t += gap * 0.25
            if op == "record":
                base.record(t)
                scaled.record(t * k)
            else:
                assert base.is_interested(t) == scaled.is_interested(t * k)
        assert base.threshold == scaled.threshold
        assert base.rate_estimate == pytest.approx(scaled.rate_estimate)

    @given(_history, st.integers(0, 4), st.integers(4, 9))
    @settings(max_examples=200, deadline=None)
    def test_threshold_always_within_bounds(self, steps, floor, ceiling):
        policy = AdaptiveInterestPolicy(
            window=16.0, floor=floor, ceiling=ceiling, gain=2.0
        )
        t = 0.0
        for op, gap in steps:
            t += gap * 0.25
            if op == "record":
                policy.record(t)
            else:
                policy.is_interested(t)
            assert floor <= policy.threshold <= ceiling


class TestArrive:
    """``arrive(now)`` is ``record(now)`` then ``is_interested(now)``:
    the same decisions and the same state, bit for bit, on every
    policy (the DUP arrival hook calls it once per non-root arrival)."""

    POLICIES = {
        "window": lambda: WindowInterestPolicy(window=16.0, threshold=2),
        "ewma": lambda: EwmaInterestPolicy(window=16.0, threshold=2),
        "adaptive": lambda: AdaptiveInterestPolicy(
            window=16.0, floor=0, ceiling=5, gain=2.0
        ),
    }

    @pytest.mark.parametrize("kind", sorted(POLICIES))
    @given(steps=_history)
    @settings(max_examples=100, deadline=None)
    def test_arrive_is_record_then_probe(self, kind, steps):
        fused, split = self.POLICIES[kind](), self.POLICIES[kind]()
        t = 0.0
        for op, gap in steps:
            t += gap * 0.25
            if op == "record":
                split.record(t)
                assert fused.arrive(t) == split.is_interested(t)
            else:
                assert fused.is_interested(t) == split.is_interested(t)
            assert repr(fused) == repr(split)
        slots = type(fused).__slots__
        assert [getattr(fused, n) for n in slots] == [
            getattr(split, n) for n in slots
        ]


_table_steps = st.lists(
    st.tuples(
        st.sampled_from(
            ("arrive", "record", "probe", "forget", "snapshot", "restore")
        ),
        st.integers(0, 3),
        st.integers(0, 40),
    ),
    min_size=1,
    max_size=80,
)


class TestInterestTables:
    """A table decides exactly as one policy object per node would, on
    every node, through forgets (a freed slot is reused) and crash-
    restart snapshots."""

    @pytest.mark.parametrize("threshold", [0, 1, 3])
    @given(steps=_table_steps)
    @settings(max_examples=100, deadline=None)
    def test_window_table_matches_one_policy_per_node(self, threshold, steps):
        self._replay(
            WindowInterestTable(16.0, threshold),
            partial(WindowInterestPolicy, 16.0, threshold),
            steps,
        )

    @given(steps=_table_steps)
    @settings(max_examples=100, deadline=None)
    def test_policy_table_matches_one_policy_per_node(self, steps):
        new = partial(AdaptiveInterestPolicy, 16.0, 0, 4, 1.0)
        self._replay(PolicyTable(new), new, steps)

    def test_a_reused_slot_starts_blank(self):
        table = WindowInterestTable(16.0, 1)
        assert not table.arrive(1, 0.0) and table.arrive(1, 1.0)
        table.forget(1)
        # Node 2 takes node 1's slot and none of its arrivals.
        assert not table.arrive(2, 2.0)
        assert not table.is_interested(1, 2.0)
        assert list(table) == [2]

    def test_snapshot_survives_a_forget(self):
        table = WindowInterestTable(16.0, 2)
        for t in (0.0, 1.0, 2.0, 3.0):  # the head has wrapped once
            table.record(7, t)
        saved = table.snapshot(7)
        table.forget(7)
        table.record(8, 4.0)  # node 8 now holds node 7's old slot
        table.restore(7, saved)
        twin = WindowInterestPolicy(16.0, 2)
        for t in (0.0, 1.0, 2.0, 3.0):
            twin.record(t)
        # The oldest kept arrival (1.0) leaves the window between 17.0
        # and 18.0: a ring restored with the wrong head reads 2.0 or 3.0.
        for t in (17.5, 18.5, 30.0, 31.0):
            assert table.arrive(7, t) == twin.arrive(t)
        assert table.snapshot(9) is None

    @staticmethod
    def _replay(table, new, steps):
        policies, saved, reference_saved = {}, {}, {}
        t = 0.0
        for op, node, gap in steps:
            t += gap * 0.25
            if op in ("arrive", "record"):
                policy = policies.get(node)
                if policy is None:
                    policy = policies[node] = new()
                if op == "arrive":
                    assert table.arrive(node, t) == policy.arrive(t)
                else:
                    table.record(node, t)
                    policy.record(t)
            elif op == "forget":
                table.forget(node)
                policies.pop(node, None)
            elif op == "snapshot":
                saved[node] = copy.deepcopy(table.snapshot(node))
                reference_saved[node] = copy.deepcopy(policies.get(node))
            elif op == "restore" and node in saved:
                table.restore(node, copy.deepcopy(saved[node]))
                if reference_saved[node] is not None:
                    policies[node] = copy.deepcopy(reference_saved[node])
            for other in range(4):
                policy = policies.get(other)
                expected = policy is not None and policy.is_interested(t)
                assert table.is_interested(other, t) == expected
            assert list(table) == list(policies)
            assert len(table) == len(policies)


class TestEnvelopeHelper:
    def test_figure2_depth_four(self):
        # Depth 4 gives 1.5/(2*4) = 18.75%; the paper's single-subscriber
        # example (no junctions) reaches 12.5%.
        ratio = predicted_dup_relative_push_cost(
            interested=100, mean_depth=4.0
        )
        assert ratio == pytest.approx(0.1875)

    def test_degenerate_inputs(self):
        import math

        assert math.isnan(predicted_dup_relative_push_cost(0, 4.0))
        assert math.isnan(predicted_dup_relative_push_cost(10, 0.0))
