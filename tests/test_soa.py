"""Tests for the scale tier's flat and lazy structures.

Covers the expiry wheel's lazy-invalidation contract
(``repro.core.soa``), the vectorized lease/cache sweeps against their
per-item counterparts, and the conditional Zipf slices against the
global law.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.leases import LeaseTable
from repro.core.soa import ExpiryWheel
from repro.errors import WorkloadError
from repro.index.cache import IndexCache
from repro.index.entry import IndexVersion
from repro.stats.distributions import ZipfSlice, shared_zipf


class TestExpiryWheel:
    def test_pop_due_returns_and_compacts(self):
        wheel = ExpiryWheel()
        wheel.push(10.0, 1, 100)
        wheel.push(5.0, 2, 200)
        wheel.push(20.0, 3, 300)
        assert wheel.next_deadline() == 5.0
        due = wheel.pop_due(10.0)
        assert sorted(due) == [(1, 100), (2, 200)]
        assert len(wheel) == 1
        assert wheel.next_deadline() == 20.0

    def test_records_are_hints_renewals_just_push(self):
        # Lazy invalidation: a renewed entry keeps its old record; the
        # consumer revalidates on pop, so duplicates are fine.
        wheel = ExpiryWheel()
        wheel.push(5.0, 7, 0)
        wheel.push(9.0, 7, 0)  # renewal pushes a second hint
        assert len(wheel) == 2
        assert [pair for pair in wheel.pop_due(6.0)] == [(7, 0)]
        assert [pair for pair in wheel.pop_due(10.0)] == [(7, 0)]
        assert len(wheel) == 0

    def test_empty_wheel(self):
        wheel = ExpiryWheel()
        assert wheel.pop_due(1e9) == []
        assert wheel.next_deadline() == float("inf")

    def test_growth(self):
        wheel = ExpiryWheel(capacity=2)
        for i in range(100):
            wheel.push(float(i), i, i)
        assert len(wheel) == 100
        assert wheel.pop_due(49.0) == [(i, i) for i in range(50)]


class TestVectorizedSweeps:
    def test_lease_sweep_equals_per_holder_expired(self):
        clock = [0.0]
        table = LeaseTable(ttl=10.0, clock=lambda: clock[0])
        rng = np.random.default_rng(5)
        for holder in range(8):
            for entry in range(int(rng.integers(1, 6))):
                clock[0] = float(rng.uniform(0.0, 20.0))
                table.touch(holder, entry)
        now = 18.0
        swept = set(table.sweep(now))
        per_holder = {
            (holder, entry)
            for holder in range(8)
            for entry in table.expired(holder, now)
        }
        assert swept == per_holder

    def _version(self, key, ttl=10.0, issued=0.0):
        return IndexVersion(key=key, version=1, issued_at=issued, ttl=ttl)

    @pytest.mark.parametrize("population", [6, 64])
    def test_cache_sweep_evicts_exactly_the_expired(self, population):
        cache = IndexCache()
        for key in range(population):
            ttl = 5.0 if key % 2 else 50.0
            cache.put(self._version(key, ttl=ttl), now=0.0)
        evicted = cache.sweep(now=10.0)
        assert evicted == population // 2
        for key in range(population):
            if key % 2:
                assert cache.peek(key) is None
            else:
                assert cache.get(key, now=10.0) is not None
        assert cache.stats.evictions == population // 2

    def test_cache_sweep_on_empty_cache(self):
        assert IndexCache().sweep(now=1.0) == 0


class TestZipfSlices:
    def test_slices_partition_the_global_law(self):
        parent = shared_zipf(100, 0.8)
        slices = [ZipfSlice(parent, lo, hi) for lo, hi in
                  [(0, 25), (25, 50), (50, 100)]]
        assert sum(s.mass for s in slices) == pytest.approx(1.0)
        # Conditional probabilities recompose the global law exactly.
        for s in slices:
            for rank in range(s.lo, s.hi):
                conditional = parent.probability(rank) / s.mass
                assert conditional > 0
        assert slices[0].mass > slices[2].mass  # hot head outweighs tail

    def test_samples_stay_in_range_and_follow_the_law(self):
        parent = shared_zipf(64, 0.9)
        slice_ = ZipfSlice(parent, 8, 24)
        rng = np.random.default_rng(11)
        draws = np.array([slice_.sample(rng) for _ in range(4000)])
        assert draws.min() >= 8 and draws.max() < 24
        # Rank 8 is the hottest in the slice; it must dominate rank 23.
        assert (draws == 8).sum() > (draws == 23).sum() * 1.5

    def test_shared_zipf_is_memoized(self):
        assert shared_zipf(32, 0.8) is shared_zipf(32, 0.8)
        assert shared_zipf(32, 0.8) is not shared_zipf(32, 0.9)

    def test_slice_bounds_validated(self):
        parent = shared_zipf(10, 0.5)
        with pytest.raises(WorkloadError):
            ZipfSlice(parent, 5, 5)
        with pytest.raises(WorkloadError):
            ZipfSlice(parent, -1, 5)
        with pytest.raises(WorkloadError):
            ZipfSlice(parent, 0, 11)
