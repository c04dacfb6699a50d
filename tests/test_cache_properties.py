"""Model-based property tests for the TTL index cache.

Hypothesis drives random interleavings of stores, lookups, invalidations,
and time advances against a brutally simple reference model; the cache
must agree with the model on every lookup.  A second sequence family
mixes in restores and sweeps: a sweep that skips a table whose earliest
deadline is still ahead must evict exactly what a full scan would.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.cache import CachedCopy, IndexCache
from repro.index.entry import IndexVersion


class ReferenceCache:
    """The obvious-by-inspection model: dict of (version, expiry)."""

    def __init__(self):
        self.entries = {}

    def put(self, version, now):
        current = self.entries.get(version.key)
        if current is not None and now < current[1]:
            if version.version < current[0].version:
                return
        self.entries[version.key] = (version, now + version.ttl)

    def get(self, key, now):
        entry = self.entries.get(key)
        if entry is None:
            return None
        version, expires = entry
        if now >= expires:
            del self.entries[key]
            return None
        return version

    def invalidate(self, key):
        self.entries.pop(key, None)


@st.composite
def operation_sequences(draw):
    count = draw(st.integers(1, 60))
    operations = []
    for _ in range(count):
        kind = draw(st.sampled_from(["put", "get", "invalidate", "advance"]))
        key = draw(st.integers(1, 3))
        if kind == "put":
            # A version's TTL is part of the version (immutable in the
            # real system), so derive it from the version number.
            number = draw(st.integers(0, 5))
            operations.append(("put", key, number, 5.0 + 7.0 * number))
        elif kind == "advance":
            operations.append(("advance", draw(st.floats(0.0, 40.0))))
        else:
            operations.append((kind, key))
    return operations


class TestCacheAgainstModel:
    @given(operation_sequences())
    @settings(max_examples=300, deadline=None)
    def test_lookups_agree_with_reference(self, operations):
        cache = IndexCache()
        model = ReferenceCache()
        now = 0.0
        for operation in operations:
            if operation[0] == "put":
                _, key, number, ttl = operation
                version = IndexVersion(
                    key=key, version=number, issued_at=now, ttl=ttl
                )
                cache.put(version, now)
                model.put(version, now)
            elif operation[0] == "advance":
                now += operation[1]
            elif operation[0] == "invalidate":
                cache.invalidate(operation[1])
                model.invalidate(operation[1])
            else:  # get
                key = operation[1]
                ours = cache.get(key, now)
                reference = model.get(key, now)
                if reference is None:
                    assert ours is None
                else:
                    assert ours is not None
                    assert ours.version == reference.version

    @given(operation_sequences())
    @settings(max_examples=100, deadline=None)
    def test_stats_are_consistent(self, operations):
        cache = IndexCache()
        now = 0.0
        for operation in operations:
            if operation[0] == "put":
                _, key, number, ttl = operation
                cache.put(
                    IndexVersion(key=key, version=number, issued_at=now, ttl=ttl),
                    now,
                )
            elif operation[0] == "advance":
                now += operation[1]
            elif operation[0] == "invalidate":
                cache.invalidate(operation[1])
            else:
                cache.get(operation[1], now)
        stats = cache.stats
        assert stats.hits <= stats.lookups
        assert len(cache) <= stats.stores
        assert stats.evictions >= 0


SLOTS = range(1, 7)


@st.composite
def sweep_sequences(draw):
    """Stores, restores, lookups and sweeps over six slots, with TTLs
    from 1 s to 1 h and copies restored from up to 100 s back."""
    count = draw(st.integers(1, 80))
    operations = []
    for _ in range(count):
        kind = draw(
            st.sampled_from(["put", "restore", "get", "sweep", "advance"])
        )
        slot = draw(st.sampled_from(SLOTS))
        if kind in ("put", "restore"):
            number = draw(st.integers(0, 3))
            ttl = draw(st.sampled_from([1.0, 5.0, 30.0, 600.0, 3600.0]))
            back = draw(st.floats(0.0, 100.0)) if kind == "restore" else 0.0
            operations.append((kind, slot, number, ttl, back))
        elif kind == "advance":
            operations.append(("advance", draw(st.floats(0.0, 50.0))))
        else:
            operations.append((kind, slot))
    return operations


class TestBoundedSweep:
    @given(sweep_sequences())
    @settings(max_examples=300, deadline=None)
    def test_sweep_evicts_exactly_what_a_full_scan_evicts(self, operations):
        cache = IndexCache()
        now = 0.0
        evicted = 0
        for operation in operations:
            kind = operation[0]
            if kind in ("put", "restore"):
                _, slot, number, ttl, back = operation
                version = IndexVersion(
                    key=slot, version=number, issued_at=now, ttl=ttl
                )
                if kind == "put":
                    cache.put(version, now, slot=slot)
                else:
                    cache.restore(slot, CachedCopy(version, now - back))
            elif kind == "advance":
                now += operation[1]
            elif kind == "get":
                before = cache.stats.evictions
                cache.get(operation[1], now)
                evicted += cache.stats.evictions - before
            else:
                # The full scan: every held copy whose timer has run out.
                expired = {
                    slot
                    for slot in SLOTS
                    if (copy := cache.peek(slot)) is not None
                    and copy.expires_at <= now
                }
                held = {slot for slot in SLOTS if slot in cache}
                assert cache.sweep(now) == len(expired)
                evicted += len(expired)
                assert {slot for slot in SLOTS if slot in cache} == (
                    held - expired
                )
        assert cache.stats.evictions == evicted
        # A sweep past every deadline empties the table.
        held = len(cache)
        assert cache.sweep(now + 3601.0) == held
        assert len(cache) == 0

    def test_sweep_before_the_earliest_deadline_reads_no_copy(self):
        cache = IndexCache()
        for slot in SLOTS:
            version = IndexVersion(key=slot, version=0, issued_at=0.0, ttl=60.0)
            cache.put(version, 10.0 * slot, slot=slot)
        # The earliest deadline is slot 1's, at 70 s: before it a sweep
        # returns without reading a copy, so a timer edited behind the
        # table's back is not seen.
        cache._stored_at[6] = -100.0
        assert cache.sweep(69.0) == 0 and len(cache) == len(SLOTS)
        # At it, one scan evicts both and learns the next deadline (80 s).
        assert cache.sweep(70.0) == 2
        assert cache.sweep(79.0) == 0
        assert cache.sweep(80.0) == 1 and len(cache) == 3
