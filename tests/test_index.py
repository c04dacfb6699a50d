"""Unit tests for the index substrate: versions, caches, authority."""

import pytest

from repro.errors import CacheError, ConfigError
from repro.index import Authority, IndexCache, IndexVersion, KeepAliveTracker
from repro.sim import Environment


def version(v=0, issued=0.0, ttl=3600.0, key=1):
    return IndexVersion(key=key, version=v, issued_at=issued, ttl=ttl)


class TestIndexVersion:
    def test_expiry(self):
        entry = version(issued=100.0, ttl=50.0)
        assert entry.expires_at == 150.0
        assert entry.is_valid(149.0)
        assert not entry.is_valid(150.0)

    def test_remaining(self):
        entry = version(issued=0.0, ttl=10.0)
        assert entry.remaining(4.0) == pytest.approx(6.0)
        assert entry.remaining(20.0) == 0.0

    def test_newer_than(self):
        old = version(v=1)
        new = version(v=2)
        assert new.newer_than(old)
        assert not old.newer_than(new)
        assert old.newer_than(None)

    def test_newer_than_cross_key_rejected(self):
        with pytest.raises(ValueError):
            version(key=1).newer_than(version(key=2))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            version(ttl=0.0)
        with pytest.raises(ValueError):
            version(v=-1)


class TestIndexCache:
    def test_miss_on_empty(self):
        cache = IndexCache()
        assert cache.get(1, now=0.0) is None
        assert cache.stats.lookups == 1
        assert cache.stats.hits == 0

    def test_put_then_hit(self):
        cache = IndexCache()
        assert cache.put(version(), now=0.0)
        assert cache.get(1, now=10.0) is not None
        assert cache.stats.hit_rate == pytest.approx(1.0)

    def test_per_entry_ttl_from_store_time(self):
        # The paper's PCX drawback 1: the copy dies TTL after caching even
        # though the index never changed.
        cache = IndexCache()
        cache.put(version(ttl=100.0), now=50.0)
        assert cache.get(1, now=149.0) is not None
        assert cache.get(1, now=150.0) is None
        assert cache.stats.evictions == 1

    def test_stale_version_can_outlive_reissue(self):
        # The paper's PCX drawback 2: a stale copy keeps serving until its
        # own timer expires.
        cache = IndexCache()
        cache.put(version(v=1, ttl=100.0), now=0.0)
        served = cache.get(1, now=90.0)
        assert served is not None and served.version == 1

    def test_newer_version_replaces(self):
        cache = IndexCache()
        cache.put(version(v=1), now=0.0)
        assert cache.put(version(v=2), now=1.0)
        assert cache.get(1, now=2.0).version == 2

    def test_older_version_rejected(self):
        cache = IndexCache()
        cache.put(version(v=2), now=0.0)
        assert not cache.put(version(v=1), now=1.0)
        assert cache.stats.rejected_stale == 1
        assert cache.get(1, now=2.0).version == 2

    def test_same_version_refreshes_timer(self):
        # This is how pushes keep subscribers warm forever.
        cache = IndexCache()
        cache.put(version(v=1, ttl=100.0), now=0.0)
        cache.put(version(v=1, ttl=100.0), now=90.0)
        assert cache.stats.refreshes == 1
        assert cache.get(1, now=150.0) is not None
        assert cache.get(1, now=191.0) is None

    def test_older_version_accepted_after_expiry(self):
        cache = IndexCache()
        cache.put(version(v=5, ttl=10.0), now=0.0)
        # At t=20 the copy of v5 is expired; even an older version is
        # better than nothing (it restarts a fresh timer).
        assert cache.put(version(v=3, ttl=10.0), now=20.0)
        assert cache.get(1, now=21.0).version == 3

    def test_multiple_keys_independent(self):
        cache = IndexCache()
        cache.put(version(key=1), now=0.0)
        cache.put(version(key=2), now=0.0)
        assert len(cache) == 2
        cache.invalidate(1)
        assert 1 not in cache
        assert 2 in cache

    def test_invalidate_and_clear(self):
        cache = IndexCache()
        assert not cache.invalidate(1)
        cache.put(version(), now=0.0)
        assert cache.invalidate(1)
        cache.put(version(), now=0.0)
        cache.clear()
        assert len(cache) == 0

    def test_put_non_version_rejected(self):
        with pytest.raises(CacheError):
            IndexCache().put("not a version", now=0.0)


class TestAuthority:
    def test_initial_version_issued_at_start(self):
        env = Environment()
        seen = []
        Authority(env, key=7, ttl=100.0, push_lead=10.0, on_new_version=seen.append)
        env.run(until=1.0)
        assert len(seen) == 1
        assert seen[0].version == 0
        assert seen[0].key == 7

    def test_refresh_schedule(self):
        # New version every (ttl - push_lead) seconds.
        env = Environment()
        seen = []
        Authority(env, key=1, ttl=100.0, push_lead=10.0, on_new_version=seen.append)
        env.run(until=275.0)
        assert [v.version for v in seen] == [0, 1, 2, 3]
        assert [v.issued_at for v in seen] == [0.0, 90.0, 180.0, 270.0]

    def test_subscriber_never_observes_gap(self):
        # A copy refreshed at every issue is valid across the boundary.
        env = Environment()
        seen = []
        Authority(env, key=1, ttl=100.0, push_lead=10.0, on_new_version=seen.append)
        env.run(until=500.0)
        for previous, current in zip(seen, seen[1:]):
            assert current.issued_at < previous.expires_at

    def test_force_update_reissues_and_reschedules(self):
        env = Environment()
        seen = []
        authority = Authority(
            env, key=1, ttl=100.0, push_lead=10.0, on_new_version=seen.append
        )

        def forcer(env):
            yield env.timeout(30.0)
            authority.force_update(value="new-host")

        env.process(forcer(env))
        env.run(until=125.0)
        # Issues at t=0 (v0), t=30 forced (v1), then t=120 (v2).
        assert [v.version for v in seen] == [0, 1, 2]
        assert seen[1].value == "new-host"
        assert seen[2].issued_at == pytest.approx(120.0)

    def test_current_property(self):
        env = Environment()
        authority = Authority(env, key=1, ttl=100.0, push_lead=10.0)
        env.run(until=95.0)
        assert authority.current.version == 1

    def test_invalid_parameters(self):
        env = Environment()
        with pytest.raises(ConfigError):
            Authority(env, key=1, ttl=0.0)
        with pytest.raises(ConfigError):
            Authority(env, key=1, ttl=10.0, push_lead=10.0)


class TestKeepAliveTracker:
    def test_alive_after_beacon(self):
        env = Environment()
        tracker = KeepAliveTracker(env, timeout=10.0)
        tracker.beacon(5)
        assert tracker.is_alive(5)
        assert not tracker.is_alive(6)

    def test_host_declared_dead_after_timeout(self):
        env = Environment()
        dead = []
        tracker = KeepAliveTracker(
            env, timeout=10.0, check_interval=1.0, on_host_dead=dead.append
        )
        tracker.beacon(5)
        env.run(until=12.5)
        assert dead == [5]
        assert not tracker.is_alive(5)
        assert tracker.dead_hosts == (5,)

    def test_periodic_beacons_keep_host_alive(self):
        env = Environment()
        dead = []
        tracker = KeepAliveTracker(
            env, timeout=10.0, check_interval=1.0, on_host_dead=dead.append
        )

        def beaconing(env):
            while True:
                tracker.beacon(5)
                yield env.timeout(5.0)

        env.process(beaconing(env))
        env.run(until=100.0)
        assert dead == []
        assert tracker.is_alive(5)

    def test_resurrection(self):
        env = Environment()
        tracker = KeepAliveTracker(env, timeout=10.0, check_interval=1.0)

        def script(env):
            tracker.beacon(5)
            yield env.timeout(20.0)
            assert not tracker.is_alive(5)
            tracker.beacon(5)
            assert tracker.is_alive(5)

        process = env.process(script(env))
        env.run(until=process)

    def test_forget(self):
        env = Environment()
        tracker = KeepAliveTracker(env, timeout=10.0)
        tracker.beacon(5)
        tracker.forget(5)
        assert not tracker.is_alive(5)
        assert tracker.tracked_hosts == ()

    def test_dead_callback_fires_once(self):
        env = Environment()
        dead = []
        tracker = KeepAliveTracker(
            env, timeout=5.0, check_interval=1.0, on_host_dead=dead.append
        )
        tracker.beacon(1)
        env.run(until=30.0)
        assert dead == [1]

    def test_invalid_parameters(self):
        env = Environment()
        with pytest.raises(ConfigError):
            KeepAliveTracker(env, timeout=0.0)
        with pytest.raises(ConfigError):
            KeepAliveTracker(env, timeout=5.0, check_interval=0.0)
