"""TTL index-copy tables with per-copy timers.

The paper's weak-consistency model (Section I/II): "There is a
Time-To-Live (TTL) timer associated with the index.  The index will be
removed from the cache after its TTL expires."  The timer belongs to the
*cache entry* and starts when the copy is stored — each node's copy
expires ``ttl`` after that node obtained it, regardless of when the
authority issued the version.  This realizes both PCX drawbacks the paper
lists: a copy is unusable after its timer runs out even if the index never
changed, and a copy may serve *stale* data when the authority re-issued
before the timer expired.

The unit of cache state is therefore one copy: one ``(node, key)`` pair.
An :class:`IndexCache` is a table of such copies, one per *slot*.  The
engines keep one table per index and slot each copy under the node that
holds it; used on its own, a table files a copy under its data key.  The
table is two flat dicts, ``slot -> version`` and ``slot -> stored_at``:
no Python object per copy beyond the float of its timer, which the
cyclic collector never tracks.  :class:`CachedCopy` is the value form of
one copy, made by :meth:`IndexCache.peek` for the crash-restart snapshot
and filed back by :meth:`IndexCache.restore`.

Pushes refresh the timer (the push schemes deliver a new version one
minute before the previous one's timer would run out, so subscribers never
observe a miss).  Stores keep the newest version: an older version never
overwrites a newer one (pushes and replies can race over paths of
different latency).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.errors import CacheError
from repro.index.entry import IndexVersion


@dataclass
class CacheStats:
    """Counters describing how a cache has been used."""

    lookups: int = 0
    hits: int = 0
    stores: int = 0
    refreshes: int = 0
    rejected_stale: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits / lookups (``nan`` before any lookup)."""
        if self.lookups == 0:
            return float("nan")
        return self.hits / self.lookups


@dataclass(slots=True)
class CachedCopy:
    """One copy, read out of a table: a version plus its TTL timer."""

    version: IndexVersion
    stored_at: float

    @property
    def expires_at(self) -> float:
        """When this copy's timer runs out (store time + version TTL)."""
        return self.stored_at + self.version.ttl


class IndexCache:
    """Cached index copies, one per slot (a holder node, or a data key).

    ``put(version, now)`` files the copy under ``version.key``; the
    engines pass the holder node as ``slot`` instead, so one table holds
    every node's copy of one index.
    """

    __slots__ = ("_versions", "_stored_at", "_earliest", "stats")

    def __init__(self) -> None:
        #: slot -> the version it holds, and slot -> when it was stored
        #: (the start of its timer); the two always share their keys.
        self._versions: dict[int, IndexVersion] = {}
        self._stored_at: dict[int, float] = {}
        #: A lower bound on every held copy's deadline: stores lower it,
        #: a scanning sweep resets it, removals leave it (still a bound).
        self._earliest = math.inf
        self.stats = CacheStats()

    def get(self, slot: int, now: float) -> Optional[IndexVersion]:
        """Return the valid version filed under ``slot`` at ``now``, if any.

        Expired copies are evicted as a side effect.
        """
        stats = self.stats
        stats.lookups += 1
        version = self._versions.get(slot)
        if version is None:
            return None
        # A copy is valid before ``stored_at + ttl``: this is the hit-path
        # check of every query in the system.
        if now >= self._stored_at[slot] + version.ttl:
            del self._versions[slot], self._stored_at[slot]
            stats.evictions += 1
            return None
        stats.hits += 1
        return version

    def peek(self, slot: int) -> Optional[CachedCopy]:
        """The copy filed under ``slot``, as a value, without validity
        check or stats."""
        version = self._versions.get(slot)
        if version is None:
            return None
        return CachedCopy(version, self._stored_at[slot])

    def put(
        self, version: IndexVersion, now: float, slot: Optional[int] = None
    ) -> bool:
        """Store ``version`` under ``slot`` (default: its data key),
        starting (or restarting) that copy's timer.

        Returns ``True`` when the table changed.  An older version never
        replaces a newer one; re-storing the already-cached version
        refreshes its timer (that is how pushes keep subscribers warm).
        """
        if not isinstance(version, IndexVersion):
            raise CacheError(f"not an IndexVersion: {version!r}")
        if slot is None:
            slot = version.key
        held = self._versions.get(slot)
        # The validity check of ``get``: every push hop stores here.
        if held is not None and now < self._stored_at[slot] + held.ttl:
            if version.version < held.version:
                self.stats.rejected_stale += 1
                return False
            if version.version == held.version:
                self._stored_at[slot] = now
                self.stats.refreshes += 1
                return True
        self._versions[slot] = version
        self._stored_at[slot] = now
        deadline = now + version.ttl
        if deadline < self._earliest:
            self._earliest = deadline
        self.stats.stores += 1
        return True

    def restore(self, slot: int, copy: CachedCopy) -> None:
        """Re-file ``copy`` as it was (its own ``stored_at``) unless
        ``slot`` already holds one."""
        if slot in self._versions:
            return
        self._versions[slot] = copy.version
        self._stored_at[slot] = copy.stored_at
        deadline = copy.stored_at + copy.version.ttl
        if deadline < self._earliest:
            self._earliest = deadline

    def sweep(self, now: float) -> int:
        """Evict every expired copy in one pass; returns the count.

        The single-key engine evicts lazily inside :meth:`get` (the
        check is already on the hit path); the multi-key scale engine
        sweeps every key's table once per period.  A table whose
        earliest possible deadline is still ahead is not scanned at all;
        otherwise one pass evicts every copy with ``stored_at + ttl <=
        now`` and records the earliest deadline left.  Evictions are
        charged to stats exactly as lazy ones are, so a swept table and
        a lazily-evicted one agree on every counter the results report.
        """
        if now < self._earliest:
            return 0
        versions = self._versions
        stored = self._stored_at
        dead = []
        earliest = math.inf
        for slot, stored_at in stored.items():
            deadline = stored_at + versions[slot].ttl
            if deadline <= now:
                dead.append(slot)
            elif deadline < earliest:
                earliest = deadline
        for slot in dead:
            del versions[slot], stored[slot]
        self._earliest = earliest
        self.stats.evictions += len(dead)
        return len(dead)

    def invalidate(self, slot: int) -> bool:
        """Drop the copy filed under ``slot``; returns whether one existed."""
        if slot in self._versions:
            del self._versions[slot], self._stored_at[slot]
            self.stats.evictions += 1
            return True
        return False

    def clear(self) -> None:
        """Drop every copy."""
        self.stats.evictions += len(self._versions)
        self._versions.clear()
        self._stored_at.clear()
        self._earliest = math.inf

    def __len__(self) -> int:
        return len(self._versions)

    def __contains__(self, slot: int) -> bool:
        return slot in self._versions

    def __iter__(self):
        return iter(self._versions)

    def __repr__(self) -> str:
        return f"IndexCache(entries={len(self._versions)}, {self.stats})"
