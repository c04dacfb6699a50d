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
holds it; used on its own, a table files a copy under its data key.

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
    """One cached copy: a version plus this cache's own TTL timer."""

    version: IndexVersion
    stored_at: float

    @property
    def expires_at(self) -> float:
        """When this copy's timer runs out (store time + version TTL)."""
        return self.stored_at + self.version.ttl

    def is_valid(self, now: float) -> bool:
        """Whether the copy is still usable at ``now``."""
        return now < self.expires_at


class IndexCache:
    """Cached index copies, one per slot (a holder node, or a data key).

    ``put(version, now)`` files the copy under ``version.key``; the
    engines pass the holder node as ``slot`` instead, so one table holds
    every node's copy of one index.
    """

    __slots__ = ("_entries", "_earliest", "stats")

    def __init__(self) -> None:
        self._entries: dict[int, CachedCopy] = {}
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
        copy = self._entries.get(slot)
        if copy is None:
            return None
        # Inlined copy.is_valid(now): this is the hit-path check of every
        # query in the system.
        version = copy.version
        if now >= copy.stored_at + version.ttl:
            del self._entries[slot]
            stats.evictions += 1
            return None
        stats.hits += 1
        return version

    def peek(self, slot: int) -> Optional[CachedCopy]:
        """Return the stored copy without validity check or stats."""
        return self._entries.get(slot)

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
        current = self._entries.get(slot)
        if current is not None:
            # Inlined current.is_valid(now), as in ``get``: every push
            # hop stores here.
            held = current.version
            if now < current.stored_at + held.ttl:
                if version.version < held.version:
                    self.stats.rejected_stale += 1
                    return False
                if version.version == held.version:
                    current.stored_at = now
                    self.stats.refreshes += 1
                    return True
        self._entries[slot] = CachedCopy(version, now)
        deadline = now + version.ttl
        if deadline < self._earliest:
            self._earliest = deadline
        self.stats.stores += 1
        return True

    def restore(self, slot: int, copy: CachedCopy) -> None:
        """Re-file ``copy`` as it was (its own ``stored_at``) unless
        ``slot`` already holds one."""
        if self._entries.setdefault(slot, copy) is copy:
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
        entries = self._entries
        dead = []
        earliest = math.inf
        for slot, copy in entries.items():
            deadline = copy.stored_at + copy.version.ttl
            if deadline <= now:
                dead.append(slot)
            elif deadline < earliest:
                earliest = deadline
        for slot in dead:
            del entries[slot]
        self._earliest = earliest
        self.stats.evictions += len(dead)
        return len(dead)

    def invalidate(self, slot: int) -> bool:
        """Drop the copy filed under ``slot``; returns whether one existed."""
        if slot in self._entries:
            del self._entries[slot]
            self.stats.evictions += 1
            return True
        return False

    def clear(self) -> None:
        """Drop every copy."""
        self.stats.evictions += len(self._entries)
        self._entries.clear()
        self._earliest = math.inf

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, slot: int) -> bool:
        return slot in self._entries

    def __repr__(self) -> str:
        return f"IndexCache(entries={len(self._entries)}, {self.stats})"
