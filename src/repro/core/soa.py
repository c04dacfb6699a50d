"""Flat-array expiry hints for the multi-key engine's cache sweeps.

:class:`ExpiryWheel` keeps an append-only (deadline, a, b) record array
and finds every due record with one vectorized
``np.flatnonzero(expiry <= now)`` pass per sweep, instead of one timer
object per cache entry.  Records are *hints*: the wheel never cancels,
and callers re-validate on pop (a refreshed entry simply leaves a stale
hint that the re-validation drops).  Nothing under ``src/`` uses it any
more: the scale engine sweeps each key's copy table whole.  The
ledger's tracer imports it by name, so it stays until the fast-path
re-pin deletes it (ROADMAP item 1).

Deterministic and allocation-frugal; nothing here draws randomness.
"""

from __future__ import annotations

import numpy as np


class ExpiryWheel:
    """Vectorized TTL sweeps over append-only (deadline, a, b) records.

    ``push`` appends one record (amortized O(1)); ``pop_due`` compacts
    the array with a single ``np.flatnonzero(expiry <= now)`` pass and
    returns the due ``(a, b)`` tags in insertion order.  Records are
    never cancelled or updated in place — a renewed entry just pushes a
    fresh record, and the caller drops the superseded hint when it pops
    (lazy invalidation).  ``a``/``b`` are opaque int tags.
    """

    __slots__ = ("_times", "_a", "_b", "_size")

    def __init__(self, capacity: int = 256):
        capacity = max(16, int(capacity))
        self._times = np.empty(capacity, dtype=np.float64)
        self._a = np.empty(capacity, dtype=np.int64)
        self._b = np.empty(capacity, dtype=np.int64)
        self._size = 0

    def push(self, deadline: float, a: int, b: int = 0) -> None:
        """Record that ``(a, b)`` is due at ``deadline``."""
        size = self._size
        if size == len(self._times):
            capacity = size * 2
            self._times = np.resize(self._times, capacity)
            self._a = np.resize(self._a, capacity)
            self._b = np.resize(self._b, capacity)
        self._times[size] = deadline
        self._a[size] = a
        self._b[size] = b
        self._size = size + 1

    def pop_due(self, now: float) -> list[tuple[int, int]]:
        """All records with ``deadline <= now``, removed and returned."""
        size = self._size
        if not size:
            return []
        times = self._times[:size]
        due = np.flatnonzero(times <= now)
        if not due.size:
            return []
        out = list(
            zip(self._a[due].tolist(), self._b[due].tolist())
        )
        keep = np.flatnonzero(times > now)
        kept = keep.size
        self._times[:kept] = times[keep]
        self._a[:kept] = self._a[:size][keep]
        self._b[:kept] = self._b[:size][keep]
        self._size = kept
        return out

    def next_deadline(self) -> float:
        """Earliest pending deadline (``inf`` when empty)."""
        if not self._size:
            return float("inf")
        return float(self._times[: self._size].min())

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        return f"ExpiryWheel(pending={self._size})"
