"""Hop-count ledger charged by the transport, gated on a warm-up period.

Measurements only start after the warm-up (caches and interest state need
one TTL cycle to reach steady state); the paper's very long runs make
warm-up negligible, but our scaled benchmark runs do not.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.net.message import Category


class CostLedger:
    """Per-category hop counters for the average-query-cost metric.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current simulation time.
        The engines pass :meth:`~repro.sim.core.Environment.now_getter`,
        a C-level callable: until the warm-up ends every charge reads
        it, and it must not cost a Python frame per hop.
    warmup:
        Hops charged before this time are tallied separately and excluded
        from the reported cost.

    Keep-alive hops never count toward query cost.  The paper's metric
    covers "query related messages"; keep-alives are part of the
    underlying overlay maintenance and are identical across schemes, so
    they are tracked (:meth:`hops`, :meth:`breakdown`) but excluded.
    """

    def __init__(self, clock: Callable[[], float], warmup: float = 0.0):
        self._clock = clock
        self._warmup = float(warmup)
        self._hops: dict[Category, int] = {cat: 0 for cat in Category}
        self._warmup_hops: dict[Category, int] = {cat: 0 for cat in Category}
        #: The post-warm-up counters, published once the clock has passed
        #: the warm-up (``None`` until then): simulation time only moves
        #: forward, so later charges skip the clock call entirely, and a
        #: sender on the hot path (the transport) may add a non-negative
        #: hop count to it in place of calling :meth:`charge`.
        self.measured: "dict[Category, int] | None" = (
            self._hops if self._warmup <= 0.0 else None
        )

    def charge(self, category: Category, hops: int = 1) -> None:
        """Add ``hops`` to ``category`` (warm-up hops kept separate)."""
        if hops < 0:
            raise ValueError(f"hops must be non-negative, got {hops}")
        measured = self.measured
        if measured is not None:
            measured[category] += hops
        elif self._clock() < self._warmup:
            self._warmup_hops[category] += hops
        else:
            self.measured = self._hops
            self._hops[category] += hops

    def hops(self, category: Category) -> int:
        """Post-warm-up hops charged to ``category``."""
        return self._hops[category]

    def warmup_hops(self, category: Category) -> int:
        """Hops charged during warm-up (excluded from cost)."""
        return self._warmup_hops[category]

    @property
    def total_hops(self) -> int:
        """Total post-warm-up hops that count toward query cost."""
        total = 0
        for category, hops in self._hops.items():
            if category is Category.KEEPALIVE:
                continue
            total += hops
        return total

    def breakdown(self) -> Mapping[str, int]:
        """Post-warm-up hops by category name (for reports)."""
        return {cat.value: hops for cat, hops in self._hops.items()}

    def cost_per_query(self, queries: int) -> float:
        """The paper's average query cost: total hops / queries."""
        if queries <= 0:
            return float("nan")
        return self.total_hops / queries

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{cat.value}={hops}" for cat, hops in self._hops.items() if hops
        )
        return f"CostLedger({parts or 'empty'})"
