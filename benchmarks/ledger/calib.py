"""Host-speed calibration: a fixed pure-Python loop, timed in slices.

This sandbox's hosts drift: the same deterministic simulation takes up
to 1.6x longer for tens of seconds at a time while a co-tenant is busy
(measured 2.35 s .. 3.82 s for one fixed run).  Raw wall-clock medians
therefore cannot hold a regression bound: over one quarter-hour the
ten-seed spread of the median-of-five wall time was 5-21% raw and 2-7%
calibrated, workload by workload.  Each child brackets its
timed region with this loop and reports host times as *calibrated
seconds*: ``raw * REFERENCE_SLICE_S / local_slice_s`` — what the run
would have taken on this machine class when quiet.  The loop owns no
``repro`` code, so speeding the simulator up never speeds the yardstick
up, and it mixes the operations the simulator's inner loop is made of
(heap push/pop of tuples, dict writes, small-object allocation, method
calls, integer arithmetic) so contention slows both alike.
"""

from __future__ import annotations

import heapq
import time

#: Slice time on a quiet 2.1 GHz Xeon sandbox core (the reference
#: machine state every calibrated second is expressed in).
REFERENCE_SLICE_S = 0.0320

SLICE_ITERATIONS = 30_000


class _Record:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value

    def store(self, table: dict) -> int:
        table[self.key & 1023] = self.value
        return self.key + 1


def run_slice(iterations: int = SLICE_ITERATIONS) -> int:
    """One fixed unit of simulator-like work (the return value only
    keeps the loop from being optimised away)."""
    heap: list = []
    table: dict = {}
    push, pop = heapq.heappush, heapq.heappop
    state = 1
    for index in range(iterations):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        push(heap, (state, index, _Record(state, index)))
        if len(heap) > 512:
            state ^= pop(heap)[2].store(table)
    return state


def measure(slices: int = 5) -> float:
    """Fastest of ``slices`` back-to-back slices, in seconds.

    The minimum, not the median: sub-second contention bursts hit the
    yardstick and the timed run independently, and a burst that lands
    on the yardstick alone would mis-scale an undisturbed run.  The
    fastest slice sheds bursts yet still rises with a sustained slow
    state, which is the drift the calibration exists to cancel.
    """
    best = float("inf")
    for _ in range(slices):
        started = time.perf_counter()
        run_slice()
        best = min(best, time.perf_counter() - started)
    return best

