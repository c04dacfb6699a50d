"""The scale shard's query-hop fence: a count, not a clock.

A small :class:`~repro.engine.multikey.MultiKeyScaleSimulation` (DUP
over a 1024-node Chord ring, 16 keys, one shard) runs a 1800 s horizon
whose first 1200 s are warm-up, as the ``scale-multikey`` ledger
workload does.  Every Python ``call`` event of ``run()`` is counted
with ``sys.setprofile`` and divided by the query and reply hops the
ledger charged, warm-up hops included: issue, routing, lookups, stores,
the warm-up gate, the TTL sweep at the horizon and the result assembly
are all in the quotient.

Before the scale-hop cut this fixture read 22.16 frames per hop.  Per
request hop ``LazyChordTree.parent`` called ``ChordRing.next_hop`` ->
``_require`` and ``_finger_toward``; per warm-up hop
``CostLedger.charge`` read the clock through a lambda and the
``Environment.now`` property; per first arrival at a node
``_on_query_arrival`` created its tracker through ``tracker()``; and the
sweep at the horizon read every resident copy's ``expires_at`` through
a generator, evicting none.  The cut reads 17.55.  Flat interest and
copy tables read 16.28: a store builds no ``CachedCopy``, and ``issue``
reads the key's root and the clock without a property frame.

The delivered-hop cut reads 14.02: past the warm-up the transport adds
each hop to the ledger's counters itself, the query paths read and store
a non-root node's copy on the host's copy table (no
``SchemeHost.lookup`` / ``store``), the serving node sends the reply's
first hop itself, and both messages are built in one frame.
"""

import gc
import sys
from collections import Counter
from pathlib import Path

from repro.engine import SimulationConfig
from repro.engine.multikey import MultiKeyScaleSimulation
from repro.net.message import Category

#: The delivered-hop cut's reading (14.02) plus a margin, as a whole
#: frame.
FRAMES_PER_HOP = 15.0


def _shard():
    config = SimulationConfig(
        scheme="dup",
        topology="chord",
        num_nodes=1024,
        query_rate=1.0,
        duration=1800.0,
        warmup=1200.0,
        seed=1,
    )
    return MultiKeyScaleSimulation(config, num_keys=16)


def _profile_run(sim):
    """Run ``sim``; return its result and ``(callee, caller, caller's
    package)`` of every call."""
    calls = []

    def profiler(frame, event, arg):
        if event == "call":
            caller = frame.f_back.f_code
            calls.append(
                (
                    frame.f_code.co_name,
                    caller.co_name,
                    Path(caller.co_filename).parent.name,
                )
            )

    # A collection inside the window would count the callbacks other
    # libraries hang on the collector (hypothesis registers one), and a
    # whole run allocates far past generation 0's threshold: the
    # collector stays off for the window.
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    sys.setprofile(profiler)
    try:
        result = sim.run()
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    return result, calls


def _query_hops(ledger) -> int:
    return sum(
        ledger.hops(category) + ledger.warmup_hops(category)
        for category in (Category.QUERY, Category.REPLY)
    )


def frames_per_scale_hop() -> float:
    """The fence's reading on a fresh fixture."""
    sim = _shard()
    _, calls = _profile_run(sim)
    return len(calls) / _query_hops(sim.ledger)


def test_frames_per_scale_hop():
    sim = _shard()
    result, calls = _profile_run(sim)
    assert result.queries > 0 and sim.ledger.warmup_hops(Category.QUERY) > 0
    per_hop = len(calls) / _query_hops(sim.ledger)
    assert per_hop <= FRAMES_PER_HOP, per_hop


def test_no_frame_left_on_the_cut_paths():
    sim = _shard()
    result, calls = _profile_run(sim)
    callers = Counter(caller for _, caller, _ in calls)
    callees = Counter(callee for callee, _, _ in calls)
    # A parent is one frame that calls nothing, and every call counts.
    assert result.extras["parents_touched"] == callees["parent"] > 0
    assert callers["parent"] == 0
    # The warm-up gate reads the clock without a Python frame.
    assert callers["charge"] == 0
    # Only each scheme's first arrival resolves its interest table
    # through ``interest()``; the table files every node in place.
    first = Counter(
        callee for callee, caller, _ in calls if caller == "_on_query_arrival"
    )
    assert first["interest"] <= sim.num_keys
    # Issuing a query reads the key's root and the clock without a
    # property frame, and no scheme reads the clock through one.
    issued = Counter(
        callee for callee, caller, _ in calls if caller == "issue"
    )
    assert issued["root"] == issued["now"] == 0
    assert not [
        call for call in calls if call[0] == "now" and call[2] == "schemes"
    ]
    # The horizon's sweep evicts nothing and reads no copy's deadline.
    assert result.extras["swept_entries"] == 0
    assert callees["expires_at"] == callers["sweep"] == 0
