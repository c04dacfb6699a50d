"""The hit path's regression fence: a count, not a clock.

One DUP query is issued, by a :class:`QuerySource` firing, at a leaf of
a fixed 13-node, 3-level tree that is already subscribed and interested
and holds a valid copy: the paper's common case, a query served from
the node's own pushed copy with no message sent.  Every Python ``call``
event of that firing is counted with ``sys.setprofile``: the issue, the
arrival's interest and subscription checks, the lookup, the recording
and the re-arm of the next arrival.

Before the hit-path cut this read 19 frames: ``_fire`` ->
``schedule_next`` -> ``defer``; ``on_local_query`` ->
``_on_query_arrival`` -> ``WindowInterestPolicy.record``,
``is_interested``, ``Simulation.is_root`` -> ``SearchTree.root``;
``DupProtocol.is_subscribed`` -> ``s_list`` ->
``SubscriberList.__contains__``; ``Simulation.lookup`` ->
``IndexCache.get``; ``record_latency`` -> ``LatencyRecorder.record`` ->
``RunningStat.add``; ``note_read`` -> ``Authority.current``.  The cut
reads 10.

Reading a non-root node's copy straight off the host's copy table
(``IndexCache.get``, no ``SchemeHost.lookup`` frame; the root still asks
the host, where its authority answers) reads 9.
"""

import gc
import sys

from repro.engine import Simulation, SimulationConfig
from repro.index.authority import ReplicationPlan
from repro.net.message import Category, QueryMessage
from repro.stats.distributions import Exponential
from repro.workload.arrivals import ArrivalProcess, QuerySource
from repro.workload.selection import ZipfNodeSelector

#: The reading without the host's lookup frame; nothing left on the path
#: but the frames that work.
FRAMES_PER_HIT = 9

LEAF = 7


def _subscribed_leaf():
    """Root 0, interiors 1-3, leaves 4-12; ``LEAF`` subscribed, still
    interested and holding the copy its subscribing miss brought back."""
    sim = Simulation(
        SimulationConfig(
            scheme="dup",
            num_nodes=13,
            topology="balanced",
            max_degree=3,
            hop_latency_mean=0.001,
            duration=100_000.0,
            warmup=0.0,
            threshold_c=1,
            seed=1,
        )
    )
    sim.start()
    # A miss, a hit, and the miss that carries the subscription once the
    # first copy has expired (the push-path fence's sequence).
    for until in (0.0, 3550.0, 3650.0):
        sim.env.run(until=until)
        sim.scheme.on_local_query(LEAF)
        sim.env.run(until=until + 5.0)
    return sim


def _leaf_source(sim):
    """A query source whose every arrival lands on ``LEAF``, primed so
    its read-ahead buffers are full."""
    source = QuerySource(
        sim.env,
        ArrivalProcess(Exponential.from_rate(1.0), sim.streams.get("hit-gaps")),
        ZipfNodeSelector([LEAF], 0.95, sim.streams.get("hit-placement")),
        sim.streams.get("hit-ranks"),
        sim.scheme.on_local_query,
    )
    source._fire()
    return source


def profile_one_hit(source):
    """Fire one arrival of ``source``; return the names of every call."""
    names = []

    def profiler(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_name)

    # A collection inside the window would count the callbacks other
    # libraries hang on the collector (hypothesis registers one); right
    # after a full collection generation 0 is empty, and one hit
    # allocates far fewer objects than its threshold.
    gc.collect()
    sys.setprofile(profiler)
    try:
        source._fire()
    finally:
        sys.setprofile(None)
    return names


def frames_per_hit() -> int:
    """The fence's reading on a fresh fixture."""
    return len(profile_one_hit(_leaf_source(_subscribed_leaf())))


def _counters(sim):
    stats = sim.copies.stats
    return (stats.lookups, stats.hits, sim._reads, sim.latency.count)


def _all_hops(sim):
    return [sim.ledger.hops(category) for category in Category]


def test_frames_per_hit():
    sim = _subscribed_leaf()
    assert sim.scheme.protocol.is_subscribed(LEAF)
    assert sim.scheme.is_interested(LEAF)
    assert sim.lookup(LEAF) is not None
    source = _leaf_source(sim)
    before = _counters(sim)
    hits = sim.latency.hits
    hops = _all_hops(sim)
    queued = len(sim.env._queue)
    names = profile_one_hit(source)
    # One lookup, one hit, one read, one recorded latency of 0 hops.
    assert [b - a for a, b in zip(before, _counters(sim))] == [1, 1, 1, 1]
    assert sim.latency.hits == hits + 1
    # Quiet: nothing sent, and the firing left only its own re-arm.
    assert _all_hops(sim) == hops
    assert len(sim.env._queue) == queued + 1
    assert len(names) <= FRAMES_PER_HIT, names


def test_traced_hit_completes_its_trace():
    sim = _subscribed_leaf()
    tracer = sim.enable_tracing()
    sim.scheme.on_local_query(LEAF)
    (trace,) = tracer.traces()
    assert trace.status == "complete"
    assert trace.latency_hops == 0
    assert trace.origin == LEAF


class TestRootCheckFollowsFailover:
    """The arrival hook's root check reads the tree's own root, which
    failover moves: the promoted standby is then served by its own
    authority and never subscribes."""

    CONFIG = dict(
        scheme="dup",
        num_nodes=24,
        ttl=600.0,
        push_lead=60.0,
        duration=3600.0,
        warmup=0.0,
        threshold_c=1,
        seed=3,
    )

    def _arrivals(self, sim, node, count=3):
        """``count`` forwarded-query arrivals at ``node``: a non-root
        node turns interested on the second and then subscribes."""
        packet = QueryMessage(key=sim.key, origin=node, issued_at=0.0)
        return [
            sim.scheme._on_query_arrival(node, packet) for _ in range(count)
        ]

    def test_the_promoted_root_never_subscribes(self):
        sim = Simulation(
            SimulationConfig(
                **self.CONFIG, replication=ReplicationPlan(1, crash_at=100.0)
            )
        )
        sim.start()
        old_root = sim.tree.root
        sim.env.run(until=110.0)
        new_root = sim.tree.root
        assert new_root != old_root
        assert new_root == sim.standby_pool.promoted
        protocol = sim.scheme.protocol
        # Any other node still subscribes on the same arrivals ...
        other = next(
            node
            for node in sim.tree.nodes
            if node != new_root and not protocol.peek_entries(node)
        )
        assert any(self._arrivals(sim, other))
        # ... the promoted root does not, although they were recorded.
        assert self._arrivals(sim, new_root) == [[], [], []]
        assert sim.scheme.is_interested(new_root)
        assert new_root not in protocol.peek_entries(new_root)
        # Its own local queries hit its authority's copy: latency 0, no
        # control message, no subscription.
        control = sim.ledger.hops(Category.CONTROL)
        count, hits = sim.latency.count, sim.latency.hits
        for _ in range(3):
            sim.scheme.on_local_query(new_root)
        assert sim.latency.count == count + 3
        assert sim.latency.hits == hits + 3
        assert sim.ledger.hops(Category.CONTROL) == control
        assert new_root not in sim.scheme.subscribed_nodes()
