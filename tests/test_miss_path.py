"""The miss path's regression fence: a count, not a clock.

One PCX query issued at the leaf of a fixed 12-node chain misses at
every node: the request climbs 11 hops to the authority and the reply
retraces them, caching the index at every hop — 22 charged hops, the
paper's latency and cost of a cold miss.  Every Python ``call`` event
from the issue until the overlay is quiet again is counted with
``sys.setprofile`` and divided by those 22 hops, so the kernel's
``run``, the transport and the engine facade are in the quotient too.

Before the miss-path cut this fixture read 308 frames, 14.00 per hop:
per request hop an ``_on_query_arrival`` hook returning an empty list,
a ``_send_control`` call returning at once and ``Simulation.parent``;
per reply hop ``_store_reply`` -> ``Simulation.cache``, a
``_forward_reply`` call and ``Simulation.alive``; at the serve
``QueryMessage.hops``, ``inherit_trace`` and an untraced
``trace_annotate``.  The cut reads 248 frames, 11.27 per hop.

The hit-path cut took two more frames off every delivered hop: the
transport defers the engine's dispatch itself (no ``Transport._deliver``)
and the dispatch indexes the scheme's handler table (no
``on_message``).  With ``record_latency`` -> ``RunningStat.add`` and one
``Authority.current`` gone at the origin, the fixture reads 201 frames,
9.14 per hop.

The delivered-hop cut reads 121 frames, 5.50 per hop: past the warm-up
the transport adds each hop to the ledger's counters itself (no
``CostLedger.charge``), a request hop reads the node's copy off the
host's copy table and a reply hop stores into it (no
``SchemeHost.lookup`` / ``store``), the serving node sends the reply's
first hop itself (no ``_forward_reply``), and ``QueryMessage`` and
``ReplyMessage`` are built in one frame each (no ``__post_init__``).
"""

import sys

from repro.engine import Simulation, SimulationConfig
from repro.net.message import Category

#: The delivered-hop cut's reading (5.50) plus a margin, as a whole
#: frame.
FRAMES_PER_HOP = 6.0

NODES = 12
LEAF = NODES - 1


def _cold_chain():
    sim = Simulation(
        SimulationConfig(
            scheme="pcx",
            num_nodes=NODES,
            topology="chain",
            hop_latency_mean=0.001,
            duration=100_000.0,
            warmup=0.0,
            seed=1,
        )
    )
    sim.start()
    sim.env.run(until=1.0)  # the authority's first issue, outside the count
    return sim


def _profile_one_miss(sim):
    """Issue one query at the leaf; return the names of every call."""
    names = []
    until = sim.env.now + 5.0

    def profiler(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_name)

    sys.setprofile(profiler)
    try:
        sim.scheme.on_local_query(LEAF)
        sim.env.run(until=until)
    finally:
        sys.setprofile(None)
    return names


def frames_per_miss_hop() -> float:
    """The fence's reading on a fresh fixture."""
    sim = _cold_chain()
    names = _profile_one_miss(sim)
    hops = sim.ledger.hops(Category.QUERY) + sim.ledger.hops(Category.REPLY)
    return len(names) / hops


def test_frames_per_miss_hop():
    sim = _cold_chain()
    names = _profile_one_miss(sim)
    requests = sim.ledger.hops(Category.QUERY)
    replies = sim.ledger.hops(Category.REPLY)
    assert (requests, replies) == (NODES - 1, NODES - 1)
    assert sim.latency.count == 1 and sim.latency.mean == NODES - 1
    # Path caching: every hop of the descent now holds the index.
    assert all(
        sim.copies.peek(node).version is sim.authority.current
        for node in range(1, NODES)
    )
    per_hop = len(names) / (requests + replies)
    assert per_hop <= FRAMES_PER_HOP, per_hop


def test_untraced_serve_skips_the_annotation():
    names = _profile_one_miss(_cold_chain())
    assert "_serve" in names
    assert "trace_annotate" not in names


def test_traced_serve_is_annotated():
    sim = _cold_chain()
    tracer = sim.enable_tracing()
    _profile_one_miss(sim)
    (trace,) = tracer.traces()
    assert trace.status == "complete"
    assert trace.latency_hops == trace.request_hops == NODES - 1
    (serve,) = [note for note in trace.annotations if note.event == "serve"]
    assert serve.node == 0
    assert serve.detail == f"version={sim.authority.current.version}"
