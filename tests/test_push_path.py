"""The push path's regression fence: a count, not a clock.

One authority update travels root -> three interiors -> nine leaves of a
fixed 13-node, 3-level DUP tree in which every receiver is subscribed
and still interested (the longest path through the handler).  Every
Python ``call`` event from the forced update until the overlay is quiet
again is counted with ``sys.setprofile`` and divided by the 12 pushes
delivered, so the authority's issue and the kernel's ``run`` are in the
quotient too.

Before the push-path rebuild this fixture read 459 frames, 38.25 per
push (about 33 per push hop averaged over ``update-storm``, where not
every receiver is subscribed): two subscriber-list fetches behind
``is_subscribed`` and ``push_targets``, a generator-built target tuple,
a generated ``__init__`` plus two chained ``__post_init__``,
``_send_push``, ``_next_delay``, ``_dispatch_now``, ``tree.__contains__``
twice, ``CachedCopy.is_valid`` + ``expires_at``, three ``env.now``
property reads.  The rebuild reads 247 frames, 20.58 per push.

The hit-path cut took two frames off every delivered push (the
transport defers the engine's dispatch itself, and the dispatch indexes
the scheme's handler table: no ``Transport._deliver``, no
``on_message``).  This fixture then read 224 frames, 18.67 per push,
and 200, 16.67 per push.

Resolving ``DupScheme._store_push`` to the host's ``store`` at bind
time (as ``_store_reply`` already was) took one more frame off every
delivered push: the fixture reads 188 frames, 15.67 per push (and 176,
14.67, once the copy table stopped building a copy object per store).

The delivered-hop cut reads 124 frames, 10.33 per push.  Per delivered
push it removed ``CostLedger.charge`` (past the warm-up the transport
adds the hop to the ledger's counters itself), ``SchemeHost.store`` (the
handler stores into the host's copy table) and
``SubscriberList.__contains__`` / ``__len__`` (the handler reads the
node's members once, through ``DupProtocol.members``, in place of
``s_list``), and per fan-out ``SubscriberList.__iter__``.
"""

import sys

from repro.engine import Simulation, SimulationConfig
from repro.net.message import (
    Category,
    PushMessage,
    QueryMessage,
    ReplyMessage,
    Subscribe,
)

#: The delivered-hop cut's reading (10.33) plus a margin, as a whole
#: frame.
FRAMES_PER_PUSH = 11

LEAVES = range(4, 13)


def _three_level_dup_tree():
    """Root 0, interiors 1-3, leaves 4-12, every leaf subscribed."""
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
    # The canonical subscribe sequence: a miss, a hit, and the miss that
    # carries the subscription once the first copy has expired.
    for until in (0.0, 3550.0, 3650.0):
        sim.env.run(until=until)
        for leaf in LEAVES:
            sim.scheme.on_local_query(leaf)
        sim.env.run(until=until + 5.0)
    return sim


def _profile_one_update(sim):
    """Force one update and run until quiet; return (calls, pushes)."""
    pushes_before = sim.ledger.hops(Category.PUSH)
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profiler)
    try:
        sim.authority.force_update()
        sim.env.run(until=sim.env.now + 5.0)
    finally:
        sys.setprofile(None)
    return calls, sim.ledger.hops(Category.PUSH) - pushes_before


def frames_per_push() -> float:
    """The fence's reading on a fresh fixture."""
    calls, pushes = _profile_one_update(_three_level_dup_tree())
    return calls / pushes


def test_frames_per_delivered_push():
    sim = _three_level_dup_tree()
    protocol = sim.scheme.protocol
    assert all(protocol.is_subscribed(leaf) for leaf in LEAVES)
    assert all(protocol.in_dup_tree(interior) for interior in (1, 2, 3))
    calls, pushes = _profile_one_update(sim)
    assert pushes == 12  # 3 interiors + 9 leaves, one direct hop each
    assert all(
        sim.copies.peek(leaf).version is sim.authority.current
        for leaf in LEAVES
    )
    assert calls / pushes <= FRAMES_PER_PUSH, calls / pushes


def test_push_message_is_the_dataclass_it_was():
    push = PushMessage(key=7, version="v", sender=3)
    assert push.category is Category.PUSH
    assert push.trace_id is None
    assert push.reliable_id is None
    assert (push.key, push.version, push.sender) == (7, "v", 3)
    assert push == PushMessage(7, "v", 3)
    assert push != PushMessage(7, "v", 4)
    assert PushMessage(7, "v", 3, trace_id=9).trace_id == 9
    assert repr(push) == (
        "PushMessage(key=7, category=<Category.PUSH: 'push'>, "
        "trace_id=None, reliable_id=None, version='v', sender=3)"
    )
    assert not hasattr(push, "__dict__")  # still slotted


def test_query_and_reply_messages_are_the_dataclasses_they_were():
    query = QueryMessage(key=7, origin=3, issued_at=1.5)
    assert query == QueryMessage(7, 3, 1.5)
    assert query.category is Category.QUERY
    assert query.trace_id is None and query.reliable_id is None
    assert (query.key, query.origin, query.issued_at) == (7, 3, 1.5)
    assert query.path == [3] and query.control == []
    assert QueryMessage(7, 3).issued_at == 0.0
    # An empty path starts at the origin; a given one is kept as is.
    assert QueryMessage(7, 3, path=[]).path == [3]
    path, control = [3, 5], [Subscribe(3)]
    given = QueryMessage(7, 3, 1.5, path, control)
    assert given.path is path and given.control is control
    # Every message owns its lists.
    other = QueryMessage(7, 3, 1.5)
    assert other == query
    assert other.path is not query.path
    assert other.control is not query.control
    assert query != QueryMessage(7, 4, 1.5)
    assert QueryMessage(7, 3, trace_id=9).trace_id == 9
    assert repr(query) == (
        "QueryMessage(key=7, category=<Category.QUERY: 'query'>, "
        "trace_id=None, reliable_id=None, origin=3, issued_at=1.5, "
        "path=[3], control=[])"
    )
    assert not hasattr(query, "__dict__")  # still slotted

    reply = ReplyMessage(
        key=7,
        version="v",
        path=path,
        position=1,
        request_hops=1,
        issued_at=1.5,
    )
    assert reply == ReplyMessage(7, "v", [3, 5], 1, 1, 1.5)
    assert reply.path is path
    assert reply.category is Category.REPLY
    assert reply.trace_id is None and reply.reliable_id is None
    assert ReplyMessage(7, "v", path, 1, 1).issued_at == 0.0
    assert ReplyMessage(7, "v", path, 1, 1, trace_id=9).trace_id == 9
    assert reply != ReplyMessage(7, "v", path, 0, 1, 1.5)
    assert (reply.destination, reply.next_hop()) == (3, 3)
    assert repr(reply) == (
        "ReplyMessage(key=7, category=<Category.REPLY: 'reply'>, "
        "trace_id=None, reliable_id=None, version='v', path=[3, 5], "
        "position=1, request_hops=1, issued_at=1.5)"
    )
    assert not hasattr(reply, "__dict__")  # still slotted
