"""Stand-alone layer drivers: each layer's public functions timed alone.

Workload-independent.  Every driver does a fixed amount of work through
the layer's public API only, is sized for roughly a third of a second at
``size=1`` and reported as the best of three (the least-disturbed run):
operations per second, or seconds for the two build drivers.  They say
what a layer *can* do; the traced run says what it *did* on a workload.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.interest import WindowInterestPolicy
from repro.core.protocol import DupProtocol
from repro.core.tree_state import check_dup_invariants
from repro.index.cache import IndexCache
from repro.index.entry import IndexVersion
from repro.metrics.counters import CostLedger
from repro.net.message import (
    Category,
    ControlMessage,
    PushMessage,
    QueryMessage,
    ReplyMessage,
    Subscribe,
)
from repro.net.transport import Transport
from repro.sim.core import Environment
from repro.stats.distributions import Deterministic, ZipfSelector
from repro.topology.chord import ChordRing
from repro.topology.chord_tree import LazyChordTree
from repro.topology.generators import random_search_tree
from repro.workload.arrivals import make_arrival_process

_clock = time.perf_counter


def _rng(tag: int) -> np.random.Generator:
    return np.random.default_rng(1000 + tag)


def _noop() -> None:
    pass


# Every driver returns (operations done, seconds taken).


def sim_defer(size: float):
    count = int(120_000 * size)
    env = Environment()
    started = _clock()
    defer = env.defer
    for index in range(count):
        defer((index % 997) * 0.001, _noop)
    env.run()
    return count, _clock() - started


def sim_timeout(size: float):
    count = int(250_000 * size)
    env = Environment()

    def ticker():
        timeout = env.timeout
        for _ in range(count):
            yield timeout(1.0)

    started = _clock()
    env.process(ticker(), name="ticker")
    env.run()
    return count, _clock() - started


def net_hops(size: float):
    count = int(220_000 * size)
    env = Environment()
    ledger = CostLedger(clock=lambda: env.now)
    transport = Transport(env, Deterministic(0.0), _rng(1), ledger)
    remaining = [count]

    def bounce(destination, message):
        remaining[0] -= 1
        if remaining[0] > 0:
            transport.send(1 - destination, message, sender=destination)

    transport.bind(bounce)
    version = IndexVersion(key=0, version=0, issued_at=0.0, ttl=3600.0)
    started = _clock()
    transport.send(1, PushMessage(key=0, version=version, sender=0), sender=0)
    env.run()
    return count, _clock() - started


def net_msg_allocs(size: float):
    rounds = int(75_000 * size)
    version = IndexVersion(key=0, version=0, issued_at=0.0, ttl=3600.0)
    payloads = [Subscribe(7)]
    started = _clock()
    for index in range(rounds):
        query = QueryMessage(key=0, origin=index, issued_at=1.0)
        ReplyMessage(
            key=0,
            version=version,
            path=query.path,
            position=0,
            request_hops=1,
            issued_at=1.0,
        )
        PushMessage(key=0, version=version, sender=index)
        ControlMessage(key=0, payloads=payloads, sender=index)
    return rounds * 4, _clock() - started


def topology_random_tree_build(size: float):
    nodes = max(64, int(16384 * size))
    builds = 10  # one build is ~25 ms: too short to time alone
    started = _clock()
    for _ in range(builds):
        random_search_tree(nodes, 4, _rng(2))
    return builds, _clock() - started


def topology_chord_ring_build(size: float):
    nodes = max(64, int(32768 * size))
    rows = max(8, int(1024 * size))
    started = _clock()
    ring = ChordRing.random(nodes, _rng(3), bits=32)
    for node in ring.node_ids[:rows]:
        ring.finger_table(node)
    return 1, _clock() - started


def topology_lazy_parent(size: float):
    lookups = int(40_000 * size)
    ring = ChordRing.random(8192, _rng(4), bits=32)
    rng = _rng(5)
    trees = [
        LazyChordTree(ring, int(key))
        for key in rng.integers(0, 1 << 32, size=16)
    ]
    nodes = ring.node_ids
    picks = rng.integers(0, len(nodes), size=lookups)
    started = _clock()
    for index, pick in enumerate(picks):
        tree = trees[index & 15]
        node = nodes[pick]
        tree.parent(node)
        tree.depth(node)
    return lookups * 2, _clock() - started


def topology_tree_mutations(size: float):
    rounds = int(45_000 * size)
    tree = random_search_tree(2048, 4, _rng(6))
    next_id = 2048
    started = _clock()
    for index in range(rounds):
        anchor = 1 + index % 2047
        # Each mutator is followed by one depth() so the path-memo
        # invalidation it triggers is paid for, as it is under churn.
        tree.add_leaf(anchor, next_id)
        tree.depth(next_id)
        tree.insert_on_edge(anchor, next_id, next_id + 1)
        tree.depth(next_id)
        tree.splice_out(next_id + 1)
        tree.depth(next_id)
        tree.remove_leaf(next_id)
        tree.depth(anchor)
        next_id += 2
    return rounds * 4, _clock() - started


def index_cache_ops(size: float):
    rounds = int(600_000 * size)
    cache = IndexCache()
    versions = [
        IndexVersion(key=key, version=0, issued_at=0.0, ttl=3600.0)
        for key in range(64)
    ]
    started = _clock()
    for index in range(rounds):
        version = versions[index & 63]
        cache.put(version, 1.0)
        cache.get(version.key, 2.0)
    return rounds * 2, _clock() - started


def index_sweep(size: float):
    caches = max(4, int(2_000 * size))
    per_cache = 256
    versions = [
        IndexVersion(key=key, version=0, issued_at=0.0, ttl=3600.0)
        for key in range(per_cache)
    ]
    built = []
    for _ in range(caches):
        cache = IndexCache()
        for version in versions:
            cache.put(version, 0.0)
        built.append(cache)
    started = _clock()
    swept = sum(cache.sweep(7200.0) for cache in built)
    if swept != caches * per_cache:
        raise AssertionError(f"sweep evicted {swept} entries")
    return swept, _clock() - started


def core_protocol_steps(size: float):
    rounds = max(1, int(6 * size))
    tree = random_search_tree(4096, 4, _rng(7))
    protocol = DupProtocol(is_root=lambda node: node == tree.root)
    picks = [int(node) for node in _rng(8).permutation(np.arange(1, 4096))]

    def climb(node, result) -> int:
        """Carry a result's upstream payloads hop by hop to the root."""
        done = 1
        upstream = result.upstream
        while upstream:
            node = tree.parent(node)
            continued = []
            for payload in upstream:
                continued.extend(protocol.step(node, payload).upstream)
                done += 1
            upstream = continued
        return done

    steps = 0
    elapsed = 0.0
    for index in range(rounds):
        started = _clock()
        for node in picks:
            steps += climb(node, protocol.ensure_subscribed(node))
        elapsed += _clock() - started
        if index == rounds - 1:
            check_dup_invariants(protocol, tree, interested=picks)
        started = _clock()
        for node in picks:
            steps += climb(node, protocol.drop_subscription(node))
        elapsed += _clock() - started
    if protocol.nodes_with_state():
        raise AssertionError("subscriptions did not drain to zero")
    return steps, elapsed


def core_interest_ticks(size: float):
    ticks = int(800_000 * size)
    policy = WindowInterestPolicy(3600.0, 6)
    started = _clock()
    now = 0.0
    for _ in range(ticks):
        now += 300.0
        policy.record(now)
        policy.is_interested(now)
    return ticks, _clock() - started


def stats_zipf_samples(size: float):
    draws = int(160_000 * size)
    selector = ZipfSelector(4096, 0.95)
    rng = _rng(9)
    sample = selector.sample
    started = _clock()
    for _ in range(draws):
        sample(rng)
    return draws, _clock() - started


def workload_arrival_gaps(size: float):
    draws = int(320_000 * size)
    arrivals = make_arrival_process("exponential", 1.0, _rng(10))
    next_gap = arrivals.next_gap
    started = _clock()
    for _ in range(draws):
        next_gap()
    return draws, _clock() - started


def metrics_ledger_charges(size: float):
    charges = int(900_000 * size)
    ledger = CostLedger(clock=lambda: 0.0)
    charge = ledger.charge
    category = Category.QUERY
    started = _clock()
    for _ in range(charges):
        charge(category, 1)
    if ledger.total_hops != charges:
        raise AssertionError("ledger lost charges")
    return charges, _clock() - started


#: name -> (driver, unit).  ``s`` drivers report seconds per build of a
#: fixed structure; ``1/s`` drivers report operations per second.
DRIVERS = {
    "sim.defer_events_per_s": (sim_defer, "1/s"),
    "sim.timeout_events_per_s": (sim_timeout, "1/s"),
    "net.hops_per_s": (net_hops, "1/s"),
    "net.msg_allocs_per_s": (net_msg_allocs, "1/s"),
    "topology.random_tree_build_s": (topology_random_tree_build, "s"),
    "topology.chord_ring_build_s": (topology_chord_ring_build, "s"),
    "topology.lazy_parent_lookups_per_s": (topology_lazy_parent, "1/s"),
    "topology.tree_mutations_per_s": (topology_tree_mutations, "1/s"),
    "index.cache_ops_per_s": (index_cache_ops, "1/s"),
    "index.sweep_entries_per_s": (index_sweep, "1/s"),
    "core.protocol_steps_per_s": (core_protocol_steps, "1/s"),
    "core.interest_ticks_per_s": (core_interest_ticks, "1/s"),
    "stats.zipf_samples_per_s": (stats_zipf_samples, "1/s"),
    "workload.arrival_gaps_per_s": (workload_arrival_gaps, "1/s"),
    "metrics.ledger_charges_per_s": (metrics_ledger_charges, "1/s"),
}


def run_all(size: float = 1.0, repeats: int = 3) -> dict:
    """Every driver, best of ``repeats``: name -> {"value", "unit"}."""
    out = {}
    for name, (driver, unit) in DRIVERS.items():
        runs = [driver(size) for _ in range(repeats)]
        if unit == "s":
            best = min(seconds / builds for builds, seconds in runs)
        else:
            best = max(operations / seconds for operations, seconds in runs)
        out[name] = {"value": best, "unit": unit}
    return out
