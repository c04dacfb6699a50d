"""Multi-key simulation: many indices sharing one Chord overlay.

The paper's evaluation fixes a single index at one authority ("the index
is maintained at the root node") — a clean isolation of one propagation
tree.  Real deployments serve many keys at once: each key hashes to its
own authority on the DHT, giving every key its own search tree over the
*same* node population, with transport and cost accounting shared.

:class:`MultiKeyScaleSimulation` is the one multi-key engine.  Every key
gets a :class:`~repro.topology.chord_tree.LazyChordTree` (a parent is
the ring's next hop, computed from the ids at each use and never
stored), its own scheme instance
bound to a per-key :class:`~repro.schemes.host.SchemeHost`, its own
authority and its own copy table (every node's copy of that key);
queries pick a key by a Zipf law over keys and an origin node by the
paper's Zipf law over nodes.  Left at ``shard_index=0,
shard_count=1`` one instance runs every key; :func:`run_scale` cuts the
key ranking into rank shards, runs them on any number of workers, and
merges the shard results exactly.  Metrics aggregate across keys;
per-key query counts are in the extras.

A shard is consumed by its run: once ``run()`` has assembled its result
it closes the environment, unbinds every scheme and empties ``slices``
and ``schemes``, so the shard's graph is freed inside ``run()`` by
reference counting.  Nothing is left for the cyclic collector, and the
next shard's constructor pays for no deallocation.  The result is the
only thing to read afterwards.

Churn is out of scope here (each key's tree would need its own repair
sequencing), and so are faults, the reliable channel, standbys, the
auditor, overload, storms, sessions and the flight recorder.  A config
setting any of them is rejected with one :class:`~repro.errors.ConfigError`
naming them all; use the single-key engine for those studies.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Optional

from repro.engine.config import SimulationConfig
from repro.engine.results import SimulationResult
from repro.errors import ConfigError
from repro.index.authority import Authority
from repro.metrics.counters import CostLedger
from repro.metrics.latency import LatencyRecorder
from repro.net.message import Message
from repro.net.transport import Transport
from repro.schemes.host import SchemeHost
from repro.schemes.registry import make_scheme
from repro.sim.core import Environment
from repro.sim.rng import RandomStreams
from repro.stats.distributions import Exponential, shared_zipf
from repro.stats.running import percentile_of_counts
from repro.topology.chord import ChordRing
from repro.topology.chord_tree import LazyChordTree
from repro.workload.arrivals import (
    QuerySource,
    make_arrival_process,
    read_ahead,
)
from repro.workload.selection import ZipfNodeSelector

NodeId = int

#: Config fields this engine does not implement.  A config that sets any
#: of them is refused, naming them all, rather than run without them.
#: ``root_queries``: every key's authority already answers its own
#: queries here (at zero hops), so the flag could change nothing.
_UNSUPPORTED = (
    "root_queries",
    "churn",
    "faults",
    "retry",
    "audit_interval",
    "replication",
    "overload",
    "storms",
    "sessions",
    "flight_recorder",
)


class KeySlice(SchemeHost):
    """One key's host in a scale shard.

    Everything but the key's tree, authority and copy table is the
    shard's and shared: the clock, the transport and its one bound
    ``send``, the ledger, the latency recorder's one bound ``record``.
    ``record_hops`` is a method, so a slice allocates no closure of its
    own; it also counts the key's post-warm-up queries in ``queries``.
    """

    def __init__(self, *, record, warmup: float, **host) -> None:
        super().__init__(**host)
        self._record = record
        self._warmup = warmup
        #: This key's queries issued at or after the warm-up.
        self.queries = 0

    def record_hops(self, hops: float, issued_at: float) -> None:
        """Record one untraced completed query of this key."""
        self._record(hops, issued_at)
        if issued_at >= self._warmup:
            self.queries += 1


def _dispatcher(schemes: dict):
    """The transport's delivery handler over ``schemes`` (key -> scheme).

    Only scheme traffic travels here, each message under the key of the
    scheme that sent it: index that scheme's typed handler table instead
    of climbing through ``on_message``.  It closes over the table, not
    the engine, so the transport holds no reference back to the shard.
    """

    def dispatch(destination: NodeId, message: Message) -> None:
        scheme = schemes[message.key]
        scheme._handlers[message.TYPE_ID](scheme, destination, message)

    return dispatch


def default_shard_count(num_keys: int) -> int:
    """The fixed shard decomposition for ``num_keys`` indices.

    A pure function of the key count — never of the worker count — so
    results are bit-identical whichever pool size executes the shards.
    """
    return min(8, int(num_keys))


class MultiKeyScaleSimulation:
    """Simulate ``num_keys`` indices over one shared Chord overlay.

    With the default ``shard_index=0, shard_count=1`` one instance runs
    every key.  ``config.topology`` must be ``"chord"`` (per-key trees
    need a real DHT), ``config.query_rate`` is the network-wide rate
    across *all* keys, and churn and the resilience layers must be off.

    The multi-key workload decomposes exactly by key: a query for key
    ``k`` touches only ``k``'s search tree, authority, and copy
    table.  This engine exploits that to run *rank shards* — each
    shard owns a contiguous range of the global key-popularity ranking
    and simulates only its keys:

    - The Poisson query stream is **thinned** per shard: the shard's
      arrival rate is the global rate times its slice's probability
      mass, and key draws use the *conditional* Zipf law
      (:meth:`~repro.stats.distributions.ZipfSelector.slice`), so the
      union over shards reproduces the global workload law exactly.
    - Per-key trees are :class:`~repro.topology.chord_tree.LazyChordTree`
      views — O(1) setup, each parent evaluated from the ids when a
      message needs it and never stored — instead of eagerly
      materialized O(n log n)-per-key dicts.
    - Every key's copy table is swept whole once per period, and each
      shard ships its latencies as ``(hops, count)`` pairs, which add
      across shards into exact percentiles.

    The ring and the key sequence are drawn from the same streams for
    every shard (they depend only on the config), so shard ``i`` of
    ``m`` sees exactly the world the unsharded run would.  Shard-local
    streams are namespaced by rank range, making each shard a pure
    function of ``(config, num_keys, shard)`` — the parallel runner can
    execute shards in any order on any worker count without changing a
    single draw.  An unsharded run draws the bare stream names instead,
    so at one key it is bit-identical to ``Simulation`` on the same
    config with ``root_queries=True`` (``tests/test_engine_parity.py``).

    A shard is consumed by its run: :meth:`run` may be called once, and
    afterwards ``slices`` and ``schemes`` are empty.  To inspect per-key
    state, schedule a read on ``env`` before the run (at the horizon,
    ``env.defer(config.duration, read)``).
    """

    def __init__(
        self,
        config: SimulationConfig,
        num_keys: int = 1024,
        key_zipf_theta: float = 0.8,
        shard_index: int = 0,
        shard_count: int = 1,
    ):
        config.validate()
        if num_keys < 1:
            raise ConfigError(f"need at least one key, got {num_keys}")
        if not 0 <= shard_index < shard_count:
            raise ConfigError(
                f"shard {shard_index} outside [0, {shard_count})"
            )
        if shard_count > num_keys:
            raise ConfigError(
                f"cannot cut {num_keys} keys into {shard_count} shards"
            )
        if config.topology != "chord":
            raise ConfigError("scale simulation requires topology='chord'")
        unsupported = []
        for name in _UNSUPPORTED:
            value = getattr(config, name)
            # A plan counts as set when enabled, a scalar when non-zero.
            if getattr(value, "enabled", value):
                unsupported.append(name)
        if unsupported:
            raise ConfigError(
                "scale simulation does not support "
                f"{', '.join(unsupported)}; run them on Simulation"
            )
        self.config = config
        self.num_keys = num_keys
        self.shard_index = shard_index
        self.shard_count = shard_count
        self.streams = RandomStreams(config.seed)
        self.env = env = Environment()
        ring, keys = _ring_and_keys(config, num_keys)
        self.ring = ring
        self._keys = keys

        # Contiguous rank range [lo, hi) owned by this shard.
        self.rank_lo = shard_index * num_keys // shard_count
        self.rank_hi = (shard_index + 1) * num_keys // shard_count
        self._key_slice = shared_zipf(num_keys, key_zipf_theta).slice(
            self.rank_lo, self.rank_hi
        )

        # The clocks close over the environment, not the engine: no
        # member of the shard refers back to it.
        self.ledger = ledger = CostLedger(
            clock=env.now_getter(), warmup=config.warmup
        )
        self.latency = LatencyRecorder(
            clock=lambda: env.now,
            warmup=config.warmup,
            keep_samples=config.keep_latency_samples,
        )
        self.transport = transport = Transport(
            env=env,
            latency=Exponential(config.hop_latency_mean),
            rng=self._stream("latency"),
            ledger=ledger,
        )
        self.slices: dict[int, KeySlice] = {}
        self.schemes: dict[int, object] = {}
        transport.bind(_dispatcher(self.schemes))
        self._swept_entries = 0

        # Bound once for every key: the overlay is static, so every ring
        # member is in every key's tree, one recorder serves them all,
        # and one ``send`` carries every key's messages.
        alive = self.ring.members.__contains__
        record = self.latency.record
        send = transport.send
        for key in keys[self.rank_lo : self.rank_hi]:
            tree = LazyChordTree(self.ring, key)
            slice_ = KeySlice(
                env=env,
                config=config,
                transport=transport,
                send=send,
                ledger=ledger,
                tree=tree,
                key=key,
                parent=tree.parent,
                alive=alive,
                record=record,
                warmup=config.warmup,
            )
            scheme = make_scheme(config.scheme)
            scheme.bind(slice_)
            self.slices[key] = slice_
            self.schemes[key] = scheme

        self._node_selector = ZipfNodeSelector(
            self.ring.node_ids,
            config.zipf_theta,
            self._stream("placement"),
        )
        self._ran = False

    def _stream(self, name: str):
        """A shard-local stream.

        Unsharded, it is the stream of that name ``Simulation`` draws;
        a shard namespaces it by its owned rank range.
        """
        if self.shard_count == 1:
            return self.streams.get(name)
        return self.streams.get(
            f"scale/{self.rank_lo}-{self.rank_hi}/{name}"
        )

    # -- processes -----------------------------------------------------------
    def _sweep_loop(self):
        """TTL reclamation: every key's copy table swept once per period.

        The period only decides when expired copies leave memory: a read
        evicts an expired copy anyway, so no result depends on it.
        """
        interval = max(self.config.ttl / 2, 1.0)
        tables = [slice_.copies for slice_ in self.slices.values()]
        while True:
            yield self.env.timeout(interval)
            now = self.env.now
            for table in tables:
                self._swept_entries += table.sweep(now)

    # -- running ---------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Run this shard and return its (mergeable) results.

        The run consumes the shard: once the result is assembled, the
        environment is closed, every scheme unbound, and ``slices`` and
        ``schemes`` emptied, so the shard's graph is freed here, by
        reference counting, and not left to the cyclic collector.
        """
        if self._ran:
            raise RuntimeError("a MultiKeyScaleSimulation runs only once")
        self._ran = True
        started = time.perf_counter()
        config = self.config
        env = self.env
        slices, schemes, keys = self.slices, self.schemes, self._keys
        for key, slice_ in slices.items():
            slice_.authority = Authority(
                env=env,
                key=key,
                ttl=config.ttl,
                push_lead=config.push_lead,
                on_new_version=schemes[key].on_new_version,
                value=f"host-of-{key}",
            )
        # Each query draws an origin from the node selector and a key
        # rank from the shard's conditional key law.
        next_key_rank = read_ahead(
            self._key_slice, self._stream("key-draws")
        ).__next__

        def issue(node: NodeId) -> None:
            key = keys[next_key_rank()]
            slice_ = slices[key]
            if node == slice_.tree._root:
                # The authority answers its own queries locally.
                slice_.record_hops(0, env._now)
            else:
                schemes[key].on_local_query(node)

        # Thinning: a Poisson stream marked by an independent key draw
        # splits into independent Poisson streams per mark subset; this
        # shard's subset is its rank range, with probability mass
        # ``slice.mass`` under the key law.
        QuerySource(
            env,
            make_arrival_process(
                config.arrival,
                config.query_rate * self._key_slice.mass,
                self._stream("arrivals"),
                config.pareto_alpha,
            ),
            self._node_selector,
            self._stream("placement-draws"),
            issue,
        ).schedule_next()
        env.process(self._sweep_loop(), name="scale-sweeper")
        env.run(until=config.duration)
        wall = time.perf_counter() - started

        # (node, key) pairs are distinct: each scheme lists a node once.
        fanout = Counter(
            node
            for scheme in schemes.values()
            if hasattr(scheme, "subscribed_nodes")
            for node in scheme.subscribed_nodes()
        )
        parents_touched = sum(
            slice_.tree.touched for slice_ in slices.values()
        )
        extras: dict[str, object] = {
            "num_keys": self.num_keys,
            "shard_index": self.shard_index,
            "shard_count": self.shard_count,
            "rank_lo": self.rank_lo,
            "rank_hi": self.rank_hi,
            "shard_mass": self._key_slice.mass,
            "hits": self.latency.hits,
            "total_hops": self.latency.total_hops,
            "queries_per_key": dict(
                sorted(
                    ((key, slice_.queries) for key, slice_ in slices.items()),
                    key=lambda item: -item[1],
                )
            ),
            "total_subscriptions": fanout.total(),
            "max_fanout": max(fanout.values(), default=0),
            "parents_touched": parents_touched,
            "swept_entries": self._swept_entries,
            "resident_entries": sum(
                len(slice_.copies) for slice_ in slices.values()
            ),
            "state_slots": sum(
                _state_slots(slice_.copies, schemes[key]._interest)
                for key, slice_ in slices.items()
            ),
        }
        if config.keep_latency_samples:
            extras["latency_counts"] = self.latency.value_counts()
        result = SimulationResult(
            config=self.config,
            scheme=(
                f"{self.config.scheme} (scale shard "
                f"{self.shard_index}/{self.shard_count})"
            ),
            queries=self.latency.count,
            mean_latency=self.latency.mean,
            latency_ci=None,
            cost_per_query=self.ledger.cost_per_query(self.latency.count),
            hit_rate=self.latency.hit_rate,
            hop_breakdown=dict(self.ledger.breakdown()),
            dropped_messages=self.transport.dropped,
            incomplete_queries=sum(
                slice_._incomplete for slice_ in slices.values()
            ),
            final_population=len(self.ring),
            wall_seconds=wall,
            extras=extras,
        )
        env.close()
        for scheme in schemes.values():
            scheme.unbind()
        schemes.clear()
        slices.clear()
        self._node_selector = None
        return result


def _state_slots(copies, interest) -> int:
    """Distinct nodes holding one key's copy or interest state."""
    held = set(copies)
    if interest is not None:
        held.update(interest)
    return len(held)


#: Per-process memo of the most recent (ring, keys) — both are pure
#: functions of the config's seed/size, and at 10^5 nodes a ring is worth
#: reusing across the shards a worker executes.  Only the last world is
#: kept: a sweep's next point must not run beside the previous one's.
_WORLD_CACHE: dict[tuple[int, int, int], tuple[ChordRing, list[int]]] = {}


def _ring_and_keys(
    config: SimulationConfig, num_keys: int
) -> tuple[ChordRing, list[int]]:
    """The shared world every shard of a run agrees on.

    Draws the ring and then ``num_keys`` distinct key ids, in that
    order, from the ``"topology"`` stream, so the world is a pure
    function of ``(seed, num_nodes, num_keys)`` — identical in every
    worker process, whichever shards it happens to execute.
    """
    cache_key = (config.seed, config.num_nodes, num_keys)
    world = _WORLD_CACHE.get(cache_key)
    if world is None:
        _WORLD_CACHE.clear()
        rng = RandomStreams(config.seed).get("topology")
        ring = ChordRing.random(config.num_nodes, rng, bits=32)
        keys: list[int] = []
        seen: set[int] = set()
        while len(keys) < num_keys:
            key = int(rng.integers(0, 1 << 32))
            if key in seen:  # pragma: no cover - 2^-32 chance
                continue
            seen.add(key)
            keys.append(key)
        world = (ring, keys)
        _WORLD_CACHE[cache_key] = world
    return world


def _execute_scale_shard(spec) -> SimulationResult:
    """Worker-side shard executor for the parallel runner.

    ``spec.point`` carries the shard descriptor; the ring is rebuilt (or
    fetched from the per-process memo) inside the worker, so the spec
    itself stays small and picklable.
    """
    point = spec.point
    sim = MultiKeyScaleSimulation(
        config=spec.config,
        num_keys=point["num_keys"],
        key_zipf_theta=point["key_zipf_theta"],
        shard_index=point["shard_index"],
        shard_count=point["shard_count"],
    )
    return sim.run()


def run_scale(
    config: SimulationConfig,
    num_keys: int = 1024,
    key_zipf_theta: float = 0.8,
    shard_count: Optional[int] = None,
    workers: "int | str | None" = 1,
) -> SimulationResult:
    """Run a sharded multi-key simulation and merge shard results.

    ``shard_count`` defaults to :func:`default_shard_count` — a pure
    function of ``num_keys`` — and every merged number is bit-identical
    for any ``workers`` value, because workers only decide *where* the
    fixed shards execute, never what they compute.
    """
    from repro.engine.parallel import ParallelRunner, TrialSpec

    if shard_count is None:
        shard_count = default_shard_count(num_keys)
    specs = [
        TrialSpec(
            config=config,
            experiment="scale",
            point={
                "num_keys": num_keys,
                "key_zipf_theta": key_zipf_theta,
                "shard_index": index,
                "shard_count": shard_count,
            },
            scheme=config.scheme,
            replication=index,
        )
        for index in range(shard_count)
    ]
    runner = ParallelRunner(
        workers=workers, experiment="scale", execute=_execute_scale_shard
    )
    results = runner.run_trials(specs)
    return merge_scale_results(results)


def merge_scale_results(results: list[SimulationResult]) -> SimulationResult:
    """Exact cross-shard merge of per-shard :class:`SimulationResult`\\ s.

    Counts and hop sums add; the mean and hit rate are recomputed from
    the merged numerators; the latency percentiles are exact, read off
    the sum of the shards' ``(hops, count)`` pairs (``nan`` when the
    config did not keep latency samples).  Wall-clock is the *sum* of
    shard walls (total compute spent), never part of any golden.
    """
    if not results:
        raise ConfigError("no shard results to merge")
    queries = sum(result.queries for result in results)
    hits = sum(int(result.extras["hits"]) for result in results)
    total_hops = sum(
        float(result.extras["total_hops"]) for result in results
    )
    charged: dict[str, int] = {}
    for result in results:
        for category, count in result.hop_breakdown.items():
            charged[category] = charged.get(category, 0) + count
    cost_total = sum(
        result.cost_per_query * result.queries
        for result in results
        if result.queries
    )
    latency_counts: Counter = Counter()
    shipped = [result.extras.get("latency_counts") for result in results]
    if None not in shipped:
        for pairs in shipped:
            for hops, count in pairs:
                latency_counts[hops] += count
    ordered = sorted(latency_counts.items())
    queries_per_key: dict[int, int] = {}
    for result in results:
        queries_per_key.update(result.extras["queries_per_key"])
    first = results[0]
    extras: dict[str, object] = {
        "num_keys": first.extras["num_keys"],
        "shard_count": len(results),
        "hits": hits,
        "total_hops": total_hops,
        "queries_per_key": dict(
            sorted(queries_per_key.items(), key=lambda item: -item[1])
        ),
        "total_subscriptions": sum(
            int(result.extras["total_subscriptions"]) for result in results
        ),
        "max_fanout": max(
            int(result.extras["max_fanout"]) for result in results
        ),
        "parents_touched": sum(
            int(result.extras["parents_touched"]) for result in results
        ),
        "swept_entries": sum(
            int(result.extras["swept_entries"]) for result in results
        ),
        "resident_entries": sum(
            int(result.extras["resident_entries"]) for result in results
        ),
        "state_slots": sum(
            int(result.extras["state_slots"]) for result in results
        ),
        "latency_p50": percentile_of_counts(ordered, 50),
        "latency_p95": percentile_of_counts(ordered, 95),
        "latency_p99": percentile_of_counts(ordered, 99),
    }
    return SimulationResult(
        config=first.config,
        scheme=(
            f"{first.config.scheme} "
            f"(scale x{first.extras['num_keys']} keys, "
            f"{len(results)} shards)"
        ),
        queries=queries,
        mean_latency=total_hops / queries if queries else float("nan"),
        latency_ci=None,
        cost_per_query=cost_total / queries if queries else float("nan"),
        hit_rate=hits / queries if queries else float("nan"),
        hop_breakdown=charged,
        dropped_messages=sum(r.dropped_messages for r in results),
        incomplete_queries=sum(r.incomplete_queries for r in results),
        final_population=first.final_population,
        wall_seconds=sum(r.wall_seconds for r in results),
        extras=extras,
    )
