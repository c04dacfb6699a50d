"""Wiring of one simulation run.

:class:`Simulation` builds the topology, transport, copy table, scheme,
authority, and workload from a :class:`~repro.engine.config.SimulationConfig`,
runs the event loop for the configured horizon, and collects the paper's
two metrics into a :class:`~repro.engine.results.SimulationResult`.

It is the :class:`~repro.schemes.host.SchemeHost` its scheme is bound
to, overriding only what its layers add: an injector-aware
``functioning``, stale-read tracking (``note_read``), the suspicion
path into Section III-C repair (``suspect_peer``), and tracing
(``enable_tracing``).

Observability is wired here: :meth:`Simulation.monitor` gives a run
its one :class:`~repro.sim.monitor.Monitor`, which samples probes and
the :meth:`Simulation.snapshot` of every quantity the result reports,
and :meth:`Simulation.enable_tracing` attaches a
:class:`~repro.engine.tracing.TraceCollector` that reconstructs every
query's causal chain from the transport observer tap.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Optional

from repro import flightrec
from repro.engine.config import SimulationConfig
from repro.engine.results import SimulationResult
from repro.errors import ConfigError
from repro.index.authority import Authority, StandbyPool
from repro.index.entry import IndexVersion
from repro.metrics.counters import CostLedger
from repro.metrics.latency import LatencyRecorder
from repro.metrics.registry import Histogram
from repro.net.faults import FaultInjector, FaultPlan
from repro.net.message import (
    AckMessage,
    AuthorityHeartbeat,
    AuthorityReplicate,
    Category,
    Message,
    ReplyMessage,
)
from repro.net.overload import OverloadManager, build_manager
from repro.net.reliable import ReliableChannel
from repro.net.transport import Transport, TransportEvent
from repro.schemes.host import SchemeHost
from repro.schemes.registry import make_scheme
from repro.sim.core import Environment
from repro.sim.monitor import Monitor
from repro.sim.rng import RandomStreams
from repro.stats.distributions import Exponential
from repro.topology.chord import ChordRing
from repro.topology.chord_tree import chord_search_tree
from repro.topology.can import CanOverlay, can_search_tree
from repro.topology.generators import (
    chain_tree,
    complete_tree,
    random_search_tree,
    star_tree,
)
from repro.topology.tree import SearchTree
from repro.workload.arrivals import QuerySource, make_arrival_process
from repro.workload.churn import ChurnEvent, ChurnProcess
from repro.workload.selection import ZipfNodeSelector
from repro.workload.sessions import SessionEngine
from repro.workload.storms import StormEngine

NodeId = int


class Simulation(SchemeHost):
    """One end-to-end simulation run (build once, :meth:`run` once)."""

    def __init__(self, config: SimulationConfig):
        config.validate()
        self.config = config
        self.streams = RandomStreams(config.seed)
        self.env = Environment()
        tree, key = self._build_topology()
        ledger = CostLedger(
            clock=self.env.now_getter(), warmup=config.warmup
        )
        self.latency = LatencyRecorder(
            clock=lambda: self.env.now,
            warmup=config.warmup,
            keep_samples=config.keep_latency_samples,
        )
        # -- flight recorder: a pure observer (no RNG, no events), so a
        # run with it armed is bit-identical to one without.  Armed by
        # config or process-wide by REPRO_FLIGHT.
        if config.flight_recorder or flightrec.ENABLED:
            self.recorder = flightrec.FlightRecorder(
                clock=lambda: self.env.now
            )
            flightrec.LAST = self.recorder
        # -- fault layer: only constructed when a plan asks for it, so a
        # fault-free run is bit-identical to one without the layer.  A
        # session plan that crashes peers implies silent failures: the
        # crash-restart path goes through the injector's blackholing.
        fault_plan = config.faults
        if config.sessions is not None and config.sessions.crashes_enabled:
            base = fault_plan if fault_plan is not None else FaultPlan()
            if not base.silent_failures:
                fault_plan = dataclasses.replace(base, silent_failures=True)
        self.injector: Optional[FaultInjector] = None
        if fault_plan is not None and fault_plan.enabled:
            self.injector = FaultInjector(
                fault_plan,
                self.streams,
                clock=lambda: self.env.now,
                recorder=self.recorder,
            )
        transport = Transport(
            env=self.env,
            latency=Exponential(config.hop_latency_mean),
            rng=self.streams.get("latency"),
            ledger=ledger,
            injector=self.injector,
        )
        transport.bind(self._dispatch)
        # ``parent`` and ``alive`` are the tree's parent map's own C
        # methods: the mutators edit that map in place and never replace
        # it.  ``alive`` is the schemes' view, in which a silently failed
        # node stays a member until some survivor detects the crash
        # (schemes keep sending to it and the transport blackholes the
        # traffic).  Untraced completions go straight to the recorder.
        super().__init__(
            env=self.env,
            config=config,
            transport=transport,
            ledger=ledger,
            tree=tree,
            key=key,
            parent=tree._parent.get,
            alive=tree._parent.__contains__,
            record_hops=self.latency.record,
        )
        retry = config.retry
        if retry is not None:
            self.reliable = ReliableChannel(
                env=self.env,
                transport=self.transport,
                retry_budget=retry.budget,
                base_timeout=config.ack_timeout,
                timeout_cap=retry.timeout_cap or math.inf,
                on_give_up=self._on_delivery_give_up,
                functioning=self.functioning,
            )
        # -- overload layer: like the fault injector, only constructed
        # when the plan enables something, so a run without it is
        # bit-identical to a build without the layer.
        self.overload: Optional[OverloadManager] = build_manager(
            env=self.env,
            plan=config.overload,
            deliver=self._dispatch_queued,
            recorder=self.recorder,
        )
        # One-attribute hot-path check: the inbox model only intercepts
        # dispatch when a service rate is configured.
        self._inbox_admit = (
            self.overload.admit
            if self.overload is not None and self.overload.plan.inboxes_enabled
            else None
        )
        self.storms: Optional[StormEngine] = None
        if config.storms is not None and config.storms.enabled:
            self.storms = StormEngine(self, config.storms)
        # -- peer fluctuation: constructed before the scheme binds (the
        # DUP scheme wires its flap-damping gate off ``sim.sessions``);
        # an absent or inert plan leaves the attribute None and the run
        # bit-identical to a build without the layer.
        if config.sessions is not None and config.sessions.enabled:
            self.sessions = SessionEngine(self, config.sessions)
        self._past_warmup = config.warmup <= 0.0
        self._reads = 0
        self._stale_reads = 0
        self._suspicions = 0
        self._detection_latency: Optional[Histogram] = None
        if self.injector is not None and fault_plan.silent_failures:
            self._detection_latency = Histogram("detection_latency")
        self._pending_suspicions: set[tuple[NodeId, NodeId]] = set()
        if self.injector is not None:
            self.transport.add_observer(self._observe_fault_drops)
        self._next_node_id = max(self.tree.nodes) + 1
        eligible = list(self.tree.nodes)
        if not config.root_queries:
            eligible.remove(self.tree.root)
        self.selector = ZipfNodeSelector(
            eligible, config.zipf_theta, self.streams.get("placement")
        )
        self.scheme = make_scheme(config.scheme)
        self.scheme.bind(self)
        # -- authority failover: standbys chosen breadth-first from the
        # root, so the most promotable nodes sit closest to it.
        self.standby_pool: Optional[StandbyPool] = None
        replication = config.replication
        if replication is not None:
            self.standby_pool = StandbyPool(
                env=self.env,
                standbys=self._choose_standbys(replication.standbys),
                failover_timeout=replication.failover_timeout,
                recorder=self.recorder,
            )
        self._failover_at: Optional[float] = None
        self.auditor = None
        self._monitor: Optional[Monitor] = None
        self._trace = None
        self._ran = False

    # -- construction helpers -----------------------------------------------
    def _build_topology(self) -> tuple[SearchTree, int]:
        config = self.config
        rng = self.streams.get("topology")
        if config.topology == "random-tree":
            return random_search_tree(config.num_nodes, config.max_degree, rng), 0
        if config.topology == "chord":
            ring = ChordRing.random(config.num_nodes, rng, bits=32)
            key = int(rng.integers(0, 1 << 32))
            return chord_search_tree(ring, key), key
        if config.topology == "can":
            overlay = CanOverlay.random(config.num_nodes, rng, dimensions=2)
            key = int(rng.integers(0, 1 << 32))
            return can_search_tree(overlay, key), key
        if config.topology == "balanced":
            return complete_tree(config.num_nodes, config.max_degree), 0
        if config.topology == "chain":
            return chain_tree(config.num_nodes), 0
        if config.topology == "star":
            return star_tree(config.num_nodes), 0
        raise ConfigError(f"unknown topology {config.topology!r}")

    def _choose_standbys(self, count: int) -> list[NodeId]:
        """The ``count`` nodes closest to the root, breadth-first.

        Standbys near the root keep the replication path short and, on
        promotion, disturb the tree the least (a direct child of the
        root hands its own children straight to the new root).
        """
        from collections import deque

        chosen: list[NodeId] = []
        queue = deque([self.tree.root])
        while queue and len(chosen) < count:
            node = queue.popleft()
            for child in self.tree.children(node):
                if len(chosen) < count:
                    chosen.append(child)
                queue.append(child)
        if len(chosen) < count:  # pragma: no cover - validated in config
            raise ConfigError(
                f"topology too small for {count} authority standbys"
            )
        return chosen

    # -- the host members the layers change ---------------------------------
    def functioning(self, node: NodeId) -> bool:
        """Whether ``node`` is alive *and* actually responding.

        The engine-internal truth: silently failed nodes are members of
        the overlay but generate no queries, refresh no leases, and emit
        no repair traffic.
        """
        if node not in self.tree:
            return False
        return self.injector is None or not self.injector.is_dead(node)

    def note_read(self, version: IndexVersion) -> None:
        """A query was answered with ``version``; track staleness.

        A read is *stale* when the served copy is older than the
        authority's current version — the consistency metric the TTL /
        push trade-off is about.  Warm-up reads are ignored, matching
        the other recorders.
        """
        if not self._past_warmup:
            # Sim time only moves forward during a run, so once the
            # warm-up has passed the clock never needs consulting again.
            if self.env._now < self.config.warmup:
                return
            self._past_warmup = True
        self._reads += 1
        # The authority's ``_current`` is read directly (no property
        # frame): this runs once per served query.
        authority = self.authority
        if (
            authority is not None
            and version.version < authority._current.version
        ):
            self._stale_reads += 1

    @property
    def stale_read_fraction(self) -> float:
        """Fraction of post-warm-up reads that served a stale version."""
        if self._reads == 0:
            return float("nan")
        return self._stale_reads / self._reads

    def suspect_peer(self, reporter: NodeId, suspect: NodeId) -> None:
        """``reporter`` concluded that ``suspect`` is unresponsive.

        Raised by exhausted retry budgets and expired leases.  When the
        suspect really did fail silently, this is the detection moment:
        the latency since the crash is observed and the full Section
        III-C repair (:meth:`Scheme.on_node_failed`) finally runs.  A
        false suspicion of a live node never mutates the overlay — the
        scheme only cleans up the reporter's local state
        (:meth:`Scheme.on_peer_suspected`).
        """
        self._suspicions += 1
        injector = self.injector
        if (
            injector is not None
            and injector.is_dead(suspect)
            and suspect in self.tree
        ):
            if suspect == self.tree.root:
                # Failure case 5 cannot run node_failed (the root has no
                # parent to splice into): route the suspicion to the
                # standby failover machinery instead.
                self._promote_standby()
                return
            latency = injector.mark_detected(suspect)
            if latency is not None and self._detection_latency is not None:
                self._detection_latency.observe(latency)
            self.scheme.on_node_failed(suspect)
            return
        self.scheme.on_peer_suspected(reporter, suspect)

    def fail_silently(self, victim: NodeId) -> None:
        """Crash ``victim`` without telling anyone.

        The node stays in the overlay and blackholes traffic until a
        survivor's suspicion (retry exhaustion or lease expiry) triggers
        repair through :meth:`suspect_peer`.  Requires a fault plan with
        ``silent_failures``.
        """
        if self.injector is None:
            raise ConfigError(
                "fail_silently needs a FaultPlan with silent_failures"
            )
        self.injector.mark_failed(victim)
        if self.reliable is not None:
            self.reliable.drop_sender(victim)
        if victim == self.tree.root and self.authority is not None:
            # A crashed authority issues nothing further; standbys will
            # notice the heartbeat/replication silence and promote.
            self.authority.stop()

    def crash_node(self, node: NodeId) -> dict:
        """Silently crash ``node`` for a crash-restart cycle.

        Unlike churn failure, the node's state is *not* lost: it keeps
        its subscriber list, scheme trackers, and index cache across the
        downtime (amnesia semantics — what survives a process restart on
        the same host).  Returns the snapshot :meth:`rejoin_node` needs;
        the fluctuation layer holds it while the node is down.
        """
        snapshot = {
            "parent": self.parent(node),
            "scheme": self.scheme.snapshot_for_rejoin(node),
            "copy": self.copies.peek(node),
        }
        self.fail_silently(node)
        return snapshot

    def rejoin_node(
        self, node: NodeId, snapshot: dict, suppressed: bool = False
    ) -> None:
        """``node`` restarts after :meth:`crash_node`; reconcile it.

        While it was down a survivor may have detected the crash and
        spliced it out (then the pre-crash parent — or the root, if that
        parent is itself gone — re-grafts it), or nobody noticed and it
        is still in place.  Either way the retained state in
        ``snapshot`` is re-validated by the scheme's reconciliation
        handshake; with ``suppressed`` (flap damping) the state is
        discarded instead and no re-graft/resubscribe traffic is sent.
        """
        if self.injector is not None:
            self.injector.revive(node)
        if node in self.tree:
            parent = self.parent(node)
            if parent is None:
                parent = self.tree.root
        else:
            parent = snapshot.get("parent")
            if parent is None or not self.functioning(parent):
                parent = self.tree.root
        copy = snapshot.get("copy")
        if copy is not None:
            # When the failure repair dropped the copy, the restarted
            # process still has it on disk, stored when it was.  Version
            # monotonicity holds: IndexCache.put rejects regressions, so
            # a stale restored copy is superseded by the next fresher
            # reply.
            self.copies.restore(node, copy)
        self.scheme.on_node_rejoined(
            node, parent, snapshot.get("scheme"), suppressed
        )

    def _on_delivery_give_up(
        self, sender: NodeId, destination: NodeId, message: Message
    ) -> None:
        if not self.functioning(sender):
            return  # the reporter died while its last timer was pending
        overload = self.overload
        if overload is not None and overload.plan.breakers_enabled:
            # With breakers, a give-up feeds the breaker instead of the
            # insta-suspicion path: an overloaded (not dead) peer keeps
            # its subscriptions; sends to it are suppressed until the
            # half-open probe finds it answering again.
            overload.record_failure(sender, destination, reason="give-up")
            return
        self.suspect_peer(sender, destination)

    def _observe_fault_drops(self, event: TransportEvent) -> None:
        # Injected losses, blackholes, and partition cuts end queries
        # just like churn drops do; count them so incomplete-query
        # accounting stays honest under faults.
        if event.kind != "drop" or event.reason not in (
            "loss",
            "blackhole",
            "partition",
        ):
            return
        if event.message.category in (Category.QUERY, Category.REPLY):
            self.note_incomplete_query()
        if (
            event.reason == "blackhole"
            and event.sender is not None
            and event.destination is not None
            and event.message.reliable_id is None
        ):
            # Unreliable traffic into a dead node: the sender's request
            # times out and it probes the silent neighbor — the paper's
            # "when a node detects the failure" moment for nodes that
            # hold no DUP state (reliable traffic detects via its own
            # exhausted retries instead).  One timer per (sender, dead
            # peer) pair at a time.
            key = (event.sender, event.destination)
            if key in self._pending_suspicions:
                return
            self._pending_suspicions.add(key)
            retry = self.config.retry
            budget = 0 if retry is None else retry.budget
            timeout = self.config.ack_timeout * (budget + 1)
            self.env.defer(timeout, self._timeout_suspicion, *key)

    def _timeout_suspicion(self, reporter: NodeId, suspect: NodeId) -> None:
        self._pending_suspicions.discard((reporter, suspect))
        if not self.functioning(reporter) or suspect not in self.tree:
            return
        self.suspect_peer(reporter, suspect)

    # -- tracing ------------------------------------------------------------
    def enable_tracing(self, keep: int = 100_000):
        """Attach a :class:`~repro.engine.tracing.TraceCollector`.

        Must be called before :meth:`run`; returns the collector.  Every
        post-warm-up query then yields a reconstructed end-to-end trace.
        A repeat call with the same ``keep`` returns the same collector;
        one asking for another ``keep`` is refused.
        """
        from repro.engine.tracing import TraceCollector

        self._before_run("enable_tracing")
        if self.tracer is not None:
            if keep != self.tracer.keep:
                raise ConfigError(
                    f"enable_tracing asks to keep {keep} traces, but the "
                    f"collector already keeps {self.tracer.keep}"
                )
            return self.tracer
        self.tracer = TraceCollector(
            clock=lambda: self.env.now,
            warmup=self.config.warmup,
            depth_of=self._node_depth,
            keep=keep,
        )
        self.transport.add_observer(self.tracer.observe)
        return self.tracer

    def _node_depth(self, node: NodeId) -> Optional[int]:
        if node not in self.tree:
            return None
        return self.tree.depth(node)

    def dump_flight(self, path) -> int:
        """Dump the flight recorder's ring as JSONL; 0 when unarmed."""
        if self.recorder is None:
            return 0
        return self.recorder.dump(path)

    def allocate_node_id(self) -> NodeId:
        """A fresh node id for a joining node."""
        node = self._next_node_id
        self._next_node_id += 1
        return node

    def use_trace(self, trace) -> None:
        """Replay a :class:`repro.workload.trace.QueryTrace` instead of
        generating queries (must be called before :meth:`run`).

        Every event node must exist in the topology; events on departed
        (churn) or crashed (silent failure) nodes are skipped.
        """
        self._before_run("use_trace")
        self._trace = trace

    def _before_run(self, method: str) -> None:
        """Refuse an attachment :meth:`run` would never see."""
        if self._ran:
            raise RuntimeError(f"{method} must precede run()")

    def monitor(
        self,
        interval: float = 600.0,
        max_samples: Optional[int] = Monitor.DEFAULT_MAX_SAMPLES,
    ) -> Monitor:
        """The run's one :class:`~repro.sim.monitor.Monitor`, sampling
        every ``interval`` simulated seconds (must precede :meth:`run`).

        Probes, the tree timeline and the result :meth:`snapshot` all
        register on it.  The first call fixes the cadence and retention;
        a repeat call with the same arguments returns the same monitor,
        and one asking for others is refused.
        """
        self._before_run("monitor")
        monitor = self._monitor
        if monitor is None:
            monitor = self._monitor = Monitor(self.env, interval, max_samples)
        elif (interval, max_samples) != (
            monitor.interval, monitor.max_samples
        ):
            raise ConfigError(
                f"monitor asks for interval {interval} with max_samples "
                f"{max_samples}, but the run already samples every "
                f"{monitor.interval} with max_samples {monitor.max_samples}"
            )
        return monitor

    def snapshot(self) -> dict[str, object]:
        """Every quantity the run's result reports, read now, by the
        name the result gives it (:meth:`SimulationResult.values`)."""
        return self._collect(math.nan).values()

    # -- internals -----------------------------------------------------------
    def _dispatch(self, destination: NodeId, message: Message) -> None:
        if destination not in self.tree._parent:
            self.transport.drop(message, destination=destination)
            if isinstance(message, ReplyMessage):
                self.note_incomplete_query()
            return
        admit = self._inbox_admit
        if admit is not None and not admit(destination, message):
            return  # queued for later service (or shed) by the inbox
        type_id = message.TYPE_ID
        if type_id < 4 and self.reliable is None:
            # Scheme traffic (query/reply/control/push) with no ack
            # layer: nothing in ``_dispatch_now`` applies to it, so the
            # scheme's typed handler table is indexed here.
            scheme = self.scheme
            scheme._handlers[type_id](scheme, destination, message)
        else:
            self._dispatch_now(destination, message)

    def _dispatch_queued(self, destination: NodeId, message: Message) -> None:
        """Deliver a message the overload inbox held back until now.

        The destination may have departed while the message sat queued;
        the membership check must run again at service time.
        """
        if destination not in self.tree:
            self.transport.drop(message, destination=destination)
            if isinstance(message, ReplyMessage):
                self.note_incomplete_query()
            return
        self._dispatch_now(destination, message)

    def _dispatch_now(self, destination: NodeId, message: Message) -> None:
        if isinstance(message, (AuthorityReplicate, AuthorityHeartbeat)):
            # Failover plumbing is consumed by the engine, not the scheme.
            pool = self.standby_pool
            if pool is not None:
                if isinstance(message, AuthorityReplicate):
                    pool.record_state(destination, message.state)
                else:
                    pool.record_heartbeat(destination)
            return
        channel = self.reliable
        if channel is not None:
            if isinstance(message, AckMessage):
                channel.on_ack(destination, message)
                overload = self.overload
                if overload is not None and overload.plan.breakers_enabled:
                    # The acked peer answered: close its breaker even if
                    # the cooldown has not elapsed (the half-open race).
                    overload.record_success(destination, message.sender)
                return
            if message.reliable_id is not None and not channel.deliver(
                destination, message
            ):
                return  # retransmission duplicate: already processed
        self.scheme.on_message(destination, message)

    def _authority_coalesce_gap(self) -> float:
        """The authority's forced-update coalescing gap (0 when off)."""
        overload = self.overload
        if overload is None:
            return 0.0
        return overload.plan.authority_coalesce_gap

    def _on_new_version(self, version: IndexVersion) -> None:
        self.scheme.on_new_version(version)
        self._replicate_authority_state()

    # -- authority failover ---------------------------------------------------
    def _replicate_authority_state(self) -> None:
        """Ship the authority's state to every standby (after each issue)."""
        pool = self.standby_pool
        if pool is None or self.authority is None:
            return
        root = self.tree.root
        if not self.functioning(root):
            return
        state = self.authority.state()
        for standby in pool.standbys:
            if standby == root or standby not in self.tree:
                continue
            message = AuthorityReplicate(
                key=self.key, state=state, sender=root
            )
            self.transport.send(standby, message, sender=root)

    def _authority_heartbeat_loop(self):
        """Authority -> standby liveness beacons between issues."""
        pool = self.standby_pool
        interval = pool.failover_timeout / 3.0
        while True:
            yield self.env.timeout(interval)
            if pool.promoted is not None:
                return
            root = self.tree.root
            if not self.functioning(root):
                continue  # a crashed authority falls silent
            for standby in pool.standbys:
                if standby == root or standby not in self.tree:
                    continue
                message = AuthorityHeartbeat(key=self.key, sender=root)
                self.transport.send(standby, message, sender=root)

    def _failover_watch_loop(self):
        """Standby-side crash detection: promote on authority silence.

        Promotion additionally requires the authority to actually be
        gone (``functioning`` false): silence alone can also mean the
        standbys sit on the wrong side of a partition, and promoting a
        standby while the real authority lives would split the brain —
        a state this single-authority model cannot represent, so the
        standbys deliberately wait the partition out.
        """
        pool = self.standby_pool
        interval = pool.failover_timeout / 4.0
        while True:
            yield self.env.timeout(interval)
            if pool.promoted is not None:
                return
            if not self.functioning(self.tree.root) and pool.starved(
                self.functioning
            ):
                self._promote_standby()

    def _crash_authority(self) -> None:
        """Deliberately crash the current authority (chaos event)."""
        pool = self.standby_pool
        if pool is None or pool.promoted is not None:
            return
        root = self.tree.root
        if not self.functioning(root):
            return  # already down
        if self.injector is not None and self.injector.plan.silent_failures:
            # Silent: the root blackholes traffic and the authority falls
            # silent; standbys detect the starvation and promote in the
            # watch loop (realistic detection latency).
            self.fail_silently(root)
        else:
            # Oracle: promotion is immediate, mirroring the oracle
            # notification of ordinary node failures.
            if self.authority is not None:
                self.authority.stop()
            self._promote_standby(force=True)

    def _promote_standby(self, force: bool = False) -> Optional[NodeId]:
        """Fail the tree over to the first viable standby.

        Re-roots the search tree through the scheme's repair flows,
        rebuilds the authority at the successor from the replicated
        state (with a catch-up estimate for issues lost to replication
        lag), and resumes version rotation.  Returns the successor, or
        ``None`` when failover is impossible or already done.
        """
        pool = self.standby_pool
        if pool is None or pool.promoted is not None:
            return None
        old_root = self.tree.root
        if not force and self.functioning(old_root):
            return None  # split-brain gate (see _failover_watch_loop)
        successor = pool.promote(self.functioning, force=force)
        if successor is None:
            return None
        injector = self.injector
        if injector is not None and injector.is_dead(old_root):
            latency = injector.mark_detected(old_root)
            if latency is not None and self._detection_latency is not None:
                self._detection_latency.observe(latency)
        if self.authority is not None and not self.authority.stopped:
            self.authority.stop()
        state = pool.state_at(successor)
        if state is None and force and self.authority is not None:
            # Oracle crash before the first replication arrived: the
            # engine may read the state directly, like other oracle paths.
            state = self.authority.state()
        self.scheme.on_root_failed(successor)
        self.forget_node(old_root)
        refresh = self.config.ttl - self.config.push_lead
        if state is not None:
            # Catch up past issues lost with the old root: one per elapsed
            # refresh interval since the snapshot, plus one for the gap.
            elapsed = max(0.0, self.env.now - state.replicated_at)
            initial = state.next_version + int(elapsed // refresh) + 1
            value = state.value
        else:  # pragma: no cover - desperation path, no replica anywhere
            initial = 0
            value = f"host-of-{self.key}"
        self.authority = Authority(
            env=self.env,
            key=self.key,
            ttl=self.config.ttl,
            push_lead=self.config.push_lead,
            on_new_version=self._on_new_version,
            value=value,
            initial_version=initial,
            min_issue_gap=self._authority_coalesce_gap(),
        )
        self._failover_at = self.env.now
        if self.auditor is not None:
            self.auditor.note_disruption("failover")
        return successor

    def _partition_loop(self):
        """Open and heal the scheduled partition windows."""
        injector = self.injector
        for window in injector.plan.partitions:
            delay = window.start - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            injector.begin_partition(
                list(self.tree.nodes), window.components
            )
            yield self.env.timeout(window.duration)
            injector.heal_partition()
            if self.auditor is not None:
                self.auditor.note_disruption("partition")

    def _audit_loop(self):
        """Periodic anti-entropy sweep of the DUP tree invariants."""
        interval = self.config.audit_interval
        while True:
            yield self.env.timeout(interval)
            confirmed = self.auditor.sweep()
            if confirmed and self.recorder is not None:
                # Divergence is an anomaly worth a post-mortem: flush
                # the ring (latest divergence wins the file).
                self.recorder.anomaly("auditor-divergence")

    def _query_source(self) -> QuerySource:
        config = self.config
        churning = config.churn is not None and config.churn.enabled
        guarded = (
            churning
            or self.injector is not None
            or (config.replication is not None
                and config.replication.crash_at > 0)
        )

        def eligible_origin(node: NodeId) -> bool:
            # After a failover the promoted standby IS in the selector's
            # population (only the original root was excluded at build
            # time); keep the root-queries policy holding for it too.
            return self.functioning(node) and (
                config.root_queries or node != self.tree.root
            )

        sessions = self.sessions
        diurnal = sessions is not None and sessions.plan.diurnal_enabled
        return QuerySource(
            self.env,
            make_arrival_process(
                config.arrival,
                config.query_rate,
                self.streams.get("arrivals"),
                config.pareto_alpha,
            ),
            self.selector,
            self.streams.get("placement-draws"),
            self.scheme.on_local_query,
            eligible=eligible_origin if guarded else None,
            # Diurnal modulation: the same stream draws, with the gap
            # divided by the intensity curve at issue time — higher
            # intensity, shorter gaps, identical distribution family.
            modulation=sessions.modulation if diurnal else None,
        )

    def _trace_loop(self):
        for event in self._trace:
            delay = event.time - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            if self.functioning(event.node):
                self.scheme.on_local_query(event.node)

    def _churn_loop(self):
        process = ChurnProcess(self.config.churn, self.streams.get("churn"))
        while True:
            yield self.env.timeout(process.next_gap())
            self._apply_churn(process)

    def _apply_churn(self, process: ChurnProcess) -> None:
        kind = process.next_kind()
        nodes = self.tree.nodes
        # The functioning population in the tree's own parent-map order
        # (the order pick_victim's index refers to), read at C speed: no
        # functioning() call per node, no second copy of the membership
        # to keep in step with the mutators.  The injector remembers
        # victims already spliced out, hence the intersection.
        dead = self.injector.dead & nodes if self.injector is not None else ()
        candidates = (
            [n for n in nodes if n not in dead] if dead else list(nodes)
        )
        population = len(candidates)
        with_root = kind is ChurnEvent.JOIN_LEAF or (
            kind is ChurnEvent.FAIL
            and self.config.churn.allow_root_failure
            and self.standby_pool is not None
            and self.standby_pool.promoted is None
        )
        if not with_root and self.tree.root not in dead:
            # Dropped by position, so the survivors keep their order.
            candidates.remove(self.tree.root)
        if not candidates:
            return
        if kind is ChurnEvent.JOIN_EDGE:
            lower = process.pick_victim(candidates)
            upper = self.tree.parent(lower)
            self.scheme.on_node_joined_edge(
                self.allocate_node_id(), upper, lower
            )
        elif kind is ChurnEvent.JOIN_LEAF:
            parent = process.pick_victim(candidates)
            self.scheme.on_node_joined_leaf(parent, self.allocate_node_id())
        elif population > process.config.min_population:
            victim = process.pick_victim(candidates)
            if kind is ChurnEvent.LEAVE:
                self.scheme.on_node_left(victim)
            elif victim == self.tree.root:
                # The churned failure hit the authority itself: this is
                # the deliberate root-crash path behind allow_root_failure.
                self._crash_authority()
            elif (
                self.injector is not None
                and self.injector.plan.silent_failures
            ):
                # Silent mode: the victim blackholes traffic until a
                # survivor suspects it; no oracle notification.
                self.fail_silently(victim)
            else:
                self.scheme.on_node_failed(victim)

    # -- running ----------------------------------------------------------------
    def start(self) -> None:
        """Start the authority (idempotent).

        Tests use this to drive queries and churn by hand;
        :meth:`run` calls it before installing the workload processes.
        """
        if self.authority is not None:
            return
        if self.standby_pool is not None:
            # Registered before the authority so the very first issue's
            # replication finds the watch machinery in place.
            self.env.process(
                self._authority_heartbeat_loop(),
                name=f"authority-heartbeat-{self.key}",
            )
            self.env.process(
                self._failover_watch_loop(),
                name=f"failover-watch-{self.key}",
            )
        if self.injector is not None and self.injector.plan.partitions:
            self.env.process(
                self._partition_loop(), name=f"partitions-{self.key}"
            )
        if self.config.audit_interval > 0 and hasattr(
            self.scheme, "protocol"
        ):
            from repro.core.auditor import ConsistencyAuditor

            self.auditor = ConsistencyAuditor(
                protocol=self.scheme.protocol,
                tree=self.tree,
                clock=lambda: self.env.now,
                emit=self.scheme._emit_maintenance,
                recorder=self.recorder,
            )
            self.env.process(
                self._audit_loop(), name=f"auditor-{self.key}"
            )
        replication = self.config.replication
        if replication is not None and replication.crash_at > 0:
            self.env.defer(replication.crash_at, self._crash_authority)
        if self.storms is not None:
            self.storms.install()
        if self.sessions is not None:
            self.sessions.install()
        self.authority = Authority(
            env=self.env,
            key=self.key,
            ttl=self.config.ttl,
            push_lead=self.config.push_lead,
            on_new_version=self._on_new_version,
            value=f"host-of-{self.key}",
            min_issue_gap=self._authority_coalesce_gap(),
        )

    def run(self) -> SimulationResult:
        """Execute the run and collect results (one-shot)."""
        if self._ran:
            raise RuntimeError("a Simulation instance runs only once")
        self._ran = True
        started = time.perf_counter()
        self.start()
        if self._trace is not None:
            self.env.process(self._trace_loop(), name="trace-workload")
        else:
            self._query_source().schedule_next()
        if self.config.churn is not None and self.config.churn.enabled:
            self.env.process(self._churn_loop(), name="churn")
        try:
            self.env.run(until=self.config.duration)
        except BaseException:
            # A crashed run is exactly what the flight recorder is for:
            # flush the ring before the exception propagates.
            if self.recorder is not None:
                self.recorder.anomaly("run-failure")
            raise
        wall = time.perf_counter() - started
        return self._collect(wall)

    def _collect(self, wall_seconds: float) -> SimulationResult:
        extras: dict[str, object] = {}
        if hasattr(self.scheme, "subscribed_nodes"):
            extras["subscribed"] = len(self.scheme.subscribed_nodes())
        if hasattr(self.scheme, "dup_tree_size"):
            extras["dup_tree_size"] = self.scheme.dup_tree_size()
        injector = self.injector
        if injector is not None:
            extras["injected_losses"] = injector.injected_losses
            extras["injected_duplicates"] = injector.injected_duplicates
            extras["blackholed"] = injector.blackholed
            if injector.plan.silent_failures:
                extras["undetected_failures"] = len(injector.undetected())
                extras["suspicions"] = self._suspicions
                histogram = self._detection_latency
                if histogram is not None and histogram.count:
                    summary = histogram.summary()
                    extras["detection_count"] = summary["count"]
                    extras["detection_p50"] = summary["p50"]
                    extras["detection_p95"] = summary["p95"]
            if injector.plan.partitions:
                extras["partitions_started"] = injector.partitions_started
                extras["partition_drops"] = injector.partition_drops
        pool = self.standby_pool
        if pool is not None:
            extras["standby_replications"] = pool.replications
            extras["standby_heartbeats"] = pool.heartbeats
            extras["failover_promoted"] = (
                pool.promoted if pool.promoted is not None else -1
            )
            if self._failover_at is not None:
                extras["failover_at"] = self._failover_at
        if self.auditor is not None:
            extras.update(self.auditor.summary())
        if self.reliable is not None:
            extras["retries"] = self.reliable.retries
            extras["acked"] = self.reliable.acked
            extras["delivery_give_ups"] = self.reliable.give_ups
        overload = self.overload
        if overload is not None:
            extras.update(overload.counters())
            if hasattr(self.scheme, "rejected_subscribers"):
                extras["rejected_subscribers"] = (
                    self.scheme.rejected_subscribers
                )
            # Emitted for every DUP-family scheme (plain dup reports 0
            # splits) so the extras key set is identical across family
            # members — the differential harness compares them verbatim.
            if hasattr(self.scheme, "split_subscribers"):
                extras["split_subscribers"] = self.scheme.split_subscribers
                extras["reabsorbed_subscribers"] = (
                    self.scheme.reabsorbed_subscribers
                )
            if hasattr(self.scheme, "max_fanout"):
                extras["dup_max_fanout"] = self.scheme.max_fanout()
            if self.authority is not None:
                extras["authority_coalesced_updates"] = (
                    self.authority.coalesced_updates
                )
        if self.storms is not None:
            extras.update(self.storms.counters())
        if self.sessions is not None:
            extras.update(self.sessions.counters())
            if hasattr(self.scheme, "rejoin_reconciles"):
                extras["rejoin_reconciles"] = self.scheme.rejoin_reconciles
                extras["rejoin_kept_entries"] = (
                    self.scheme.rejoin_kept_entries
                )
                extras["rejoin_excised_entries"] = (
                    self.scheme.rejoin_excised_entries
                )
        if hasattr(self.scheme, "threshold_bounds"):
            bounds = self.scheme.threshold_bounds()
            if bounds is not None:
                extras["threshold_min"], extras["threshold_max"] = bounds
        if self.config.lease_ttl > 0 and hasattr(
            self.scheme, "lease_expiries"
        ):
            extras["lease_expiries"] = self.scheme.lease_expiries
        keep = self.config.keep_latency_samples and self.latency.count
        return SimulationResult(
            config=self.config,
            scheme=self.scheme.name,
            queries=self.latency.count,
            mean_latency=self.latency.mean,
            latency_ci=self.latency.confidence_interval() if keep else None,
            cost_per_query=self.ledger.cost_per_query(self.latency.count),
            hit_rate=self.latency.hit_rate,
            hop_breakdown=dict(self.ledger.breakdown()),
            dropped_messages=self.transport.dropped,
            incomplete_queries=self._incomplete,
            final_population=len(self.tree),
            wall_seconds=wall_seconds,
            extras=extras,
            latency_percentiles=self.latency.percentiles() if keep else {},
            stale_read_fraction=self.stale_read_fraction,
        )
