"""Simulation configuration (the paper's Table I, plus engine knobs).

``SimulationConfig()`` with no arguments reproduces the paper's default
parameters: 4096 nodes, maximum degree 4, one query per second network-
wide, Zipf theta 0.95, threshold c = 6, TTL 60 minutes, push lead 1
minute, exponential hop latency with mean 0.1 s, and a >= 180,000 s
horizon.  The experiments' smaller per-scale variants come from
:func:`repro.experiments.common.base_config`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

from repro.core.interest import AdaptivePlan
from repro.errors import ConfigError
from repro.index.authority import ReplicationPlan
from repro.net.faults import FaultPlan
from repro.net.overload import OverloadPlan
from repro.net.reliable import RetryPlan
from repro.workload.churn import ChurnConfig
from repro.workload.sessions import SessionPlan
from repro.workload.storms import StormPlan

TOPOLOGIES = ("random-tree", "chord", "can", "balanced", "chain", "star")
#: The ``interest_policy`` names; an :class:`AdaptivePlan` is the third.
INTEREST_POLICIES = ("window", "ewma")


@dataclass(frozen=True)
class SimulationConfig:
    """All parameters of one simulation run.

    Paper parameters
    ----------------
    scheme:
        ``"pcx"``, ``"cup"``, ``"dup"``, or an ablation baseline.
    num_nodes:
        Overlay size ``n`` (paper default 4096, range 256-16384).
    max_degree:
        Maximum children per search-tree node ``D`` (default 4, range
        2-10).  Only the random-tree and balanced topologies have a
        degree to set; the others refuse any value but 4.
    query_rate:
        Network-wide mean query arrival rate ``lambda`` in queries per
        second (default 1, range 0.01-100).
    pareto_alpha:
        Tail index of Pareto inter-arrival times (the paper uses 1.05
        and 1.20); ``None``, the default, draws exponential gaps.
    zipf_theta:
        Query placement skew (paper sweeps [0.5, 4]; Table I's default
        column is partly illegible, we use the customary 0.95).
    threshold_c:
        Interest threshold ``c`` (default 6, range 2-10).
    ttl:
        Index TTL in seconds (60 minutes per the measurement study the
        paper cites).
    push_lead:
        The root re-issues/pushes this long before expiry (1 minute).
    hop_latency_mean:
        Mean of the exponential per-hop message latency (0.1 s).
    duration:
        Simulated horizon (paper: at least 180,000 s).

    Engine parameters
    -----------------
    topology:
        ``"random-tree"`` (the paper's generator), ``"chord"`` / ``"can"``
        (trees derived from real DHT routing paths), or a regular shape
        for tests.
    interest_policy:
        ``"window"`` (the paper's), ``"ewma"`` (ablation), or an
        :class:`~repro.core.interest.AdaptivePlan` (per-node self-tuning
        threshold).  The ``dup-adaptive`` scheme runs ``AdaptivePlan()``
        unless this field holds a plan of its own.
    warmup:
        Metrics (latency and cost) ignore everything before this time.
    seed:
        Root seed for all random streams.
    root_queries:
        Whether the authority node also originates queries (off by
        default: its queries are answered locally and only dilute the
        metrics).
    piggyback:
        Whether subscribe/register bits ride on request packets for free
        (paper's design; disable for the ablation).
    immediate_push:
        Whether an explicitly subscribing node is immediately sent the
        current index (paper: the root "pushes the current and future
        updated index").
    eager_subscribe:
        When a DUP node becomes interested on a local cache *hit*, send
        the subscription as an explicit hop-by-hop walk right away
        instead of deferring it to ride the node's next outgoing request
        (the paper allows both; deferred piggybacking is the default and
        the eager variant is an ablation).
    keep_latency_samples:
        Retain per-query latencies for confidence intervals and
        percentiles (one byte per query while every latency is below
        256 hops, eight once one is not).
    churn:
        Optional churn rates (None disables churn).

    Resilience parameters (all off by default; a run with every one of
    them at its default is bit-identical to a build without the fault
    layer)
    ------------------------------------------------------------------
    faults:
        Optional :class:`~repro.net.faults.FaultPlan` injecting message
        loss, duplication, delay jitter, and silent failures.
    retry:
        Optional :class:`~repro.net.reliable.RetryPlan`: the reliable
        channel DUP's control messages and pushes use (None disables
        it).
    ack_timeout:
        Initial ack timeout of the reliable channel in simulated
        seconds; attempt ``k`` waits ``ack_timeout * 2**k``.  Without a
        retry plan it still times the suspicion of a silently crashed
        peer.
    lease_ttl:
        Lease duration for soft-state subscriptions in simulated
        seconds (0 disables leases); refreshes travel upstream every
        ``lease_ttl / 3``.
    replication:
        Optional :class:`~repro.index.authority.ReplicationPlan`: the
        authority's standbys, their failover timeout and a deliberate
        authority crash (None disables replication and failover).
    audit_interval:
        Cadence of the runtime consistency auditor
        (:mod:`repro.core.auditor`), which re-checks the DUP tree
        invariants and repairs divergence left behind by partitions and
        failovers (0 disables; only DUP-family schemes are audited).
    overload:
        Optional :class:`~repro.net.overload.OverloadPlan`: bounded
        priority-classed per-node inboxes with deterministic shedding,
        per-peer circuit breakers, DUP/CUP subscriber caps, and
        authority update coalescing.  ``None`` (or an all-default
        plan) keeps the run bit-identical to a build without the
        overload layer.
    storms:
        Optional :class:`~repro.workload.storms.StormPlan`: adversarial
        overload workloads (flash crowds, authority update storms,
        subscribe/unsubscribe thrash) layered on top of the base
        arrivals.  ``None`` or an empty plan injects nothing.
    sessions:
        Optional :class:`~repro.workload.sessions.SessionPlan`: the peer
        fluctuation layer — Pareto session lengths with lognormal
        downtimes (crash-restart with amnesia semantics), diurnal
        arrival modulation, correlated regional failure bursts, and
        BGP-style flap damping.  ``None`` or an all-default plan keeps
        the run bit-identical to a build without the layer.  A plan
        with crashes enabled implies silent failures (the engine arms a
        fault injector if the fault plan does not already have one).
    flight_recorder:
        Arm the protocol flight recorder (:mod:`repro.flightrec`): a
        ring buffer of the last 4096 structured protocol events (tree
        mutations, subscriptions, lease expiries, failovers, audit
        repairs, partitions) dumped as JSONL on anomaly or on demand.
        Off by default; the ``REPRO_FLIGHT`` environment variable arms
        it process-wide.  The recorder is a pure observer — a run with
        it armed is bit-identical to the same run without.
    """

    scheme: str = "dup"
    num_nodes: int = 4096
    max_degree: int = 4
    query_rate: float = 1.0
    pareto_alpha: Optional[float] = None
    zipf_theta: float = 0.95
    threshold_c: int = 6
    ttl: float = 3600.0
    push_lead: float = 60.0
    hop_latency_mean: float = 0.1
    duration: float = 180_000.0
    topology: str = "random-tree"
    interest_policy: "str | AdaptivePlan" = "window"
    warmup: float = 3600.0
    seed: int = 1
    root_queries: bool = False
    piggyback: bool = True
    immediate_push: bool = True
    eager_subscribe: bool = False
    keep_latency_samples: bool = True
    churn: Optional[ChurnConfig] = field(default=None)
    faults: Optional[FaultPlan] = field(default=None)
    retry: Optional[RetryPlan] = field(default=None)
    ack_timeout: float = 2.0
    lease_ttl: float = 0.0
    replication: Optional[ReplicationPlan] = field(default=None)
    audit_interval: float = 0.0
    overload: Optional[OverloadPlan] = field(default=None)
    storms: Optional[StormPlan] = field(default=None)
    sessions: Optional[SessionPlan] = field(default=None)
    flight_recorder: bool = False

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ConfigError` on any invalid parameter."""
        if self.num_nodes < 2:
            raise ConfigError(f"num_nodes must be >= 2, got {self.num_nodes}")
        if self.max_degree < 1:
            raise ConfigError(
                f"max_degree must be >= 1, got {self.max_degree}"
            )
        if self.query_rate <= 0:
            raise ConfigError(
                f"query_rate must be positive, got {self.query_rate}"
            )
        if self.pareto_alpha is not None and self.pareto_alpha <= 1:
            raise ConfigError(
                "pareto_alpha must exceed 1 so the mean rate exists; "
                f"got {self.pareto_alpha}"
            )
        if self.zipf_theta < 0:
            raise ConfigError(
                f"zipf_theta must be >= 0, got {self.zipf_theta}"
            )
        if self.threshold_c < 0:
            raise ConfigError(
                f"threshold_c must be >= 0, got {self.threshold_c}"
            )
        if self.ttl <= 0:
            raise ConfigError(f"ttl must be positive, got {self.ttl}")
        if not 0 <= self.push_lead < self.ttl:
            raise ConfigError(
                f"push_lead must lie in [0, ttl); got {self.push_lead}"
            )
        if self.hop_latency_mean <= 0:
            raise ConfigError(
                "hop_latency_mean must be positive, got "
                f"{self.hop_latency_mean}"
            )
        if self.duration <= self.warmup:
            raise ConfigError(
                f"duration ({self.duration}) must exceed warmup "
                f"({self.warmup})"
            )
        if self.warmup < 0:
            raise ConfigError(f"warmup must be >= 0, got {self.warmup}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.topology not in TOPOLOGIES:
            raise ConfigError(
                f"topology must be one of {TOPOLOGIES}, got {self.topology!r}"
            )
        if self.max_degree != 4 and self.topology not in (
            "random-tree", "balanced"
        ):
            raise ConfigError(
                f"max_degree ({self.max_degree}) has no effect on the "
                f"{self.topology} topology: only random-tree and balanced "
                "trees take a degree"
            )
        if isinstance(self.interest_policy, AdaptivePlan):
            self.interest_policy.validate()
        elif self.interest_policy not in INTEREST_POLICIES:
            raise ConfigError(
                f"interest_policy must be one of {INTEREST_POLICIES} or an "
                f"AdaptivePlan, got {self.interest_policy!r}"
            )
        if self.faults is not None:
            self.faults.validate()
        if self.ack_timeout <= 0:
            raise ConfigError(
                f"ack_timeout must be positive, got {self.ack_timeout}"
            )
        if self.retry is not None:
            self.retry.validate()
            if 0 < self.retry.timeout_cap < self.ack_timeout:
                raise ConfigError(
                    f"retry.timeout_cap ({self.retry.timeout_cap}) must be "
                    f">= ack_timeout ({self.ack_timeout})"
                )
        if self.lease_ttl < 0:
            raise ConfigError(
                f"lease_ttl must be >= 0, got {self.lease_ttl}"
            )
        if self.replication is not None:
            self.replication.validate()
            if self.replication.standbys >= self.num_nodes:
                raise ConfigError(
                    f"replication.standbys ({self.replication.standbys}) must "
                    f"be fewer than the overlay ({self.num_nodes} nodes)"
                )
        if self.audit_interval < 0:
            raise ConfigError(
                f"audit_interval must be >= 0, got {self.audit_interval}"
            )
        if self.overload is not None:
            self.overload.validate()
        if self.storms is not None:
            self.storms.validate()
        if self.sessions is not None:
            self.sessions.validate()
        if (
            self.churn is not None
            and self.churn.allow_root_failure
            and self.replication is None
        ):
            raise ConfigError(
                "churn.allow_root_failure crashes the authority, so it "
                "needs a replication plan for a successor to exist"
            )

    @property
    def arrival(self) -> str:
        """The arrival law: ``"pareto"`` once ``pareto_alpha`` is set."""
        return "exponential" if self.pareto_alpha is None else "pareto"

    def replace(self, **changes) -> "SimulationConfig":
        """A copy with the given fields changed (validated)."""
        return dataclasses.replace(self, **changes)

    @classmethod
    def paper_defaults(cls, **overrides) -> "SimulationConfig":
        """The paper's Table I defaults (full fidelity; slow in Python)."""
        return cls(**overrides)

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.scheme} n={self.num_nodes} D={self.max_degree} "
            f"lambda={self.query_rate} {self.arrival} "
            f"theta={self.zipf_theta} c={self.threshold_c} "
            f"T={self.duration:.0f}s seed={self.seed}"
        )
