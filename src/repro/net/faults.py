"""Fault injection for the transport layer.

The paper's evaluation assumes a benign network: every hop is delivered
exactly once, and failures are announced to the repair machinery the
instant they happen.  Real overlays lose control traffic and discover
dead peers late — the conditions under which DUP's *hard-state* tree
(unlike CUP's soft-state registrations) must actively work to stay
consistent.  This module supplies those conditions:

- **Message loss** — each transmission is dropped with a per-category
  probability (``loss_by_category``, falling back to the global
  ``loss_rate``).  The hop is still charged: the network carried the
  message, the receiver just never saw it.
- **Duplication** — control/push/keep-alive transmissions are delivered
  twice with probability ``duplicate_rate``.  Queries and replies are
  exempt: the engine forwards those packets by mutating them in place
  (path, position), so a duplicated delivery would alias live state —
  an artifact of the simulation's object model, not of the protocol.
- **Delay jitter** — an exponential extra delay with mean
  ``extra_delay_mean`` added to every delivery.
- **Silent failures** — when ``silent_failures`` is set, the engine
  stops oracle-notifying schemes about crashes: the victim stays in the
  overlay and *blackholes* everything sent to it until some survivor
  develops a suspicion (exhausted retries, an expired lease) and
  triggers the Section III-C repair flows.
- **Partitions** — each :class:`PartitionWindow` splits the overlay
  into components for a scheduled interval.  Component membership is a
  seed-deterministic balanced split drawn from the ``faults-partition``
  stream when the window opens; every message whose sender and
  destination land in different components is dropped-but-charged (the
  packet left the sender, the cut ate it), and the window heals on
  schedule.  Partitions compose freely with loss, duplication, and
  silent failures.

All randomness comes from dedicated named streams of the simulation's
:class:`~repro.sim.rng.RandomStreams`, so fault decisions are
seed-deterministic and never perturb the streams existing runs consume
— a run with ``FaultPlan`` disabled is bit-identical to one without it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, KeysView, Mapping, Optional

from repro.errors import ConfigError
from repro.net.message import Category, Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.rng import RandomStreams
    from repro.stats.distributions import Distribution

NodeId = int

#: Categories whose in-flight packets are mutated while forwarding and
#: therefore must never be duplicated (see the module docstring).
_NO_DUPLICATION = (Category.QUERY, Category.REPLY)


@dataclass(frozen=True)
class PartitionWindow:
    """One scheduled network partition: split at ``start``, heal after
    ``duration``.

    The overlay is divided into ``components`` groups of (nearly) equal
    size; which node lands where is drawn from the dedicated
    ``faults-partition`` stream at split time, so the cut is
    seed-deterministic but uncorrelated with topology or workload
    randomness.  Nodes joining mid-partition are assigned a component by
    stable id hash, keeping late joiners deterministic without
    consuming stream draws.
    """

    start: float
    duration: float
    components: int = 2

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ConfigError` on any invalid parameter."""
        if self.start < 0:
            raise ConfigError(
                f"partition start must be >= 0, got {self.start}"
            )
        if self.duration <= 0:
            raise ConfigError(
                f"partition duration must be positive, got {self.duration}"
            )
        if self.components < 2:
            raise ConfigError(
                f"a partition needs >= 2 components, got {self.components}"
            )

    @property
    def end(self) -> float:
        """When this window heals."""
        return self.start + self.duration


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of the faults to inject into one run.

    Attributes
    ----------
    loss_rate:
        Probability that any transmission is lost (default 0).
    loss_by_category:
        Per-category loss probability overriding ``loss_rate``; keys are
        :class:`~repro.net.message.Category` values (``"control"``,
        ``"push"``, ...).
    duplicate_rate:
        Probability that a control/push/keep-alive transmission is
        delivered twice.
    extra_delay_mean:
        Mean of an exponential extra delay added to every delivery
        (0 disables jitter).
    silent_failures:
        Crashed nodes blackhole traffic instead of the engine
        oracle-notifying the scheme (see
        :meth:`repro.engine.simulation.Simulation.fail_silently`).
    partitions:
        Scheduled :class:`PartitionWindow` s, sorted by start time and
        non-overlapping; during each window cross-component messages are
        dropped-but-charged.
    """

    loss_rate: float = 0.0
    loss_by_category: Mapping[str, float] = field(default_factory=dict)
    duplicate_rate: float = 0.0
    extra_delay_mean: float = 0.0
    silent_failures: bool = False
    partitions: tuple[PartitionWindow, ...] = ()

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ConfigError` on any invalid parameter."""
        known = {category.value for category in Category}
        for name, probability in (
            ("loss_rate", self.loss_rate),
            ("duplicate_rate", self.duplicate_rate),
            *(
                (f"loss_by_category[{key!r}]", value)
                for key, value in self.loss_by_category.items()
            ),
        ):
            if not 0.0 <= probability <= 1.0:
                raise ConfigError(
                    f"{name} must lie in [0, 1], got {probability}"
                )
        for key in self.loss_by_category:
            if key not in known:
                raise ConfigError(
                    f"unknown message category {key!r} in loss_by_category; "
                    f"use one of {sorted(known)}"
                )
        if self.extra_delay_mean < 0:
            raise ConfigError(
                f"extra_delay_mean must be >= 0, got {self.extra_delay_mean}"
            )
        previous_end = None
        for window in self.partitions:
            window.validate()
            if previous_end is not None and window.start < previous_end:
                raise ConfigError(
                    "partition windows must be sorted and non-overlapping; "
                    f"window at {window.start} starts before {previous_end}"
                )
            previous_end = window.end

    @property
    def enabled(self) -> bool:
        """Whether this plan injects anything at all."""
        return (
            self.loss_rate > 0
            or any(p > 0 for p in self.loss_by_category.values())
            or self.duplicate_rate > 0
            or self.extra_delay_mean > 0
            or self.silent_failures
            or bool(self.partitions)
        )

    def loss_probability(self, category: Category) -> float:
        """The loss probability applied to ``category`` transmissions."""
        return self.loss_by_category.get(category.value, self.loss_rate)


class FaultInjector:
    """Executes a :class:`FaultPlan` against the transport.

    The transport consults the injector at two points: :meth:`should_drop`
    / :meth:`should_duplicate` / :meth:`extra_delay` when a hop is sent,
    and :meth:`is_dead` when it completes — a silently failed destination
    swallows the delivery (blackhole).

    The injector is also the engine's record of *who is silently dead*:
    :meth:`mark_failed` registers a victim, and :meth:`mark_detected`
    closes the case when a survivor's suspicion triggers repair,
    returning the failure-detection latency exactly once per victim.
    """

    def __init__(
        self,
        plan: FaultPlan,
        streams: "RandomStreams",
        clock,
        recorder=None,
    ):
        self.plan = plan
        self._clock = clock
        self._recorder = recorder
        self._loss_rng = streams.get("faults-loss")
        self._dup_rng = streams.get("faults-duplicate")
        self._delay_rng = streams.get("faults-delay")
        # The partition stream is only opened when the plan schedules a
        # window, keeping partition-free runs byte-for-byte identical to
        # builds without partition support.
        self._partition_rng = (
            streams.get("faults-partition") if plan.partitions else None
        )
        self._component: dict[NodeId, int] = {}
        self._components = 0
        self._failed_at: dict[NodeId, float] = {}
        self._detected: set[NodeId] = set()
        self.injected_losses = 0
        self.injected_duplicates = 0
        self.blackholed = 0
        self.partitions_started = 0
        self.partition_drops = 0

    # -- send-time decisions ------------------------------------------------
    def should_drop(self, message: Message) -> bool:
        """Roll for loss of this transmission (counts injected losses)."""
        probability = self.plan.loss_probability(message.category)
        if probability <= 0.0:
            return False
        if self._loss_rng.random() < probability:
            self.injected_losses += 1
            return True
        return False

    def should_duplicate(self, message: Message) -> bool:
        """Roll for duplication (never for query/reply packets)."""
        if (
            self.plan.duplicate_rate <= 0.0
            or message.category in _NO_DUPLICATION
        ):
            return False
        if self._dup_rng.random() < self.plan.duplicate_rate:
            self.injected_duplicates += 1
            return True
        return False

    def extra_delay(self) -> float:
        """One draw of the configured delay jitter (0 when disabled)."""
        if self.plan.extra_delay_mean <= 0.0:
            return 0.0
        return float(self._delay_rng.exponential(self.plan.extra_delay_mean))

    def duplicate_delay(self, latency: "Distribution") -> float:
        """An independent delivery delay for a duplicated transmission."""
        return float(latency.sample(self._delay_rng)) + self.extra_delay()

    # -- partitions ---------------------------------------------------------
    def begin_partition(self, members, components: int) -> None:
        """Split ``members`` into ``components`` balanced groups.

        Assignment shuffles the sorted member list with the dedicated
        partition stream and deals it into contiguous chunks, so every
        component is non-empty whenever ``len(members) >= components``.
        """
        if self._partition_rng is None:
            raise ConfigError(
                "begin_partition on a plan with no partition windows"
            )
        order = sorted(members)
        permutation = self._partition_rng.permutation(len(order))
        self._component = {}
        chunk = max(1, -(-len(order) // components))
        for position, index in enumerate(permutation):
            self._component[order[int(index)]] = min(
                position // chunk, components - 1
            )
        self._components = components
        self.partitions_started += 1
        if self._recorder is not None:
            self._recorder.record(
                "partition-open",
                detail=f"components={components} members={len(order)}",
            )

    def heal_partition(self) -> None:
        """End the active partition; all components reconnect."""
        if self._components > 0 and self._recorder is not None:
            self._recorder.record(
                "partition-heal",
                detail=f"components={self._components}",
            )
        self._components = 0
        self._component = {}

    @property
    def partition_active(self) -> bool:
        """Whether a partition window is currently open."""
        return self._components > 0

    def component_of(self, node: NodeId) -> int:
        """The node's component under the active partition (0 if none)."""
        if self._components == 0:
            return 0
        component = self._component.get(node)
        if component is None:
            # A node that joined mid-partition: assign by stable id hash
            # so the choice is deterministic without consuming draws.
            component = node % self._components
            self._component[node] = component
        return component

    def crosses_partition(
        self, sender: Optional[NodeId], destination: NodeId
    ) -> bool:
        """Whether this hop spans the active cut (counts the drop)."""
        if self._components == 0 or sender is None:
            return False
        if self.component_of(sender) != self.component_of(destination):
            self.partition_drops += 1
            return True
        return False

    # -- silent-failure bookkeeping -----------------------------------------
    def mark_failed(self, node: NodeId) -> None:
        """Register ``node`` as silently dead from now on."""
        if node not in self._failed_at and self._recorder is not None:
            self._recorder.record("silent-fail", node=node)
        self._failed_at.setdefault(node, self._clock())

    def is_dead(self, node: NodeId) -> bool:
        """Whether ``node`` blackholes traffic."""
        return node in self._failed_at

    @property
    def dead(self) -> KeysView[NodeId]:
        """Every node :meth:`is_dead` holds for, as a live read-only view.

        Detected victims stay on record after their repair spliced them
        out of the overlay, so intersect with the tree before counting.
        """
        return self._failed_at.keys()

    def note_blackholed(self) -> None:
        """Count one delivery swallowed by a dead destination."""
        self.blackholed += 1

    def failed_at(self, node: NodeId) -> Optional[float]:
        """When ``node`` silently failed (``None`` if it did not)."""
        return self._failed_at.get(node)

    def mark_detected(self, node: NodeId) -> Optional[float]:
        """Close the failure case for ``node``.

        Returns the detection latency (now minus failure time) the first
        time a given victim is reported, ``None`` on repeats or for
        nodes that never failed.
        """
        failed_at = self._failed_at.get(node)
        if failed_at is None or node in self._detected:
            return None
        self._detected.add(node)
        latency = self._clock() - failed_at
        if self._recorder is not None:
            self._recorder.record(
                "failure-detect", node=node, detail=f"latency={latency:.1f}"
            )
        return latency

    def revive(self, node: NodeId) -> None:
        """Forget a silent failure: ``node`` crash-restarted and is back.

        Used by the peer-fluctuation layer's rejoin path.  Whether the
        crash was ever detected, the case is closed without statistics:
        a node that returns on its own was not *repaired*, it recovered.
        """
        self._failed_at.pop(node, None)
        self._detected.discard(node)

    def undetected(self) -> tuple[NodeId, ...]:
        """Silently failed nodes no survivor has reported yet."""
        return tuple(
            node for node in self._failed_at if node not in self._detected
        )

    @property
    def detected_count(self) -> int:
        """Number of silent failures detected so far."""
        return len(self._detected)
