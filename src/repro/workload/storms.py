"""Adversarial overload workloads: flash crowds, update storms, thrash.

The paper evaluates DUP under steady Zipf arrivals; ROADMAP item 4 asks
what the dynamic tree does under *bursty* load.  This module supplies
three storm kinds, declared as :class:`StormPhase` windows inside a
:class:`StormPlan` (the ``storms`` field of
:class:`~repro.engine.config.SimulationConfig`):

``flash-crowd``
    At phase onset the Zipf popularity ranking flips —
    ``rank_flips`` randomly chosen nodes are promoted to the top ranks
    (:meth:`~repro.workload.selection.ZipfNodeSelector.flip_ranks`) —
    and for the phase's duration *extra* queries arrive at ``rate``
    per second on top of the base workload, drawn from the flipped
    ranking.  The subscribe traffic of the freshly hot nodes funnels
    through a few interior nodes: exactly the fan-in the overload
    layer's caps are for.

``update-storm``
    The authority is driven with :meth:`~repro.index.authority.
    Authority.force_update` calls at ``rate`` per second: every one
    fans a push out along the DUP tree (or is coalesced away, when the
    authority's ``min_issue_gap`` is set).

``thrash``
    Subscribe/unsubscribe churn: at ``rate`` per second a random node
    receives a burst of ``burst`` back-to-back queries (default: the
    interest threshold plus one — just enough to push it over the
    subscription threshold).  Its interest then lapses by the next
    push cycle, unsubscribing it again, so the tree's membership flaps.

Every storm draws randomness from dedicated ``storm-*`` streams, so a
run whose plan is ``None`` (or empty) is bit-identical to a build
without this module, and two runs differing only in their storms share
the base workload exactly (common random numbers).  Storm-injected
queries go through the ordinary ``scheme.on_local_query`` path: they
are real offered load, counted by every metric like any other query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.simulation import Simulation

NodeId = int

STORM_KINDS = ("flash-crowd", "update-storm", "thrash")


@dataclass(frozen=True)
class StormPhase:
    """One storm window.

    Attributes
    ----------
    kind:
        ``"flash-crowd"``, ``"update-storm"``, or ``"thrash"``.
    start:
        Absolute simulated time the phase opens (experiments typically
        place it after warm-up).
    duration:
        How long the phase lasts.
    rate:
        Events per simulated second: extra queries (flash-crowd),
        forced authority updates (update-storm), or query bursts
        (thrash).
    rank_flips:
        Flash-crowd only: how many nodes are promoted to the top of
        the Zipf ranking at onset (default 1).
    burst:
        Thrash only: queries per burst; 0 means ``threshold_c + 1``.
    """

    kind: str
    start: float
    duration: float
    rate: float
    rank_flips: int = 1
    burst: int = 0

    def __post_init__(self) -> None:
        if self.kind not in STORM_KINDS:
            raise ConfigError(
                f"storm kind must be one of {STORM_KINDS}, got {self.kind!r}"
            )
        if self.start < 0:
            raise ConfigError(f"storm start must be >= 0, got {self.start}")
        if self.duration <= 0:
            raise ConfigError(
                f"storm duration must be positive, got {self.duration}"
            )
        if self.rate <= 0:
            raise ConfigError(f"storm rate must be positive, got {self.rate}")
        if self.rank_flips < 1:
            raise ConfigError(
                f"rank_flips must be >= 1, got {self.rank_flips}"
            )
        if self.burst < 0:
            raise ConfigError(f"burst must be >= 0, got {self.burst}")

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class StormPlan:
    """The declarative storm schedule of one run."""

    phases: tuple[StormPhase, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        for phase in self.phases:
            if not isinstance(phase, StormPhase):  # pragma: no cover
                raise ConfigError(f"not a StormPhase: {phase!r}")

    @property
    def enabled(self) -> bool:
        return bool(self.phases)


class StormEngine:
    """Runs a :class:`StormPlan` against one simulation.

    One process per phase; each draws from its own named stream
    (``storm-<kind>-<index>``) so concurrent phases stay independent
    and the base workload streams are never touched.
    """

    def __init__(self, sim: "Simulation", plan: StormPlan) -> None:
        self._sim = sim
        self.plan = plan
        self.phases_started = 0
        self.phases_completed = 0
        self.storm_queries = 0
        self.forced_updates = 0
        self.thrash_bursts = 0
        self.rank_flips = 0

    def install(self) -> None:
        """Register one process per phase (called from ``start()``)."""
        for index, phase in enumerate(self.plan.phases):
            rng = self._sim.streams.get(f"storm-{phase.kind}-{index}")
            self._sim.env.process(
                self._phase_loop(phase, rng),
                name=f"storm-{phase.kind}-{index}",
            )

    # -- internals ------------------------------------------------------

    def _record_phase(self, phase: StormPhase, edge: str) -> None:
        recorder = self._sim.recorder
        if recorder is not None:
            recorder.record(
                "storm-phase",
                detail=f"{phase.kind}:{edge} rate={phase.rate:g}",
            )

    def _eligible(self, node: NodeId) -> bool:
        sim = self._sim
        return sim.functioning(node) and (
            sim.config.root_queries or node != sim.tree.root
        )

    def _phase_loop(self, phase: StormPhase, rng):
        sim = self._sim
        env = sim.env
        delay = phase.start - env.now
        if delay > 0:
            yield env.timeout(delay)
        self.phases_started += 1
        self._record_phase(phase, "begin")
        if phase.kind == "flash-crowd":
            promoted = sim.selector.flip_ranks(rng, phase.rank_flips)
            self.rank_flips += len(promoted)
        end = phase.end
        while True:
            gap = float(rng.exponential(1.0 / phase.rate))
            if env.now + gap >= end:
                break
            yield env.timeout(gap)
            if phase.kind == "update-storm":
                self._force_update()
            else:
                self._inject_queries(phase, rng)
        remaining = end - env.now
        if remaining > 0:
            yield env.timeout(remaining)
        self.phases_completed += 1
        self._record_phase(phase, "end")

    def _force_update(self) -> None:
        sim = self._sim
        authority = sim.authority
        if (
            authority is None
            or authority.stopped
            or not sim.functioning(sim.tree.root)
        ):
            return
        self.forced_updates += 1
        authority.force_update()

    def _inject_queries(self, phase: StormPhase, rng) -> None:
        sim = self._sim
        if phase.kind == "thrash":
            # Bursts target the cold tail: a burst at an already-warm
            # Zipf-head node neither churns subscriptions nor forwards
            # anything.
            node = sim.selector.sample_tail(rng, self._eligible)
        else:
            node = sim.selector.sample_alive(rng, self._eligible)
        if node is None:
            return
        if phase.kind == "thrash":
            burst = phase.burst or (sim.config.threshold_c + 1)
            self.thrash_bursts += 1
            self.storm_queries += burst
            for _ in range(burst):
                sim.scheme.on_local_query(node)
        else:
            self.storm_queries += 1
            sim.scheme.on_local_query(node)

    def counters(self) -> dict:
        """Storm accounting for result extras and snapshots."""
        return {
            "storm_phases_started": self.phases_started,
            "storm_phases_completed": self.phases_completed,
            "storm_queries": self.storm_queries,
            "storm_forced_updates": self.forced_updates,
            "storm_thrash_bursts": self.thrash_bursts,
            "storm_rank_flips": self.rank_flips,
        }
