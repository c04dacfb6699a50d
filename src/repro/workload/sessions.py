"""Peer fluctuation: crash-restart sessions, regional bursts, damping.

The paper's churn model (Section III-C) and our churn engine are
memoryless: nodes join or die, but none ever *come back*.  Measured
peer-to-peer populations do the opposite — the same peers cycle between
alive and down, session lengths are heavy-tailed, downtimes cluster
around a median repair time, arrival intensity follows the day, and
whole regions fail together.  This module supplies that lifecycle as a
declarative :class:`SessionPlan` (the ``sessions`` field of
:class:`~repro.engine.config.SimulationConfig`) executed by a
:class:`SessionEngine`:

- **Alive/down/rejoining state machine** — every non-root node of the
  initial overlay lives through alternating *sessions* (Pareto lengths,
  mean ``mean_session``, tail index ``session_alpha``) and *downtimes*
  (log-normal, arithmetic mean ``mean_downtime``, shape
  ``downtime_sigma``).  A session ends in a silent crash
  (:meth:`~repro.engine.simulation.Simulation.crash_node`); the downtime
  ends in a rejoin that restores the node's pre-crash state and runs the
  scheme's reconciliation handshake
  (:meth:`~repro.schemes.base.Scheme.on_node_rejoined`).
- **Diurnal modulation** — the instantaneous query arrival rate is
  scaled by ``1 + amplitude * sin(2*pi*t / period)``; gaps drawn by the
  base arrival process are divided by that curve, so the workload keeps
  its distribution family (and stream draws) while its intensity
  follows the day.
- **Regional bursts** — a Poisson process (``regional_rate``) picks a
  seed node and crashes its whole topology neighborhood (the BFS ball
  of ``regional_radius`` hops on the search tree, root excluded) in one
  event — the correlated failure mode ROADMAP item 4 left open.
- **Flap damping** — BGP-style: every crash adds ``damp_penalty`` to a
  per-peer penalty that decays exponentially with half-life
  ``damp_half_life``.  A peer whose penalty reaches ``damp_suppress``
  is *suppressed*: its rejoin is handled with full amnesia (no state
  restore, no re-graft/resubscribe traffic) and the DUP scheme refuses
  new subscriptions from it until the penalty decays below
  ``damp_reuse``.  Suppression transitions feed the overload layer's
  per-peer circuit breakers when those are armed.

All randomness comes from two dedicated named streams (``sessions`` and
``sessions-regional``), so a run whose plan is ``None`` (or all-default)
is bit-identical to a build without this module, and serial and parallel
execution agree by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import ConfigError
from repro.stats.distributions import LogNormal, Pareto

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.simulation import Simulation

NodeId = int

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SessionPlan:
    """Declarative description of one run's peer-fluctuation behavior.

    Every knob defaults to *off*; a default-constructed plan is inert
    and the engine treats it exactly like ``sessions=None``.

    Attributes
    ----------
    mean_session:
        Mean alive-session length in simulated seconds (Pareto).  0
        disables the crash-restart lifecycle.
    session_alpha:
        Pareto tail index of session lengths; must exceed 1 so the mean
        exists (smaller = heavier tail).
    mean_downtime:
        Arithmetic mean downtime (MTTR) in seconds (log-normal).
        Required whenever anything crashes (lifecycle or regional).
    downtime_sigma:
        Log-space shape of the downtime distribution.
    diurnal_amplitude:
        Relative amplitude of the arrival-rate modulation in ``[0, 1)``;
        0 disables the curve.
    diurnal_period:
        Period of the modulation (default: one day).
    regional_rate:
        Correlated regional failure bursts per second; 0 disables them.
    regional_radius:
        BFS radius (tree hops) of the neighborhood a burst crashes.
    max_down_fraction:
        Ceiling on the fraction of the overlay that may be down at
        once; crashes that would exceed it are deferred.
    damp_penalty:
        Penalty added to a peer's damping counter per crash.
    damp_half_life:
        Exponential half-life of the penalty decay, in seconds.
    damp_suppress:
        Penalty at which a peer becomes suppressed; 0 disables damping.
    damp_reuse:
        Penalty below which a suppressed peer is released.
    """

    mean_session: float = 0.0
    session_alpha: float = 1.5
    mean_downtime: float = 0.0
    downtime_sigma: float = 0.75
    diurnal_amplitude: float = 0.0
    diurnal_period: float = 86_400.0
    regional_rate: float = 0.0
    regional_radius: int = 2
    max_down_fraction: float = 0.5
    damp_penalty: float = 1.0
    damp_half_life: float = 300.0
    damp_suppress: float = 0.0
    damp_reuse: float = 1.0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ConfigError` on any invalid parameter."""
        for name in ("mean_session", "mean_downtime", "regional_rate"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.mean_session > 0 and self.session_alpha <= 1:
            raise ConfigError(
                "session_alpha must exceed 1 (finite mean session), got "
                f"{self.session_alpha}"
            )
        if self.crashes_enabled and self.mean_downtime <= 0:
            raise ConfigError(
                "crashing peers need a positive mean_downtime to rejoin"
            )
        if self.mean_downtime > 0 and self.downtime_sigma <= 0:
            raise ConfigError(
                f"downtime_sigma must be positive, got {self.downtime_sigma}"
            )
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ConfigError(
                "diurnal_amplitude must lie in [0, 1), got "
                f"{self.diurnal_amplitude}"
            )
        if self.diurnal_amplitude > 0 and self.diurnal_period <= 0:
            raise ConfigError(
                f"diurnal_period must be positive, got {self.diurnal_period}"
            )
        if self.regional_radius < 1:
            raise ConfigError(
                f"regional_radius must be >= 1, got {self.regional_radius}"
            )
        if not 0.0 < self.max_down_fraction <= 1.0:
            raise ConfigError(
                "max_down_fraction must lie in (0, 1], got "
                f"{self.max_down_fraction}"
            )
        if self.damp_suppress > 0:
            if self.damp_penalty <= 0:
                raise ConfigError(
                    "damping needs a positive damp_penalty, got "
                    f"{self.damp_penalty}"
                )
            if self.damp_half_life <= 0:
                raise ConfigError(
                    "damping needs a positive damp_half_life, got "
                    f"{self.damp_half_life}"
                )
            if not 0 < self.damp_reuse < self.damp_suppress:
                raise ConfigError(
                    "need 0 < damp_reuse < damp_suppress, got "
                    f"reuse={self.damp_reuse} suppress={self.damp_suppress}"
                )

    @property
    def lifecycle_enabled(self) -> bool:
        """Whether per-node crash-restart sessions run."""
        return self.mean_session > 0

    @property
    def regional_enabled(self) -> bool:
        """Whether correlated regional bursts fire."""
        return self.regional_rate > 0

    @property
    def crashes_enabled(self) -> bool:
        """Whether anything in this plan crashes nodes."""
        return self.lifecycle_enabled or self.regional_enabled

    @property
    def diurnal_enabled(self) -> bool:
        """Whether the arrival-rate curve is active."""
        return self.diurnal_amplitude > 0

    @property
    def damping_enabled(self) -> bool:
        """Whether flap damping gates rejoins and resubscriptions."""
        return self.damp_suppress > 0

    @property
    def enabled(self) -> bool:
        """Whether this plan changes anything at all."""
        return self.crashes_enabled or self.diurnal_enabled


class FlapDamper:
    """BGP-style per-peer flap penalty with exponential decay.

    ``penalize`` adds the configured increment at each flap (crash);
    the stored value decays continuously with the configured half-life.
    A peer crossing the suppress threshold stays suppressed until its
    penalty decays below the (lower) reuse threshold — classic damping
    hysteresis.  Release is detected lazily, on the next ``suppressed``
    probe, and reported through the ``on_release`` callback.
    """

    def __init__(
        self,
        penalty: float,
        half_life: float,
        suppress: float,
        reuse: float,
        on_release: Optional[Callable[[NodeId], None]] = None,
    ):
        self._increment = float(penalty)
        self._decay = math.log(2.0) / float(half_life)
        self._suppress = float(suppress)
        self._reuse = float(reuse)
        self._on_release = on_release
        self._penalty: dict[NodeId, tuple[float, float]] = {}
        self._suppressed: set[NodeId] = set()
        self.suppressions = 0
        self.releases = 0

    def penalty(self, node: NodeId, now: float) -> float:
        """The decayed penalty of ``node`` at ``now``."""
        value, stamp = self._penalty.get(node, (0.0, now))
        return value * math.exp(-self._decay * (now - stamp))

    def penalize(self, node: NodeId, now: float) -> bool:
        """Charge one flap; returns True on an off→on suppress edge."""
        value = self.penalty(node, now) + self._increment
        self._penalty[node] = (value, now)
        if node not in self._suppressed and value >= self._suppress:
            self._suppressed.add(node)
            self.suppressions += 1
            return True
        return False

    def suppressed(self, node: NodeId, now: float) -> bool:
        """Whether ``node`` is damped at ``now`` (releasing lazily)."""
        if node not in self._suppressed:
            return False
        if self.penalty(node, now) > self._reuse:
            return True
        # Keep the residual (<= reuse) penalty: a peer released a moment
        # ago is closer to re-suppression than a first-time flapper.
        self._suppressed.discard(node)
        self.releases += 1
        if self._on_release is not None:
            self._on_release(node)
        return False

    @property
    def suppressed_now(self) -> int:
        """Peers currently suppressed (releases pending their next probe
        are still counted — the gauge is an upper bound)."""
        return len(self._suppressed)


class SessionEngine:
    """Runs a :class:`SessionPlan` against one simulation.

    The lifecycle is event-driven (``env.defer`` callbacks, no
    per-node process): all session and downtime draws come from the
    single ``sessions`` stream in event order, regional bursts from
    ``sessions-regional``.
    """

    def __init__(self, sim: "Simulation", plan: SessionPlan) -> None:
        self._sim = sim
        self.plan = plan
        self._rng = None
        self._session = (
            Pareto.from_rate(plan.session_alpha, 1.0 / plan.mean_session)
            if plan.lifecycle_enabled
            else None
        )
        self._downtime = (
            LogNormal.from_mean(plan.mean_downtime, plan.downtime_sigma)
            if plan.mean_downtime > 0
            else None
        )
        self.damper: Optional[FlapDamper] = None
        if plan.damping_enabled:
            self.damper = FlapDamper(
                plan.damp_penalty,
                plan.damp_half_life,
                plan.damp_suppress,
                plan.damp_reuse,
                on_release=self._on_release,
            )
        #: Amnesia snapshots of currently-down nodes, keyed by node.
        self._down: dict[NodeId, dict] = {}
        #: Nodes whose crash-restart lifecycle is running.
        self._lifecycle: set[NodeId] = set()
        #: Per-node token invalidating superseded pending crash timers.
        self._epoch: dict[NodeId, int] = {}
        self.crashes = 0
        self.rejoins = 0
        self.rejoins_damped = 0
        self.deferred = 0
        self.regional_bursts = 0
        self.regional_victims = 0

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Arm the lifecycle timers and burst process (from ``start()``)."""
        sim = self._sim
        if self.plan.crashes_enabled:
            self._rng = sim.streams.get("sessions")
        if self.plan.lifecycle_enabled:
            protected = self._protected()
            for node in sorted(sim.tree.nodes):
                if node in protected:
                    continue
                self._lifecycle.add(node)
                self._schedule_crash(node, self._session.sample(self._rng))
        if self.plan.regional_enabled:
            sim.env.process(
                self._regional_loop(sim.streams.get("sessions-regional")),
                name="sessions-regional",
            )

    def _protected(self) -> set[NodeId]:
        """Nodes the fluctuation layer never crashes.

        The root (authority failure is its own scenario) and the
        standby pool: a silently dead standby would be promoted into a
        blackhole by the failover machinery.
        """
        sim = self._sim
        protected = {sim.tree.root}
        if sim.standby_pool is not None:
            protected.update(sim.standby_pool.standbys)
        return protected

    # -- diurnal curve ---------------------------------------------------
    def modulation(self, now: float) -> float:
        """The arrival-rate multiplier at simulated time ``now``."""
        plan = self.plan
        return 1.0 + plan.diurnal_amplitude * math.sin(
            _TWO_PI * now / plan.diurnal_period
        )

    # -- damping gate ----------------------------------------------------
    def suppressed(self, node: NodeId) -> bool:
        """Whether flap damping currently suppresses ``node``."""
        return self.damper is not None and self.damper.suppressed(
            node, self._sim.env._now
        )

    def _on_release(self, node: NodeId) -> None:
        sim = self._sim
        self._record("flap-release", node=node)
        parent = sim.parent(node)
        overload = sim.overload
        if (
            parent is not None
            and overload is not None
            and overload.plan.breakers_enabled
        ):
            overload.record_success(parent, node)

    # -- lifecycle -------------------------------------------------------
    def _schedule_crash(self, node: NodeId, delay: float) -> None:
        epoch = self._epoch.get(node, 0) + 1
        self._epoch[node] = epoch
        self._sim.env.defer(delay, self._session_end, node, epoch)

    def _session_end(self, node: NodeId, epoch: int) -> None:
        if self._epoch.get(node) != epoch:
            return  # superseded by a regional crash of the same node
        sim = self._sim
        if node in self._down:
            return  # its rejoin will restart the session clock
        if not sim.functioning(node) or node in self._protected():
            # Churned out, crashed by another layer, or promoted to
            # authority: this node's fluctuation lifecycle is over.
            self._lifecycle.discard(node)
            return
        if not self._down_budget(1):
            self.deferred += 1
            self._schedule_crash(node, self._session.sample(self._rng))
            return
        self._crash(node, origin="session")

    def _down_budget(self, extra: int) -> bool:
        limit = self.plan.max_down_fraction * len(self._sim.tree)
        return len(self._down) + extra <= limit

    def _crash(self, node: NodeId, origin: str) -> None:
        sim = self._sim
        # Invalidate any pending session timer for this node; the rejoin
        # restarts the clock.
        self._epoch[node] = self._epoch.get(node, 0) + 1
        self._down[node] = sim.crash_node(node)
        self.crashes += 1
        self._record("session-crash", node=node, detail=origin)
        now = sim.env._now
        if self.damper is not None and self.damper.penalize(node, now):
            self._record("flap-suppress", node=node)
            parent = sim.parent(node)
            overload = sim.overload
            if (
                parent is not None
                and overload is not None
                and overload.plan.breakers_enabled
            ):
                overload.record_failure(parent, node, reason="flap-damp")
        sim.env.defer(
            self._downtime.sample(self._rng), self._rejoin, node
        )

    def _rejoin(self, node: NodeId) -> None:
        sim = self._sim
        snapshot = self._down.pop(node, None)
        if snapshot is None:  # pragma: no cover - defensive
            return
        suppressed = self.suppressed(node)
        sim.rejoin_node(node, snapshot, suppressed=suppressed)
        self.rejoins += 1
        if suppressed:
            self.rejoins_damped += 1
        self._record(
            "session-rejoin",
            node=node,
            detail="damped" if suppressed else "reconciled",
        )
        if node in self._lifecycle:
            self._schedule_crash(node, self._session.sample(self._rng))

    # -- regional bursts -------------------------------------------------
    def _regional_loop(self, rng):
        env = self._sim.env
        rate = self.plan.regional_rate
        while True:
            yield env.timeout(float(rng.exponential(1.0 / rate)))
            self._regional_burst(rng)

    def _regional_burst(self, rng) -> None:
        crashable = self._crashable()
        if not crashable:
            self.deferred += 1
            return
        candidates = sorted(crashable)
        seed = candidates[int(rng.integers(len(candidates)))]
        ball = self._ball(seed, crashable)
        # Respect the down-fraction ceiling by trimming the ball in BFS
        # order (the seed always crashes).
        victims = []
        for victim in ball:
            if self._down_budget(len(victims) + 1):
                victims.append(victim)
            else:
                self.deferred += 1
        self.regional_bursts += 1
        self.regional_victims += len(victims)
        self._record(
            "session-regional",
            node=seed,
            detail=f"radius={self.plan.regional_radius} victims={len(victims)}",
        )
        for victim in victims:
            self._crash(victim, origin="regional")

    def _crashable(self) -> set[NodeId]:
        """Functioning, up, unprotected nodes: who a burst may crash.

        One set difference per burst, not a ``functioning()`` call and a
        fresh protected set per node (a plan that crashes peers always
        has an injector, see ``Simulation.__init__``).
        """
        sim = self._sim
        return (
            sim.tree.nodes
            - sim.injector.dead
            - self._down.keys()
            - self._protected()
        )

    def _ball(self, seed: NodeId, crashable: set[NodeId]) -> list[NodeId]:
        """Crashable members of the BFS ball around ``seed``, BFS order."""
        tree = self._sim.tree
        seen = {seed}
        order = [seed]
        frontier = [seed]
        for _ in range(self.plan.regional_radius):
            next_frontier: list[NodeId] = []
            for node in frontier:
                neighbors = list(tree.children(node))
                parent = tree.parent(node)
                if parent is not None:
                    neighbors.append(parent)
                for neighbor in neighbors:
                    if neighbor not in seen:
                        seen.add(neighbor)
                        next_frontier.append(neighbor)
            frontier = next_frontier
            order.extend(next_frontier)
        return [node for node in order if node in crashable]

    # -- observation -----------------------------------------------------
    def _record(self, kind: str, node=None, subject=None, detail="") -> None:
        recorder = self._sim.recorder
        if recorder is not None:
            recorder.record(kind, node, subject, detail)

    @property
    def down_now(self) -> int:
        """Nodes currently down (crash-restart in progress)."""
        return len(self._down)

    @property
    def flap_suppressed_now(self) -> int:
        """Peers currently suppressed by flap damping."""
        return 0 if self.damper is None else self.damper.suppressed_now

    def counters(self) -> dict:
        """Fluctuation accounting for result extras and snapshots.

        The key set is identical whether or not damping is armed, so
        differential comparisons across variants line up verbatim.
        """
        return {
            "session_crashes": self.crashes,
            "session_rejoins": self.rejoins,
            "session_rejoins_damped": self.rejoins_damped,
            "session_deferred": self.deferred,
            "session_down_now": self.down_now,
            "session_regional_bursts": self.regional_bursts,
            "session_regional_victims": self.regional_victims,
            "flap_suppressions": (
                0 if self.damper is None else self.damper.suppressions
            ),
            "flap_releases": (
                0 if self.damper is None else self.damper.releases
            ),
            "flap_suppressed_now": self.flap_suppressed_now,
        }
