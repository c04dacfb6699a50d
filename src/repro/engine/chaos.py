"""Named, replayable chaos scenarios.

A :class:`ChaosScenario` is a declarative bundle of the robustness
machinery — partition windows, message loss, a deliberate authority
crash, standby failover, and the consistency auditor — expressed as
*offsets from warm-up* so the same scenario applies unchanged to any
scale's configuration.  Applying a scenario is a pure transformation of
a :class:`~repro.engine.config.SimulationConfig`; nothing else changes,
so a scenario run differs from its baseline only by the faults it
declares, and the empty scenario (``"calm"``) is the identity: applying
it returns the config object untouched and the run stays bit-identical
to one that never imported this module.

Scenarios compose with faults the config already carries: windows are
appended to the existing plan (validation still enforces the sorted,
non-overlapping schedule), loss rates and flags are merged by maximum /
union, and failover knobs only ever tighten (a config already running
more standbys keeps them).

The registry :data:`SCENARIOS` names the stock scenarios; ``"blackout"``
is the acceptance scenario of the robustness PR — a 60 s partition with
the authority crashing silently mid-partition under 10 % message loss,
from which a ``dup`` run with the resilience stack must reconverge.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro.engine.config import SimulationConfig
from repro.errors import ConfigError
from repro.index.authority import ReplicationPlan
from repro.net.faults import FaultPlan, PartitionWindow
from repro.net.overload import OverloadPlan
from repro.workload.sessions import SessionPlan
from repro.workload.storms import StormPhase, StormPlan

#: (start offset after warm-up, duration, components) per window.
PartitionSpec = tuple[float, float, int]

#: (kind, start offset after warm-up, duration, rate) per storm phase.
StormSpec = tuple[str, float, float, float]


@dataclass(frozen=True)
class ChaosScenario:
    """One named chaos schedule, relative to the config's warm-up.

    Attributes
    ----------
    name:
        Registry key, also used by the CLI (``repro-dup chaos NAME``).
    description:
        One line for ``repro-dup chaos --list``.
    partitions:
        Partition windows as ``(offset, duration, components)`` triples;
        each opens ``offset`` seconds after warm-up ends.
    crash_offset:
        Crash the authority this long after warm-up (None: no crash).
        Under ``silent_failures`` the crash blackholes the root until a
        standby's failover timeout expires; otherwise promotion is
        oracle-immediate.
    loss_rate:
        Uniform transmission loss the scenario adds (merged by max with
        any loss the config already injects).
    silent_failures:
        Whether crashes blackhole instead of oracle-notifying.
    standbys / failover_timeout:
        Authority replication fan-out and the silence budget before a
        standby promotes itself.  Forced to at least 1 standby whenever
        the scenario crashes the authority.
    audit_interval:
        Cadence of the consistency auditor (0 leaves it off).
    overload:
        An :class:`~repro.net.overload.OverloadPlan` the scenario arms
        (None leaves whatever the config carries; a config that already
        has one keeps its own).
    storms:
        Overload storm phases as ``(kind, offset, duration, rate)``
        tuples, offset from warm-up like partitions; appended to any
        phases the config already schedules.
    sessions:
        A :class:`~repro.workload.sessions.SessionPlan` the scenario
        arms — peer crash-restart lifecycle, regional bursts, flap
        damping (None leaves whatever the config carries; a config that
        already has one keeps its own).
    """

    name: str
    description: str
    partitions: tuple[PartitionSpec, ...] = ()
    crash_offset: "float | None" = None
    loss_rate: float = 0.0
    silent_failures: bool = False
    standbys: int = 0
    failover_timeout: float = 120.0
    audit_interval: float = 0.0
    overload: Optional[OverloadPlan] = None
    storms: tuple[StormSpec, ...] = ()
    sessions: Optional[SessionPlan] = None

    def __post_init__(self) -> None:
        if self.crash_offset is not None and self.standbys < 1:
            raise ConfigError(
                f"scenario {self.name!r} crashes the authority but "
                "provisions no standbys"
            )

    @property
    def is_empty(self) -> bool:
        """Whether applying this scenario changes nothing."""
        return (
            not self.partitions
            and self.crash_offset is None
            and self.loss_rate == 0.0
            and not self.silent_failures
            and self.standbys == 0
            and self.audit_interval == 0.0
            and self.overload is None
            and not self.storms
            and self.sessions is None
        )

    def apply(self, config: SimulationConfig) -> SimulationConfig:
        """The config with this scenario's chaos merged in.

        Offsets resolve against ``config.warmup``; every resulting
        absolute time must fit inside the run's horizon.  The empty
        scenario returns ``config`` itself.
        """
        if self.is_empty:
            return config
        changes: dict = {}

        windows = tuple(
            PartitionWindow(
                start=config.warmup + offset,
                duration=duration,
                components=components,
            )
            for offset, duration, components in self.partitions
        )
        for window in windows:
            if window.end > config.duration:
                raise ConfigError(
                    f"scenario {self.name!r}: partition heals at "
                    f"{window.end:g}s, past the horizon "
                    f"({config.duration:g}s)"
                )
        if windows or self.loss_rate > 0 or self.silent_failures:
            base = config.faults if config.faults is not None else FaultPlan()
            changes["faults"] = dataclasses.replace(
                base,
                loss_rate=max(base.loss_rate, self.loss_rate),
                silent_failures=base.silent_failures or self.silent_failures,
                partitions=tuple(
                    sorted(
                        base.partitions + windows, key=lambda w: w.start
                    )
                ),
            )

        if self.standbys > 0:
            own = config.replication or ReplicationPlan(
                self.standbys, self.failover_timeout
            )
            crash_at = own.crash_at
            if self.crash_offset is not None:
                crash_at = config.warmup + self.crash_offset
                if crash_at >= config.duration:
                    raise ConfigError(
                        f"scenario {self.name!r}: authority crash at "
                        f"{crash_at:g}s, past the horizon "
                        f"({config.duration:g}s)"
                    )
            changes["replication"] = ReplicationPlan(
                max(own.standbys, self.standbys),
                min(own.failover_timeout, self.failover_timeout),
                crash_at,
            )
        if self.audit_interval > 0:
            changes["audit_interval"] = (
                self.audit_interval
                if config.audit_interval == 0
                else min(config.audit_interval, self.audit_interval)
            )
        if self.overload is not None and config.overload is None:
            changes["overload"] = self.overload
        if self.storms:
            phases = tuple(
                StormPhase(
                    kind=kind,
                    start=config.warmup + offset,
                    duration=duration,
                    rate=rate,
                )
                for kind, offset, duration, rate in self.storms
            )
            for phase in phases:
                if phase.end > config.duration:
                    raise ConfigError(
                        f"scenario {self.name!r}: storm ends at "
                        f"{phase.end:g}s, past the horizon "
                        f"({config.duration:g}s)"
                    )
            base_phases = (
                config.storms.phases if config.storms is not None else ()
            )
            changes["storms"] = StormPlan(
                phases=tuple(
                    sorted(base_phases + phases, key=lambda p: p.start)
                )
            )
        if self.sessions is not None and config.sessions is None:
            changes["sessions"] = self.sessions
        return config.replace(**changes)


#: Stock scenarios, keyed by name.
SCENARIOS: dict[str, ChaosScenario] = {
    scenario.name: scenario
    for scenario in (
        ChaosScenario(
            name="calm",
            description="no chaos at all; applying it is the identity",
        ),
        ChaosScenario(
            name="split",
            description=(
                "one clean 5-minute two-way partition, no loss, no "
                "crash; measures pure partition divergence and healing"
            ),
            partitions=((300.0, 300.0, 2),),
            audit_interval=150.0,
        ),
        ChaosScenario(
            name="flap",
            description=(
                "a flap storm: peers cycle through short crash-restart "
                "sessions with flap damping armed; the auditor must stay "
                "clean through every rejoin reconciliation"
            ),
            sessions=SessionPlan(
                mean_session=600.0,
                session_alpha=1.5,
                mean_downtime=60.0,
                downtime_sigma=0.75,
                damp_penalty=1.0,
                damp_half_life=300.0,
                damp_suppress=3.0,
                damp_reuse=1.5,
            ),
            audit_interval=150.0,
        ),
        ChaosScenario(
            name="regional",
            description=(
                "correlated regional churn: Poisson bursts crash whole "
                "BFS neighborhoods of the tree at once, with lognormal "
                "recovery times"
            ),
            sessions=SessionPlan(
                mean_downtime=120.0,
                downtime_sigma=0.75,
                regional_rate=1.0 / 600.0,
                regional_radius=2,
            ),
            audit_interval=150.0,
        ),
        ChaosScenario(
            name="regicide",
            description=(
                "oracle authority crash with two standbys and no other "
                "faults; isolates the failover hand-off"
            ),
            crash_offset=300.0,
            standbys=2,
            audit_interval=150.0,
        ),
        ChaosScenario(
            name="blackout",
            description=(
                "the acceptance scenario: 60 s two-way partition, the "
                "authority crashing silently mid-partition, 10% loss; "
                "standbys must detect, promote, and the auditor must "
                "drive reconvergence"
            ),
            partitions=((300.0, 60.0, 2),),
            crash_offset=330.0,
            loss_rate=0.10,
            silent_failures=True,
            standbys=2,
            failover_timeout=120.0,
            audit_interval=150.0,
        ),
        ChaosScenario(
            name="stampede",
            description=(
                "overload storm: a flash crowd plus an authority update "
                "storm against bounded priority inboxes, breakers, a "
                "fanout cap, and update coalescing"
            ),
            overload=OverloadPlan(
                inbox_capacity=48,
                service_rate=1.5,
                max_subscribers=3,
                authority_coalesce_gap=30.0,
                breaker_threshold=3,
                breaker_cooldown=120.0,
            ),
            storms=(
                ("flash-crowd", 120.0, 1800.0, 12.0),
                ("update-storm", 300.0, 1500.0, 1.0),
            ),
        ),
    )
}


def get_scenario(name: str) -> ChaosScenario:
    """Look up a stock scenario by name."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ConfigError(
            f"unknown chaos scenario {name!r}; "
            f"available: {tuple(sorted(SCENARIOS))}"
        ) from None
