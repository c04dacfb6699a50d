"""The authority node's version life-cycle.

The authority node owns a key's (key, value) mapping.  Its copy never
expires; everyone else holds TTL-limited copies.  The paper's simulation
rotates versions on a fixed schedule: "the root pushes the updated index to
interested nodes exactly one minute before the previous index expires" —
i.e. version ``v+1`` is issued at ``expires_at(v) - push_lead``.

:class:`Authority` drives that schedule as a simulation process and invokes
a callback on every new version; push schemes hook their propagation there,
PCX simply refreshes the root's copy.  Out-of-schedule re-issues (e.g. a
hosting node declared dead by the keep-alive tracker) are supported via
:meth:`force_update`.

The authority is the root of the index search tree — a single point of
failure the paper never exercises.  This module also provides the
failover side: :meth:`Authority.state` snapshots everything a successor
needs (:class:`AuthorityState`), and :class:`StandbyPool` tracks the k
standby nodes that state is replicated to, watches authority liveness
through the replication/heartbeat stream (the same keep-alive idea as
:class:`repro.index.keepalive.KeepAliveTracker`), and promotes the first
functioning standby when the authority goes silent *and* has actually
crashed — a standby merely cut off by a partition waits the window out
rather than split-braining the tree (see docs/robustness.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.errors import ConfigError
from repro.index.entry import IndexVersion
from repro.sim.core import Environment

NodeId = int
VersionCallback = Callable[[IndexVersion], None]


@dataclass(frozen=True)
class AuthorityState:
    """Replicated authority state a standby needs to take over.

    ``next_version`` is the version counter *after* the last issue the
    standby saw; ``replicated_at`` dates the snapshot so a promoting
    standby can bump past issues that were lost with the old root.
    """

    key: int
    next_version: int
    value: object
    replicated_at: float


class Authority:
    """Owns one key's index and rotates its versions.

    Parameters
    ----------
    env:
        Simulation environment.
    key:
        The data key this authority is responsible for.
    ttl:
        Version lifetime (paper default: 3600 s).
    push_lead:
        How long before the current version's expiry the next version is
        issued (paper default: 60 s).
    on_new_version:
        Called with every newly issued :class:`IndexVersion`, including
        the initial one.
    value:
        The mapped value carried by every version (defaults to the key's
        hosting-node id in examples; opaque here).
    initial_version:
        Version number of the first issue.  0 for a fresh authority; a
        promoted standby passes its catch-up estimate so version numbers
        stay monotone across failovers.
    min_issue_gap:
        Overload protection: the minimum simulated time between
        *forced* issues.  :meth:`force_update` calls arriving within
        the gap of the previous issue are coalesced into one deferred
        issue at the gap boundary — an update storm collapses to one
        version per gap instead of one push fan-out per call.  ``0``
        (the default) disables coalescing and keeps the authority
        bit-identical to a build without the knob.
    """

    def __init__(
        self,
        env: Environment,
        key: int,
        ttl: float = 3600.0,
        push_lead: float = 60.0,
        on_new_version: Optional[VersionCallback] = None,
        value: object = None,
        initial_version: int = 0,
        min_issue_gap: float = 0.0,
    ):
        if ttl <= 0:
            raise ConfigError(f"ttl must be positive, got {ttl}")
        if not 0 <= push_lead < ttl:
            raise ConfigError(
                f"push_lead must lie in [0, ttl); got {push_lead} vs {ttl}"
            )
        if initial_version < 0:
            raise ConfigError(
                f"initial_version must be >= 0, got {initial_version}"
            )
        if min_issue_gap < 0:
            raise ConfigError(
                f"min_issue_gap must be >= 0, got {min_issue_gap}"
            )
        self._env = env
        self._key = key
        self._ttl = float(ttl)
        self._push_lead = float(push_lead)
        self._callback = on_new_version
        self._value = value
        #: The engine's per-read staleness check reads this directly;
        #: :attr:`current` is the checked public view.
        self._current: Optional[IndexVersion] = None
        self._next_version = int(initial_version)
        self._stopped = False
        self._min_issue_gap = float(min_issue_gap)
        self._last_issue_at: Optional[float] = None
        self._flush_pending = False
        #: Forced updates absorbed by coalescing (never individually
        #: issued); the overload experiment's "duplicate pushes shed at
        #: the source" counter.
        self.coalesced_updates = 0
        self._process = env.process(self._refresh_loop(), name=f"authority-{key}")

    # -- public API ----------------------------------------------------------
    @property
    def key(self) -> int:
        """The key this authority owns."""
        return self._key

    @property
    def current(self) -> IndexVersion:
        """The authoritative (never expiring at the root) current version."""
        if self._current is None:
            raise RuntimeError("authority not started yet")
        return self._current

    @property
    def refresh_interval(self) -> float:
        """Time between consecutive version issues (= ttl - push_lead)."""
        return self._ttl - self._push_lead

    def force_update(self, value: object = None) -> IndexVersion:
        """Issue a new version immediately (out-of-schedule update).

        Used when the hosting node changes or is declared dead; the
        regular schedule continues relative to the new version.  With
        ``min_issue_gap`` set, calls arriving within the gap of the
        previous issue coalesce: the newest value wins and a single
        deferred issue fires at the gap boundary (the version returned
        is then the still-current one).
        """
        if self._stopped:
            raise RuntimeError("authority is stopped")
        if value is not None:
            self._value = value
        if self._min_issue_gap > 0 and self._last_issue_at is not None:
            elapsed = self._env.now - self._last_issue_at
            if elapsed < self._min_issue_gap:
                self.coalesced_updates += 1
                if not self._flush_pending:
                    self._flush_pending = True
                    self._env.defer(
                        self._min_issue_gap - elapsed, self._flush_forced
                    )
                return self.current
        version = self._issue()
        self._process.interrupt("reschedule")
        return version

    def _flush_forced(self) -> None:
        """Deferred issue absorbing a burst of coalesced force_updates."""
        self._flush_pending = False
        if self._stopped:
            return
        self._issue()
        self._process.interrupt("reschedule")

    def stop(self) -> None:
        """Halt version rotation permanently (the authority crashed).

        Idempotent.  A stopped authority issues nothing further; a
        promoted standby builds a fresh :class:`Authority` from the
        replicated :class:`AuthorityState` instead of reviving this one.
        """
        if self._stopped:
            return
        self._stopped = True
        self._process.interrupt("stop")

    @property
    def stopped(self) -> bool:
        """Whether :meth:`stop` has been called."""
        return self._stopped

    def state(self) -> AuthorityState:
        """Snapshot the state a standby needs to take over."""
        return AuthorityState(
            key=self._key,
            next_version=self._next_version,
            value=self._value,
            replicated_at=self._env.now,
        )

    # -- internals ------------------------------------------------------------
    def _issue(self) -> IndexVersion:
        version = IndexVersion(
            key=self._key,
            version=self._next_version,
            issued_at=self._env.now,
            ttl=self._ttl,
            value=self._value,
        )
        self._next_version += 1
        self._current = version
        self._last_issue_at = self._env.now
        if self._callback is not None:
            self._callback(version)
        return version

    def _refresh_loop(self):
        from repro.sim.core import Interrupt

        self._issue()
        while True:
            wait = self.refresh_interval
            try:
                yield self._env.timeout(wait)
            except Interrupt:
                if self._stopped:
                    return
                # force_update already issued a fresh version; restart the
                # countdown from it.
                continue
            if self._stopped:
                return
            self._issue()


@dataclass(frozen=True)
class ReplicationPlan:
    """Authority replication and failover (``SimulationConfig.replication``).

    The authority replicates its version state to ``standbys`` nodes
    (>= 1), chosen breadth-first from the root; on its crash the first
    functioning one promotes itself (:class:`StandbyPool`).  A standby
    tolerates ``failover_timeout`` of authority silence; heartbeats flow
    at a third of it.  ``crash_at`` > 0 crashes the authority then:
    under ``silent_failures`` the root blackholes until a standby
    detects it, otherwise promotion is oracle-immediate.
    """

    standbys: int
    failover_timeout: float = 120.0
    crash_at: float = 0.0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ConfigError` on any invalid parameter."""
        if self.standbys < 1:
            raise ConfigError(f"standbys must be >= 1, got {self.standbys}")
        if self.failover_timeout <= 0:
            raise ConfigError(
                "failover_timeout must be positive, got "
                f"{self.failover_timeout}"
            )
        if self.crash_at < 0:
            raise ConfigError(f"crash_at must be >= 0, got {self.crash_at}")


class StandbyPool:
    """Tracks the authority's k standbys and decides when one promotes.

    The engine replicates every issued version's :class:`AuthorityState`
    to each standby and sends heartbeats between issues; both arrivals
    funnel into :meth:`record_state` / :meth:`record_heartbeat`, which
    refresh the standby's ``last_heard`` clock.  A watch process (run by
    the engine at a quarter of ``failover_timeout``) calls
    :meth:`check`; once *every* functioning standby has been starved for
    ``failover_timeout``, the pool asks :meth:`promote` for a successor.

    Promotion is gated on the authority having actually crashed
    (``functioning(root)`` false): a standby starved only by a partition
    never promotes, because this simulation models a single logical
    authority and cannot represent the resulting split brain.  The
    ``force`` flag bypasses the gate for oracle-immediate crash paths
    where the engine knows the root is gone before marking it so.
    """

    def __init__(
        self,
        env: Environment,
        standbys: Sequence[NodeId],
        failover_timeout: float,
        recorder=None,
    ):
        if not standbys:
            raise ConfigError("StandbyPool needs at least one standby")
        self._env = env
        self._recorder = recorder
        self._ranked: tuple[NodeId, ...] = tuple(standbys)
        self._timeout = float(failover_timeout)
        self._last_heard: dict[NodeId, float] = {
            node: env.now for node in self._ranked
        }
        self._state: dict[NodeId, AuthorityState] = {}
        self._promoted: Optional[NodeId] = None
        self.replications = 0
        self.heartbeats = 0

    # -- public API ----------------------------------------------------------
    @property
    def standbys(self) -> tuple[NodeId, ...]:
        """The standbys in promotion-preference order."""
        return self._ranked

    @property
    def promoted(self) -> Optional[NodeId]:
        """The standby that took over, if failover has happened."""
        return self._promoted

    @property
    def failover_timeout(self) -> float:
        """How long a standby tolerates authority silence."""
        return self._timeout

    def record_state(self, standby: NodeId, state: AuthorityState) -> None:
        """A replication message reached ``standby``."""
        if standby not in self._last_heard:
            return
        self._state[standby] = state
        self._last_heard[standby] = self._env.now
        self.replications += 1

    def record_heartbeat(self, standby: NodeId) -> None:
        """A heartbeat reached ``standby``."""
        if standby not in self._last_heard:
            return
        self._last_heard[standby] = self._env.now
        self.heartbeats += 1

    def state_at(self, standby: NodeId) -> Optional[AuthorityState]:
        """The last state ``standby`` saw (``None`` before replication)."""
        return self._state.get(standby)

    def starved(self, functioning) -> bool:
        """Whether every functioning standby has hit the silence timeout."""
        if self._promoted is not None:
            return False
        now = self._env.now
        alive = [n for n in self._ranked if functioning(n)]
        if not alive:
            return False
        return all(
            now - self._last_heard[n] >= self._timeout for n in alive
        )

    def promote(self, functioning, force: bool = False) -> Optional[NodeId]:
        """Choose the successor: the first functioning ranked standby.

        Returns ``None`` (and promotes nobody) when failover already
        happened or no functioning standby holds replicated state.
        ``force`` is for oracle crash paths; without it the caller is
        expected to have verified the authority is dead (see class
        docstring).
        """
        if self._promoted is not None:
            return None
        for node in self._ranked:
            if functioning(node) and node in self._state:
                self._promoted = node
                if self._recorder is not None:
                    self._recorder.record(
                        "failover-promotion", node=node, detail="replicated"
                    )
                return node
        if force:
            # Desperation: promote a functioning standby even without a
            # replica on record — it restarts versioning from scratch.
            for node in self._ranked:
                if functioning(node):
                    self._promoted = node
                    if self._recorder is not None:
                        self._recorder.record(
                            "failover-promotion",
                            node=node,
                            detail="desperation",
                        )
                    return node
        return None
