"""Keep-alive tracking of data-hosting nodes by the authority.

The system model (paper Section II-A): the node hosting the data "needs to
send keep-alive messages periodically to the authority node to deal with
node failures.  The authority node needs to update the index ... [when] it
did not receive the keep-alive message from the node for a specific amount
of time."

:class:`KeepAliveTracker` implements the authority side: it records beacon
arrival times per hosting node and reports hosts whose last beacon is older
than the timeout.  The engines do not run it: ``examples/churn_resilience.py``
wires its expirations to :meth:`repro.index.authority.Authority.force_update`
in its authority drill.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import ConfigError
from repro.sim.core import Environment

HostDeadCallback = Callable[[int], None]


class KeepAliveTracker:
    """Tracks hosting-node liveness from periodic beacons.

    Parameters
    ----------
    env:
        Simulation environment (provides the clock and the sweep process).
    timeout:
        A host is declared dead when no beacon arrived for this long.
    check_interval:
        How often the tracker sweeps for expired hosts; defaults to the
        timeout itself.
    on_host_dead:
        Invoked once per host when it is declared dead.
    """

    def __init__(
        self,
        env: Environment,
        timeout: float,
        check_interval: Optional[float] = None,
        on_host_dead: Optional[HostDeadCallback] = None,
    ):
        if timeout <= 0:
            raise ConfigError(f"timeout must be positive, got {timeout}")
        self._env = env
        self._timeout = float(timeout)
        self._interval = float(
            timeout if check_interval is None else check_interval
        )
        if self._interval <= 0:
            raise ConfigError("check_interval must be positive")
        self._callback = on_host_dead
        self._last_seen: dict[int, float] = {}
        self._dead: set[int] = set()
        env.process(self._sweep_loop(), name="keepalive-sweeper")

    # -- beacon handling -----------------------------------------------------
    def beacon(self, host: int) -> None:
        """Record a keep-alive beacon from ``host`` at the current time.

        A beacon from a previously dead host resurrects it.
        """
        self._last_seen[host] = self._env.now
        self._dead.discard(host)

    def forget(self, host: int) -> None:
        """Stop tracking ``host`` (it de-registered cleanly)."""
        self._last_seen.pop(host, None)
        self._dead.discard(host)

    # -- queries -----------------------------------------------------------
    def is_alive(self, host: int) -> bool:
        """Whether ``host`` has beaconed within the timeout."""
        last = self._last_seen.get(host)
        if last is None:
            return False
        return (self._env.now - last) <= self._timeout and host not in self._dead

    @property
    def tracked_hosts(self) -> tuple[int, ...]:
        """All hosts with a recorded beacon (alive or dead)."""
        return tuple(self._last_seen)

    @property
    def dead_hosts(self) -> tuple[int, ...]:
        """Hosts currently declared dead."""
        return tuple(self._dead)

    # -- internals ------------------------------------------------------------
    def _expire(self) -> list[int]:
        now = self._env.now
        newly_dead = [
            host
            for host, last in self._last_seen.items()
            if host not in self._dead and now - last > self._timeout
        ]
        for host in newly_dead:
            self._dead.add(host)
            if self._callback is not None:
                self._callback(host)
        return newly_dead

    def _sweep_loop(self):
        while True:
            yield self._env.timeout(self._interval)
            self._expire()
