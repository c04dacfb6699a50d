"""Discrete-event simulation kernel.

A small, dependency-free, simpy-like kernel.  Simulation *processes* are
Python generators that ``yield`` events; the :class:`Environment` advances
virtual time by popping the earliest scheduled event from a binary heap and
resuming every process waiting on it.

The kernel is deliberately minimal but complete for this project's needs:

- :class:`Environment` — the clock and event loop.
- :class:`Event` — one-shot triggerable event with callbacks and a value.
- :class:`Timeout` — an event that fires after a delay.
- :class:`Process` — wraps a generator; itself an event that fires when the
  generator returns (its value is the generator's return value).
- :class:`Interrupt` — exception thrown into an interrupted process.

Example
-------
>>> from repro.sim import Environment
>>> env = Environment()
>>> log = []
>>> def proc(env):
...     yield env.timeout(5)
...     log.append(env.now)
>>> _ = env.process(proc(env))
>>> env.run()
>>> log
[5.0]
"""

from repro.sim.core import (
    Environment,
    Event,
    Interrupt,
    Process,
    Timeout,
)
from repro.sim.monitor import Monitor, Series
from repro.sim.rng import RandomStreams

__all__ = [
    "Environment",
    "Event",
    "Interrupt",
    "Monitor",
    "Process",
    "RandomStreams",
    "Series",
    "Timeout",
]
