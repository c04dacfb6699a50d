"""Knob liveness: every engine honours or refuses every config field.

Each scalar :class:`~repro.engine.config.SimulationConfig` field is
declared below with a non-default value, the enabling context it needs
(the other fields that switch its layer on), and its verdict on each
engine.  The field is set on top of its context, and the run is
compared with the context alone:

- ``moves``: what the run did moves.  Some fingerprint field other than
  what the run reports about itself (``REPORTED``) differs.
- ``reports``: only the ``REPORTED`` fields move.  The field selects
  what is measured, not what happens.
- ``observer``: the fingerprint is bit-identical, and the flight
  recorder holds different events.
- ``refused``: the engine raises :class:`~repro.errors.ConfigError`,
  for the field or for its context.

The base run is a clean 256-node, 7 200 s ``dup`` run at seed 3; the
scale engine runs it as ``MultiKeyScaleSimulation(config, 1)`` on a
Chord overlay.  A field with no declaration fails
:func:`test_every_field_is_declared`, so no knob lands silent.  The five
plan objects and ``scheme`` are out of scope here.  A field that no
context can move is a passenger, and it goes.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import flightrec
from repro.engine import Simulation, SimulationConfig
from repro.engine.multikey import MultiKeyScaleSimulation
from repro.errors import ConfigError
from repro.net.faults import FaultPlan
from tests.differential import diff_fields, metric_fingerprint

BASE = dict(scheme="dup", num_nodes=256, duration=7200.0, warmup=1800.0, seed=3)

ENGINES = {
    "simulation": ({}, Simulation),
    "scale": (
        {"topology": "chord"},
        lambda config: MultiKeyScaleSimulation(config, 1),
    ),
}

#: Fields this test leaves out: the scheme selector, and the plans.
NOT_KNOBS = {"scheme", "churn", "faults", "overload", "storms", "sessions"}

#: What a run reports about itself rather than what it did.
REPORTED = {"extras", "latency_ci", "latency_percentiles"}

MOVES, REPORTS, OBSERVER, REFUSED = "moves", "reports", "observer", "refused"

# -- enabling contexts ---------------------------------------------------------
PARETO = {"arrival": "pareto"}
ADAPTIVE = {"interest_policy": "adaptive"}
#: From the default floor of 2 the adaptive threshold seldom climbs at
#: this size, so a ceiling moves only the reported ``threshold_max``.
#: From a floor of 0, a ceiling of 1 binds.
ADAPTIVE_FROM_ZERO = {"interest_policy": "adaptive", "threshold_floor": 0}
STANDBY = {"authority_standbys": 1}
CRASH = {"authority_standbys": 1, "authority_crash_at": 3600.0}
LOSSY = {"retry_budget": 3, "faults": FaultPlan(loss_rate=0.2)}
LEASES = {"lease_ttl": 1800.0}
RANDOM_TREE = {"topology": "random-tree"}
RECORDING = {"flight_recorder": True}

#: field -> (value, context, verdict on Simulation, verdict on scale).
KNOBS = {
    "num_nodes": (200, {}, MOVES, MOVES),
    "max_degree": (6, RANDOM_TREE, MOVES, REFUSED),
    "query_rate": (2.0, {}, MOVES, MOVES),
    "arrival": ("pareto", {}, MOVES, MOVES),
    "pareto_alpha": (1.2, PARETO, MOVES, MOVES),
    "zipf_theta": (0.5, {}, MOVES, MOVES),
    "threshold_c": (2, {}, MOVES, MOVES),
    "ttl": (1800.0, {}, MOVES, MOVES),
    "push_lead": (120.0, {}, MOVES, MOVES),
    "hop_latency_mean": (0.2, {}, MOVES, MOVES),
    "duration": (6480.0, {}, MOVES, MOVES),
    "topology": ("balanced", {}, MOVES, REFUSED),
    "interest_policy": ("ewma", {}, MOVES, MOVES),
    "threshold_floor": (4, ADAPTIVE, MOVES, MOVES),
    "threshold_ceiling": (1, ADAPTIVE_FROM_ZERO, MOVES, MOVES),
    "adaptive_gain": (0.9, ADAPTIVE, MOVES, MOVES),
    "warmup": (900.0, {}, MOVES, MOVES),
    "seed": (4, {}, MOVES, MOVES),
    "root_queries": (True, {}, MOVES, REFUSED),
    "piggyback": (False, {}, MOVES, MOVES),
    "immediate_push": (False, {}, MOVES, MOVES),
    "eager_subscribe": (True, {}, MOVES, MOVES),
    "count_keepalive": (True, STANDBY, MOVES, REFUSED),
    "keep_latency_samples": (False, {}, REPORTS, REPORTS),
    "retry_budget": (2, {}, MOVES, REFUSED),
    "ack_timeout": (1.0, LOSSY, MOVES, REFUSED),
    "retry_backoff": (3.0, LOSSY, MOVES, REFUSED),
    "retry_timeout_cap": (3.0, LOSSY, MOVES, REFUSED),
    "lease_ttl": (1800.0, {}, MOVES, MOVES),
    "lease_refresh_interval": (100.0, LEASES, MOVES, MOVES),
    "authority_standbys": (1, {}, MOVES, REFUSED),
    "failover_timeout": (60.0, CRASH, MOVES, REFUSED),
    "authority_crash_at": (3600.0, STANDBY, MOVES, REFUSED),
    "audit_interval": (600.0, {}, REPORTS, REFUSED),
    "flight_recorder": (True, {}, OBSERVER, REFUSED),
    "flight_capacity": (16, RECORDING, OBSERVER, REFUSED),
}

_RUNS: dict[tuple[str, str], tuple] = {}


def run(engine: str, config: SimulationConfig) -> tuple:
    """``(result, recorded events)`` of ``config`` on ``engine``, memoised."""
    key = (engine, repr(config))
    if key not in _RUNS:
        sim = ENGINES[engine][1](config)
        result = sim.run()
        recorder = getattr(sim, "recorder", None)
        events = recorder.events if recorder is not None else ()
        _RUNS[key] = result, events
    return _RUNS[key]


@pytest.fixture(autouse=True)
def recorder_off_by_default(monkeypatch):
    """Only the config arms the recorder, whatever ``REPRO_FLIGHT`` says."""
    monkeypatch.setattr(flightrec, "ENABLED", False)


def test_every_field_is_declared():
    fields = {field.name for field in dataclasses.fields(SimulationConfig)}
    assert set(KNOBS) == fields - NOT_KNOBS


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("name", sorted(KNOBS))
def test_field_is_honoured_or_refused(engine, name):
    value, context, *verdicts = KNOBS[name]
    verdict = verdicts[0] if engine == "simulation" else verdicts[1]
    before = SimulationConfig(**{**BASE, **ENGINES[engine][0], **context})
    assert getattr(before, name) != value, "the declared value is a no-op"
    after = before.replace(**{name: value})
    if verdict == REFUSED:
        with pytest.raises(ConfigError):
            ENGINES[engine][1](after)
        return
    base, base_events = run(engine, before)
    moved, moved_events = run(engine, after)
    changed = set(diff_fields(base, moved))
    if verdict == OBSERVER:
        assert metric_fingerprint(moved) == metric_fingerprint(base)
        assert moved_events and moved_events != base_events
    elif verdict == REPORTS:
        assert changed and changed <= REPORTED, changed
    else:
        assert changed - REPORTED, f"only {sorted(changed)} moved"
