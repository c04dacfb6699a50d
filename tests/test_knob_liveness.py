"""Knob liveness: every engine honours or refuses every config field.

Each scalar :class:`~repro.engine.config.SimulationConfig` field, and
each field of the retry, replication and adaptive-policy plans (as
``plan.field``), is declared below with a non-default value, the
context that makes it bind (if any, with its reason), and its verdict
on each engine.  A plan field is set on the plan its context holds, or
else on the plan switched on as in ``PLANS``.  The run is compared with
the one before the field was set:

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
:func:`test_every_field_is_declared`, so no knob lands silent.  The
other plan objects and ``scheme`` are out of scope here.  A field that
no context can move is a passenger, and it goes.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import flightrec
from repro.core.interest import AdaptivePlan
from repro.engine import Simulation, SimulationConfig
from repro.engine.multikey import MultiKeyScaleSimulation
from repro.errors import ConfigError
from repro.index.authority import ReplicationPlan
from repro.net.faults import FaultPlan
from repro.net.reliable import RetryPlan
from tests.differential import diff_fields, metric_fingerprint

BASE = dict(scheme="dup", num_nodes=256, duration=7200.0, warmup=1800.0, seed=3)

ENGINES = {
    "simulation": ({}, Simulation),
    "scale": (
        {"topology": "chord"},
        lambda config: MultiKeyScaleSimulation(config, 1),
    ),
}

#: Fields this test leaves out: the scheme selector, and the plans (the
#: three in ``PLANS`` are walked field by field).
NOT_KNOBS = {"scheme", "churn", "faults", "retry", "replication",
             "overload", "storms", "sessions"}

#: The plans whose fields are declared, each as it is switched on when
#: the context leaves it off.
PLANS = {
    "retry": RetryPlan(budget=3),
    "replication": ReplicationPlan(standbys=1),
    "interest_policy": AdaptivePlan(),
}

#: What a run reports about itself rather than what it did.
REPORTED = {"extras", "latency_ci", "latency_percentiles"}

MOVES, REPORTS, OBSERVER, REFUSED = "moves", "reports", "observer", "refused"

# -- contexts: each makes its field bind ---------------------------------------
#: Loss: the retry budget, its cap and the ack timeout pace only the
#: retransmission of lost deliveries.
LOSSY = {"faults": FaultPlan(loss_rate=0.2), "retry": RetryPlan(budget=3)}
#: A crash: the failover timeout times its detection.
CRASH = {"replication": ReplicationPlan(standbys=1, crash_at=3600.0)}
#: A floor of 0: from the default 2 the threshold seldom climbs at this
#: size, so a ceiling moves only the reported ``threshold_max``.
FROM_ZERO = {"interest_policy": AdaptivePlan(floor=0)}

#: field -> (value, context, verdict on Simulation, verdict on scale).
KNOBS = {
    "num_nodes": (200, {}, MOVES, MOVES),
    "max_degree": (6, {}, MOVES, REFUSED),
    "query_rate": (2.0, {}, MOVES, MOVES),
    "pareto_alpha": (1.2, {}, MOVES, MOVES),
    "zipf_theta": (0.5, {}, MOVES, MOVES),
    "threshold_c": (2, {}, MOVES, MOVES),
    "ttl": (1800.0, {}, MOVES, MOVES),
    "push_lead": (120.0, {}, MOVES, MOVES),
    "hop_latency_mean": (0.2, {}, MOVES, MOVES),
    "duration": (6480.0, {}, MOVES, MOVES),
    "topology": ("balanced", {}, MOVES, REFUSED),
    "interest_policy": ("ewma", {}, MOVES, MOVES),
    "interest_policy.floor": (4, {}, MOVES, MOVES),
    "interest_policy.ceiling": (1, FROM_ZERO, MOVES, MOVES),
    "interest_policy.gain": (0.9, {}, MOVES, MOVES),
    "warmup": (900.0, {}, MOVES, MOVES),
    "seed": (4, {}, MOVES, MOVES),
    "root_queries": (True, {}, MOVES, REFUSED),
    "piggyback": (False, {}, MOVES, MOVES),
    "immediate_push": (False, {}, MOVES, MOVES),
    "eager_subscribe": (True, {}, MOVES, MOVES),
    "keep_latency_samples": (False, {}, REPORTS, REPORTS),
    "retry.budget": (2, LOSSY, MOVES, REFUSED),
    "retry.timeout_cap": (3.0, LOSSY, MOVES, REFUSED),
    "ack_timeout": (1.0, LOSSY, MOVES, REFUSED),
    "lease_ttl": (1800.0, {}, MOVES, MOVES),
    "replication.standbys": (2, {}, MOVES, REFUSED),
    "replication.failover_timeout": (60.0, CRASH, MOVES, REFUSED),
    "replication.crash_at": (3600.0, {}, MOVES, REFUSED),
    "audit_interval": (600.0, {}, REPORTS, REFUSED),
    "flight_recorder": (True, {}, OBSERVER, REFUSED),
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
    fields |= {
        f"{plan}.{field.name}"
        for plan, default in PLANS.items()
        for field in dataclasses.fields(default)
    }
    assert set(KNOBS) == fields - NOT_KNOBS


def with_field(config: SimulationConfig, name: str, value):
    """``(before, after)``: ``config`` with the plan of ``name`` switched
    on, and that again with ``name`` set to ``value``."""
    plan, _, field = name.rpartition(".")
    if not plan:
        return config, config.replace(**{name: value})
    own = getattr(config, plan)
    if not isinstance(own, type(PLANS[plan])):
        own = PLANS[plan]
        config = config.replace(**{plan: own})
    return config, config.replace(
        **{plan: dataclasses.replace(own, **{field: value})}
    )


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("name", sorted(KNOBS))
def test_field_is_honoured_or_refused(engine, name):
    value, context, *verdicts = KNOBS[name]
    verdict = verdicts[0] if engine == "simulation" else verdicts[1]
    config = SimulationConfig(**{**BASE, **ENGINES[engine][0], **context})
    if verdict == REFUSED:
        with pytest.raises(ConfigError):
            ENGINES[engine][1](with_field(config, name, value)[1])
        return
    before, after = with_field(config, name, value)
    assert after != before, "the declared value is a no-op"
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


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_max_degree_on_chord_is_refused(engine):
    # Chord's tree follows its finger tables: no degree to bound.
    config = SimulationConfig(**BASE, topology="chord")
    with pytest.raises(ConfigError, match="max_degree"):
        ENGINES[engine][1](config.replace(max_degree=6))
