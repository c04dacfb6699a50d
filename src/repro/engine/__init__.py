"""Simulation engine: configuration, wiring, and replication running."""

from repro.engine.config import SimulationConfig
from repro.engine.parallel import (
    ParallelRunner,
    ProgressEvent,
    TrialFailure,
    TrialSpec,
    resolve_workers,
    set_default_event_sink,
)
from repro.engine.telemetry import TelemetryWriter, render_top
from repro.engine.results import ComparisonResult, ReplicatedResult, SimulationResult
from repro.engine.multikey import run_scale
from repro.engine.runner import (
    compare_many,
    compare_schemes,
    replicate_many,
    run_replications,
    run_simulation,
    sweep,
)
from repro.engine.simulation import Simulation

__all__ = [
    "ComparisonResult",
    "ParallelRunner",
    "ProgressEvent",
    "ReplicatedResult",
    "Simulation",
    "SimulationConfig",
    "SimulationResult",
    "TelemetryWriter",
    "TrialFailure",
    "TrialSpec",
    "compare_many",
    "compare_schemes",
    "render_top",
    "replicate_many",
    "resolve_workers",
    "run_replications",
    "run_scale",
    "run_simulation",
    "set_default_event_sink",
    "sweep",
]
