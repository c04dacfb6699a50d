"""Multiprocess fan-out for the experiment engine.

Every paper sweep is embarrassingly parallel: each ``(sweep point,
scheme, replication)`` trial is one fully independent simulation whose
randomness is a pure function of its derived seed
(:func:`repro.sim.rng.derive_trial_seed`).  :class:`ParallelRunner`
distributes trials across a process pool and reassembles the results in
trial order, so the merged output is **bit-identical** to a serial run
regardless of worker count or scheduling: a worker never mutates shared
state, it only returns its trial's picklable :class:`SimulationResult`.

``workers=1`` bypasses the pool entirely and executes trials inline in
submission order.  The first failing trial aborts the sweep with an
:class:`ExperimentError` naming the failing experiment, sweep point,
scheme, replication, and seed.

Progress travels as one stream of :class:`ProgressEvent` records, one
per finished (or failed) trial, to the runner's ``event_sink`` or the
process-wide default (:func:`set_default_event_sink`).  The CLI's
stderr progress line and its ``--telemetry-out`` JSONL are two sinks of
that one stream.

Worker-count resolution (:func:`resolve_workers`):

- an explicit integer is used as-is;
- ``"auto"`` (the CLI default) uses every core this process may run on;
- ``None`` (the library default) consults the ``REPRO_WORKERS``
  environment variable — the CI matrix sets ``REPRO_WORKERS=2`` to drive
  the whole tier-1 suite through the pool path — and falls back to
  serial execution.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, NoReturn, Optional, Sequence

from repro.engine.config import SimulationConfig
from repro.engine.results import SimulationResult
from repro.engine.simulation import Simulation
from repro.errors import ExperimentError

#: Environment variable consulted when no worker count is given.
WORKERS_ENV = "REPRO_WORKERS"


@dataclass(frozen=True)
class TrialFailure:
    """A trial that raised, recorded for the per-experiment failure table."""

    experiment: str
    trial: str
    error: str

    def to_record(self) -> dict:
        """A JSONL-ready record (``type`` discriminates the stream)."""
        return {"type": "trial-failure", **asdict(self)}


@dataclass(frozen=True)
class ProgressEvent:
    """One structured progress tick from a sweep.

    Emitted once per finished (or failed) trial.  ``eta_seconds`` and
    ``utilization`` are live gauges: remaining-trial estimate at the
    current completion rate, and the fraction of worker capacity spent
    inside simulations so far.  ``mean_latency`` / ``cost_per_query``
    mirror the finished trial's headline numbers (NaN on failure) so a
    dashboard can plot rolling divergence/cost without the full result.
    ``shed_fraction`` / ``max_queue_depth`` surface the overload layer's
    gauges (NaN when the trial ran without one); ``down_nodes`` /
    ``flap_suppressed`` the fluctuation layer's (end-of-run currently
    down count and flap-damped peer count, NaN without the layer).
    """

    kind: str  # "trial-done" | "trial-failed"
    experiment: str
    trial: str
    done: int
    failed: int
    total: int
    workers: int
    wall_seconds: float
    elapsed_seconds: float
    eta_seconds: float
    utilization: float
    mean_latency: float = math.nan
    cost_per_query: float = math.nan
    shed_fraction: float = math.nan
    max_queue_depth: float = math.nan
    down_nodes: float = math.nan
    flap_suppressed: float = math.nan
    error: str = ""

    def to_record(self) -> dict:
        """A JSONL-ready record (``type`` discriminates the stream)."""
        return {"type": "progress", **asdict(self)}


_default_event_sink: Optional[Callable[[ProgressEvent], None]] = None


def set_default_event_sink(
    callback: Optional[Callable[[ProgressEvent], None]],
) -> Optional[Callable[[ProgressEvent], None]]:
    """Install a process-wide :class:`ProgressEvent` sink.

    The CLI's ``run`` points this at one sink that prints the stderr
    progress line and, with ``--telemetry-out``, appends the event to a
    JSONL writer (which ``repro-dup top`` renders).  ``None`` (the
    default) drops events.  Returns the previous sink.
    """
    global _default_event_sink
    previous = _default_event_sink
    _default_event_sink = callback
    return previous


def _usable_cpus() -> int:
    """CPUs this process may run on (affinity and cpusets respected)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return max(1, os.cpu_count() or 1)


def resolve_workers(workers: "int | str | None" = None) -> int:
    """Normalize a worker-count request to a concrete positive integer."""
    if workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        if not env:
            return 1
        workers = env
    if isinstance(workers, str):
        if workers.lower() == "auto":
            return _usable_cpus()
        try:
            workers = int(workers)
        except ValueError:
            raise ExperimentError(
                f"workers must be an integer or 'auto', got {workers!r}"
            ) from None
    if workers < 1:
        raise ExperimentError(f"workers must be >= 1, got {workers}")
    return int(workers)


@dataclass(frozen=True)
class TrialSpec:
    """One unit of sweep work: a fully seeded simulation configuration.

    ``experiment``, ``point``, ``scheme``, and ``replication`` are labels
    for progress reporting and failure attribution; the configuration
    alone determines the trial's behaviour.
    """

    config: SimulationConfig
    experiment: str = ""
    point: object = None
    scheme: str = ""
    replication: int = 0

    def describe(self) -> str:
        """Human-readable trial identity (used in progress/errors)."""
        parts = [self.experiment or "trial"]
        if self.point is not None:
            parts.append(f"point={self.point}")
        parts.append(f"scheme={self.scheme or self.config.scheme}")
        parts.append(f"rep={self.replication}")
        parts.append(f"seed={self.config.seed}")
        return " ".join(parts)


def _execute(spec: TrialSpec) -> SimulationResult:
    """Worker-side entry point: run one trial, return its result."""
    return Simulation(spec.config).run()


#: Worker-side executor signature: spec in, result out.  Custom executors
#: must be module-level callables (the pool pickles them by reference).
TrialExecutor = Callable[[TrialSpec], SimulationResult]


class ParallelRunner:
    """Fans trials out over a process pool, merging results in order.

    Parameters
    ----------
    workers:
        Worker-count request (see :func:`resolve_workers`).
    experiment:
        Label stamped onto progress events and failure messages for
        specs that do not carry their own.
    event_sink:
        Per-trial :class:`ProgressEvent` callback; when omitted, the
        process-wide default from :func:`set_default_event_sink` is used.
    execute:
        Worker-side executor invoked per spec (see :data:`TrialExecutor`).
        Defaults to running ``Simulation(spec.config)``; the sharded
        multi-key scale engine substitutes its own module-level function
        so the same pool/ordering/failure machinery drives shard
        simulations.  Must be picklable (a module-level function) for
        the pool path.

    The first failing trial raises :class:`ExperimentError`, with the
    :attr:`failures` table (one :class:`TrialFailure`) attached as its
    ``trial_failures`` attribute.
    """

    def __init__(
        self,
        workers: "int | str | None" = None,
        experiment: str = "",
        event_sink: Optional[Callable[[ProgressEvent], None]] = None,
        execute: Optional[TrialExecutor] = None,
    ):
        self.workers = resolve_workers(workers)
        self._event_sink = event_sink
        self._execute_fn = execute if execute is not None else _execute
        self.experiment = experiment
        self.failures: list[TrialFailure] = []
        self._started_at = 0.0
        self._busy_seconds = 0.0

    # -- execution -----------------------------------------------------------
    def run_trials(
        self, specs: Iterable[TrialSpec]
    ) -> list[SimulationResult]:
        """Execute every trial; results are returned in spec order."""
        specs = [self._coerce(spec) for spec in specs]
        self.failures = []
        self._busy_seconds = 0.0
        if not specs:
            return []
        self._started_at = time.perf_counter()
        if self.workers == 1:
            return self._run_serial(specs)
        return self._run_pool(specs)

    def _coerce(self, spec) -> TrialSpec:
        if isinstance(spec, TrialSpec):
            if not spec.experiment and self.experiment:
                spec = TrialSpec(
                    config=spec.config,
                    experiment=self.experiment,
                    point=spec.point,
                    scheme=spec.scheme,
                    replication=spec.replication,
                )
            return spec
        raise ExperimentError(f"expected TrialSpec, got {type(spec).__name__}")

    def _run_serial(self, specs: Sequence[TrialSpec]) -> list[SimulationResult]:
        results = []
        done = 0
        for spec in specs:
            try:
                result = self._execute_fn(spec)
            except Exception as error:
                self._fail(spec, error, done, len(specs))
            results.append(result)
            done += 1
            self._report(done, len(specs), spec, result)
        return results

    def _run_pool(self, specs: Sequence[TrialSpec]) -> list[SimulationResult]:
        workers = min(self.workers, len(specs))
        slots: list[Optional[SimulationResult]] = [None] * len(specs)
        done = 0
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(self._execute_fn, spec): index
                for index, spec in enumerate(specs)
            }
            pending = set(futures)
            try:
                while pending:
                    finished, pending = wait(
                        pending, return_when=FIRST_EXCEPTION
                    )
                    for future in finished:
                        index = futures[future]
                        spec = specs[index]
                        error = future.exception()
                        if error is not None:
                            self._fail(spec, error, done, len(specs))
                        result = slots[index] = future.result()
                        done += 1
                        self._report(done, len(specs), spec, result)
            except BaseException:
                for future in pending:
                    future.cancel()
                raise
        return slots

    # -- failures ------------------------------------------------------------
    def _fail(
        self, spec: TrialSpec, error: BaseException, done: int, total: int
    ) -> NoReturn:
        """Record one failed trial and abort the sweep."""
        failure = TrialFailure(
            experiment=spec.experiment or self.experiment,
            trial=spec.describe(),
            error=repr(error),
        )
        self.failures.append(failure)
        self._emit_event(
            kind="trial-failed",
            spec=spec,
            done=done,
            total=total,
            wall_seconds=math.nan,
            error=failure.error,
        )
        wrapped = ExperimentError(
            f"worker failed on {spec.describe()}: {error!r}"
        )
        wrapped.trial_failures = tuple(self.failures)
        raise wrapped from error

    # -- progress ------------------------------------------------------------
    def _report(
        self, done: int, total: int, spec: TrialSpec, result: SimulationResult
    ) -> None:
        self._busy_seconds += result.wall_seconds
        extras = result.extras
        self._emit_event(
            kind="trial-done",
            spec=spec,
            done=done,
            total=total,
            wall_seconds=result.wall_seconds,
            mean_latency=result.mean_latency,
            cost_per_query=result.cost_per_query,
            shed_fraction=float(extras.get("shed_fraction", math.nan)),
            max_queue_depth=float(
                extras.get("max_queue_depth", math.nan)
            ),
            down_nodes=float(extras.get("session_down_now", math.nan)),
            flap_suppressed=float(
                extras.get("flap_suppressed_now", math.nan)
            ),
        )

    def _emit_event(
        self,
        kind: str,
        spec: TrialSpec,
        done: int,
        total: int,
        wall_seconds: float,
        mean_latency: float = math.nan,
        cost_per_query: float = math.nan,
        shed_fraction: float = math.nan,
        max_queue_depth: float = math.nan,
        down_nodes: float = math.nan,
        flap_suppressed: float = math.nan,
        error: str = "",
    ) -> None:
        sink = (
            self._event_sink
            if self._event_sink is not None
            else _default_event_sink
        )
        if sink is None:
            return
        elapsed = max(time.perf_counter() - self._started_at, 1e-9)
        failed = len(self.failures)
        finished = done + failed
        if finished > 0:
            eta = (total - finished) * (elapsed / finished)
        else:
            eta = math.nan
        utilization = min(
            self._busy_seconds / (elapsed * self.workers), 1.0
        )
        sink(
            ProgressEvent(
                kind=kind,
                experiment=spec.experiment or self.experiment,
                trial=spec.describe(),
                done=done,
                failed=failed,
                total=total,
                workers=self.workers,
                wall_seconds=wall_seconds,
                elapsed_seconds=elapsed,
                eta_seconds=eta,
                utilization=utilization,
                mean_latency=mean_latency,
                cost_per_query=cost_per_query,
                shed_fraction=shed_fraction,
                max_queue_depth=max_queue_depth,
                down_nodes=down_nodes,
                flap_suppressed=flap_suppressed,
                error=error,
            )
        )
