"""Differential-equivalence harness for cross-scheme testing.

Runs two configurations on identical (seed, workload, fault-plan) inputs
and compares *metric fingerprints*: the full
:class:`~repro.engine.results.SimulationResult` minus the fields that
legitimately differ between schemes (the scheme name, the config that
selected it) or between runs (wall-clock time).  Everything else —
query counts, latencies, per-category hop costs, drop counters, extras —
must match bit-for-bit for the runs to be declared equivalent.

Used by ``tests/test_differential.py`` to prove the PR-8 reductions:

- ``dup-adaptive`` with a frozen rate (``AdaptivePlan(floor=c,
  ceiling=c)``) collapses to plain ``dup`` at the matching static
  ``c``;
- ``dup-balanced`` whose fanout cap never binds is bit-identical to
  plain ``dup`` under the same overload plan;

and, as a sanity check, that the schemes *do* diverge once the adaptive
threshold moves or the cap binds (an equivalence proof over a harness
that can never fail proves nothing).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from repro.engine.config import SimulationConfig
from repro.engine.results import SimulationResult
from repro.engine.simulation import Simulation

#: Fields excluded from the fingerprint: ``wall_seconds`` varies run to
#: run, and ``config``/``scheme`` necessarily differ between the two
#: sides of a differential pair (they are what selects the scheme).
EXCLUDED_FIELDS = ("wall_seconds", "config", "scheme")


def metric_fingerprint(result: SimulationResult) -> str:
    """Canonical JSON of every metric field of ``result``.

    ``default=repr`` canonicalizes non-JSON values (dataclasses inside
    extras, tuples) the same way on both sides.
    """
    record = dataclasses.asdict(result)
    for field in EXCLUDED_FIELDS:
        record.pop(field, None)
    return json.dumps(record, sort_keys=True, default=repr)


def run_fingerprint(config: SimulationConfig) -> tuple[SimulationResult, str]:
    """Run one simulation and fingerprint it."""
    result = Simulation(config).run()
    return result, metric_fingerprint(result)


def differential_pair(
    left: SimulationConfig, right: SimulationConfig
) -> tuple[SimulationResult, SimulationResult, bool]:
    """Run both configs; the bool is whether the fingerprints match."""
    left_result, left_print = run_fingerprint(left)
    right_result, right_print = run_fingerprint(right)
    return left_result, right_result, left_print == right_print


def assert_equivalent(
    left: SimulationConfig, right: SimulationConfig, context: str = ""
) -> tuple[SimulationResult, SimulationResult]:
    """Assert bit-identical metrics; on mismatch, name the fields."""
    left_result, left_print = run_fingerprint(left)
    right_result, right_print = run_fingerprint(right)
    if left_print != right_print:
        diffs = diff_fields(left_result, right_result)
        raise AssertionError(
            f"differential mismatch ({context or 'unnamed pair'}): "
            f"{left.scheme} vs {right.scheme} differ in {diffs}"
        )
    return left_result, right_result


def assert_divergent(
    left: SimulationConfig, right: SimulationConfig, context: str = ""
) -> tuple[SimulationResult, SimulationResult]:
    """Assert the runs differ somewhere (the harness can detect change)."""
    left_result, right_result, same = differential_pair(left, right)
    if same:
        raise AssertionError(
            f"expected divergence ({context or 'unnamed pair'}): "
            f"{left.scheme} and {right.scheme} produced identical metrics"
        )
    return left_result, right_result


def diff_fields(
    left: SimulationResult, right: SimulationResult
) -> list[str]:
    """Names of the metric fields whose canonical values differ."""
    left_record = dataclasses.asdict(left)
    right_record = dataclasses.asdict(right)
    diffs = []
    for field in sorted(set(left_record) | set(right_record)):
        if field in EXCLUDED_FIELDS:
            continue
        left_value = json.dumps(
            left_record.get(field), sort_keys=True, default=repr
        )
        right_value = json.dumps(
            right_record.get(field), sort_keys=True, default=repr
        )
        if left_value != right_value:
            diffs.append(field)
    return diffs


def fingerprint_digest(result: SimulationResult) -> str:
    """SHA-256 of :func:`metric_fingerprint`: a pinnable one-liner."""
    return hashlib.sha256(metric_fingerprint(result).encode()).hexdigest()
