"""Scheme liveness: every registered scheme earns its registry entry.

Every scheme runs on a small fixed grid of 256-node configs.  Any two
registered schemes must produce different metric fingerprints on at
least one grid config, unless the pair is declared below as a
reduction, together with the test that breaks it.  A scheme that
matches another one on the whole grid is a passenger: the same
behaviour under a second name.  The test fails until it is deleted or
its pair is declared.

Aliases are declared separately.  An alias is a scheme name that
selects the same behaviour as another scheme plus a config field.  The
grid proves that equality, so the alias cannot drift from what it names
without this test noticing.
"""

from __future__ import annotations

import functools
import itertools

from repro.core.interest import AdaptivePlan
from repro.engine import SimulationConfig
from repro.schemes.registry import available_schemes
from tests.differential import run_fingerprint

BASE = dict(num_nodes=256, duration=7200.0, warmup=1800.0, seed=5)

#: Three corners: the paper's default ``c`` at a low rate, a low ``c``
#: under a hot uniform-ish workload, and ``c = 1`` on a narrow tree.
GRID = (
    dict(threshold_c=6, query_rate=1.0),
    dict(threshold_c=2, query_rate=10.0, zipf_theta=0.5),
    dict(threshold_c=1, query_rate=3.0, max_degree=2),
)

#: Registered pairs allowed to coincide on the whole grid, each with the
#: test that makes them differ.
REDUCTIONS = {
    frozenset(("dup", "dup-balanced")): (
        "the fanout cap never binds without an overload plan; a binding "
        "max_subscribers splits them in tests/test_differential.py::"
        "TestBalancedReduction::test_binding_cap_diverges_and_splits"
    ),
}

#: scheme -> (the scheme it aliases, the config fields it stands for).
ALIASES = {
    "dup-adaptive": ("dup", {"interest_policy": AdaptivePlan()}),
}


def grid_config(scheme: str, point: int, **fields) -> SimulationConfig:
    """``scheme`` on grid config ``point``, with ``fields`` set."""
    return SimulationConfig(scheme=scheme, **BASE, **GRID[point], **fields)


@functools.cache
def fingerprint(scheme: str, point: int) -> str:
    """The metric fingerprint of ``scheme`` on grid config ``point``."""
    return run_fingerprint(grid_config(scheme, point))[1]


def coinciding_pairs() -> set[frozenset]:
    """Registered pairs whose fingerprints match on every grid config."""
    schemes = available_schemes()
    return {
        frozenset(pair)
        for pair in itertools.combinations(schemes, 2)
        if all(
            fingerprint(pair[0], point) == fingerprint(pair[1], point)
            for point in range(len(GRID))
        )
    }


def test_every_registered_pair_differs_unless_declared():
    coinciding = coinciding_pairs()
    undeclared = sorted(sorted(pair) for pair in coinciding - set(REDUCTIONS))
    assert not undeclared, (
        f"schemes identical on the whole grid: {undeclared}; delete the "
        "passenger or declare the reduction and the config that breaks it"
    )
    stale = sorted(sorted(pair) for pair in set(REDUCTIONS) - coinciding)
    assert not stale, f"declared reductions that no longer hold: {stale}"


def test_alias_is_its_target_plus_its_fields():
    for alias, (target, fields) in ALIASES.items():
        for point in range(len(GRID)):
            named = run_fingerprint(grid_config(target, point, **fields))[1]
            assert fingerprint(alias, point) == named, (
                f"{alias} drifted from {target} with {fields} on grid {point}"
            )
            assert fingerprint(alias, point) != fingerprint(target, point), (
                f"{alias} equals plain {target} on grid {point}"
            )

