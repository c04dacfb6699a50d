"""K=1 ≡ ``Simulation``: the cross-engine differential.

The scale engine at one key, ``MultiKeyScaleSimulation(config, 1)``, and
``Simulation`` build the same Chord ring and key, bind the scheme to the
same :class:`~repro.schemes.host.SchemeHost`, list query origins in ring
order and draw the same named streams.  The scale engine's authority
answers its own queries, so ``Simulation`` runs with
``root_queries=True``.  Then every number the two report about the run
must agree bit for bit, for every registered scheme and for the knobs
the push schemes branch on.

Expiry needs no alignment: the scale engine's wheel-swept caches drop
an expired copy on a sweep, ``Simulation``'s on the next read, and no
read can tell the two apart.  The one divergence left is
``root_queries=False``, which the scale engine refuses;
:func:`test_excluding_root_queries_moves_the_single_key_run` keeps the
harness honest by showing it does move the single-key run.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.engine import Simulation, SimulationConfig
from repro.engine.multikey import MultiKeyScaleSimulation, merge_scale_results
from repro.schemes.registry import available_schemes

BASE = dict(topology="chord", num_nodes=256, duration=7200.0, warmup=1800.0)
SEEDS = (3, 5)

#: The knobs the push schemes branch on.  Samples are kept by default,
#: so every run's percentiles are compared too.
VARIANTS = {
    "lease": {"lease_ttl": 1800.0},
    "ewma": {"interest_policy": "ewma"},
    "no-piggyback": {"piggyback": False},
    "eager": {"eager_subscribe": True},
    "pareto": {"pareto_alpha": 1.05},
}


def _common(result) -> dict:
    return {
        "queries": result.queries,
        "mean_latency": result.mean_latency,
        "cost_per_query": result.cost_per_query,
        "hit_rate": result.hit_rate,
        "hop_breakdown": dict(result.hop_breakdown),
        "dropped": result.dropped_messages,
        "incomplete": result.incomplete_queries,
        "population": result.final_population,
    }


def simulation_view(config: SimulationConfig) -> dict:
    """What ``Simulation`` reports, authority-origin queries included."""
    result = Simulation(dataclasses.replace(config, root_queries=True)).run()
    view = _common(result)
    # The DUP family's live subscriber count (absent for other schemes).
    view["subscribers"] = result.extras.get("subscribed", 0)
    view["percentiles"] = result.latency_percentiles
    return view


def scale_view(config: SimulationConfig) -> dict:
    """What the scale engine reports for the same config at one key."""
    result = MultiKeyScaleSimulation(config, 1).run()
    view = _common(result)
    view["subscribers"] = result.extras["total_subscriptions"]
    merged = merge_scale_results([result]).extras
    view["percentiles"] = {
        f"p{q}": merged[f"latency_p{q}"] for q in (50, 95, 99)
    }
    return view


def assert_engines_agree(config: SimulationConfig) -> None:
    single, scale = simulation_view(config), scale_view(config)
    differ = sorted(name for name in single if single[name] != scale[name])
    assert not differ, f"engines differ in {differ}: {single} vs {scale}"
    assert single["queries"] > 0


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scheme", available_schemes())
def test_every_scheme_matches(scheme, seed):
    assert_engines_agree(SimulationConfig(scheme=scheme, seed=seed, **BASE))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("scheme", ["dup", "cup", "dup-invalidate"])
def test_push_scheme_knobs_match(scheme, variant, seed):
    config = SimulationConfig(
        scheme=scheme, seed=seed, **BASE, **VARIANTS[variant]
    )
    assert_engines_agree(config)


def test_subscribers_are_compared():
    # The DUP family's count is live on this grid, so a tree that one
    # engine grew and the other did not would show.
    config = SimulationConfig(scheme="dup", seed=SEEDS[0], **BASE)
    assert simulation_view(config)["subscribers"] > 0


def test_excluding_root_queries_moves_the_single_key_run():
    # Without authority-origin queries the single-key run draws another
    # workload: the differential's view does see the difference.
    config = SimulationConfig(scheme="dup", seed=SEEDS[0], **BASE)
    excluded = _common(Simulation(config).run())
    assert excluded != _common(MultiKeyScaleSimulation(config, 1).run())
