#!/usr/bin/env python
"""Capacity planning with the analytical models, validated by simulation.

Before deploying DUP you want to know, for a given workload, (a) how many
nodes will subscribe (and hence how big the propagation tree gets) and
(b) what one update dissemination will cost compared to CUP and to PCX's
re-fetch traffic.  `repro.analysis` answers both in closed form; this
example computes the predictions and then runs the simulator to check
them.

Run:
    python examples/capacity_planning.py
"""

import numpy as np

from repro.analysis import (
    cup_push_cost,
    dup_push_cost,
    expected_interested,
    pcx_refetch_cost,
)
from repro.engine import Simulation, SimulationConfig
from repro.topology import random_search_tree


def predict(config: SimulationConfig) -> float:
    """Expected interested-node count for the configured workload."""
    return expected_interested(
        n=config.num_nodes - 1,  # the authority does not query
        theta=config.zipf_theta,
        rate=config.query_rate,
        ttl=config.ttl,
        threshold_c=config.threshold_c,
    )


def main() -> None:
    config = SimulationConfig(
        scheme="dup",
        num_nodes=1024,
        query_rate=6.0,
        duration=3600.0 * 6,
        warmup=3600.0 * 2,
        seed=33,
    )

    print("== analytical prediction ==")
    predicted = predict(config)
    print(
        f"  workload: n={config.num_nodes}, lambda={config.query_rate}, "
        f"theta={config.zipf_theta}, c={config.threshold_c}"
    )
    print(f"  predicted interested nodes: {predicted:.0f}")

    # Per-update dissemination costs on a representative subscriber set:
    # take the predicted count of hottest ranks on a sample tree.
    tree = random_search_tree(
        config.num_nodes, config.max_degree, np.random.default_rng(33)
    )
    rng = np.random.default_rng(34)
    sample = rng.choice(
        [n for n in tree.nodes if n != tree.root],
        size=int(predicted),
        replace=False,
    )
    subscribers = [int(node) for node in sample]
    dup_hops = dup_push_cost(tree, subscribers)
    cup_hops = cup_push_cost(tree, subscribers)
    pcx_hops = pcx_refetch_cost(tree, subscribers)
    print(
        f"  per-cycle dissemination to {len(subscribers)} subscribers: "
        f"DUP={dup_hops} hops, CUP={cup_hops} hops, "
        f"PCX re-fetch={pcx_hops} hops"
    )
    print(
        f"  predicted push savings vs PCX: DUP {1 - dup_hops / pcx_hops:.0%}, "
        f"CUP {1 - cup_hops / pcx_hops:.0%}"
    )

    print("\n== simulation check ==")
    sim = Simulation(config)
    series = sim.monitor(interval=1800.0).probe(
        "subscribed", lambda: float(len(sim.scheme.subscribed_nodes()))
    )
    result = sim.run()
    steady = series.window(config.warmup, config.duration).mean()
    print(f"  simulated steady subscribers: {steady:.0f}")
    print(
        f"  prediction error: "
        f"{abs(steady - predicted) / max(steady, 1):.0%} "
        "(the model ignores forwarded-query arrivals and threshold "
        "flapping)"
    )
    push_hops = result.hop_breakdown["push"]
    measured_hours = (config.duration - config.warmup) / 3600.0
    cycles = (config.duration - config.warmup) / (
        config.ttl - config.push_lead
    )
    print(
        f"  simulated push hops/cycle: {push_hops / cycles:.0f} "
        f"(analytic DUP estimate: {dup_hops}) over "
        f"{measured_hours:.0f} measured hours"
    )


if __name__ == "__main__":
    main()
