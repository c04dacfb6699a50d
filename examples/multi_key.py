#!/usr/bin/env python
"""Many indices at once: DUP across a shared Chord overlay.

The paper isolates a single index at a single authority; a deployed
system serves thousands of keys concurrently, each hashing to its own
authority and forming its own search tree over the same node population.
This example runs 12 keys with skewed popularity over one 256-node Chord
ring, for PCX and DUP, and shows that DUP's behavior composes: every
node participates in several propagation trees simultaneously (as
subscriber in some, relay in others) and the aggregate latency/cost
advantage is preserved.

Run:
    python examples/multi_key.py
"""

from repro import SimulationConfig, run_scale


def main() -> None:
    base = SimulationConfig(
        topology="chord",
        num_nodes=256,
        query_rate=16.0,  # across all keys
        duration=3600.0 * 5,
        warmup=3600.0 * 2,
        seed=21,
    )
    results = {}
    for scheme in ("pcx", "dup"):
        results[scheme] = run_scale(
            base.replace(scheme=scheme), num_keys=12, key_zipf_theta=0.8
        )

    print("== aggregate over 12 keys, 256 nodes ==")
    for scheme, result in results.items():
        print(
            f"  {scheme:4s} latency={result.mean_latency:.4f} "
            f"cost={result.cost_per_query:.4f} hit={result.hit_rate:.3f}"
        )
    ratio = results["dup"].cost_per_query / results["pcx"].cost_per_query
    print(f"  DUP aggregate relative cost: {ratio:.3f}")

    dup = results["dup"]
    per_key = dup.extras["queries_per_key"]
    counts = list(per_key.values())
    print("\n== per-key workload skew (Zipf over keys) ==")
    print(f"  hottest key: {counts[0]} queries; coldest: {counts[-1]}")
    print(f"  total DUP subscriptions across keys: "
          f"{dup.extras['total_subscriptions']}")
    print(
        "\n  Every node holds one cache with entries for several keys and "
        "plays different DUP roles per key — the propagation trees are "
        "independent state machines sharing the overlay and transport."
    )


if __name__ == "__main__":
    main()
