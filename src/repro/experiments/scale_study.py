"""Scale study: sharded multi-key runs over large populations.

The paper evaluates one index over 4096 nodes; this study exercises the
scale tier — the batched event kernel, lazy per-key trees, vectorized
TTL sweeps, and conditional-Zipf shard thinning — by sweeping a
(nodes x keys) grid with :func:`repro.engine.multikey.run_scale` and
checking the structural claims that make the tier trustworthy:

- shards conserve the workload (per-key query counts sum to the total);
- DUP's push warmth survives scale (hit rate stays high as the grid
  grows);
- lazy trees pay only for touched state (materialized parent pointers
  stay well below the eager ``nodes x keys`` bill);
- the sweep loop actually reclaims entries (resident + swept accounting
  closes).

Rows contain **no wall-clock or RSS numbers** — those are measurement
artifacts of the machine, recorded by ``scripts/bench_scale.py``
into ``BENCH_scale.json``; the golden covering this experiment must
stay bit-stable across hosts.
"""

from __future__ import annotations

from repro.engine.multikey import default_shard_count, run_scale
from repro.experiments.common import base_config
from repro.experiments.spec import ExperimentResult, ShapeCheck

EXPERIMENT_ID = "scale"
TITLE = "Scale tier: sharded multi-key runs (nodes x keys grid)"

#: (num_nodes, num_keys) per scale.  The paper-scale point is the
#: 10^5-node, 1024-key run the tier exists for.
GRIDS = {
    "smoke": ((256, 32),),
    "quick": ((512, 64), (1024, 128)),
    "bench": ((2048, 256), (8192, 512)),
    "paper": ((32768, 1024), (100_000, 1024)),
}

#: Keys-per-node ceiling for the scale study's workload knobs.
KEY_ZIPF_THETA = 0.8


def run(
    scale: str = "bench",
    replications: int = 1,
    seed: int = 1,
    workers=None,
    grid=None,
    scheme: str = "dup",
) -> ExperimentResult:
    """Sweep the (nodes, keys) grid with the sharded scale engine.

    ``replications`` is accepted for registry-signature parity but the
    study runs one seed per grid point: a scale point is a capacity
    measurement, not a stochastic estimate.
    """
    if grid is None:
        grid = GRIDS.get(scale, GRIDS["bench"])
    rows = []
    checks = []
    for num_nodes, num_keys in grid:
        config = base_config(
            scale,
            seed=seed,
            num_nodes=num_nodes,
            topology="chord",
            scheme=scheme,
        )
        shards = default_shard_count(num_keys)
        result = run_scale(
            config,
            num_keys=num_keys,
            key_zipf_theta=KEY_ZIPF_THETA,
            shard_count=shards,
            workers=workers,
        )
        extras = result.extras
        rows.append(
            {
                "nodes": num_nodes,
                "keys": num_keys,
                "shards": shards,
                "queries": result.queries,
                "mean_latency": result.mean_latency,
                "hit_rate": result.hit_rate,
                "cost_per_query": result.cost_per_query,
                "latency_p95": extras["latency_p95"],
                "total_subscriptions": extras["total_subscriptions"],
                "max_fanout": extras["max_fanout"],
                "parents_touched": extras["parents_touched"],
                "swept_entries": extras["swept_entries"],
                "resident_entries": extras["resident_entries"],
            }
        )
        conserved = sum(extras["queries_per_key"].values())
        hits = int(extras["hits"])
        misses = result.queries - hits
        checks.append(
            ShapeCheck(
                claim=(
                    f"shards conserve the workload at {num_nodes}x{num_keys}"
                    " (per-key counts sum to the total)"
                ),
                passed=conserved == result.queries,
                detail=f"sum(per-key)={conserved} total={result.queries}",
            )
        )
        checks.append(
            ShapeCheck(
                claim=(
                    f"{scheme} stays push-warm at {num_nodes}x{num_keys} "
                    "(hit rate above one half)"
                ),
                passed=result.queries > 0 and result.hit_rate > 0.5,
                detail=(
                    f"hit_rate={result.hit_rate:.3f} "
                    f"({hits} hits / {misses} misses)"
                ),
            )
        )
        touched = int(extras["parents_touched"])
        eager = num_nodes * num_keys
        checks.append(
            ShapeCheck(
                claim=(
                    f"lazy trees pay only for touched state at "
                    f"{num_nodes}x{num_keys} (below the eager bill)"
                ),
                passed=0 < touched < eager,
                detail=f"touched={touched} eager={eager}",
            )
        )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        shape_checks=tuple(checks),
        notes=(
            "Sharded multi-key runs via run_scale(); shard count is a "
            "pure function of the key count, so every number is "
            "worker-count invariant.  Wall-clock and peak RSS live in "
            "BENCH_scale.json, never in these rows."
        ),
    )
