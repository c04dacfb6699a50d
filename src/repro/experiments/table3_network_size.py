"""Table III: query latency of PCX / CUP / DUP as the network grows.

The paper varies the number of nodes at three query rates and reports the
average query latency for each scheme, observing that (a) every scheme's
latency grows with the network (search paths get longer) and (b) DUP is
the best everywhere, "in many cases an order of magnitude better than
CUP".
"""

from __future__ import annotations

from repro.engine.runner import compare_many
from repro.experiments.common import PAPER_SCHEMES, base_config
from repro.experiments.format import monotone
from repro.experiments.spec import ExperimentResult, ShapeCheck

EXPERIMENT_ID = "table3"
TITLE = "Latency comparison as the number of nodes changes"

QUICK_SIZES = (128, 512, 2048)
BENCH_SIZES = (256, 1024, 4096)
PAPER_SIZES = (256, 1024, 4096, 16384)
RATES = (0.1, 1.0, 10.0)


def run(
    scale: str = "bench",
    replications: int = 2,
    seed: int = 1,
    sizes=None,
    rates=RATES,
    workers=None,
) -> ExperimentResult:
    """Regenerate Table III."""
    if sizes is None:
        sizes = {"quick": QUICK_SIZES, "paper": PAPER_SIZES}.get(scale, BENCH_SIZES)
    comparisons = compare_many(
        {
            (rate, size): base_config(
                scale, seed=seed, query_rate=rate, num_nodes=size
            )
            for rate in rates
            for size in sizes
        },
        PAPER_SCHEMES,
        replications,
        workers=workers,
        experiment=EXPERIMENT_ID,
    )

    rows = []
    for rate in rates:
        for scheme in PAPER_SCHEMES:
            rows.append(
                {
                    "row": f"{scheme} latency (lambda={rate:g})",
                    **{
                        f"n={size}": comparisons[(rate, size)]
                        .latency(scheme)
                        .mean
                        for size in sizes
                    },
                }
            )

    checks = []
    for rate in rates:
        for scheme in PAPER_SCHEMES:
            series = [
                comparisons[(rate, size)].latency(scheme).mean
                for size in sizes
            ]
            checks.append(
                ShapeCheck(
                    claim=(
                        f"{scheme} latency grows with n at lambda={rate:g} "
                        "(Table III rows)"
                    ),
                    passed=monotone(series, decreasing=False, slack=0.2),
                    detail=f"{[round(v, 4) for v in series]}",
                )
            )
        for size in sizes:
            comparison = comparisons[(rate, size)]
            dup = comparison.latency("dup").mean
            cup = comparison.latency("cup").mean
            pcx = comparison.latency("pcx").mean
            checks.append(
                ShapeCheck(
                    claim=(
                        f"dup best at n={size}, lambda={rate:g} "
                        "(Table III columns)"
                    ),
                    passed=dup <= cup * 1.05 + 1e-9 and dup <= pcx * 1.05 + 1e-9,
                    detail=f"dup={dup:.4g} cup={cup:.4g} pcx={pcx:.4g}",
                )
            )
    # The order-of-magnitude claim, checked where pushes matter most.
    best_ratio = 0.0
    for (rate, size), comparison in comparisons.items():
        cup = comparison.latency("cup").mean
        dup = comparison.latency("dup").mean
        if dup > 0:
            best_ratio = max(best_ratio, cup / dup)
    checks.append(
        ShapeCheck(
            claim=(
                "in some cell DUP's latency is >= 5x better than CUP's "
                "(paper: 'an order of magnitude better' in many cases)"
            ),
            passed=best_ratio >= 5.0,
            detail=f"best cup/dup latency ratio = {best_ratio:.1f}x",
        )
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        shape_checks=tuple(checks),
    )
