"""The DUP tree-evolution timeline: probes, JSONL records, reconstruction.

The probes below register on a run's one
:class:`~repro.sim.monitor.Monitor` (``Simulation.monitor``), which
samples them once per interval and keeps the newest ``max_samples``
samples per metric, so memory is bounded by the sample count, never the
run length.  :func:`timeline_records` exports the retained samples as
``--telemetry-out`` JSONL and :func:`reconstruct_series` rebuilds one
metric's series from them.

The probes are pure observers of simulation state and consume no
randomness, so sampling a timeline never perturbs a run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.monitor import Monitor


def timeline_probes(tree, scheme) -> dict[str, Callable[[], float]]:
    """The shape probes of a run's search ``tree`` and its bound
    ``scheme``, by metric name.

    - ``tree-depth`` — height of the search tree;
    - ``population`` — nodes currently in the tree;
    - ``mean-fanout`` — average child count over interior nodes;
    - ``subscribers`` — nodes holding an active subscription (DUP only);
    - ``dup-tree-size`` — nodes in the DUP update tree (DUP only);
    - ``interior-load`` — largest subscriber list held by any single
      node (DUP only) — the per-node propagation burden.
    """

    def mean_fanout() -> float:
        interiors = [n for n in tree.nodes if not tree.is_leaf(n)]
        if not interiors:
            return 0.0
        return sum(tree.degree(n) for n in interiors) / len(interiors)

    probes = {
        "tree-depth": lambda: float(tree.height()),
        "population": lambda: float(len(tree)),
        "mean-fanout": mean_fanout,
    }
    if hasattr(scheme, "subscribed_nodes"):
        probes["subscribers"] = lambda: float(len(scheme.subscribed_nodes()))
    if hasattr(scheme, "dup_tree_size"):
        probes["dup-tree-size"] = lambda: float(scheme.dup_tree_size())
    protocol = getattr(scheme, "protocol", None)
    if protocol is not None:
        probes["interior-load"] = lambda: float(
            max(
                (
                    len(protocol.s_list(node))
                    for node in protocol.nodes_with_state()
                ),
                default=0,
            )
        )
    return probes


def timeline_records(timeline: "Monitor") -> Iterator[dict]:
    """JSONL-ready dicts, one per retained (metric, sample)."""
    for metric in sorted(timeline.names):
        for sample in timeline.series(metric):
            yield {
                "type": "timeline",
                "metric": metric,
                "time": sample.time,
                "value": sample.value,
            }


def reconstruct_series(
    records: Iterable[dict], metric: str
) -> list[tuple[float, float]]:
    """Rebuild a timeline metric's ``(time, value)`` series from JSONL.

    The inverse of :func:`timeline_records`, used to verify that a
    ``--telemetry-out`` file reconstructs the in-memory timeline.
    """
    pairs = [
        (record["time"], record["value"])
        for record in records
        if record.get("type") == "timeline" and record.get("metric") == metric
    ]
    return sorted(pairs)
