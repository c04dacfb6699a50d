"""Result containers: single runs, replications, and scheme comparisons."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from repro.metrics.report import MetricsReport
from repro.stats.confidence import ConfidenceInterval, mean_confidence_interval

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.config import SimulationConfig


@dataclass(frozen=True)
class SimulationResult:
    """All outputs of one simulation run.

    The two headline numbers are ``mean_latency`` (request hops to a valid
    index) and ``cost_per_query`` (total message hops / queries), matching
    the paper's metrics.
    """

    config: "SimulationConfig"
    scheme: str
    queries: int
    mean_latency: float
    latency_ci: Optional[ConfidenceInterval]
    cost_per_query: float
    hit_rate: float
    hop_breakdown: Mapping[str, int]
    dropped_messages: int
    incomplete_queries: int
    final_population: int
    wall_seconds: float
    extras: Mapping[str, object] = field(default_factory=dict)
    latency_percentiles: Mapping[str, float] = field(default_factory=dict)
    stale_read_fraction: float = math.nan

    @property
    def report(self) -> MetricsReport:
        """The standard metrics view of this run."""
        ci = self.latency_ci or ConfidenceInterval(
            self.mean_latency, math.nan, 0.95, self.queries
        )
        return MetricsReport(
            scheme=self.scheme,
            queries=self.queries,
            mean_latency=self.mean_latency,
            latency_ci=ci,
            cost_per_query=self.cost_per_query,
            hit_rate=self.hit_rate,
            hop_breakdown=self.hop_breakdown,
            latency_percentiles=self.latency_percentiles,
            dropped=self.dropped_messages,
            give_ups=int(self.extras.get("delivery_give_ups", 0)),
            stale_read_fraction=self.stale_read_fraction,
        )

    def values(self) -> dict[str, object]:
        """The run's numbers as one flat ``{name: value}`` mapping.

        Each scalar field under its own name, then the keys of
        ``hop_breakdown``, ``latency_percentiles`` and ``extras``: the
        vocabulary of ``--metrics-out`` snapshots.
        """
        values: dict[str, object] = {
            "queries": self.queries,
            "mean_latency": self.mean_latency,
            "cost_per_query": self.cost_per_query,
            "hit_rate": self.hit_rate,
            "dropped_messages": self.dropped_messages,
            "incomplete_queries": self.incomplete_queries,
            "final_population": self.final_population,
            "stale_read_fraction": self.stale_read_fraction,
        }
        values.update(self.hop_breakdown)
        values.update(self.latency_percentiles)
        values.update(self.extras)
        return values

    def __str__(self) -> str:
        return str(self.report)


@dataclass(frozen=True)
class ReplicatedResult:
    """Aggregation of one configuration over independent replications."""

    scheme: str
    runs: Sequence[SimulationResult]
    latency: ConfidenceInterval
    cost: ConfidenceInterval
    hit_rate: float

    @classmethod
    def from_runs(cls, runs: Sequence[SimulationResult]) -> "ReplicatedResult":
        """Aggregate replications with Student-t confidence intervals."""
        if not runs:
            raise ValueError("need at least one run")
        latencies = [run.mean_latency for run in runs]
        costs = [run.cost_per_query for run in runs]
        hit_rates = [run.hit_rate for run in runs]
        return cls(
            scheme=runs[0].scheme,
            runs=tuple(runs),
            latency=mean_confidence_interval(latencies),
            cost=mean_confidence_interval(costs),
            hit_rate=sum(hit_rates) / len(hit_rates),
        )

    def __str__(self) -> str:
        return (
            f"[{self.scheme} x{len(self.runs)}] latency={self.latency} "
            f"cost={self.cost} hit_rate={self.hit_rate:.3g}"
        )


@dataclass(frozen=True)
class ComparisonResult:
    """Several schemes on the same workload (paired random seeds).

    ``relative_cost[s]`` is the per-replication ratio of scheme ``s``'s
    cost to PCX's cost on the *same seed*, aggregated over replications —
    exactly what the paper's "relative cost compared to PCX" figures plot.
    """

    by_scheme: Mapping[str, ReplicatedResult]
    relative_cost: Mapping[str, ConfidenceInterval]
    baseline: str = "pcx"

    def latency(self, scheme: str) -> ConfidenceInterval:
        """Latency CI of one scheme."""
        return self.by_scheme[scheme].latency

    def cost(self, scheme: str) -> ConfidenceInterval:
        """Absolute cost CI of one scheme."""
        return self.by_scheme[scheme].cost

    @property
    def schemes(self) -> tuple[str, ...]:
        """Compared scheme names."""
        return tuple(self.by_scheme)

    def __str__(self) -> str:
        lines = []
        for name, result in self.by_scheme.items():
            rel = self.relative_cost.get(name)
            rel_text = f" rel_cost={rel}" if rel is not None else ""
            lines.append(f"{result}{rel_text}")
        return "\n".join(lines)
