"""Performance metrics: cost ledger, latency recorder, unified registry.

The paper reports two metrics (Section IV):

- **average query latency** — hops a request travels before reaching a
  valid index (0 for a local cache hit), and
- **average query cost** — total hops of all query-related messages
  (requests, replies, updates, interest/tree maintenance) divided by the
  number of queries.

Beyond those aggregates, the package provides a unified
:class:`MetricsRegistry` (counters / gauges / histograms with periodic
snapshotting) that fronts every metric source in a run, plus JSONL
exporters for offline analysis (:mod:`repro.metrics.export`).
"""

from repro.metrics.counters import CostLedger
from repro.metrics.export import (
    export_registry,
    export_traces,
    read_jsonl,
    write_jsonl,
)
from repro.metrics.latency import LatencyRecorder
from repro.metrics.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.metrics.report import MetricsReport
from repro.metrics.windows import reconstruct_series, timeline_records

__all__ = [
    "CostLedger",
    "Counter",
    "Gauge",
    "Histogram",
    "LatencyRecorder",
    "MetricsRegistry",
    "MetricsReport",
    "export_registry",
    "export_traces",
    "read_jsonl",
    "reconstruct_series",
    "timeline_records",
    "write_jsonl",
]
