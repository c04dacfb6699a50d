"""Performance metrics: cost ledger, latency recorder, JSONL export.

The paper reports two metrics (Section IV):

- **average query latency** — hops a request travels before reaching a
  valid index (0 for a local cache hit), and
- **average query cost** — total hops of all query-related messages
  (requests, replies, updates, interest/tree maintenance) divided by the
  number of queries.

Beyond those aggregates, the package exports a run's traces, result
snapshots and tree timeline as JSONL for offline analysis
(:mod:`repro.metrics.export`, :mod:`repro.metrics.windows`).
"""

from repro.metrics.counters import CostLedger
from repro.metrics.export import (
    export_traces,
    read_jsonl,
    snapshot_records,
    write_jsonl,
)
from repro.metrics.latency import LatencyRecorder
from repro.metrics.registry import Histogram
from repro.metrics.report import MetricsReport
from repro.metrics.windows import reconstruct_series, timeline_records

__all__ = [
    "CostLedger",
    "Histogram",
    "LatencyRecorder",
    "MetricsReport",
    "export_traces",
    "read_jsonl",
    "reconstruct_series",
    "snapshot_records",
    "timeline_records",
    "write_jsonl",
]
