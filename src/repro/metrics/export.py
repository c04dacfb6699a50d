"""Structured JSONL export of traces, result snapshots, and events.

One JSON object per line, each tagged with a ``"type"`` discriminator so
mixed streams stay self-describing:

- ``{"type": "trace", ...}`` — one reconstructed query trace (see
  :meth:`repro.engine.tracing.QueryTrace.to_dict` and
  ``docs/observability.md`` for the full schema);
- ``{"type": "snapshot", "time": ..., "values": {...}}`` — one sample
  of a run's result quantities, taken by its
  :class:`~repro.sim.monitor.Monitor`.

Everything is plain ``json.dumps``-able (ints, floats, strings, None);
``nan``/``inf`` are serialized as ``null`` so any JSON reader can load
the output.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.tracing import TraceCollector
    from repro.sim.monitor import Monitor


def _clean(value):
    """Replace non-finite floats with None, recursively."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _clean(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(item) for item in value]
    return value


def write_jsonl(path: str, records: Iterable[Mapping]) -> int:
    """Write ``records`` to ``path``, one JSON object per line.

    Returns the number of lines written.
    """
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(_clean(dict(record)), sort_keys=True))
            handle.write("\n")
            count += 1
    return count


def read_jsonl(path: str) -> list[dict]:
    """Load every record of a JSONL file (inverse of :func:`write_jsonl`)."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def trace_records(
    collector: "TraceCollector", status: Optional[str] = None
) -> Iterator[dict]:
    """Yield the collector's retained traces as JSONL-ready dicts."""
    for trace in collector.traces(status):
        yield trace.to_dict()


def export_traces(
    collector: "TraceCollector",
    path: str,
    status: Optional[str] = None,
) -> int:
    """Dump retained traces to ``path`` (one trace per line).

    ``status`` filters to ``"complete"`` / ``"incomplete"`` / ``"open"``
    traces; by default every retained trace is written.  Returns the
    number of traces written.
    """
    return write_jsonl(path, trace_records(collector, status))


def snapshot_records(monitor: "Monitor") -> Iterator[dict]:
    """Yield the monitor's retained snapshots as JSONL-ready dicts."""
    for snapshot in monitor.snapshots:
        yield {"type": "snapshot", **snapshot}
