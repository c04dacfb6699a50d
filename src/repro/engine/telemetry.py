"""Streaming sweep telemetry: JSONL export and the ``top`` text view.

The parallel engine emits one structured
:class:`~repro.engine.parallel.ProgressEvent` per finished (or failed)
trial.  :class:`TelemetryWriter` streams those events (and, at the end
of a sweep, its failure table) to an append-only JSONL file, flushed per
line so a live run can be tailed.  :func:`render_top` folds the same
stream back into a one-screen dashboard (per-experiment progress, ETA,
worker utilization, rolling latency/cost gauges) for the ``repro-dup
top`` subcommand.

The stream reuses the repo-wide JSONL conventions of
:mod:`repro.metrics.export`: one object per line, a ``"type"``
discriminator per record (``progress``, ``trial-failure``, ``timeline``,
``flight-event``…), NaN/inf serialized as ``null``.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Mapping, Optional

from repro.metrics.export import _clean


class TelemetryWriter:
    """Append-only JSONL sink for progress events and failure records.

    Usable directly as the parallel engine's event sink::

        writer = TelemetryWriter("sweep.jsonl")
        set_default_event_sink(writer)
        try:
            ...  # run sweeps
        finally:
            set_default_event_sink(None)
            writer.close()

    Every record is flushed as soon as it is written, so ``repro-dup top
    sweep.jsonl`` (or a plain ``tail -f``) tracks a live run.
    """

    def __init__(self, path: str):
        self.path = path
        self.written = 0
        self._handle = open(path, "w", encoding="utf-8")

    def __call__(self, event) -> None:
        """Sink one :class:`~repro.engine.parallel.ProgressEvent`."""
        self.write_record(event.to_record())

    def write_record(self, record: Mapping) -> None:
        """Append one JSONL record and flush."""
        if self._handle.closed:
            raise ValueError(f"telemetry writer for {self.path} is closed")
        self._handle.write(json.dumps(_clean(dict(record)), sort_keys=True))
        self._handle.write("\n")
        self._handle.flush()
        self.written += 1

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "TelemetryWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _coerce_records(records: Iterable) -> list[dict]:
    out = []
    for record in records:
        if hasattr(record, "to_record"):
            record = record.to_record()
        out.append(dict(record))
    return out


def _fmt_seconds(value: Optional[float]) -> str:
    if value is None or not isinstance(value, (int, float)):
        return "?"
    if not math.isfinite(value):
        return "?"
    value = max(0.0, float(value))
    if value < 60:
        return f"{value:.0f}s"
    minutes, seconds = divmod(int(value), 60)
    if minutes < 60:
        return f"{minutes}m{seconds:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


def _bar(fraction: float, width: int = 24) -> str:
    fraction = min(max(fraction, 0.0), 1.0)
    filled = int(round(fraction * width))
    return "#" * filled + "-" * (width - filled)


def render_top(records: Iterable, tail: int = 5) -> str:
    """Fold a telemetry stream into a one-screen ``top``-style view.

    ``records`` may be raw JSONL dicts (from
    :func:`repro.metrics.export.read_jsonl`) or live
    :class:`~repro.engine.parallel.ProgressEvent` objects; only
    ``progress`` records drive the view, other record types are counted
    but not rendered.  The latest event per experiment wins, so the view
    is stable regardless of how often it is re-rendered.
    """
    records = _coerce_records(records)
    progress = [r for r in records if r.get("type") == "progress"]
    timeline = sum(1 for r in records if r.get("type") == "timeline")
    flight = sum(1 for r in records if r.get("type") == "flight-event")
    if not progress:
        extra = []
        if timeline:
            extra.append(f"{timeline} timeline record(s)")
        if flight:
            extra.append(f"{flight} flight event(s)")
        suffix = f" ({', '.join(extra)})" if extra else ""
        return f"no progress events yet{suffix}"

    by_experiment: dict[str, dict] = {}
    for record in progress:
        by_experiment[record.get("experiment") or "?"] = record

    lines = []
    total_done = sum(r.get("done", 0) for r in by_experiment.values())
    total_failed = sum(r.get("failed", 0) for r in by_experiment.values())
    total_all = sum(r.get("total", 0) for r in by_experiment.values())
    latest = progress[-1]
    lines.append(
        f"sweep progress: {total_done}/{total_all} trials done"
        + (f", {total_failed} failed" if total_failed else "")
        + f" | workers={latest.get('workers', '?')}"
        + f" util={100.0 * (latest.get('utilization') or 0.0):.0f}%"
        + f" elapsed={_fmt_seconds(latest.get('elapsed_seconds'))}"
    )
    for experiment in sorted(by_experiment):
        record = by_experiment[experiment]
        done = record.get("done", 0)
        failed = record.get("failed", 0)
        total = record.get("total", 0) or 1
        fraction = (done + failed) / total
        gauges = []
        if isinstance(record.get("mean_latency"), (int, float)):
            gauges.append(f"lat={record['mean_latency']:.2f}")
        if isinstance(record.get("cost_per_query"), (int, float)):
            gauges.append(f"cost={record['cost_per_query']:.2f}")
        # Overload gauges ride the same records; NaN (no overload
        # layer) serializes to null and fails the isinstance check.
        if isinstance(record.get("shed_fraction"), (int, float)):
            gauges.append(f"shed={record['shed_fraction']:.3f}")
        if isinstance(record.get("max_queue_depth"), (int, float)):
            gauges.append(f"qdepth={record['max_queue_depth']:.0f}")
        # Fluctuation gauges: same NaN-serializes-to-null convention.
        if isinstance(record.get("down_nodes"), (int, float)):
            gauges.append(f"down={record['down_nodes']:.0f}")
        if isinstance(record.get("flap_suppressed"), (int, float)):
            gauges.append(f"flap={record['flap_suppressed']:.0f}")
        lines.append(
            f"  {experiment:<16} [{_bar(fraction)}] {done}/{total}"
            + (f" !{failed}" if failed else "")
            + f" eta={_fmt_seconds(record.get('eta_seconds'))}"
            + (f" {' '.join(gauges)}" if gauges else "")
        )
    lines.append("recent trials:")
    for record in progress[-tail:]:
        marker = "FAIL" if record.get("kind") == "trial-failed" else "done"
        detail = record.get("error") or (
            f"{_fmt_seconds(record.get('wall_seconds'))}"
        )
        lines.append(f"  [{marker}] {record.get('trial', '?')} {detail}")
    if timeline or flight:
        lines.append(
            f"also in stream: {timeline} timeline record(s), "
            f"{flight} flight event(s)"
        )
    return "\n".join(lines)
