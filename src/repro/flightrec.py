"""Protocol flight recorder: a bounded ring buffer of protocol events.

The recorder captures the *dynamic* behaviour that end-of-run aggregates
erase — tree grafts and prunes, subscribe/unsubscribe churn, lease
expiries, failover promotions, auditor detections and repairs, partition
open/heal, overload sheds, subscriber rejections, circuit-breaker
trip/half-open/close transitions, storm-phase edges — as typed,
structured events keyed by simulated time.  It is
a pure observer: it never consumes randomness and never schedules
simulation events, so a run with the recorder armed is bit-identical to
the same run without it.

Its switch follows one discipline:

* a process-wide default from the environment (``REPRO_FLIGHT``,
  default *off*), overridable per-run via
  ``SimulationConfig.flight_recorder``;
* zero overhead when disabled — emission sites hold ``None`` instead of
  a recorder and guard with a single identity check;
* ``set_enabled()`` for tests and harnesses, returning the previous
  value so callers can restore it.

Dump-on-anomaly: when ``REPRO_FLIGHT_DUMP`` names a path, anomalies
(chaos run failures, golden mismatches, auditor divergence) flush the
last N events to a JSONL file derived from that path, one reason per
file, newest dump winning.  See ``docs/observability.md`` for the event
schema.
"""

from __future__ import annotations

import collections
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional

_FALSE_VALUES = ("0", "false", "no", "off")

#: Process-wide default, from ``REPRO_FLIGHT`` (default: disabled).
ENABLED: bool = (
    os.environ.get("REPRO_FLIGHT", "0").strip().lower()
    not in _FALSE_VALUES
)

#: Where anomaly dumps land (``REPRO_FLIGHT_DUMP``); ``None`` disables
#: automatic dumps — explicit ``dump(path)`` calls still work.
DUMP_PATH: Optional[str] = os.environ.get("REPRO_FLIGHT_DUMP") or None

#: The most recently constructed recorder in this process, so anomaly
#: hooks (golden mismatches, trial failures) can reach the events of
#: the run that just went wrong without threading a handle through
#: every layer.  Worker processes each have their own copy.
LAST: Optional["FlightRecorder"] = None


def set_enabled(value: bool) -> bool:
    """Set the process-wide default; returns the previous value."""
    global ENABLED
    previous = ENABLED
    ENABLED = bool(value)
    return previous


def set_dump_path(path: Optional[str]) -> Optional[str]:
    """Set the anomaly-dump path; returns the previous value."""
    global DUMP_PATH
    previous = DUMP_PATH
    DUMP_PATH = path
    return previous


@dataclass(frozen=True)
class ProtocolEvent:
    """One structured protocol event.

    ``kind`` is a short hyphenated tag (``tree-graft``, ``audit-repair``,
    ``partition-open``, ...); ``node`` is the acting node, ``subject``
    the node or key acted upon (both ``None`` when not applicable), and
    ``detail`` a free-form human-readable qualifier.
    """

    time: float
    kind: str
    node: Optional[int] = None
    subject: Optional[int] = None
    detail: str = ""

    def to_record(self) -> dict:
        """The JSONL representation (``type`` discriminator included)."""
        return {
            "type": "flight-event",
            "time": self.time,
            "kind": self.kind,
            "node": self.node,
            "subject": self.subject,
            "detail": self.detail,
        }


class FlightRecorder:
    """Bounded, deterministic ring buffer of :class:`ProtocolEvent`.

    The ring keeps the last ``capacity`` events; per-kind counts are
    maintained at record time and therefore survive eviction, so e.g.
    the number of ``audit-repair`` events always matches the auditor's
    own repair counter even on runs long enough to wrap the ring.
    """

    __slots__ = (
        "_clock",
        "_events",
        "_counts",
        "_anomaly_path",
        "total_recorded",
        "anomalies",
    )

    def __init__(
        self,
        clock: Callable[[], float],
        capacity: int = 4096,
        anomaly_path: Optional[str] = None,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._clock = clock
        self._events: collections.deque[ProtocolEvent] = collections.deque(
            maxlen=capacity
        )
        self._counts: dict[str, int] = {}
        self._anomaly_path = anomaly_path
        self.total_recorded = 0
        self.anomalies: dict[str, int] = {}

    def record(
        self,
        kind: str,
        node: Optional[int] = None,
        subject: Optional[int] = None,
        detail: str = "",
    ) -> None:
        """Record one event at the current simulated time."""
        self._events.append(
            ProtocolEvent(self._clock(), kind, node, subject, detail)
        )
        self._counts[kind] = self._counts.get(kind, 0) + 1
        self.total_recorded += 1

    @property
    def capacity(self) -> int:
        return self._events.maxlen or 0

    @property
    def events(self) -> tuple[ProtocolEvent, ...]:
        """The retained events, oldest first."""
        return tuple(self._events)

    def counts(self) -> dict[str, int]:
        """All-time per-kind event counts (survive ring eviction)."""
        return dict(self._counts)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[ProtocolEvent]:
        return iter(tuple(self._events))

    def records(self) -> Iterator[dict]:
        """JSONL-ready dicts: per-kind counts header, then events."""
        yield {
            "type": "flight-summary",
            "total_recorded": self.total_recorded,
            "retained": len(self._events),
            "counts": self.counts(),
        }
        for event in tuple(self._events):
            yield event.to_record()

    def dump(self, path) -> int:
        """Write the retained events as JSONL; returns records written."""
        from repro.metrics.export import write_jsonl

        return write_jsonl(path, self.records())

    def anomaly(self, reason: str) -> Optional[str]:
        """Flush the ring for a named anomaly.

        Writes to a path derived from ``anomaly_path`` (or the module
        ``DUMP_PATH``) by suffixing the reason, e.g.
        ``flight.jsonl`` → ``flight-golden-mismatch.jsonl``.  Repeat
        anomalies of the same reason overwrite, keeping the latest.
        Returns the path written, or ``None`` when no dump path is
        configured.
        """
        self.anomalies[reason] = self.anomalies.get(reason, 0) + 1
        base = self._anomaly_path or DUMP_PATH
        if not base:
            return None
        target = Path(base)
        target = target.with_name(f"{target.stem}-{reason}{target.suffix}")
        self.dump(target)
        return str(target)

    def __repr__(self) -> str:
        return (
            f"FlightRecorder(retained={len(self._events)}, "
            f"total={self.total_recorded}, capacity={self.capacity})"
        )


def dump_anomaly(reason: str) -> Optional[str]:
    """Flush the most recent recorder for ``reason``, if one exists.

    The hook used by the golden-regression harness and the trial
    runner: callers need not know whether a recorder was armed.
    """
    if LAST is None:
        return None
    return LAST.anomaly(reason)
