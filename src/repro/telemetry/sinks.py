"""Telemetry sinks: where emitted events go.

A sink declares which record kinds it wants (``kinds=None`` = all);
the :class:`~repro.telemetry.collector.Telemetry` hub only *builds*
records some sink asked for, so an unobserved simulation pays nothing
for the instrumentation.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from pathlib import Path

from repro.telemetry.events import TelemetryEvent, from_record, to_record


class TelemetrySink(ABC):
    """Consumes telemetry events of the kinds it subscribes to."""

    #: Record kinds this sink accepts; ``None`` means every kind.
    kinds: frozenset[str] | None = None

    def wants(self, kind: str) -> bool:
        """True if this sink subscribed to records of *kind*."""
        return self.kinds is None or kind in self.kinds

    @abstractmethod
    def emit(self, event: TelemetryEvent) -> None:
        """Consume one event (only called when :meth:`wants` is true)."""

    def close(self) -> None:
        """Flush and release any resources (default: nothing)."""


class MemorySink(TelemetrySink):
    """Collects events in a list — the in-process trace consumer."""

    def __init__(self, kinds=None):
        self.kinds = frozenset(kinds) if kinds is not None else None
        self.events: list[TelemetryEvent] = []

    def emit(self, event: TelemetryEvent) -> None:
        """Append the event to the in-memory list."""
        self.events.append(event)

    def records(self, kind: str | None = None) -> list[TelemetryEvent]:
        """Stored events, optionally filtered to one kind."""
        if kind is None:
            return list(self.events)
        return [e for e in self.events if e.kind == kind]


class JSONLSink(TelemetrySink):
    """Streams events to a JSON-Lines file (one record per line).

    The file opens lazily on the first event; ``mode="a"`` lets many
    runs of one CLI invocation share a single trace file.
    """

    def __init__(self, path, *, mode: str = "w", kinds=None):
        if mode not in ("w", "a"):
            raise ValueError("mode must be 'w' or 'a'")
        self.path = Path(path)
        self.mode = mode
        self.kinds = frozenset(kinds) if kinds is not None else None
        self.written = 0
        self._handle = None

    def emit(self, event: TelemetryEvent) -> None:
        """Write the event as one JSON line (opens the file lazily)."""
        if self._handle is None:
            if self.path.parent != Path("."):
                self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open(self.mode)
        self._handle.write(dump_record(event) + "\n")
        self.written += 1

    def close(self) -> None:
        """Close the file handle; a later emit reopens in append."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def dump_record(event: TelemetryEvent) -> str:
    """One event as a compact single-line JSON string."""
    return json.dumps(to_record(event), separators=(",", ":"))


def read_trace(path) -> list[TelemetryEvent]:
    """Load a JSONL trace file back into typed events.

    A line that is not one whole record of a known kind — a trace cut
    short by an interrupted run, a foreign or hand-edited line — raises
    ``ValueError("<path>:<line>: <reason>")``.
    """
    events = []
    with Path(path).open() as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(from_record(json.loads(line)))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{number}: {exc}") from None
    return events
