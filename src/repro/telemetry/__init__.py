"""Structured telemetry shared by both simulator tiers.

The interval engine's phases and the detailed cycle-level cluster emit
one schema of typed records (:mod:`repro.telemetry.events`) into a
:class:`Telemetry` hub, which keeps running :class:`Counters`, profiles
per-phase wall time, and fans events out to sinks — in-memory capture
for the figures, JSONL streaming for ``mirage --trace``.

>>> from repro.telemetry import Telemetry, MemorySink
>>> telemetry, trace = Telemetry.recording(kinds={"interval"})
>>> system = CMPSystem(config, models, arb, telemetry=telemetry)
>>> system.run()
>>> trace.records("interval")      # the Figure 5/10 timeline rows
"""

from repro.telemetry.collector import Counters, Telemetry
from repro.telemetry.events import (
    EVENT_TYPES,
    ArbitrationRecord,
    EnergyRecord,
    IntervalRecord,
    JobRecord,
    LifecycleRecord,
    MigrationRecord,
    RunRecord,
    TelemetryEvent,
    from_record,
    to_record,
)
from repro.telemetry.profiler import PhaseProfiler
from repro.telemetry.sinks import (
    JSONLSink,
    MemorySink,
    TelemetrySink,
    dump_record,
    read_trace,
)

__all__ = [
    "EVENT_TYPES",
    "ArbitrationRecord",
    "Counters",
    "EnergyRecord",
    "IntervalRecord",
    "JSONLSink",
    "JobRecord",
    "LifecycleRecord",
    "MemorySink",
    "MigrationRecord",
    "PhaseProfiler",
    "RunRecord",
    "Telemetry",
    "TelemetryEvent",
    "TelemetrySink",
    "dump_record",
    "from_record",
    "read_trace",
    "to_record",
]
