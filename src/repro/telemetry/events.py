"""The telemetry event schema shared by both simulator tiers.

Every engine phase (and the detailed cycle-level cluster) reports what
it did through a small set of *typed* records.  One schema serves the
interval tier, the detailed tier, the runner cache and the JSONL trace
files, so serial, parallel, cached and detailed runs all serialize
identical telemetry and cross-tier comparisons are structural rather
than ad-hoc.

Record kinds:

* ``"interval"`` — one application's outcome for one arbitration
  interval (or one detailed-tier slice); also the history rows behind
  Figures 5 and 10.
* ``"arbitration"`` — which applications were granted the producer
  OoO(s) at an interval boundary.
* ``"migration"`` — the cost breakdown of one core migration, with
  the exact cycle components the
  :class:`~repro.cmp.migration.MigrationCostModel` computed plus the
  Schedule-Cache bytes that crossed the shared bus.
* ``"energy"`` — the energy charged to one application this interval.
* ``"lifecycle"`` — one application arriving into or departing from a
  dynamic scenario run (see :mod:`repro.engine.lifecycle`).
* ``"run"`` — an end-of-run summary with the final counter totals.
* ``"job"`` — one state change of a job inside the experiment service
  (:mod:`repro.service`); the per-job JSONL stream that ``mirage
  tail`` follows is a sequence of these.

Records round-trip losslessly through JSON (:func:`to_record` /
:func:`from_record`): floats survive via shortest-repr, and no field
ever holds a non-finite value.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import ClassVar, Union


@dataclass(slots=True)
class IntervalRecord:
    """One application's per-interval trace row (Figures 5 and 10)."""

    interval: int               #: arbitration interval (or slice) index
    app: str
    on_ooo: bool
    ipc: float
    speedup: float              #: vs running alone on an OoO, capped at 1
    sc_mpki_ino: float
    delta_sc_mpki: float        #: Equation 1, floored against /0
    phase_id: int               #: -1 where no phase model exists

    kind: ClassVar[str] = "interval"


@dataclass(slots=True)
class ArbitrationRecord:
    """The arbitrator's pick for one interval."""

    interval: int
    chosen: list[str]           #: app names granted a producer slot
    slots: int                  #: producer cores available

    kind: ClassVar[str] = "arbitration"


@dataclass(slots=True)
class MigrationRecord:
    """Cost accounting for one application migration."""

    interval: int
    app: str
    to_ooo: bool
    sc_bytes: int               #: SC payload shipped over the bus
    drain_cycles: int
    l1_warmup_cycles: int
    sc_transfer_cycles: int
    bus_contention_cycles: int
    charged_cycles: float       #: what the engine actually billed
    l1_flush_dirty: int = 0     #: detailed tier: dirty lines written back
    l1_flush_lines: int = 0     #: detailed tier: total lines dropped

    kind: ClassVar[str] = "migration"


@dataclass(slots=True)
class EnergyRecord:
    """Energy charged to one application for one interval."""

    interval: int
    app: str
    core: str                   #: "ooo" | "ino" | "oino"
    energy_pj: float            #: 0.0 once the app completed its budget

    kind: ClassVar[str] = "energy"


@dataclass(slots=True)
class LifecycleRecord:
    """One application arriving or departing mid-run.

    Emitted by :class:`~repro.engine.lifecycle.LifecyclePhase` when a
    scenario schedule admits or retires an application; ``resident``
    is the cluster population *after* the event took effect.
    """

    interval: int
    app: str                    #: scenario uid (unique within the run)
    event: str                  #: "arrive" | "depart"
    benchmark: str = ""         #: profile name behind the uid
    cluster: str = ""           #: cluster label in multi-cluster runs
    resident: int = 0           #: population after the event
    completions: int = 0        #: budget completions (depart only)
    residency_intervals: int = 0  #: intervals resident (depart only)

    kind: ClassVar[str] = "lifecycle"


@dataclass(slots=True)
class JobRecord:
    """One state change of a service job, as streamed to clients.

    The experiment server (:mod:`repro.service`) appends these to the
    job's JSONL stream file; ``mirage tail`` renders them live.  The
    terminal ``"done"`` record's ``payload`` carries the job's full
    result envelopes, byte-identical to what a direct
    :class:`~repro.runner.executor.SweepRunner` run would encode.
    """

    job_id: str
    event: str                  #: queued|started|unit|done|failed|cancelled
    experiment: str = ""        #: what was submitted, for humans
    units_total: int = 0
    units_done: int = 0
    priority: int = 0
    worker_id: str = ""         #: "pool" or "cache" for unit events
    detail: str = ""            #: error text / coalescing notes
    payload: dict = field(default_factory=dict)  #: result envelopes

    kind: ClassVar[str] = "job"


@dataclass(slots=True)
class RunRecord:
    """End-of-run summary: identity plus final counter totals."""

    config: str
    arbitrator: str
    intervals: int
    total_cycles: float
    counters: dict = field(default_factory=dict)

    kind: ClassVar[str] = "run"


TelemetryEvent = Union[
    IntervalRecord, ArbitrationRecord, MigrationRecord,
    EnergyRecord, LifecycleRecord, JobRecord, RunRecord,
]

#: Registry used by :func:`from_record` and the ``mirage trace`` command.
EVENT_TYPES: dict[str, type] = {
    cls.kind: cls
    for cls in (IntervalRecord, ArbitrationRecord, MigrationRecord,
                EnergyRecord, LifecycleRecord, JobRecord, RunRecord)
}


def to_record(event: TelemetryEvent) -> dict:
    """Flatten an event to a JSON-safe dict (``kind`` first)."""
    out = {"kind": event.kind}
    out.update(asdict(event))
    return out


def from_record(record: dict) -> TelemetryEvent:
    """Rebuild a typed event from :func:`to_record` output."""
    fields = dict(record)
    kind = fields.pop("kind", None)
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        raise ValueError(f"unknown telemetry record kind {kind!r}")
    return cls(**fields)
