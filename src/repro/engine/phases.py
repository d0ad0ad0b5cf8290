"""The composable phases of the interval engine.

Both simulator tiers run the same per-interval pipeline, each phase
owning one concern of the Mirage mechanism and reporting through
:mod:`repro.telemetry`:

1. :class:`ArbitrationPhase` — hand the arbitrator the backend's
   batched performance-counter view of every application
   (:meth:`~repro.engine.backends.ExecutionBackend.views_batch`) and
   ask who gets the producer OoO(s), possibly nobody (power-gated).
2. :class:`MigrationPhase` — decide who physically moves and route
   the cost accounting (counters plus
   :class:`~repro.telemetry.events.MigrationRecord`) through
   :func:`account_migration`; the backend performs the move, either
   immediately (analytic) or at that application's execution step
   (detailed — see :mod:`repro.engine.backends`).
3. :class:`ExecutionPhase` — advance every application one interval
   on the backend's substrate (closed-form phase tables, or real
   instructions through the detailed core models) and emit the shared
   per-interval trace record.
4. :class:`EnergyPhase` — integrate per-core energy; idle producers
   power-gate.

Phases communicate only through the :class:`EngineContext` and the
per-application :class:`~repro.engine.state.AppState` records, so they
can be reordered, replaced or extended (see ``docs/api.md``) without
touching the loop in :mod:`repro.engine.loop` — and the execution
substrate is swapped by changing ``ctx.backend``, never the pipeline.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.engine.backends import ExecutionBackend, MigrationTicket
from repro.engine.state import AppState, ExecOutcome
from repro.telemetry.collector import Telemetry
from repro.telemetry.events import (
    ArbitrationRecord,
    EnergyRecord,
    IntervalRecord,
    MigrationRecord,
)

if TYPE_CHECKING:
    from repro.arbiter.base import Arbitrator
    from repro.cmp.config import ClusterConfig
    from repro.energy.model import CoreEnergyModel


@dataclass
class EngineContext:
    """Mutable per-run state the phases read and write.

    The loop resets the per-interval fields (``chosen``, ``mig_cost``,
    ``outcomes``) before each pipeline pass; the bookkeeping fields
    (``ooo_active_intervals``, ``ooo_share``) accumulate for the run.
    """

    config: "ClusterConfig"
    apps: list[AppState]
    telemetry: Telemetry
    interval: int                     #: cycles per arbitration interval
    budget: int                       #: per-app instruction budget
    backend: ExecutionBackend | None = None
    index: int = 0                    #: current interval number
    now: int = 0                      #: cycles elapsed at interval start
    intervals: int = 0                #: intervals completed by the run
    chosen: list[int] = field(default_factory=list)
    mig_cost: list[float] = field(default_factory=list)
    outcomes: list[ExecOutcome | None] = field(default_factory=list)
    ooo_active_intervals: int = 0
    ooo_share: list[int] = field(default_factory=list)


class EnginePhase(ABC):
    """One step of the per-interval pipeline."""

    #: Telemetry/profiler label; unique within a pipeline.
    name: str = "phase"

    @abstractmethod
    def run(self, ctx: EngineContext) -> None:
        """Advance the simulation by this phase's concern."""


def account_migration(ctx: EngineContext, app_name: str,
                      ticket: MigrationTicket) -> None:
    """The one migration-accounting path both tiers share.

    Bumps the standard counters (plus any substrate extras the ticket
    carries) and emits the :class:`MigrationRecord`; called by
    :class:`MigrationPhase` for immediate moves and by deferring
    backends when they apply a pending move.
    """
    telemetry = ctx.telemetry
    counters = telemetry.counters
    counters["migration.count"] = counters.get("migration.count", 0) + 1
    counters["migration.sc_bytes"] = (
        counters.get("migration.sc_bytes", 0) + ticket.sc_bytes)
    if ticket.counters:
        for name, value in ticket.counters.items():
            counters.bump(name, value)
    if telemetry.wants("migration"):
        event = ticket.event
        telemetry.emit(MigrationRecord(
            interval=ctx.index,
            app=app_name,
            to_ooo=ticket.to_ooo,
            sc_bytes=ticket.sc_bytes,
            drain_cycles=event.drain_cycles,
            l1_warmup_cycles=event.l1_warmup_cycles,
            sc_transfer_cycles=event.sc_transfer_cycles,
            bus_contention_cycles=event.bus_contention_cycles,
            charged_cycles=ticket.charged,
            l1_flush_dirty=ticket.l1_flush_dirty,
            l1_flush_lines=ticket.l1_flush_lines,
        ))


class ArbitrationPhase(EnginePhase):
    """Polls the arbitrator for the interval's OoO occupancy."""

    name = "arbitration"

    def __init__(self, arbitrator: "Arbitrator | None"):
        self.arbitrator = arbitrator

    def run(self, ctx: EngineContext) -> None:
        """Fill ``ctx.chosen`` with the apps granted a producer OoO."""
        cfg = ctx.config
        ctx.chosen = []
        if cfg.n_producers > 0 and self.arbitrator is not None:
            ctx.chosen = self.arbitrator.pick_batch(
                ctx.backend.views_batch(ctx), interval_index=ctx.index,
                slots=cfg.n_producers,
            )[: cfg.n_producers]
        if ctx.chosen:
            ctx.ooo_active_intervals += 1
            apps = ctx.apps
            for i in ctx.chosen:
                ctx.ooo_share[i] += 1
                app = apps[i]
                if app.first_ooo_interval is None:
                    # First producer grant ever: the scenario metrics'
                    # latency-to-OoO-access clock stops here.
                    app.first_ooo_interval = ctx.index
        telemetry = ctx.telemetry
        counters = telemetry.counters
        counters["arbitration.granted"] = (
            counters.get("arbitration.granted", 0) + len(ctx.chosen))
        if not ctx.chosen and cfg.n_producers:
            counters["arbitration.gated"] = (
                counters.get("arbitration.gated", 0) + 1)
        if telemetry.wants("arbitration"):
            telemetry.emit(ArbitrationRecord(
                interval=ctx.index,
                chosen=[ctx.apps[i].display_name for i in ctx.chosen],
                slots=cfg.n_producers,
            ))


class MigrationPhase(EnginePhase):
    """Moves applications between core types, charging the cost."""

    name = "migration"

    def run(self, ctx: EngineContext) -> None:
        """Migrate every app whose core assignment changed.

        The backend performs (or schedules) the physical move; tickets
        returned immediately are accounted here, deferred ones at the
        backend's execution step.
        """
        backend = ctx.backend
        for i, app in enumerate(ctx.apps):
            should_be_on = i in ctx.chosen
            if should_be_on == app.on_ooo:
                continue
            ticket = backend.migrate(ctx, i, to_ooo=should_be_on)
            if ticket is None:
                continue    # substrate applies the move in advance()
            ctx.mig_cost[i] = ticket.charged
            account_migration(ctx, app.uid or app.model.name, ticket)


class ExecutionPhase(EnginePhase):
    """Advances every application on the backend's substrate."""

    name = "execution"

    def run(self, ctx: EngineContext) -> None:
        """Advance each app one interval, filling ``ctx.outcomes``.

        One :meth:`~repro.engine.backends.ExecutionBackend.advance_all`
        call fills every outcome; the telemetry records are emitted
        afterwards (``advance`` never changes ``on_ooo``).
        """
        ctx.backend.advance_all(ctx)
        if ctx.telemetry.wants("interval"):
            for i, app in enumerate(ctx.apps):
                outcome = ctx.outcomes[i]
                ref = outcome.sc_mpki_ref
                ctx.telemetry.emit(IntervalRecord(
                    interval=ctx.index,
                    app=app.display_name,
                    on_ooo=app.on_ooo,
                    ipc=outcome.ipc,
                    speedup=min(1.0, outcome.ipc
                                / max(1e-9, outcome.alone_ipc)),
                    sc_mpki_ino=outcome.sc_mpki,
                    delta_sc_mpki=(
                        (outcome.sc_mpki - (ref or 0.1))
                        / max(0.1, ref or 0.1)),
                    phase_id=outcome.phase_id,
                ))


class EnergyPhase(EnginePhase):
    """Integrates per-core energy from the execution outcomes.

    Each application is charged until it finishes its instruction
    budget once (restarted filler work is not billed, so one slow
    application cannot dominate the whole CMP's energy figure through
    its tail).  Backends that measure real cycles report them in
    :attr:`~repro.engine.state.ExecOutcome.energy_cycles`; the
    analytic tier bills the fixed interval length.
    """

    name = "energy"

    def __init__(self, energy_model: "CoreEnergyModel"):
        self.energy_model = energy_model

    def run(self, ctx: EngineContext) -> None:
        """Accumulate each app's interval energy from its outcome."""
        em = self.energy_model
        interval = ctx.interval
        telemetry = ctx.telemetry
        wants_energy = telemetry.wants("energy")
        # Constant per model instance: hoisted out of the per-app loop
        # (same values, same addition order as computing them inline).
        epi_oino = em.EPI_PJ["oino"]
        epi_ino = em.EPI_PJ["ino"]
        leak = em.leakage["ino"] + em.leakage["oino_extra"] + \
            em.leakage["sc"]
        for app, outcome in zip(ctx.apps, ctx.outcomes):
            if outcome is None:
                continue
            cycles = (outcome.energy_cycles
                      if outcome.energy_cycles is not None else interval)
            charged = 0.0
            if app.first_completion_cycles is None or app.completions == 0:
                if outcome.kind == "oino":
                    # Blend OinO-mode power by how much replay happened.
                    memo_frac = outcome.memo_frac
                    epi = (memo_frac * epi_oino
                           + (1 - memo_frac) * epi_ino)
                    charged = (leak + epi * outcome.ipc) * cycles
                else:
                    charged = em.interval_energy(
                        outcome.kind, outcome.ipc, cycles)
                app.energy_pj += charged
            if wants_energy:
                telemetry.emit(EnergyRecord(
                    interval=ctx.index,
                    app=app.display_name,
                    core=outcome.kind,
                    energy_pj=charged,
                ))
