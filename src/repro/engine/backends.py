"""Pluggable execution substrates behind the one interval loop.

The Mirage *policy* — arbitration at interval boundaries, migration
accounting, telemetry emission — lives once, in the shared
:mod:`repro.engine.phases` pipeline.  What varies between the two
simulator tiers is the *substrate* that executes an application for
one interval, and that seam is the :class:`ExecutionBackend` protocol:

* :class:`AnalyticBackend` — the interval tier's closed-form phase
  model: IPC and SC-MPKI come from per-benchmark phase tables, and
  Schedule-Cache coverage evolves analytically (refresh on the
  producer, staleness decay on the consumer).
* ``DetailedBackend`` (:mod:`repro.cmp.detailed`) — the cycle-level
  tier: real instruction streams through the detailed core models,
  a shared L2, per-core predictors/BTB, and real Schedule-Cache
  contents crossing the bus on migration.

Both backends are driven by the same
:class:`~repro.engine.loop.IntervalEngine` and the same four phases,
so ``tier-validation`` is literally "same engine, two backends".

Backends also control *when* a migration's physical side effects
happen.  :meth:`ExecutionBackend.migrate` may perform the move
immediately and return a :class:`MigrationTicket` for the shared
accounting (the analytic tier does), or return ``None`` and apply the
move at the start of that application's :meth:`ExecutionBackend.advance`
(the detailed tier does: flushing the producer's L1 the moment the
*outgoing* application is processed — rather than before the incoming
one runs its first slice — is part of the measured hand-off cost).

The batch-first protocol
------------------------
The pipeline drives backends through batch entry points only —
:meth:`ExecutionBackend.views_batch` hands the arbitrator an
:class:`~repro.engine.views.AppViewBatch` and
:meth:`ExecutionBackend.advance_all` executes every application for
the interval — with the per-application
:meth:`~ExecutionBackend.advance` kept as the reference surface the
default ``advance_all`` loops over.  On the arbitrator side, SC-MPKI,
maxSTP and SC-MPKI+maxSTP read the batch's ``AppState`` records
through their own ``pick_batch``; Fair and SC-MPKI-fair go through
``pick`` over the materialized views.  :class:`AnalyticBackend` overrides
:meth:`~ExecutionBackend.advance_all` with a **fused scalar kernel**:
the same Equation-3 / phase-table math as the reference
:meth:`~AnalyticBackend.advance`, with the per-model constants
precomputed once per ``(AppModel, SC capacity)`` into flat tuples
(:func:`_model_aux`) and the phase walk run over precomputed spans.
The randomized suite in ``tests/test_equivalence.py`` holds it
bit-identical to the reference ``advance``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from repro.characterize.phase_model import (
    OINO_REPLAY_EFFICIENCY,
    TRACES_PER_KILO_INSTR,
)
from repro.engine.state import ExecOutcome
from repro.engine.views import AppViewBatch

if TYPE_CHECKING:
    from repro.characterize.phase_model import AppModel
    from repro.cmp.migration import MigrationCostModel, MigrationEvent
    from repro.engine.phases import EngineContext

#: Engine/backend schema identifier, mixed into every
#: :class:`~repro.runner.cache.ResultCache` key: results produced by a
#: different loop/backend generation (e.g. the pre-unification bespoke
#: simulators, or the pre-batch protocol) can never be served against
#: the current engine.
ENGINE_CACHE_TAG = "interval-engine/backends-v2"

@dataclass(slots=True)
class MigrationTicket:
    """What one migration cost, for the shared accounting path.

    Produced by :meth:`ExecutionBackend.migrate` (analytic tier) or by
    the substrate's deferred move (detailed tier); consumed by
    :func:`repro.engine.phases.account_migration`, which turns it into
    counters and a :class:`~repro.telemetry.events.MigrationRecord`.
    """

    to_ooo: bool
    sc_bytes: int                #: SC payload shipped over the bus
    event: "MigrationEvent"      #: the cost model's breakdown
    charged: float               #: cycles actually billed to the app
    l1_flush_dirty: int = 0      #: detailed tier: dirty lines written back
    l1_flush_lines: int = 0      #: detailed tier: total lines dropped
    #: Extra substrate counters to bump alongside the standard ones
    #: (``None`` for none: no dict is built per analytic-tier move).
    counters: dict | None = None


class ExecutionBackend(ABC):
    """One execution substrate under the shared interval pipeline.

    The engine phases call a backend only through this interface; the
    per-application :class:`~repro.engine.state.AppState` records are
    the shared language (backends keep substrate extras — instruction
    streams, core models — on their own side of the seam).

    The pipeline calls the batch entry points (:meth:`views_batch` /
    :meth:`advance_all`); the default :meth:`advance_all` loops the
    per-application :meth:`advance`, so a backend only implements
    what it can accelerate.
    """

    #: Short identifier used in logs, docs and cache keys.
    name: str = "backend"

    def begin_run(self, ctx: "EngineContext") -> None:
        """Hook run once before the loop's first interval.

        Backends that keep run-scoped acceleration state (the analytic
        kernel's aux tables) seed it here; stateless backends ignore it.
        """

    def views_batch(self, ctx: "EngineContext") -> AppViewBatch:
        """The arbitrator's batched counter view of every app.

        Both tiers mirror their counters into ``AppState``, so the
        state-backed batch is the default for everyone; the fast-path
        arbitrators (SC-MPKI, maxSTP, SC-MPKI+maxSTP) read the records
        directly, the rest (Fair, SC-MPKI-fair) materialize the
        historical view list from it.
        """
        return AppViewBatch.from_states(ctx.apps)

    @abstractmethod
    def migrate(self, ctx: "EngineContext", index: int, *,
                to_ooo: bool) -> MigrationTicket | None:
        """Move application *index* between core types.

        Return a :class:`MigrationTicket` if the move (and its cost
        accounting) happened now, or ``None`` if the substrate defers
        the physical move to its :meth:`advance` step — in which case
        the backend itself must route the eventual ticket through
        :func:`~repro.engine.phases.account_migration`.
        """

    @abstractmethod
    def advance(self, ctx: "EngineContext",
                index: int) -> "ExecOutcome":
        """Advance application *index* by one interval.

        Reads the migration charge from ``ctx.mig_cost[index]`` and
        must update the application's ``AppState`` counters (IPC,
        SC-MPKI, residency times) so the next arbitration sees them.
        """

    def advance_all(self, ctx: "EngineContext") -> None:
        """Advance every application by one interval.

        Fills ``ctx.outcomes`` in application order.  The default
        loops :meth:`advance`; backends with a batch kernel override
        this and must produce bit-identical outcomes and state.
        """
        for i in range(len(ctx.apps)):
            ctx.outcomes[i] = self.advance(ctx, i)

    def repopulate(self, ctx: "EngineContext") -> None:
        """Rebuild per-application state after a membership change.

        A lifecycle phase that admitted or retired applications
        (``ctx.apps`` changed length or order) calls this so
        shape-bound acceleration state (aux tables, cached view
        batches) is rebuilt for the new population.  The default
        re-seeds through :meth:`begin_run`.
        """
        self.begin_run(ctx)

    def finalize(self, ctx: "EngineContext") -> None:
        """Hook run once after the loop (fold substrate counters)."""


# ----------------------------------------------------------------------
# Fused scalar kernel
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def _model_aux(model: "AppModel", sc_capacity_bytes: int):
    """Flat per-phase constant tables for one (model, SC capacity).

    Every derived constant is computed with the exact expressions the
    reference :meth:`AnalyticBackend.advance` evaluates per interval
    (:meth:`~repro.characterize.phase_model.PhaseProfile.sc_mpki_ooo`,
    the SC fit, the volatility retention factor), so kernels reading
    these tables stay bit-identical to it.  ``AppModel`` is frozen and
    hashable; equal models share one entry across runs.
    """
    pass_instr = model.pass_instructions
    spans = tuple(p.weight * pass_instr for p in model.phases)
    rows = tuple(
        (
            p.ipc_ooo,
            p.ipc_ino,
            p.memoizable,
            1.0 - p.volatility,
            min(1.0, (sc_capacity_bytes / 1024.0) / max(0.25, p.trace_kb)),
            (1.0 - p.memoizable) * TRACES_PER_KILO_INSTR,
            p.phase_id,
        )
        for p in model.phases
    )
    return pass_instr, spans, rows


def _advance_app(app, aux, interval, budget, mig_cost, mirage,
                 index) -> ExecOutcome:
    """One application-interval of the analytic model, fused.

    The same arithmetic as the reference
    :meth:`AnalyticBackend.advance`, operation for operation — only
    the per-phase constants come from *aux* (this application's
    :func:`_model_aux` tables, resolved once per run: hashing the
    nested ``AppModel`` on every lookup would dominate the kernel)
    and the phase walk runs over the precomputed spans.  The
    randomized equivalence suite asserts bit-identical
    ``ExecOutcome``/``AppState`` against the reference.
    """
    pass_instr, spans, rows = aux
    effective = interval - mig_cost
    if not effective > 0.0:
        effective = 0.0
    before = app.instr_done
    pos = before % pass_instr
    idx = 0
    last = len(spans) - 1
    while idx < last and pos >= spans[idx]:
        pos -= spans[idx]
        idx += 1
    (ipc_ooo, ipc_ino, memoizable, retain, fit, mpki_ooo,
     phase_id) = rows[idx]

    if app.on_ooo:
        ipc = ipc_ooo
        kind = "ooo"
        memo_frac = 0.0
        if mirage:
            app.sc_phase_id = phase_id
            app.sc_coverage = fit
            app.sc_mpki_ooo_last = mpki_ooo
            sc_mpki = mpki_ooo
            app.sc_mpki_ino_last = mpki_ooo
        else:
            sc_mpki = 0.0
        app.t_ooo += effective
        app.intervals_since_ooo = 0
        app.ooo_intervals += 1
        app.ipc_ooo_last = ipc
    else:
        app.intervals_since_ooo += 1
        if mirage:
            if app.sc_phase_id == phase_id:
                coverage = app.sc_coverage * retain
            else:
                coverage = 0.0
            app.sc_coverage = coverage
            covered = memoizable * coverage
            ipc = (covered * OINO_REPLAY_EFFICIENCY * ipc_ooo
                   + (1.0 - covered) * ipc_ino)
            sc_mpki = (1.0 - covered) * TRACES_PER_KILO_INSTR
            memo_frac = covered
            app.t_memoized += effective * memo_frac
            kind = "oino"
        else:
            ipc = ipc_ino
            sc_mpki = 0.0
            memo_frac = 0.0
            kind = "ino"
        app.sc_mpki_ino_last = sc_mpki

    app.ipc_last = ipc
    app.t_total += interval

    progress = ipc * effective
    app.instr_done = before + progress
    rem = before % budget
    if rem + progress >= budget:
        app.completions += 1
        if app.first_completion_cycles is None:
            denom = progress if progress > 1e-9 else 1e-9
            frac = (budget - rem) / denom
            app.first_completion_cycles = (index + frac) * interval

    # Positional: same ExecOutcome as the reference builds by keyword,
    # minus the per-call keyword-binding overhead (288k calls per run
    # on the interval-engine probe make it measurable).
    return ExecOutcome(kind, ipc, memo_frac, effective, None,
                       ipc_ooo, sc_mpki, app.sc_mpki_ooo_last, phase_id)


class AnalyticBackend(ExecutionBackend):
    """The interval tier's closed-form substrate (paper section 4.1).

    Execution advances every application by the interval's effective
    cycles at the IPC its current core and Schedule-Cache state
    deliver; migrations are priced by the
    :class:`~repro.cmp.migration.MigrationCostModel` (shared with the
    detailed tier and the multithreaded broadcast, so the pricing
    lives there, not here) and charged against the interval (capped
    at 90 % of it).

    :meth:`advance` is the reference implementation; the fused
    :meth:`advance_all` kernel is bit-identical to it.
    """

    name = "analytic"

    def __init__(self, cost_model: "MigrationCostModel"):
        self.migration = cost_model
        self._aux: list | None = None     #: per-app _model_aux, per run
        self._batch: AppViewBatch | None = None
        self._batch_src: list | None = None

    # ------------------------------------------------------------------
    def begin_run(self, ctx: "EngineContext") -> None:
        """Seed this run's per-application aux tables."""
        sc_capacity = ctx.config.sc_capacity_bytes
        self._aux = [_model_aux(a.model, sc_capacity) for a in ctx.apps]
        self._batch = None
        self._batch_src = None

    def views_batch(self, ctx: "EngineContext") -> AppViewBatch:
        """The state-backed batch, built once per population."""
        # The state-backed batch only holds references to the live
        # AppState records, so one instance serves the whole run (a
        # membership change resets it through repopulate).
        if self._batch is None or self._batch_src is not ctx.apps:
            self._batch = AppViewBatch.from_states(ctx.apps)
            self._batch_src = ctx.apps
        return self._batch

    # ------------------------------------------------------------------
    def migrate(self, ctx: "EngineContext", index: int, *,
                to_ooo: bool) -> MigrationTicket:
        """Price the move now and charge it against this interval."""
        app = ctx.apps[index]
        cfg = ctx.config
        sc_bytes = 0
        if cfg.mirage:
            sc_bytes = int(app.sc_coverage * cfg.sc_capacity_bytes)
        event = self.migration.migrate(
            app.model.name, ctx.now, ctx.index, to_ooo, sc_bytes)
        # Inlined event.total_cycles (a property summing these four),
        # and min() spelled as a conditional: identical charge.
        total = (event.drain_cycles + event.l1_warmup_cycles
                 + event.sc_transfer_cycles + event.bus_contention_cycles)
        cap = ctx.interval * 0.9
        charged = cap if cap < total else total
        app.on_ooo = to_ooo
        return MigrationTicket(to_ooo, sc_bytes, event, charged)

    # ------------------------------------------------------------------
    def advance(self, ctx: "EngineContext",
                index: int) -> "ExecOutcome":
        """One interval of the analytic phase-table model (reference)."""
        app = ctx.apps[index]
        cfg = ctx.config
        interval = ctx.interval
        budget = ctx.budget
        effective = max(0.0, interval - ctx.mig_cost[index])
        phase = app.model.phase_at(app.instr_done)

        if app.on_ooo:
            ipc = phase.ipc_ooo
            kind = "ooo"
            memo_frac = 0.0
            if cfg.mirage:
                # The producer refreshes the SC with this phase's
                # schedules, as far as they fit in 8 KB.
                fit = min(1.0, (cfg.sc_capacity_bytes / 1024.0)
                          / max(0.25, phase.trace_kb))
                app.sc_phase_id = phase.phase_id
                app.sc_coverage = fit
                app.sc_mpki_ooo_last = phase.sc_mpki_ooo
                sc_mpki = phase.sc_mpki_ooo
                # While memoizing, the consumer-side staleness signal
                # is satisfied: fresh schedules are being produced.
                # (Without this the app camps on the OoO, because its
                # last InO-side SC-MPKI reading stays frozen high.)
                app.sc_mpki_ino_last = phase.sc_mpki_ooo
            else:
                sc_mpki = 0.0
            app.t_ooo += effective
            app.intervals_since_ooo = 0
            app.ooo_intervals += 1
            app.ipc_ooo_last = ipc
        else:
            app.intervals_since_ooo += 1
            if cfg.mirage:
                if app.sc_phase_id == phase.phase_id:
                    app.sc_coverage *= (1.0 - phase.volatility)
                else:
                    app.sc_coverage = 0.0   # stale: schedules useless
                coverage = app.sc_coverage
                ipc = phase.ipc_oino(coverage)
                sc_mpki = phase.sc_mpki_ino(coverage)
                memo_frac = phase.memoizable * coverage
                app.t_memoized += effective * memo_frac
                kind = "oino"
            else:
                ipc = phase.ipc_ino
                sc_mpki = 0.0
                memo_frac = 0.0
                kind = "ino"

        app.ipc_last = ipc
        app.sc_mpki_ino_last = sc_mpki if not app.on_ooo else (
            app.sc_mpki_ino_last)
        app.t_total += interval

        # Progress and budget completion.
        before = app.instr_done
        app.instr_done += ipc * effective
        if (before % budget) + ipc * effective >= budget:
            app.completions += 1
            if app.first_completion_cycles is None:
                frac = (budget - before % budget) / max(
                    1e-9, ipc * effective)
                app.first_completion_cycles = (ctx.index + frac) * interval

        return ExecOutcome(
            kind=kind, ipc=ipc, memo_frac=memo_frac, effective=effective,
            alone_ipc=phase.ipc_ooo, sc_mpki=sc_mpki,
            sc_mpki_ref=app.sc_mpki_ooo_last, phase_id=phase.phase_id,
        )

    # ------------------------------------------------------------------
    def advance_all(self, ctx: "EngineContext") -> None:
        """Advance everyone with the fused kernel (bit-identical)."""
        interval = ctx.interval
        budget = ctx.budget
        cfg = ctx.config
        mirage = cfg.mirage
        aux = self._aux
        if aux is None or len(aux) != len(ctx.apps):
            # Driven without begin_run (direct API use): resolve the
            # tables for this call only — correct, just not cached.
            sc_capacity = cfg.sc_capacity_bytes
            aux = [_model_aux(a.model, sc_capacity) for a in ctx.apps]
        mig = ctx.mig_cost
        outcomes = ctx.outcomes
        index = ctx.index
        adv = _advance_app
        for i, app in enumerate(ctx.apps):
            outcomes[i] = adv(
                app, aux[i], interval, budget, mig[i], mirage, index)
