"""Cycle-level Mirage cluster (detailed-tier CMP).

The interval simulator in :mod:`repro.cmp.system` is the workhorse for
large sweeps; this module runs a *small* Mirage cluster entirely on
the detailed core models, with real Schedule Cache contents moving
between producer and consumers, shared-L2 contention, per-core branch
predictor state, and L1 flushes on migration.  It exists to validate
the interval tier's dynamics bottom-up (see
``tests/test_detailed_cmp.py``) and as a reference implementation of
the full mechanism.

Both tiers are now *the same simulator* from the policy's point of
view: :class:`DetailedMirageCluster` is a thin shell that assembles
the standard :class:`~repro.engine.loop.IntervalEngine` pipeline —
arbitration, migration, execution, energy — with a
:class:`DetailedBackend` as the execution substrate.  The backend owns
everything physical (core models, shared L2, the producer's
predictor/BTB, Schedule Cache movement, L1-flush migration costs) and
mirrors its measured counters into the shared
:class:`~repro.engine.state.AppState` records, so arbitration views
(:func:`~repro.engine.views.interval_tier_views`), migration
accounting, and every telemetry record come from the same code paths
as the interval tier.  ``tier-validation`` is literally "same engine,
two backends".

Time is sliced by *instructions per slice* per application (an
approximation of the cycle-sliced hardware; fine for validation since
arbitration decisions depend on per-slice rates, not absolute time):
one engine interval is one slice.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from repro.arbiter.base import Arbitrator
from repro.cmp.config import ClusterConfig
from repro.cmp.migration import MigrationCostModel
from repro.cores import LDT_PARAMS, CGOoOCore, OinOCore, OutOfOrderCore
from repro.energy.model import CoreEnergyModel
from repro.engine import (
    ArbitrationPhase,
    EnergyPhase,
    ExecutionBackend,
    ExecutionPhase,
    IntervalEngine,
    MigrationPhase,
    MigrationTicket,
    account_migration,
)
from repro.engine.phases import EngineContext
from repro.engine.state import AppState, ExecOutcome
from repro.frontend import BranchTargetBuffer, TournamentPredictor
from repro.memory import MemoryHierarchy
from repro.schedule import ScheduleCache, ScheduleRecorder
from repro.telemetry import Telemetry
from repro.workloads.generator import SyntheticBenchmark
from repro.workloads.profiles import get_profile


@lru_cache(maxsize=None)
def _alone_ooo_ipc(name: str) -> float:
    """IPC of this benchmark alone on a private OoO (reference).

    Uses the calibration target: measuring here would perturb the
    shared hierarchy.  Good enough for speedup normalization.
    Memoized — the profile table lookup is pure and per-name constant.
    """
    return get_profile(name).target_ipc_ooo


@dataclass(slots=True)
class DetailedAppState(AppState):
    """One application's state, extended with the physical substrate.

    The inherited :class:`~repro.engine.state.AppState` fields are the
    shared language the engine phases read (``t_total`` holds measured
    cycles, ``t_ooo`` producer-resident cycles, ``sc_mpki_*_last`` the
    per-slice Schedule-Cache miss rates); the extras below are the
    detailed tier's physical state that never crosses the backend seam.
    """

    stream: object = None          #: persistent instruction generator
    sc: ScheduleCache = None       #: travels with the app
    recorder: ScheduleRecorder = None
    consumer: OinOCore = None      #: its home core (warm bpred/L1)
    instructions: int = 0          #: instructions retired so far
    ooo_slices: int = 0            #: slices spent on the producer
    migrations: int = 0            #: producer<->consumer moves

    @property
    def name(self) -> str:
        """The benchmark's name (the model here is the benchmark)."""
        return self.model.name


@dataclass
class DetailedResult:
    """Outcome of one detailed-tier cluster run."""

    app_names: list[str]
    ipcs: list[float]
    ipc_ooo_alone: list[float]
    ooo_share: list[float]           #: fraction of cycles on the OoO
    migrations: int
    sc_bytes_transferred: int
    energy_pj: float = 0.0           #: shared EnergyPhase accounting

    @property
    def speedups(self) -> list[float]:
        """Per-app measured IPC over the alone-on-OoO reference."""
        return [
            ipc / alone if alone else 0.0
            for ipc, alone in zip(self.ipcs, self.ipc_ooo_alone)
        ]

    @property
    def stp(self) -> float:
        """Mean of the per-app speedups (system throughput)."""
        s = self.speedups
        return sum(s) / len(s) if s else 0.0


class DetailedBackend(ExecutionBackend):
    """The cycle-level execution substrate (paper section 5).

    Owns the physical cluster: per-consumer OinO cores over a shared
    :class:`~repro.memory.MemoryHierarchy`, one producer OoO whose
    predictor/BTB are shared by whichever application occupies it,
    real Schedule Cache contents crossing the bus on migration, and
    the L1 flushes that price a move.

    Migration is *deferred*: :meth:`migrate` only notes the decision,
    and the physical move happens when :meth:`advance` reaches that
    application — flushing the producer's L1 as the outgoing
    application is processed (possibly after the incoming one already
    ran a slice on the still-warm producer) is part of the measured
    hand-off cost, so the ordering is load-bearing.
    """

    name = "detailed"
    #: ExecOutcome/energy kind for consumer-side slices; subclasses
    #: that swap the consumer core model override it alongside
    #: :meth:`_make_consumer`.
    consumer_kind = "oino"
    #: Telemetry counter prefix for consumer-slice stats.
    consumer_counter_prefix = "ino."

    def __init__(
        self,
        benchmarks: list[SyntheticBenchmark],
        *,
        config: ClusterConfig,
        sc_capacity: int | None = 8 * 1024,
        slice_instructions: int = 8_000,
    ):
        self.config = config
        self.slice_instructions = slice_instructions
        self.hier = MemoryHierarchy()
        self.producer_mem = self.hier.core_view(len(benchmarks))
        # The producer's frontend state is physical: one predictor and
        # BTB shared by whichever application currently occupies it.
        self.producer_bpred = TournamentPredictor()
        self.producer_btb = BranchTargetBuffer()
        self.apps: list[DetailedAppState] = []
        for i, bench in enumerate(benchmarks):
            sc = ScheduleCache(sc_capacity)
            self.apps.append(DetailedAppState(
                model=bench,
                stream=bench.stream(),
                sc=sc,
                recorder=ScheduleRecorder(sc),
                consumer=self._make_consumer(self.hier.core_view(i), sc),
            ))
        # Cost accounting for migrations, on a private bus: the real
        # transfer stays on the cluster's shared bus below (so L1<->L2
        # contention is unchanged); this model prices each event with
        # the same breakdown the interval tier reports.
        self.migration = MigrationCostModel(config)
        self.sc_bytes_transferred = 0
        self._pending: list[bool | None] = [None] * len(benchmarks)

    def _make_consumer(self, memory, sc: ScheduleCache):
        """Build one consumer core; the subclass variation point.

        The returned core must expose the shared core-model contract:
        ``run(stream, n)`` and :class:`~repro.cores.base.CoreStats`
        counters (including the SC hit/miss counts the arbitrator's
        SC-MPKI signal reads).
        """
        return OinOCore(memory, sc)

    # -- ExecutionBackend ----------------------------------------------
    def migrate(self, ctx: EngineContext, index: int, *,
                to_ooo: bool) -> None:
        """Note the decision; the move happens at this app's slice."""
        self._pending[index] = to_ooo
        return None

    def advance(self, ctx: EngineContext, index: int) -> ExecOutcome:
        """Apply any pending move, then run one slice of instructions."""
        app = ctx.apps[index]
        pending = self._pending[index]
        if pending is not None:
            self._pending[index] = None
            self._perform_migration(ctx, app, to_ooo=pending)
        return self._run_slice(ctx, app)

    def _run_slice(self, ctx: EngineContext,
                   app: DetailedAppState) -> ExecOutcome:
        """Run one slice of *app*'s stream on the real core models."""
        n = self.slice_instructions
        window = itertools.islice(app.stream, n)
        telemetry = ctx.telemetry
        if app.on_ooo:
            before_misses = app.sc.stats.misses
            core = OutOfOrderCore(
                self.producer_mem, recorder=app.recorder,
                predictor=self.producer_bpred, btb=self.producer_btb,
            )
            result = core.run(window, n)
            misses = app.sc.stats.misses - before_misses
            app.sc_mpki_ooo_last = (
                1000.0 * misses / max(1, result.instructions))
            app.ipc_ooo_last = result.ipc
            app.t_ooo += result.cycles
            app.ooo_slices += 1
            app.intervals_since_ooo = 0
            counters = result.stats.counters(prefix="ooo.")
            kind = "ooo"
            memo_frac = 0.0
        else:
            result = app.consumer.run(window, n)
            app.sc_mpki_ino_last = result.stats.sc_mpki()
            app.intervals_since_ooo += 1
            counters = result.stats.counters(
                prefix=self.consumer_counter_prefix)
            kind = self.consumer_kind
            memo_frac = result.stats.memoized_fraction
        telemetry.counters.merge(counters)
        app.instructions += result.instructions
        app.t_total += result.cycles
        app.ipc_last = result.ipc
        return ExecOutcome(
            kind=kind, ipc=result.ipc, memo_frac=memo_frac,
            effective=result.cycles, energy_cycles=result.cycles,
            alone_ipc=_alone_ooo_ipc(app.model.name),
            sc_mpki=app.sc_mpki_ino_last,
            sc_mpki_ref=app.sc_mpki_ooo_last,
        )

    def finalize(self, ctx: EngineContext) -> None:
        """Fold each app's final SC stats into the shared counters."""
        for app in ctx.apps:
            ctx.telemetry.counters.merge(
                app.sc.stats.counters(prefix=f"sc.{app.model.name}."))

    # -- the physical move ---------------------------------------------
    def _perform_migration(self, ctx: EngineContext,
                           app: DetailedAppState, *,
                           to_ooo: bool) -> None:
        app.on_ooo = to_ooo
        app.migrations += 1
        # SC contents cross the shared bus; L1s drain on the way out.
        payload = app.sc.used_bytes + 2048
        self.hier.bus.transfer(int(app.t_total), payload)
        self.sc_bytes_transferred += app.sc.used_bytes
        if to_ooo:
            dirty, dropped = app.consumer.memory.flush_for_migration()
        else:
            dirty, dropped = self.producer_mem.flush_for_migration()
        event = self.migration.migrate(
            app.model.name, now_cycles=int(app.t_total),
            interval_index=ctx.index, to_ooo=to_ooo,
            sc_bytes=app.sc.used_bytes,
        )
        account_migration(ctx, app.model.name, MigrationTicket(
            to_ooo=to_ooo,
            sc_bytes=app.sc.used_bytes,
            event=event,
            charged=float(event.total_cycles),
            l1_flush_dirty=dirty,
            l1_flush_lines=dropped,
            counters={"migration.l1_flush_dirty": dirty,
                      "migration.l1_flush_lines": dropped},
        ))


class CGOoOBackend(DetailedBackend):
    """Cycle-level substrate with CG-OoO consumer cores.

    Identical cluster physics to :class:`DetailedBackend` — shared
    hierarchy, one producer OoO, SC contents crossing the bus on
    migration — but each consumer is a
    :class:`~repro.cores.cgooo.CGOoOCore`: block-granularity
    scheduling windows instead of the OinO replay mode.  The SC serves
    as the block-schedule memo, so the arbitrator's SC-MPKI signal
    stays live, and consumer slices are billed at the coarser-grain
    ``"cgooo"`` energy accounting.
    """

    name = "cgooo"
    consumer_kind = "cgooo"
    consumer_counter_prefix = "cgooo."

    def _make_consumer(self, memory, sc: ScheduleCache):
        """A block-level CG-OoO core over the shared substrate."""
        return CGOoOCore(memory, sc)


class LoadDelayBackend(DetailedBackend):
    """Cycle-level substrate with load-delay-tracking consumers.

    The consumers are still OinO cores (same SC replay mode, same
    ``"oino"`` energy accounting) but run the ``issue_policy="ldt"``
    pipeline: load-dependents park in a small delay queue instead of
    head-of-line-blocking the in-order issue stage.
    """

    name = "ldt"
    consumer_counter_prefix = "ldt."

    def _make_consumer(self, memory, sc: ScheduleCache):
        """An OinO core with the load-delay-tracking issue policy."""
        return OinOCore(memory, sc, params=LDT_PARAMS)


#: Cycle-tier backend classes selectable by name (the detailed half of
#: the :mod:`repro.engine.registry` roster).
CYCLE_BACKENDS: dict[str, type[DetailedBackend]] = {
    "detailed": DetailedBackend,
    "cgooo": CGOoOBackend,
    "ldt": LoadDelayBackend,
}


class DetailedMirageCluster:
    """n consumer OinO cores + 1 producer OoO, cycle-level.

    A thin shell over :class:`~repro.engine.loop.IntervalEngine` with
    the :class:`DetailedBackend` substrate — the same four phases, the
    same arbitration views, and the same telemetry paths as the
    interval tier's :class:`~repro.cmp.system.CMPSystem`.  ``backend``
    selects the consumer core model by registry name
    (:data:`CYCLE_BACKENDS`: ``"detailed"``, ``"cgooo"``, ``"ldt"``).
    """

    def __init__(
        self,
        benchmarks: list[SyntheticBenchmark],
        arbitrator: Arbitrator,
        *,
        sc_capacity: int | None = 8 * 1024,
        slice_instructions: int = 8_000,
        energy_model: CoreEnergyModel | None = None,
        telemetry: Telemetry | None = None,
        backend: str = "detailed",
    ):
        backend_cls = CYCLE_BACKENDS.get(backend)
        if backend_cls is None:
            known = ", ".join(sorted(CYCLE_BACKENDS))
            raise ValueError(
                f"unknown cycle backend {backend!r} — one of: {known}")
        self.arbitrator = arbitrator
        self.telemetry = telemetry or Telemetry()
        self.energy_model = energy_model or CoreEnergyModel()
        config = ClusterConfig(
            n_consumers=len(benchmarks),
            n_producers=1,
            mirage=True,
            sc_capacity_bytes=sc_capacity or 8 * 1024,
        )
        self.backend = backend_cls(
            benchmarks, config=config, sc_capacity=sc_capacity,
            slice_instructions=slice_instructions)
        self.apps = self.backend.apps
        self.phases = [
            ArbitrationPhase(arbitrator),
            MigrationPhase(),
            ExecutionPhase(),
            EnergyPhase(self.energy_model),
        ]
        self.engine = IntervalEngine(
            config, self.apps, self.phases, backend=self.backend,
            telemetry=self.telemetry)

    # -- substrate views (tests and callers poke these) ----------------
    @property
    def hier(self) -> MemoryHierarchy:
        """The shared memory hierarchy (owned by the backend)."""
        return self.backend.hier

    @property
    def migration(self) -> MigrationCostModel:
        """The migration cost model (owned by the backend)."""
        return self.backend.migration

    @property
    def sc_bytes_transferred(self) -> int:
        """Total Schedule-Cache bytes shipped across the bus."""
        return self.backend.sc_bytes_transferred

    @property
    def total_migrations(self) -> int:
        """Total producer<->consumer moves performed."""
        return self.migration.total_migrations

    # ------------------------------------------------------------------
    def run(self, *, n_slices: int = 20) -> DetailedResult:
        """Drive the engine for *n_slices* intervals (one slice each)."""
        ctx = self.engine.run(max_intervals=n_slices)
        self.telemetry.summarize_run(
            config=f"{len(self.apps)}:1-Mirage-detailed",
            arbitrator=self.arbitrator.name,
            intervals=ctx.intervals,
            total_cycles=sum(a.t_total for a in self.apps),
        )
        # Reference: each benchmark alone on an OoO, same length.
        return DetailedResult(
            app_names=[a.model.name for a in self.apps],
            ipcs=[a.instructions / a.t_total if a.t_total else 0.0
                  for a in self.apps],
            ipc_ooo_alone=[_alone_ooo_ipc(a.model.name)
                           for a in self.apps],
            ooo_share=[a.t_ooo / a.t_total if a.t_total else 0.0
                       for a in self.apps],
            migrations=self.total_migrations,
            sc_bytes_transferred=self.sc_bytes_transferred,
            energy_pj=sum(a.energy_pj for a in self.apps),
        )
