"""The interval-driven CMP simulator.

Each application owns one consumer core; one (or more) producer OoO
cores are shared through the arbitrator.  The simulation itself now
lives in :mod:`repro.engine`: a thin interval loop drives four
composable phases — arbitration, migration, execution (Schedule-Cache
coverage evolution) and energy — over shared
:class:`~repro.engine.state.AppState` records, each phase emitting
structured events into :mod:`repro.telemetry`.

:class:`CMPSystem` assembles the standard pipeline for one cluster and
one workload mix, runs it, and folds the outcome into a
:class:`CMPResult`.  Applications that finish their instruction budget
restart (paper section 4.1); the run ends when every application has
completed the budget at least once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arbiter.base import Arbitrator
from repro.characterize.phase_model import AppModel
from repro.cmp.config import ClusterConfig
from repro.cmp.migration import MigrationCostModel
from repro.energy.model import CoreEnergyModel
from repro.engine import (
    AnalyticBackend,
    ArbitrationPhase,
    EnergyPhase,
    ExecutionPhase,
    IntervalEngine,
    MigrationPhase,
)
from repro.engine.state import AppState
from repro.metrics import system_throughput
from repro.telemetry import IntervalRecord, MemorySink, Telemetry


@dataclass
class CMPResult:
    """Outcome of one CMP simulation."""

    config_name: str
    arbitrator_name: str
    intervals: int
    total_cycles: float
    app_names: list[str]
    speedups: list[float]            #: per-app, vs running alone on OoO
    energy_pj: float
    ooo_active_fraction: float
    ooo_share_per_app: list[float]   #: fraction of OoO-active intervals
    migrations: int
    migration_cost_cycles: dict[str, float]
    migration_frequency: float       #: migrations per interval
    history: list[IntervalRecord] = field(default_factory=list)

    @property
    def stp(self) -> float:
        """System throughput: the mean of the per-app speedups."""
        return system_throughput(self.speedups)


def fold_result(*, config, arbitrator_name: str, ctx, apps,
                migration: MigrationCostModel,
                history: list[IntervalRecord]) -> CMPResult:
    """Fold a finished engine context into a :class:`CMPResult`.

    The one place run outcomes become result rows: both the
    fixed-population :class:`CMPSystem` path and the dynamic
    scenario path (:mod:`repro.cluster`) fold through here, so the
    degenerate scenario is byte-identical to the classic run by
    construction — same arithmetic, same accumulation order.
    """
    k = ctx.intervals
    total_cycles = k * ctx.interval
    budget = ctx.budget
    speedups = []
    for app in apps:
        alone = budget / max(1e-9, app.model.mean_ipc_ooo)
        took = app.first_completion_cycles or total_cycles
        speedups.append(min(1.0, alone / max(1e-9, took)))
    active_total = max(1, ctx.ooo_active_intervals)
    return CMPResult(
        config_name=config.name,
        arbitrator_name=arbitrator_name,
        intervals=k,
        total_cycles=total_cycles,
        app_names=[a.model.name for a in apps],
        speedups=speedups,
        energy_pj=sum(a.energy_pj for a in apps),
        ooo_active_fraction=(
            ctx.ooo_active_intervals / k if k and config.n_producers
            else 0.0),
        ooo_share_per_app=[s / active_total for s in ctx.ooo_share],
        migrations=migration.total_migrations,
        migration_cost_cycles=migration.cost_summary(),
        migration_frequency=(
            migration.total_migrations / k if k else 0.0),
        history=history,
    )


class CMPSystem:
    """Interval-level simulator for one cluster and one workload mix.

    A thin shell over :class:`~repro.engine.loop.IntervalEngine`: it
    validates the cluster shape, builds the standard four-phase
    pipeline (``self.phases``), and wires a :class:`Telemetry` hub
    through every phase.  ``record_history=True`` attaches an
    in-memory sink capturing the per-interval trace records behind
    Figures 5 and 10 (``self.history``); pass ``telemetry=`` to stream
    the full event schema to custom sinks instead.
    """

    def __init__(
        self,
        config: ClusterConfig,
        apps: list[AppModel],
        arbitrator: Arbitrator | None,
        *,
        energy_model: CoreEnergyModel | None = None,
        record_history: bool = False,
        telemetry: Telemetry | None = None,
    ):
        if (config.n_producers > 0
                and config.n_consumers + config.n_producers < len(apps)):
            raise ValueError(
                f"{config.name} has {config.n_consumers + config.n_producers}"
                f" cores for {len(apps)} apps"
            )
        if config.n_producers > 0 and arbitrator is None:
            raise ValueError("a producer CMP needs an arbitrator")
        self.config = config
        self.apps = [AppState(model=m) for m in apps]
        self.arbitrator = arbitrator
        self.energy_model = energy_model or CoreEnergyModel()
        self.migration = MigrationCostModel(config)
        self.telemetry = telemetry or Telemetry()
        self.record_history = record_history
        self._history_sink: MemorySink | None = None
        if record_history:
            self._history_sink = self.telemetry.attach(
                MemorySink(kinds={"interval"}))
        self.backend = AnalyticBackend(self.migration)
        self.phases = [
            ArbitrationPhase(arbitrator),
            MigrationPhase(),
            ExecutionPhase(),
            EnergyPhase(self.energy_model),
        ]
        self.engine = IntervalEngine(
            config, self.apps, self.phases, backend=self.backend,
            telemetry=self.telemetry)

    # ------------------------------------------------------------------
    @property
    def history(self) -> list[IntervalRecord]:
        """Captured per-interval trace records (Figures 5 and 10)."""
        if self._history_sink is None:
            return []
        return self._history_sink.events

    # ------------------------------------------------------------------
    def run(self, *, max_intervals: int = 50_000) -> CMPResult:
        """Simulate until every app completes (or *max_intervals*)."""
        cfg = self.config
        ctx = self.engine.run(max_intervals=max_intervals)
        result = fold_result(
            config=cfg,
            arbitrator_name=(
                self.arbitrator.name if self.arbitrator else "none"),
            ctx=ctx,
            apps=self.apps,
            migration=self.migration,
            history=self.history,
        )
        self.telemetry.summarize_run(
            config=cfg.name,
            arbitrator=result.arbitrator_name,
            intervals=result.intervals,
            total_cycles=result.total_cycles,
        )
        return result


# ----------------------------------------------------------------------
# Homogeneous baselines
# ----------------------------------------------------------------------
def run_homo(apps: list[AppModel], *, kind: str,
             config: ClusterConfig,
             energy_model: CoreEnergyModel | None = None) -> CMPResult:
    """Run every app on its own core of *kind* ("ooo" or "ino").

    Models the 0:n Homo-OoO and n:0 Homo-InO baselines: no arbitration,
    no migration, no Schedule Cache.
    """
    if kind not in ("ooo", "ino"):
        raise ValueError("kind must be 'ooo' or 'ino'")
    em = energy_model or CoreEnergyModel()
    budget = config.scale.app_instruction_budget
    speedups = []
    energy = 0.0
    longest = 0.0
    for model in apps:
        ipc = model.mean_ipc_ooo if kind == "ooo" else model.mean_ipc_ino
        cycles = budget / max(1e-9, ipc)
        alone = budget / max(1e-9, model.mean_ipc_ooo)
        speedups.append(min(1.0, alone / cycles))
        longest = max(longest, cycles)
        # Energy to completion (same accounting as CMPSystem).
        energy += em.interval_energy(kind, ipc, int(cycles))
    name = f"{len(apps)}x{kind.upper()}-homo"
    return CMPResult(
        config_name=name,
        arbitrator_name="none",
        intervals=int(longest / config.scale.interval_cycles) + 1,
        total_cycles=longest,
        app_names=[m.name for m in apps],
        speedups=speedups,
        energy_pj=energy,
        ooo_active_fraction=1.0 if kind == "ooo" else 0.0,
        ooo_share_per_app=[1.0 / len(apps)] * len(apps) if kind == "ooo"
        else [0.0] * len(apps),
        migrations=0,
        migration_cost_cycles={},
        migration_frequency=0.0,
    )
