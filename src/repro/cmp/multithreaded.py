"""Multithreaded Mirage (paper section 6, discussion).

If the threads of a parallel program perform homogeneous work, the
producer OoO can memoize *one* thread's repeatable phases and
broadcast the schedules to every InO in the cluster — one memoization
attempt speeds up all threads.  The paper discusses this qualitatively;
this module models it on the interval tier:

* all threads execute the same :class:`~repro.characterize.AppModel`
  (with per-thread progress skew);
* when the thread on the producer refreshes its Schedule Cache, the
  contents are broadcast over the shared bus to every sibling whose
  execution is in the same phase.

The cluster runs the standard :class:`~repro.engine.loop.IntervalEngine`
pipeline over the :class:`~repro.engine.backends.AnalyticBackend`, with
one extra step appended: :class:`BroadcastPhase`, the canonical example
of slotting a custom :class:`~repro.engine.phases.EnginePhase` into the
shared loop (see ``docs/api.md``).

Comparing ``broadcast=True`` against per-thread memoization shows the
claimed effect: near-equal throughput at a fraction of the OoO time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arbiter.base import Arbitrator
from repro.arbiter.sc_mpki import SCMPKIArbitrator
from repro.characterize.phase_model import AppModel
from repro.cmp.config import ClusterConfig
from repro.cmp.migration import MigrationCostModel
from repro.energy.model import CoreEnergyModel
from repro.engine import (
    AnalyticBackend,
    ArbitrationPhase,
    EngineContext,
    EnginePhase,
    EnergyPhase,
    ExecutionPhase,
    IntervalEngine,
    MigrationPhase,
)
from repro.engine.state import AppState
from repro.telemetry import Telemetry


@dataclass
class ThreadedResult:
    """Outcome of a multithreaded Mirage run."""

    n_threads: int
    broadcast: bool
    intervals: int
    thread_speedups: list[float]
    ooo_active_fraction: float
    memoize_phases: int          #: intervals spent producing schedules
    energy_pj: float

    @property
    def stp(self) -> float:
        """Mean thread speedup (system throughput)."""
        if not self.thread_speedups:
            return 0.0
        return sum(self.thread_speedups) / len(self.thread_speedups)


class BroadcastPhase(EnginePhase):
    """Share the producer's fresh schedules with in-phase siblings.

    Runs after the standard four phases: the thread that just occupied
    the producer broadcasts its Schedule Cache contents over the shared
    bus to every consumer thread currently executing the same phase,
    which adopts the better coverage without ever visiting the OoO.
    """

    name = "broadcast"

    def __init__(self, model: AppModel, migration: MigrationCostModel):
        self.model = model
        self.migration = migration

    def run(self, ctx: EngineContext) -> None:
        """Broadcast from the chosen producer thread, if any."""
        if not ctx.chosen:
            return
        cfg = ctx.config
        producer = ctx.apps[ctx.chosen[0]]
        payload = int(producer.sc_coverage * cfg.sc_capacity_bytes)
        for i, thread in enumerate(ctx.apps):
            if i == ctx.chosen[0] or thread.on_ooo:
                continue
            if (self.model.phase_at(thread.instr_done).phase_id
                    == producer.sc_phase_id):
                self.migration.bus.transfer(ctx.now, payload)
                thread.sc_phase_id = producer.sc_phase_id
                thread.sc_coverage = max(
                    thread.sc_coverage, producer.sc_coverage)
                ctx.telemetry.counters.bump("broadcast.transfers")


class MultithreadedMirage:
    """n homogeneous threads on one Mirage cluster.

    A thin shell over :class:`~repro.engine.loop.IntervalEngine`: the
    standard pipeline plus :class:`BroadcastPhase` (skipped when
    ``broadcast=False``), all on the analytic backend.
    """

    def __init__(
        self,
        config: ClusterConfig,
        model: AppModel,
        *,
        arbitrator: Arbitrator | None = None,
        broadcast: bool = True,
        skew_instructions: int = 50_000,
        energy_model: CoreEnergyModel | None = None,
        telemetry: Telemetry | None = None,
    ):
        if not config.mirage:
            raise ValueError("multithreaded sharing needs OinO consumers")
        self.config = config
        self.model = model
        self.arbitrator = arbitrator or SCMPKIArbitrator()
        self.broadcast = broadcast
        self.energy_model = energy_model or CoreEnergyModel()
        self.migration = MigrationCostModel(config)
        self.telemetry = telemetry or Telemetry()
        self.threads = [
            AppState(model=model, instr_done=float(i * skew_instructions))
            for i in range(config.n_consumers)
        ]
        self.phases = [
            ArbitrationPhase(self.arbitrator),
            MigrationPhase(),
            ExecutionPhase(),
            EnergyPhase(self.energy_model),
        ]
        if broadcast:
            self.phases.append(BroadcastPhase(model, self.migration))
        self.engine = IntervalEngine(
            config, self.threads, self.phases,
            backend=AnalyticBackend(self.migration),
            telemetry=self.telemetry)

    def run(self, *, max_intervals: int = 50_000) -> ThreadedResult:
        """Run the cluster until every thread completes its budget."""
        ctx = self.engine.run(max_intervals=max_intervals)
        k = ctx.intervals
        total_cycles = k * ctx.interval
        budget = ctx.budget
        speedups = []
        for thread in self.threads:
            alone = budget / max(1e-9, self.model.mean_ipc_ooo)
            took = thread.first_completion_cycles or total_cycles
            speedups.append(min(1.0, alone / max(1e-9, took)))
        return ThreadedResult(
            n_threads=len(self.threads),
            broadcast=self.broadcast,
            intervals=k,
            thread_speedups=speedups,
            ooo_active_fraction=ctx.ooo_active_intervals / k if k else 0.0,
            memoize_phases=ctx.ooo_active_intervals,
            energy_pj=sum(t.energy_pj for t in self.threads),
        )
