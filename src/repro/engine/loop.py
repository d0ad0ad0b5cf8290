"""The thin interval loop that drives a phase pipeline.

The engine owns *when* — interval sequencing, completion detection,
per-phase wall-time profiling — the phases own *what*, and the
:class:`~repro.engine.backends.ExecutionBackend` owns *on which
substrate*.  Custom pipelines (extra phases, a phase swapped for an
ablation variant) and custom backends run through the same loop; see
``docs/api.md``.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Sequence

from repro.engine.backends import AnalyticBackend, ExecutionBackend
from repro.engine.phases import EngineContext, EnginePhase
from repro.engine.state import AppState
from repro.telemetry.collector import Telemetry

if TYPE_CHECKING:
    from repro.cmp.config import ClusterConfig


class IntervalEngine:
    """Runs an ordered list of phases one interval at a time.

    Application state (``apps``) persists across :meth:`run` calls, so
    callers can advance a simulation in chunks (the white-box tests
    and the software-arbitrator studies do); each call gets a fresh
    :class:`~repro.engine.phases.EngineContext` whose interval index
    restarts at zero.  The execution substrate is the *backend*
    (default: a fresh :class:`~repro.engine.backends.AnalyticBackend`);
    every phase reaches it through ``ctx.backend``.
    """

    def __init__(self, config: "ClusterConfig", apps: list[AppState],
                 phases: Sequence[EnginePhase], *,
                 backend: ExecutionBackend | None = None,
                 telemetry: Telemetry | None = None):
        names = [p.name for p in phases]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate phase names: {names}")
        if backend is None:
            # Imported here: repro.cmp imports this module at package
            # import time, so the reverse import must stay lazy.
            from repro.cmp.migration import MigrationCostModel
            backend = AnalyticBackend(MigrationCostModel(config))
        self.config = config
        self.apps = apps
        self.phases = list(phases)
        self.backend = backend
        self.telemetry = telemetry or Telemetry()

    def run(self, *, max_intervals: int,
            stop_when_complete: bool = True) -> EngineContext:
        """Drive the pipeline until every app completed its budget at
        least once, or *max_intervals* elapse; returns the context.

        ``stop_when_complete=False`` disables the completion early-out
        and always runs the full *max_intervals*: scenario runs use it
        because applications arrive mid-run (an interval where every
        *current* resident has completed — or none is resident yet —
        must not end the simulation).
        """
        scale = self.config.scale
        ctx = EngineContext(
            config=self.config,
            apps=self.apps,
            telemetry=self.telemetry,
            interval=scale.interval_cycles,
            budget=scale.app_instruction_budget,
            backend=self.backend,
            ooo_share=[0] * len(self.apps),
        )
        self.backend.begin_run(ctx)
        profiler = self.telemetry.profiler
        psec = profiler.seconds
        pcalls = profiler.calls
        apps = self.apps
        phases = self.phases
        interval = ctx.interval
        k = 0
        while k < max_intervals:
            if stop_when_complete:
                # for/else spelling of all(a.completions >= 1): no
                # generator allocation on the per-interval hot path.
                for a in apps:
                    if a.completions < 1:
                        break
                else:
                    break
            ctx.index = k
            ctx.now = k * interval
            ctx.chosen = []
            # Recomputed every interval: a lifecycle phase may have
            # changed the population since the last pass.
            n_apps = len(apps)
            ctx.mig_cost = [0.0] * n_apps
            ctx.outcomes = [None] * n_apps
            for phase in phases:
                name = phase.name
                start = perf_counter()
                phase.run(ctx)
                psec[name] = psec.get(name, 0.0) + (
                    perf_counter() - start)
                pcalls[name] = pcalls.get(name, 0) + 1
            k += 1
        ctx.intervals = k
        self.backend.finalize(ctx)
        return ctx
