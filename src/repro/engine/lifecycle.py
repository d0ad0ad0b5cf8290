"""Mid-run application admission and retirement.

:class:`LifecyclePhase` is the engine phase that turns a static
fixed-population pipeline into a dynamic one: placed *first* in the
pipeline, it applies a scenario schedule's departures and arrivals at
each interval boundary before arbitration sees the population.

The contract with the rest of the engine:

* On any membership change the phase mutates ``ctx.apps`` and the
  per-app context lists in lockstep, then calls
  :meth:`~repro.engine.backends.ExecutionBackend.repopulate` so the
  backend rebuilds its shape-bound acceleration state.
* Departures are processed before arrivals at the same interval, so a
  retiring application frees its consumer core for a same-interval
  admission (the global scheduler's capacity model assumes exactly
  this order).
* An application with ``depart_interval=k`` runs intervals
  ``[arrive, k)`` — it is retired at the *start* of interval ``k``
  and its residency is ``k - arrived_interval``.
* On intervals with no scheduled events the phase returns before
  touching the backend, so a static schedule (the degenerate
  :class:`~repro.workloads.scenario.Scenario`) drives the engine
  through the byte-identical fixed-population path.

Each event bumps the ``lifecycle.arrivals`` / ``lifecycle.departures``
counters and, when the telemetry hub subscribes to the kind, emits a
typed :class:`~repro.telemetry.events.LifecycleRecord`.
"""

from __future__ import annotations

from typing import Callable

from repro.engine.phases import EngineContext, EnginePhase
from repro.engine.state import AppState
from repro.telemetry.events import LifecycleRecord

#: Signature of the retirement callback: ``(app, ctx)`` at the moment
#: the application leaves ``ctx.apps`` (its counters are final).
RetireHook = Callable[[AppState, EngineContext], None]


class LifecyclePhase(EnginePhase):
    """Admits and retires applications at interval boundaries.

    Args:
        arrivals: map of interval index to the ``AppState`` records
            admitted at that interval (each record carries its own
            ``uid`` / ``arrived_interval`` / ``depart_interval``).
            Consumed as the run progresses; records for interval 0
            should instead be placed in the engine's initial app list
            and passed as *announce*.
        announce: initial residents to report as interval-0 arrivals
            (records only — they are already in ``ctx.apps``).
        on_retire: optional callback invoked for every retired
            application right after it leaves ``ctx.apps``.
        cluster: label stamped into every
            :class:`~repro.telemetry.events.LifecycleRecord`.
    """

    name = "lifecycle"

    def __init__(self, arrivals: dict[int, list[AppState]] | None = None,
                 *, announce: list[AppState] | None = None,
                 on_retire: RetireHook | None = None,
                 cluster: str = ""):
        self.arrivals = {k: list(v) for k, v in (arrivals or {}).items()}
        self.announce = list(announce or [])
        self.on_retire = on_retire
        self.cluster = cluster

    # ------------------------------------------------------------------
    def _emit(self, ctx: EngineContext, app: AppState, event: str) -> None:
        telemetry = ctx.telemetry
        counters = telemetry.counters
        key = ("lifecycle.arrivals" if event == "arrive"
               else "lifecycle.departures")
        counters[key] = counters.get(key, 0) + 1
        if telemetry.wants("lifecycle"):
            residency = (ctx.index - app.arrived_interval
                         if event == "depart" else 0)
            telemetry.emit(LifecycleRecord(
                interval=ctx.index,
                app=app.display_name,
                event=event,
                benchmark=app.model.name,
                cluster=self.cluster,
                resident=len(ctx.apps),
                completions=app.completions if event == "depart" else 0,
                residency_intervals=residency,
            ))

    # ------------------------------------------------------------------
    def run(self, ctx: EngineContext) -> None:
        """Apply this interval's departures, then its arrivals."""
        index = ctx.index
        if index == 0 and self.announce:
            # Initial residents live in ctx.apps already (the static
            # path depends on that); they are only reported here.
            for app in self.announce:
                self._emit(ctx, app, "arrive")
            self.announce = []
        apps = ctx.apps
        leaving = [
            i for i, a in enumerate(apps)
            if a.depart_interval is not None and a.depart_interval <= index
        ]
        arriving = self.arrivals.pop(index, None)
        if not leaving and not arriving:
            return
        for i in reversed(leaving):
            app = apps.pop(i)
            del ctx.ooo_share[i]
            self._emit(ctx, app, "depart")
            if self.on_retire is not None:
                self.on_retire(app, ctx)
        for app in arriving or ():
            app.arrived_interval = index
            apps.append(app)
            ctx.ooo_share.append(0)
            self._emit(ctx, app, "arrive")
        # Per-interval context lists must track the new population for
        # the phases running after this one in the same interval.
        n = len(apps)
        ctx.mig_cost = [0.0] * n
        ctx.outcomes = [None] * n
        ctx.backend.repopulate(ctx)
