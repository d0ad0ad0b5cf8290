"""The Experiment registry: one uniform API over all 21 drivers.

Each driver module keeps its pure ``run(**kwargs) -> dict`` and a
``print_table(result)`` renderer; an :class:`Experiment` wraps the pair
with a name, a human title, the paper figure it reproduces, and the
one place the ``--quick`` knob is mapped to driver-specific sizes
(:data:`QUICK_OVERRIDES`).  All drivers accept the same
:class:`ExperimentParams`, which also carries the sweep-runner knobs
(``jobs``, ``cache``, ``trace``); parameters a driver does not
understand are simply not forwarded.  Keyword overrides go straight to
the driver: ``EXPERIMENTS[name].run(n_mixes=4)``.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Any

from repro.config import CacheConfig
from repro.runner import SweepRunner
from repro.telemetry import JSONLSink, Telemetry

#: The single source of truth for what ``--quick`` means per driver:
#: the keyword overrides applied to ``run()`` when ``params.quick``.
#: Drivers no longer hard-code their own ``3 if quick else 8``.
QUICK_OVERRIDES: dict[str, dict[str, Any]] = {
    "table1": {"instructions": 10_000},
    "fig1": {"instructions": 10_000},
    "fig2": {"instructions": 12_000},
    "fig3": {},
    "fig5": {"intervals": 200},
    "fig6": {},
    "fig7": {"n_mixes": 3},
    "fig8": {"n_mixes": 3},
    "fig9": {"instructions": 10_000, "n_mixes": 2},
    "fig10": {"intervals": 200},
    "fig11": {"mixes_per_category": 2},
    "fig12": {},
    "fig13": {"n_mixes": 2},
    "fig14": {"n_mixes": 2},
    "fig15": {"n_mixes": 4},
    "headline": {"n_mixes": 4, "n_seeds": 2},
    "software-arbiter": {"n_mixes": 2},
    "multithreaded": {"n_threads": 4},
    "tier-validation": {"n_slices": 10},
    "backend-matrix": {"intervals": 16, "slice_instructions": 4_000,
                       "max_intervals": 200, "energy_instructions": 4_000},
    "scenario": {"n_apps": 10, "duration": 120, "n_clusters": 2,
                 "capacity": 6},
}


@dataclass
class ExperimentParams:
    """Uniform knobs accepted by every experiment.

    Attributes:
        quick: smaller workloads for a fast smoke run; the per-driver
            mapping lives in :data:`QUICK_OVERRIDES`.
        n_mixes: cap on simulated mixes per configuration, where the
            driver sweeps mixes (ignored elsewhere).
        seed: mix-selection seed, where the driver takes one.
        jobs: worker processes for sweep drivers; 1 = serial.
        cache: a :class:`~repro.config.CacheConfig` selecting the
            result cache (the CLI builds one); ``None`` runs without
            the result cache.
        trace: JSONL file the run's telemetry trace is appended to;
            runner-based drivers trace through the sweep runner,
            telemetry-aware drivers get a :class:`Telemetry` hub with
            a :class:`JSONLSink` attached.
    """

    quick: bool = False
    n_mixes: int | None = None
    seed: int | None = None
    jobs: int = 1
    cache: CacheConfig | None = None
    trace: str | Path | None = None

    def make_runner(self, experiment: str) -> SweepRunner:
        """A SweepRunner wired to these params' jobs/cache/trace."""
        cache = (self.cache.result_cache() if self.cache is not None
                 else None)
        return SweepRunner(jobs=self.jobs, cache=cache,
                           experiment=experiment, trace=self.trace)


class Experiment:
    """One paper table/figure: metadata plus run/print entry points."""

    def __init__(self, name: str, title: str, figure: str,
                 module: ModuleType):
        self.name = name
        self.title = title
        self.figure = figure
        self.module = module
        self.quick_overrides = dict(QUICK_OVERRIDES.get(name, {}))
        #: The runner built for the most recent :meth:`run`, for
        #: callers that want its cache/timing stats (the CLI does).
        self.last_runner: SweepRunner | None = None

    def __repr__(self) -> str:
        return f"Experiment({self.name!r}, {self.figure!r})"

    @property
    def accepts(self) -> frozenset[str]:
        """Keyword names the driver's ``run()`` understands."""
        return frozenset(
            inspect.signature(self.module.run).parameters)

    # ------------------------------------------------------------------
    def run(self, params: ExperimentParams | None = None, /,
            **overrides) -> dict:
        """Run the driver under *params*; *overrides* go straight to
        the module's ``run()`` (the historical calling convention)."""
        params = ExperimentParams() if params is None else params
        quick = params.quick
        if "quick" not in self.accepts:
            quick = bool(overrides.pop("quick", quick))
        kwargs: dict[str, Any] = {}
        if quick:
            kwargs.update(self.quick_overrides)
        if params.n_mixes is not None and "n_mixes" in self.accepts:
            kwargs["n_mixes"] = params.n_mixes
        if params.seed is not None and "seed" in self.accepts:
            kwargs["seed"] = params.seed
        if "runner" in self.accepts and "runner" not in overrides:
            self.last_runner = params.make_runner(self.name)
            kwargs["runner"] = self.last_runner
        else:
            self.last_runner = None
        trace_telemetry: Telemetry | None = None
        if (params.trace is not None and "telemetry" in self.accepts
                and "telemetry" not in overrides):
            # Non-runner drivers stream their events straight to the
            # trace file; runner-based drivers already trace through
            # the sweep runner above.
            trace_telemetry = Telemetry(
                sinks=[JSONLSink(params.trace, mode="a")])
            kwargs["telemetry"] = trace_telemetry
        kwargs.update(overrides)
        try:
            return self.module.run(**kwargs)
        finally:
            if trace_telemetry is not None:
                trace_telemetry.close()

    def print_table(self, result: dict) -> None:
        """Render *result* the way the figure is shown in the paper."""
        self.module.print_table(result)
