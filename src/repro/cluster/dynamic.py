"""Running scenarios on clusters: the dynamic engine assembly.

:class:`DynamicCluster` is the scenario-world sibling of
:class:`~repro.cmp.system.CMPSystem`: the same interval engine, the
same four standard phases and the same analytic backend, with a
:class:`~repro.engine.lifecycle.LifecyclePhase` in front (admitting
and retiring applications on the scenario's schedule) and a small
series phase behind (recording the per-interval population and
throughput the spike metrics need).  For a *static* scenario the
lifecycle phase never fires and the run flows through the
byte-identical fixed-population path — including the
:func:`~repro.cmp.system.fold_result` fold into a classic
:class:`~repro.cmp.system.CMPResult`.

Multi-cluster runs go through :func:`run_scenario_unit`, a
module-level JSON-pure function: the scenario experiment and the
direct API :func:`run_scenario` both map one call unit per cluster
over the :class:`~repro.runner.executor.SweepRunner`, so serial,
``--jobs N`` and cached runs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.scheduler import Placement, place_scenario
from repro.cmp.config import ClusterConfig, SIM_SCALE
from repro.cmp.migration import MigrationCostModel
from repro.cmp.system import CMPResult, fold_result
from repro.energy.model import CoreEnergyModel
from repro.engine import (
    AnalyticBackend,
    ArbitrationPhase,
    EnergyPhase,
    EngineContext,
    EnginePhase,
    ExecutionPhase,
    IntervalEngine,
    LifecyclePhase,
    MigrationPhase,
)
from repro.engine.state import AppState
from repro.metrics import (
    fairness_index,
    sla_attainment,
    spike_throughput,
    tail_summary,
)
from repro.telemetry import Telemetry
from repro.workloads.scenario import Scenario

#: Fallback horizon for duration=0 (run-to-completion) scenarios.
DEFAULT_MAX_INTERVALS = 50_000

#: The dotted path of :func:`run_scenario_unit`, as call units name it.
UNIT_TARGET = "repro.cluster.dynamic:run_scenario_unit"


class SeriesPhase(EnginePhase):
    """Records the per-interval population and throughput series.

    Pure observation (runs last in the pipeline, mutates nothing the
    other phases read), so its presence cannot perturb the simulated
    outcome; the spike-throughput metrics read the two series it
    accumulates.
    """

    name = "series"

    def __init__(self) -> None:
        self.population: list[int] = []
        self.throughput: list[float] = []

    def run(self, ctx: EngineContext) -> None:
        """Append this interval's resident count and summed IPC."""
        self.population.append(len(ctx.apps))
        self.throughput.append(
            sum(o.ipc for o in ctx.outcomes if o is not None))


@dataclass(slots=True)
class AppRunSummary:
    """One application's scenario outcome (JSON-pure via asdict)."""

    uid: str
    benchmark: str
    arrived: int                #: admission interval
    departed: int               #: retirement interval (or run end)
    retired: bool               #: False = still resident at run end
    residency: int              #: intervals resident
    completions: int            #: instruction-budget completions
    ooo_intervals: int          #: intervals granted a producer OoO
    first_ooo_latency: int | None   #: arrival -> first grant, intervals
    progress: float             #: achieved IPC / alone-on-OoO IPC
    energy_pj: float


@dataclass(slots=True)
class ClusterScenarioResult:
    """Outcome of one cluster simulating one (sub-)scenario."""

    label: str
    scenario: str
    intervals: int
    apps: list[AppRunSummary]
    population: list[int]       #: per-interval resident count
    throughput: list[float]     #: per-interval summed IPC
    migrations: int
    arrivals: int
    departures: int
    #: The classic fixed-population fold; only set for static
    #: scenarios, where it is byte-identical to CMPSystem.run().
    cmp: CMPResult | None = field(default=None)

    def to_dict(self) -> dict:
        """JSON-pure encoding (drops the static-only ``cmp`` fold)."""
        return {
            "label": self.label,
            "scenario": self.scenario,
            "intervals": self.intervals,
            "apps": [vars_summary(a) for a in self.apps],
            "population": self.population,
            "throughput": self.throughput,
            "migrations": self.migrations,
            "arrivals": self.arrivals,
            "departures": self.departures,
        }


def vars_summary(summary: AppRunSummary) -> dict:
    """Field dict of a slots dataclass (asdict needs __dict__)."""
    return {name: getattr(summary, name)
            for name in AppRunSummary.__slots__}


class DynamicCluster:
    """One Mirage cluster serving one scenario's schedule.

    Builds the standard pipeline with a
    :class:`~repro.engine.lifecycle.LifecyclePhase` first and a
    :class:`SeriesPhase` last; applications are admitted/retired on
    the scenario's schedule and summarized into
    :class:`AppRunSummary` rows at retirement (or at run end for
    still-resident tenants).
    """

    def __init__(self, config: ClusterConfig, scenario: Scenario, *,
                 arbitrator, energy_model: CoreEnergyModel | None = None,
                 telemetry: Telemetry | None = None, label: str = ""):
        peak = scenario.peak_population()
        if (config.n_producers > 0
                and config.n_consumers + config.n_producers < peak):
            raise ValueError(
                f"{config.name} has "
                f"{config.n_consumers + config.n_producers} cores for "
                f"a peak population of {peak}")
        if config.n_producers > 0 and arbitrator is None:
            raise ValueError("a producer cluster needs an arbitrator")
        # Imported here (not at module top): repro.runner.units imports
        # the cmp stack; the lazy import keeps repro.cluster usable
        # without triggering the runner's registry at import time.
        from repro.runner.units import app_model

        self.config = config
        self.scenario = scenario
        self.arbitrator = arbitrator
        self.label = label or config.name
        self.telemetry = telemetry or Telemetry()
        self.migration = MigrationCostModel(config)
        self.backend = AnalyticBackend(self.migration)
        self.summaries: list[AppRunSummary] = []
        initial: list[AppState] = []
        pending: dict[int, list[AppState]] = {}
        for a in scenario.arrivals:
            state = AppState(
                model=app_model(a.benchmark), uid=a.uid,
                arrived_interval=a.arrive, depart_interval=a.depart)
            if a.arrive == 0:
                initial.append(state)
            else:
                pending.setdefault(a.arrive, []).append(state)
        self.apps = initial
        self.lifecycle = LifecyclePhase(
            pending, announce=list(initial),
            on_retire=self._retire, cluster=self.label)
        self.series = SeriesPhase()
        self.phases = [
            self.lifecycle,
            ArbitrationPhase(arbitrator),
            MigrationPhase(),
            ExecutionPhase(),
            EnergyPhase(energy_model or CoreEnergyModel()),
            self.series,
        ]
        self.engine = IntervalEngine(
            config, self.apps, self.phases, backend=self.backend,
            telemetry=self.telemetry)

    # ------------------------------------------------------------------
    def _summarize(self, app: AppState, departed: int,
                   retired: bool) -> AppRunSummary:
        residency = max(0, departed - app.arrived_interval)
        cycles = residency * self.config.scale.interval_cycles
        alone = max(1e-9, app.model.mean_ipc_ooo)
        progress = (min(1.0, (app.instr_done / cycles) / alone)
                    if cycles > 0 else 0.0)
        latency = (None if app.first_ooo_interval is None
                   else app.first_ooo_interval - app.arrived_interval)
        return AppRunSummary(
            uid=app.display_name,
            benchmark=app.model.name,
            arrived=app.arrived_interval,
            departed=departed,
            retired=retired,
            residency=residency,
            completions=app.completions,
            ooo_intervals=app.ooo_intervals,
            first_ooo_latency=latency,
            progress=progress,
            energy_pj=app.energy_pj,
        )

    def _retire(self, app: AppState, ctx: EngineContext) -> None:
        self.summaries.append(self._summarize(app, ctx.index, True))

    # ------------------------------------------------------------------
    def run(self, *, max_intervals: int | None = None
            ) -> ClusterScenarioResult:
        """Simulate the scenario's horizon; returns the summary.

        Static scenarios run to completion (the classic early-out)
        and additionally carry the byte-identical
        :class:`~repro.cmp.system.CMPResult` fold in ``result.cmp``.
        """
        scenario = self.scenario
        static = scenario.is_static
        horizon = max_intervals
        if horizon is None:
            horizon = scenario.duration or DEFAULT_MAX_INTERVALS
        ctx = self.engine.run(max_intervals=horizon,
                              stop_when_complete=static)
        cmp_fold = None
        if static:
            cmp_fold = fold_result(
                config=self.config,
                arbitrator_name=(self.arbitrator.name
                                 if self.arbitrator else "none"),
                ctx=ctx, apps=self.apps, migration=self.migration,
                history=[],
            )
        # Residents at run end are summarized in admission order so
        # the row order is deterministic.
        for app in self.apps:
            self.summaries.append(
                self._summarize(app, ctx.intervals, False))
        counters = self.telemetry.counters
        result = ClusterScenarioResult(
            label=self.label,
            scenario=scenario.name,
            intervals=ctx.intervals,
            apps=list(self.summaries),
            population=list(self.series.population),
            throughput=list(self.series.throughput),
            migrations=self.migration.total_migrations,
            arrivals=int(counters.get("lifecycle.arrivals", 0)),
            departures=int(counters.get("lifecycle.departures", 0)),
            cmp=cmp_fold,
        )
        self.telemetry.summarize_run(
            config=self.config.name,
            arbitrator=(self.arbitrator.name if self.arbitrator
                        else "none"),
            intervals=ctx.intervals,
            total_cycles=ctx.intervals * ctx.interval,
        )
        return result


# ----------------------------------------------------------------------
# Module-level entry points (picklable, JSON-pure)
# ----------------------------------------------------------------------
def run_cluster_scenario(scenario: Scenario, *, label: str = "",
                         n_consumers: int | None = None,
                         n_producers: int = 1,
                         arbitrator: str = "SC-MPKI",
                         telemetry: Telemetry | None = None
                         ) -> ClusterScenarioResult:
    """Build and run one :class:`DynamicCluster` from plain data.

    *arbitrator* is a registry name
    (:data:`repro.runner.units.ARBITRATORS`); *n_consumers* defaults
    to the scenario's peak population, so any valid schedule fits.
    """
    from repro.runner.units import ARBITRATORS, TRADITIONAL

    peak = max(1, scenario.peak_population())
    config = ClusterConfig(
        n_consumers=peak if n_consumers is None else n_consumers,
        n_producers=n_producers,
        mirage=arbitrator not in TRADITIONAL,
        scale=SIM_SCALE,
    )
    cluster = DynamicCluster(
        config, scenario, arbitrator=ARBITRATORS[arbitrator](),
        telemetry=telemetry, label=label or f"{config.name}[{scenario.name}]")
    return cluster.run()


def run_scenario_unit(spec: dict) -> dict:
    """JSON-pure unit entry point for the sweep runner and the pool.

    *spec* keys: ``scenario`` (a
    :meth:`~repro.workloads.scenario.Scenario.to_dict` encoding),
    plus optional ``label`` / ``n_consumers`` / ``n_producers`` /
    ``arbitrator``.  Returns
    :meth:`ClusterScenarioResult.to_dict` — pure data, so cached,
    serial and pooled executions are indistinguishable.
    """
    scenario = Scenario.from_dict(spec["scenario"])
    result = run_cluster_scenario(
        scenario,
        label=spec.get("label", ""),
        n_consumers=spec.get("n_consumers"),
        n_producers=spec.get("n_producers", 1),
        arbitrator=spec.get("arbitrator", "SC-MPKI"),
    )
    return result.to_dict()


def cluster_specs(placement: Placement, *, capacity: int,
                  arbitrator: str = "SC-MPKI") -> list[dict]:
    """One :func:`run_scenario_unit` spec per placed cluster."""
    return [
        {
            "label": sub.name,
            "scenario": sub.to_dict(),
            "n_consumers": capacity,
            "n_producers": 1,
            "arbitrator": arbitrator,
        }
        for sub in placement.clusters
    ]


def summarize_scenario(cluster_results: list[dict],
                       rejected: int, queued: list[int], *,
                       sla_target: float = 0.5) -> dict:
    """Fold per-cluster result dicts into the scenario metrics row.

    Pure arithmetic over JSON data in cluster order, so the summary
    is identical whether the cluster results came from a serial run,
    a worker pool, or the on-disk result cache.  Applications never
    granted a producer are counted at their full residency (a
    conservative, censored latency), reported as ``never_served``.
    """
    apps = [a for r in cluster_results for a in r["apps"]]
    latencies = []
    never_served = 0
    for a in apps:
        if a["first_ooo_latency"] is None:
            latencies.append(float(a["residency"]))
            never_served += 1
        else:
            latencies.append(float(a["first_ooo_latency"]))
    progresses = [a["progress"] for a in apps]
    horizon = max((len(r["population"]) for r in cluster_results),
                  default=0)
    population = [0] * horizon
    throughput = [0.0] * horizon
    for r in cluster_results:
        for t, p in enumerate(r["population"]):
            population[t] += p
        for t, ipc in enumerate(r["throughput"]):
            throughput[t] += ipc
    spike = spike_throughput(population, throughput)
    return {
        "apps": len(apps),
        "rejected": rejected,
        "never_served": never_served,
        "latency": tail_summary(latencies),
        "queue_delay": tail_summary([float(q) for q in queued]),
        "sla": sla_attainment(progresses, sla_target),
        "sla_target": sla_target,
        "fairness": fairness_index(progresses),
        "stp": (sum(progresses) / len(progresses)) if progresses else 0.0,
        "spike": spike,
        "migrations": sum(r["migrations"] for r in cluster_results),
        "peak_population": max(population, default=0),
    }


def run_scenario(scenario: Scenario, *, n_clusters: int,
                 capacity: int = 12, policy: str = "least-loaded",
                 arbitrator: str = "SC-MPKI",
                 jobs: int | None = None,
                 sla_target: float = 0.5) -> dict:
    """Place and simulate *scenario* across *n_clusters* clusters.

    The direct API: placement via
    :func:`~repro.cluster.scheduler.place_scenario`, one
    :func:`run_scenario_unit` call unit per sub-scenario mapped
    through an uncached :class:`~repro.runner.executor.SweepRunner`
    (``jobs=None`` serial), and the deterministic
    :func:`summarize_scenario` fold.  Returns a JSON-pure dict with
    ``placement`` / ``clusters`` / ``metrics``.
    """
    # Lazy, like app_model in DynamicCluster: importing repro.cluster
    # does not load the runner.
    from repro.runner import SweepRunner, call_unit

    placement = place_scenario(
        scenario, n_clusters=n_clusters, capacity=capacity,
        policy=policy)
    specs = cluster_specs(placement, capacity=capacity,
                          arbitrator=arbitrator)
    results = SweepRunner(jobs=jobs or 1).map(
        [call_unit(UNIT_TARGET, spec) for spec in specs])
    metrics = summarize_scenario(
        results, len(placement.rejected), placement.queued_delays,
        sla_target=sla_target)
    return {
        "scenario": scenario.name,
        "shape": scenario.shape,
        "policy": policy,
        "n_clusters": n_clusters,
        "capacity": capacity,
        "arbitrator": arbitrator,
        "clusters": results,
        "rejected": [a.to_row() for a in placement.rejected],
        "metrics": metrics,
    }
