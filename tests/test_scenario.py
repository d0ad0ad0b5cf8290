"""Tests for the scenario layer: schedules, lifecycle, metrics.

Covers the Scenario model (shapes, determinism, the degenerate
WorkloadMix embedding), the LifecyclePhase engine contract (mid-run
admission/retirement, byte-identity of event-free runs), and the
scenario-level metrics helpers.
"""

import json

import pytest

from repro.cmp.config import ClusterConfig
from repro.cmp.system import CMPSystem
from repro.engine import (
    AnalyticBackend,
    ArbitrationPhase,
    EnergyPhase,
    ExecutionPhase,
    IntervalEngine,
    LifecyclePhase,
    MigrationPhase,
)
from repro.engine.state import AppState
from repro.metrics import (
    percentile,
    sla_attainment,
    spike_throughput,
    tail_summary,
)
from repro.runner.units import ARBITRATORS, app_model
from repro.telemetry import MemorySink, Telemetry
from repro.workloads import standard_mixes
from repro.workloads.scenario import (
    AppArrival,
    Scenario,
    SHAPES,
    make_scenario,
)


class TestScenarioModel:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_shapes_build_and_are_seed_deterministic(self, shape):
        a = make_scenario(shape, n_apps=12, duration=200, seed=5)
        b = make_scenario(shape, n_apps=12, duration=200, seed=5)
        assert a.to_dict() == b.to_dict()
        assert len(a.arrivals) == 12
        assert not a.is_static
        assert all(0 <= arr.arrive < 200 for arr in a.arrivals)

    def test_different_seeds_differ(self):
        a = make_scenario("bursty", n_apps=16, duration=300, seed=1)
        b = make_scenario("bursty", n_apps=16, duration=300, seed=2)
        assert a.to_dict() != b.to_dict()

    def test_round_trips_through_dict(self):
        scenario = make_scenario("diurnal", n_apps=6, duration=100, seed=9)
        clone = Scenario.from_dict(
            json.loads(json.dumps(scenario.to_dict())))
        assert clone == scenario

    def test_degenerate_from_mix_is_static(self):
        mix = standard_mixes(4, seed=2017)[0]
        scenario = mix.as_scenario()
        assert scenario.is_static
        assert scenario.duration == 0
        assert scenario.benchmarks == tuple(mix)
        assert all(a.arrive == 0 and a.depart is None
                   for a in scenario.arrivals)

    def test_population_counts_residents(self):
        scenario = Scenario(
            name="s", shape="steady", duration=10,
            arrivals=(
                AppArrival(uid="a", benchmark="bzip2", arrive=0, depart=5),
                AppArrival(uid="b", benchmark="mcf", arrive=3),
            ))
        assert scenario.population(0) == 1
        assert scenario.population(4) == 2
        # depart=5 means NOT resident at interval 5.
        assert scenario.population(5) == 1
        assert scenario.peak_population() == 2

    def test_duplicate_uids_rejected(self):
        with pytest.raises(ValueError, match="uid"):
            Scenario(
                name="s", shape="steady", duration=10,
                arrivals=(
                    AppArrival(uid="a", benchmark="bzip2", arrive=0),
                    AppArrival(uid="a", benchmark="mcf", arrive=1),
                ))

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            make_scenario("chaotic", n_apps=4, duration=100)

    def test_queued_property_measures_delay(self):
        arrival = AppArrival(uid="a", benchmark="mcf", arrive=7,
                             requested=3)
        assert arrival.queued == 4


def _pipeline(arbitrator, lifecycle):
    from repro.energy.model import CoreEnergyModel

    return [
        lifecycle,
        ArbitrationPhase(arbitrator),
        MigrationPhase(),
        ExecutionPhase(),
        EnergyPhase(CoreEnergyModel()),
    ]


class TestLifecyclePhase:
    def _engine(self, names, pending, *, n_consumers=8, announce=None,
                telemetry=None, on_retire=None):
        config = ClusterConfig(n_consumers=n_consumers)
        apps = [AppState(model=app_model(n), uid=f"{n}@init")
                for n in names]
        lifecycle = LifecyclePhase(
            pending, announce=announce if announce is not None else apps,
            on_retire=on_retire)
        engine = IntervalEngine(
            config, apps, _pipeline(ARBITRATORS["SC-MPKI"](), lifecycle),
            telemetry=telemetry)
        return engine, apps

    def test_mid_run_admission_grows_population(self):
        newcomer = AppState(model=app_model("mcf"), uid="mcf@late")
        engine, apps = self._engine(
            ["bzip2", "gromacs"], {5: [newcomer]})
        ctx = engine.run(max_intervals=10, stop_when_complete=False)
        assert len(apps) == 3
        assert newcomer.arrived_interval == 5
        assert len(ctx.ooo_share) == 3
        assert newcomer.t_total > 0  # it actually executed

    def test_departure_shrinks_population_and_calls_hook(self):
        retired = []
        engine, apps = self._engine(
            ["bzip2", "gromacs"], {},
            on_retire=lambda app, ctx: retired.append(
                (app.display_name, ctx.index)))
        apps[0].depart_interval = 4
        engine.run(max_intervals=10, stop_when_complete=False)
        assert [a.display_name for a in apps] == ["gromacs@init"]
        assert retired == [("bzip2@init", 4)]

    def test_departure_frees_slot_for_same_interval_arrival(self):
        newcomer = AppState(model=app_model("mcf"), uid="mcf@swap")
        engine, apps = self._engine(
            ["bzip2", "gromacs"], {4: [newcomer]}, n_consumers=2)
        apps[0].depart_interval = 4
        engine.run(max_intervals=8, stop_when_complete=False)
        assert [a.display_name for a in apps] == [
            "gromacs@init", "mcf@swap"]

    def test_emits_typed_lifecycle_records(self):
        telemetry = Telemetry()
        sink = telemetry.attach(MemorySink(kinds={"lifecycle"}))
        newcomer = AppState(model=app_model("mcf"), uid="mcf@late")
        engine, apps = self._engine(
            ["bzip2"], {3: [newcomer]}, telemetry=telemetry)
        apps[0].depart_interval = 6
        engine.run(max_intervals=10, stop_when_complete=False)
        events = [(e.event, e.app, e.interval) for e in sink.events]
        assert events == [
            ("arrive", "bzip2@init", 0),
            ("arrive", "mcf@late", 3),
            ("depart", "bzip2@init", 6),
        ]
        depart = sink.events[-1]
        assert depart.residency_intervals == 6
        assert telemetry.counters["lifecycle.arrivals"] == 2
        assert telemetry.counters["lifecycle.departures"] == 1

    def test_event_free_run_matches_plain_pipeline_bitwise(self):
        # A LifecyclePhase with an empty schedule must not perturb the
        # simulation at all: same apps, same results, bit for bit.
        mix = standard_mixes(6, seed=2017)[3]
        config = ClusterConfig(n_consumers=6)

        def run(with_lifecycle):
            apps = [AppState(model=app_model(n)) for n in mix]
            phases = _pipeline(ARBITRATORS["SC-MPKI"](),
                               LifecyclePhase({}, announce=[]))
            if not with_lifecycle:
                phases = phases[1:]
            engine = IntervalEngine(config, apps, phases)
            ctx = engine.run(max_intervals=400)
            return [(a.instr_done, a.completions, a.energy_pj,
                     a.ooo_intervals, a.sc_coverage) for a in apps]

        assert run(True) == run(False)

    def test_backend_repopulates_after_membership_change(self):
        # Admitting mid-run must rebuild the fused kernel's per-app
        # aux tables for the new population without corrupting state.
        from repro.cmp.migration import MigrationCostModel
        from repro.engine.backends import _model_aux

        names = [m for m in standard_mixes(12, seed=2017)[0]]
        config = ClusterConfig(n_consumers=13)
        apps = [AppState(model=app_model(n), uid=f"{n}@{i}")
                for i, n in enumerate(names)]
        newcomer = AppState(model=app_model("mcf"), uid="mcf@late")
        lifecycle = LifecyclePhase({7: [newcomer]}, announce=[])
        backend = AnalyticBackend(MigrationCostModel(config))
        engine = IntervalEngine(
            config, apps, _pipeline(ARBITRATORS["SC-MPKI"](), lifecycle),
            backend=backend)
        engine.run(max_intervals=20, stop_when_complete=False)
        assert len(apps) == 13
        assert newcomer.t_total > 0
        assert all(a.t_total > 0 for a in apps)
        assert backend._aux == [
            _model_aux(a.model, config.sc_capacity_bytes) for a in apps]


class TestDegenerateScenario:
    def test_degenerate_scenario_reproduces_cmp_result_bitwise(self):
        from repro.cluster import run_cluster_scenario

        mix = standard_mixes(8, seed=2017)[5]
        result = run_cluster_scenario(mix.as_scenario(),
                                      arbitrator="SC-MPKI")
        base = CMPSystem(
            ClusterConfig(n_consumers=8),
            [app_model(b) for b in mix],
            ARBITRATORS["SC-MPKI"](),
        ).run()
        assert result.cmp is not None
        for field in ("config_name", "arbitrator_name", "intervals",
                      "total_cycles", "app_names", "speedups",
                      "energy_pj", "ooo_active_fraction",
                      "ooo_share_per_app", "migrations",
                      "migration_cost_cycles", "migration_frequency"):
            assert getattr(result.cmp, field) == getattr(base, field), field


class TestScenarioMetrics:
    def test_percentile_matches_numpy_linear(self):
        numpy = pytest.importorskip("numpy")
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        for q in (0, 25, 50, 90, 95, 99, 100):
            assert percentile(values, q) == pytest.approx(
                float(numpy.percentile(values, q)))

    def test_percentile_edge_cases(self):
        assert percentile([], 50) == 0.0
        assert percentile([7.0], 99) == 7.0
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_tail_summary_keys(self):
        summary = tail_summary([1.0, 2.0, 3.0])
        assert set(summary) == {"p50", "p95", "p99"}
        assert summary["p50"] == 2.0

    def test_sla_attainment(self):
        assert sla_attainment([0.9, 0.4, 0.6], 0.5) == pytest.approx(2 / 3)
        assert sla_attainment([], 0.5) == 1.0
        assert sla_attainment([0.5], 0.5) == 1.0  # target is inclusive

    def test_spike_throughput_regimes(self):
        population = [0, 1, 1, 1, 5, 5]
        throughput = [0.0, 2.0, 2.0, 2.0, 1.0, 1.0]
        out = spike_throughput(population, throughput, quantile=80.0)
        assert out["spike"] == pytest.approx(1.0)
        assert out["overall"] == pytest.approx(8.0 / 5.0)
        assert out["ratio"] == pytest.approx(1.0 / 1.6)

    def test_spike_throughput_empty_and_mismatch(self):
        assert spike_throughput([], []) == {
            "overall": 0.0, "spike": 0.0, "ratio": 1.0}
        with pytest.raises(ValueError):
            spike_throughput([1], [1.0, 2.0])
