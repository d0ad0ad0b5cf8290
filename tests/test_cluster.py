"""Tests for the cluster-of-clusters layer and the scenario experiment.

Placement policies and capacity-aware queueing, the dynamic cluster
runtime, bit-identity of serial vs parallel vs cached scenario sweeps,
and the registered ``scenario`` experiment with its CLI flags.
"""

import json

import pytest

from repro.cli import main
from repro.cluster import (
    POLICIES,
    DynamicCluster,
    Placement,
    benchmark_pressure,
    place_scenario,
    run_cluster_scenario,
    run_scenario,
    run_scenario_unit,
)
from repro.cluster.dynamic import cluster_specs, summarize_scenario
from repro.config import CacheConfig
from repro.experiments import EXPERIMENTS, ExperimentParams
from repro.workloads.scenario import AppArrival, Scenario, make_scenario


def _scenario(**overrides):
    kwargs = dict(n_apps=12, duration=200, seed=11)
    kwargs.update(overrides)
    return make_scenario("bursty", **kwargs)


class TestScheduler:
    def test_policies_registry(self):
        assert set(POLICIES) == {"round-robin", "least-loaded", "sc-mpki"}

    def test_placement_partitions_arrivals(self):
        scenario = _scenario()
        placement = place_scenario(scenario, n_clusters=3, capacity=8,
                                   policy="least-loaded")
        placed = [a.uid for sub in placement.clusters for a in sub.arrivals]
        assert sorted(placed) == sorted(a.uid for a in scenario.arrivals)
        assert placement.rejected == []

    def test_placement_is_deterministic(self):
        scenario = _scenario()
        for policy in POLICIES:
            a = place_scenario(scenario, n_clusters=3, capacity=8,
                               policy=policy)
            b = place_scenario(scenario, n_clusters=3, capacity=8,
                               policy=policy)
            assert [s.to_dict() for s in a.clusters] == [
                s.to_dict() for s in b.clusters]

    def test_capacity_is_respected_at_every_instant(self):
        scenario = _scenario(n_apps=20)
        placement = place_scenario(scenario, n_clusters=2, capacity=4,
                                   policy="least-loaded")
        for sub in placement.clusters:
            for t in range(scenario.duration):
                assert sub.population(t) <= 4

    def test_full_clusters_queue_arrivals_preserving_service(self):
        arrivals = tuple(
            AppArrival(uid=f"a{i}", benchmark="bzip2", arrive=0,
                       depart=10)
            for i in range(3)
        )
        scenario = Scenario(name="s", shape="steady", duration=40,
                            arrivals=arrivals)
        placement = place_scenario(scenario, n_clusters=1, capacity=2,
                                   policy="least-loaded")
        placed = sorted(placement.clusters[0].arrivals,
                        key=lambda a: a.arrive)
        assert [a.arrive for a in placed[:2]] == [0, 0]
        queued = placed[2]
        assert queued.arrive == 10       # first departure frees a slot
        assert queued.depart == 20       # service length preserved
        assert queued.queued == 10
        assert placement.queued_delays.count(10) == 1

    def test_arrivals_beyond_horizon_are_rejected(self):
        arrivals = tuple(
            AppArrival(uid=f"a{i}", benchmark="bzip2", arrive=0)
            for i in range(3)
        )
        scenario = Scenario(name="s", shape="steady", duration=20,
                            arrivals=arrivals)
        placement = place_scenario(scenario, n_clusters=1, capacity=2,
                                   policy="round-robin")
        assert [a.uid for a in placement.rejected] == ["a2"]

    def test_round_robin_cycles(self):
        arrivals = tuple(
            AppArrival(uid=f"a{i}", benchmark="bzip2", arrive=i)
            for i in range(4)
        )
        scenario = Scenario(name="s", shape="steady", duration=30,
                            arrivals=arrivals)
        placement = place_scenario(scenario, n_clusters=2, capacity=8,
                                   policy="round-robin")
        by_cluster = {
            sub.name.rsplit("/c", 1)[1]: [a.uid for a in sub.arrivals]
            for sub in placement.clusters
        }
        assert by_cluster == {"0": ["a0", "a2"], "1": ["a1", "a3"]}

    def test_sc_mpki_policy_balances_pressure(self):
        # Two HPD-heavy arrivals must not land on the same cluster
        # while an LPD one is the only other resident.
        hpd = "mcf"        # high OoO pressure
        lpd = "povray"     # low OoO pressure
        assert benchmark_pressure(hpd) > benchmark_pressure(lpd)
        arrivals = (
            AppArrival(uid="h0", benchmark=hpd, arrive=0),
            AppArrival(uid="l0", benchmark=lpd, arrive=1),
            AppArrival(uid="h1", benchmark=hpd, arrive=2),
        )
        scenario = Scenario(name="s", shape="steady", duration=30,
                            arrivals=arrivals)
        placement = place_scenario(scenario, n_clusters=2, capacity=8,
                                   policy="sc-mpki")
        homes = {
            a.uid: sub.name
            for sub in placement.clusters for a in sub.arrivals
        }
        assert homes["h0"] != homes["h1"]

    def test_invalid_arguments_rejected(self):
        scenario = _scenario()
        with pytest.raises(ValueError, match="n_clusters"):
            place_scenario(scenario, n_clusters=0, capacity=4,
                           policy="least-loaded")
        with pytest.raises(ValueError, match="capacity"):
            place_scenario(scenario, n_clusters=2, capacity=0,
                           policy="least-loaded")
        with pytest.raises(ValueError, match="policy"):
            place_scenario(scenario, n_clusters=2, capacity=4,
                           policy="random")


class TestDynamicCluster:
    def test_run_produces_per_app_summaries(self):
        scenario = _scenario(n_apps=8)
        result = run_cluster_scenario(scenario, arbitrator="SC-MPKI")
        assert result.intervals == scenario.duration
        assert len(result.apps) == 8
        assert result.arrivals == 8
        uids = {a.uid for a in result.apps}
        assert uids == {a.uid for a in scenario.arrivals}
        for app in result.apps:
            assert 0.0 <= app.progress <= 1.0
            assert app.residency >= 0
        assert len(result.population) == scenario.duration
        assert len(result.throughput) == scenario.duration

    def test_population_series_tracks_schedule(self):
        scenario = _scenario(n_apps=6)
        result = run_cluster_scenario(scenario, arbitrator="SC-MPKI")
        # The series phase runs after the lifecycle phase, so interval
        # k reports the population the schedule says is resident.
        for k in (0, scenario.duration // 2, scenario.duration - 1):
            assert result.population[k] == scenario.population(k)

    def test_rejects_overfull_scenario(self):
        scenario = _scenario(n_apps=8)
        with pytest.raises(ValueError, match="cores"):
            run_cluster_scenario(scenario, n_consumers=3,
                                 arbitrator="SC-MPKI")

    def test_unit_round_trip_is_json_pure(self):
        scenario = _scenario(n_apps=6)
        spec = {"scenario": scenario.to_dict(), "label": "c0",
                "n_consumers": 8}
        out = run_scenario_unit(spec)
        assert out == json.loads(json.dumps(out))
        assert out["label"] == "c0"

    def test_summarize_is_order_stable_pure_data(self):
        scenario = _scenario(n_apps=10)
        placement = place_scenario(scenario, n_clusters=2, capacity=6,
                                   policy="least-loaded")
        specs = cluster_specs(placement, capacity=6)
        results = [run_scenario_unit(s) for s in specs]
        a = summarize_scenario(results, 0, placement.queued_delays)
        b = summarize_scenario(
            json.loads(json.dumps(results)), 0,
            list(placement.queued_delays))
        assert a == b

    def test_run_scenario_serial_equals_jobs(self):
        scenario = _scenario(n_apps=12)
        serial = run_scenario(scenario, n_clusters=3, capacity=6,
                              policy="sc-mpki")
        pooled = run_scenario(scenario, n_clusters=3, capacity=6,
                              policy="sc-mpki", jobs=2)
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            pooled, sort_keys=True)


class TestScenarioExperiment:
    def test_registered(self):
        assert "scenario" in EXPERIMENTS
        exp = EXPERIMENTS["scenario"]
        assert "runner" in exp.accepts

    def test_quick_run_has_row_per_policy(self, capsys):
        exp = EXPERIMENTS["scenario"]
        result = exp.run(ExperimentParams(quick=True))
        assert [r["policy"] for r in result["rows"]] == list(POLICIES)
        for row in result["rows"]:
            assert set(row["latency"]) == {"p50", "p95", "p99"}
            assert 0.0 <= row["sla"] <= 1.0
            assert 0.0 <= row["fairness"] <= 1.0
        exp.print_table(result)
        out = capsys.readouterr().out
        assert "Scenario study" in out and "sc-mpki" in out

    def test_serial_parallel_cached_bit_identical(self, tmp_path):
        exp = EXPERIMENTS["scenario"]

        def run(jobs, cached):
            params = ExperimentParams(
                quick=True, jobs=jobs,
                cache=CacheConfig(cache_dir=tmp_path / "cache",
                                  use_result_cache=cached))
            return json.dumps(exp.run(params), sort_keys=True)

        serial = run(1, False)
        parallel = run(2, False)
        cold = run(1, True)          # populates the cache
        warm = run(1, True)          # served from the cache
        assert serial == parallel == cold == warm
        assert exp.last_runner.stats.cache_hits > 0


class TestScenarioCLI:
    def test_scenario_quick_smoke(self, capsys):
        assert main(["scenario", "--quick", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Scenario study" in out

    def test_scenario_flags(self, capsys):
        argv = ["scenario", "--quick", "--no-cache", "--shape",
                "diurnal", "--clusters", "2", "--policy", "sc-mpki"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "diurnal traffic" in out
        assert "round-robin" not in out

    def test_flags_rejected_for_other_experiments(self):
        with pytest.raises(SystemExit):
            main(["fig6", "--shape", "bursty"])
        with pytest.raises(SystemExit):
            main(["fig6", "--clusters", "2"])

    def test_bad_shape_and_policy_rejected(self):
        with pytest.raises(SystemExit):
            main(["scenario", "--shape", "chaotic"])
        with pytest.raises(SystemExit):
            main(["scenario", "--policy", "random"])

    def test_trace_kind_lifecycle(self, tmp_path, capsys):
        from repro.telemetry import JSONLSink, Telemetry

        trace = tmp_path / "lifecycle.jsonl"
        telemetry = Telemetry(sinks=[JSONLSink(trace, mode="w")])
        run_cluster_scenario(_scenario(n_apps=6),
                             telemetry=telemetry)
        telemetry.close()
        assert main(["trace", str(trace), "--kind", "lifecycle"]) == 0
        out = capsys.readouterr().out
        assert "lifecycle records" in out
        assert "per-app residency" in out
        assert "arrive" in out
