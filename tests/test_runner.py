"""Tests for the sweep runner: units, cache, and executor.

The contract under test: serial, parallel, and cached execution all
yield bit-identical results; the cache is keyed by unit content, so
any change of unit parameters or package version misses while equal
units share one entry (and one execution) whichever experiment maps
them.
"""

import json

import pytest

from repro.experiments import EXPERIMENTS, ExperimentParams
from repro.experiments import fig7_throughput
from repro.runner import (
    MISS,
    ResultCache,
    SweepRunner,
    call_unit,
    cmp_unit,
    execute_unit,
    homo_unit,
)
from repro.runner import units as units_mod
from repro.workloads import standard_mixes

MIX = standard_mixes(4)[0]


class TestUnits:
    def test_cmp_unit_matches_run_mix(self):
        from repro.experiments.common import run_mix

        assert execute_unit(cmp_unit(MIX, "SC-MPKI")) == run_mix(
            MIX, "SC-MPKI")

    def test_homo_unit_matches_homo_baselines(self):
        from repro.experiments.common import homo_baselines

        ooo, ino = homo_baselines(MIX)
        assert execute_unit(homo_unit(MIX, "ooo")) == ooo
        assert execute_unit(homo_unit(MIX, "ino")) == ino

    def test_call_unit_normalises_json(self):
        unit = call_unit("builtins:sorted", [3, 1, 2])
        assert execute_unit(unit) == [1, 2, 3]

    def test_units_are_hashable_and_picklable(self):
        import pickle

        unit = cmp_unit(MIX, "maxSTP")
        assert pickle.loads(pickle.dumps(unit)) == unit
        assert hash(unit) == hash(cmp_unit(MIX, "maxSTP"))


class TestCache:
    def test_cmp_result_round_trip_is_bit_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        unit = cmp_unit(MIX, "SC-MPKI")
        result = execute_unit(unit)
        cache.put(unit, result)
        assert cache.get(unit) == result

    def test_miss_on_empty_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(cmp_unit(MIX, "SC-MPKI")) is MISS

    def test_key_changes_with_params_and_version_not_experiment(
            self, tmp_path):
        base = ResultCache(tmp_path)
        unit = cmp_unit(MIX, "SC-MPKI")
        paths = {
            base.path_for(unit),
            base.path_for(cmp_unit(MIX, "maxSTP")),
            base.path_for(cmp_unit(MIX, "SC-MPKI", n_producers=2)),
            ResultCache(tmp_path, version="9.9.9").path_for(unit),
        }
        assert len(paths) == 4
        # Content-addressed: no experiment name enters the key, so an
        # equal unit built by any experiment lands on the same entry.
        assert "experiment" not in json.loads(base.key_material(unit))
        assert base.path_for(cmp_unit(MIX, "SC-MPKI")) == base.path_for(unit)
        digest = base.digest(unit)
        assert base.path_for(unit) == (
            tmp_path / f"v{base.version}" / digest[:2] / f"{digest}.json")

    def test_key_changes_with_backend_tag(self, tmp_path):
        # Results from a different engine/backend generation (e.g. the
        # pre-unification bespoke loops) can never be served back.
        from repro.engine.backends import ENGINE_CACHE_TAG

        base = ResultCache(tmp_path)
        assert base.backend == ENGINE_CACHE_TAG
        assert ENGINE_CACHE_TAG in base.key_material(
            cmp_unit(MIX, "SC-MPKI"))
        unit = cmp_unit(MIX, "SC-MPKI")
        other = ResultCache(tmp_path, backend="bespoke-loops-v0")
        assert base.path_for(unit) != other.path_for(unit)

    @pytest.mark.parametrize("text", [
        "not json {", "[1, 2]", "null", '"entry"', "42", "{}",
        '{"key": "someone else", "payload": {}}',
        '{"key": KEY}',
        '{"key": KEY, "payload": [1, 2]}',
        '{"key": KEY, "payload": {"type": "CMPResult", "value": [1]}}',
        '{"key": KEY, "payload": {"type": "CMPResult", "value": {}}}',
    ], ids=["garbage", "list", "null", "string", "number", "empty",
            "foreign-key", "no-payload", "payload-list",
            "payload-not-fields", "payload-missing-fields"])
    def test_corrupt_entry_is_a_miss(self, tmp_path, text):
        cache = ResultCache(tmp_path)
        unit = cmp_unit(MIX, "SC-MPKI")
        path = cache.path_for(unit)
        path.parent.mkdir(parents=True)
        path.write_text(text.replace(
            "KEY", json.dumps(cache.key_material(unit))))
        assert cache.get(unit) is MISS


class TestExecutor:
    def test_serial_and_parallel_fig7_identical(self):
        serial = fig7_throughput.run(n_values=(4,), n_mixes=2)
        parallel = fig7_throughput.run(
            n_values=(4,), n_mixes=2, runner=SweepRunner(jobs=2))
        assert serial == parallel

    def test_cache_hit_skips_execution(self, tmp_path, monkeypatch):
        def run_once():
            runner = SweepRunner(cache=ResultCache(tmp_path),
                                 experiment="fig7")
            return runner, fig7_throughput.run(
                n_values=(4,), n_mixes=2, runner=runner)

        _, cold = run_once()

        calls = {"n": 0}
        real = units_mod.timed_execute

        def counting(unit):
            calls["n"] += 1
            return real(unit)

        monkeypatch.setattr(units_mod, "timed_execute", counting)
        runner, warm = run_once()
        assert calls["n"] == 0
        assert warm == cold
        assert runner.stats.cache_hits == runner.stats.total_units > 0
        assert runner.stats.cache_misses == 0

    def test_cache_invalidated_when_params_change(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = SweepRunner(cache=cache, experiment="fig7")
        fig7_throughput.run(n_values=(4,), n_mixes=2, runner=runner)

        changed = SweepRunner(cache=cache, experiment="fig7")
        fig7_throughput.run(n_values=(4,), n_mixes=2, seed=1,
                            runner=changed)
        assert changed.stats.cache_misses == changed.stats.total_units

    def test_pickling_hostile_unit_falls_back_to_serial(self):
        class Local:  # unpicklable: defined inside a function body
            def __len__(self):
                return 3

        runner = SweepRunner(jobs=2)
        results = runner.map([
            call_unit("builtins:len", Local()),
            call_unit("builtins:len", Local()),
        ])
        assert results == [3, 3]
        assert runner.stats.mode == "serial"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_equal_units_execute_once(self, tmp_path, jobs):
        units = [call_unit("builtins:sorted", [3, 1, 2]),
                 call_unit("builtins:len", [1, 2]),
                 call_unit("builtins:sorted", [3, 1, 2]),
                 call_unit("builtins:max", [4, 9]),
                 call_unit("builtins:len", [1, 2])]
        runner = SweepRunner(jobs=jobs, cache=ResultCache(tmp_path))
        assert runner.map(units) == [[1, 2, 3], 2, [1, 2, 3], 9, 2]
        assert runner.stats.units_run == 3
        assert runner.stats.cache_misses == runner.stats.total_units == 5
        assert len(list(tmp_path.glob("v*/*/*.json"))) == 3
        # jobs=2 takes a pooled path (warm, or legacy when the warm
        # pool is switched off), where the repeats never reach a worker.
        assert (runner.stats.mode == "serial") == (jobs == 1)

    def test_fig8_reuses_fig7_entries(self, tmp_path, monkeypatch,
                                      capsys):
        from repro.experiments import fig8_energy

        sizes = dict(n_values=(4,), n_mixes=1)
        fig7_throughput.print_table(fig7_throughput.run(**sizes))
        fig8_energy.print_table(fig8_energy.run(**sizes))
        uncached = capsys.readouterr().out

        executed = []
        real = units_mod.timed_execute

        def recording(unit):
            executed.append(unit)
            return real(unit)

        monkeypatch.setattr(units_mod, "timed_execute", recording)
        cache = ResultCache(tmp_path)
        fig7 = fig7_throughput.run(
            **sizes, runner=SweepRunner(cache=cache, experiment="fig7"))
        fig7_units = len(executed)
        executed.clear()
        fig8 = fig8_energy.run(
            **sizes, runner=SweepRunner(cache=cache, experiment="fig8"))
        # fig8 adds one homogeneous-OoO baseline per mix; every other
        # unit is one fig7 already cached.
        assert fig7_units == 4
        assert [(u.kind, u.homo_kind) for u in executed] == [
            ("homo", "ooo")]
        fig7_throughput.print_table(fig7)
        fig8_energy.print_table(fig8)
        assert capsys.readouterr().out == uncached

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)


class TestExperimentAPI:
    def test_registry_objects_expose_uniform_api(self):
        for exp in EXPERIMENTS.values():
            assert exp.name and exp.title and exp.figure
            assert callable(exp.run)
            assert callable(exp.print_table)
            assert callable(exp.main)

    def test_quick_params_route_through_registry(self):
        exp = EXPERIMENTS["fig7"]
        result = exp.run(ExperimentParams(quick=True, n_mixes=2))
        assert len(result["rows"]) == 4
        # quick + explicit n_mixes: the explicit value wins.
        assert exp.last_runner is not None

    def test_back_compat_kwargs_still_accepted(self):
        result = EXPERIMENTS["fig7"].run(n_values=(4,), n_mixes=2)
        assert [r["n"] for r in result["rows"]] == [4]

    def test_quick_as_plain_kwarg(self):
        # ``run(quick=True)`` maps through QUICK_OVERRIDES even though
        # no driver takes a ``quick`` parameter any more.
        exp = EXPERIMENTS["fig12"]
        assert exp.run(quick=True) == exp.run(ExperimentParams(quick=True))

    def test_params_build_runner_with_cache(self, tmp_path):
        exp = EXPERIMENTS["fig12"]
        params = ExperimentParams(jobs=1, use_cache=True,
                                  cache_dir=tmp_path)
        first = exp.run(params)
        assert exp.last_runner.stats.cache_misses > 0
        second = exp.run(params)
        assert exp.last_runner.stats.cache_hits > 0
        assert exp.last_runner.stats.cache_misses == 0
        assert first == second
