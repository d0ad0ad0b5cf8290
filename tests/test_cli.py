"""Tests for the command-line entry point."""

import pytest

from repro.cli import main
from repro.config import CacheConfig
from repro.experiments import EXPERIMENTS, ExperimentParams


class TestCLI:
    def test_runs_single_experiment(self, capsys):
        assert main(["fig6"]) == 0
        out = capsys.readouterr().out
        assert "fig6" in out
        assert "Mirage" in out

    def test_quick_flag(self, capsys):
        assert main(["fig6", "--quick"]) == 0

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_all_experiments_are_dispatchable(self):
        # Registry names contain no characters argparse would reject.
        for name in EXPERIMENTS:
            assert " " not in name and name == name.lower()

    def test_export_flag(self, tmp_path, capsys):
        assert main(["fig6", "--export", str(tmp_path)]) == 0
        assert (tmp_path / "fig6.json").exists()

    def test_unknown_experiment_error_names_the_choices(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig99"])
        err = capsys.readouterr().err
        assert "fig7" in err and "mirage list" in err

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out
        assert "Figure 7" in out
        assert EXPERIMENTS["fig7"].title in out

    def test_list_flag(self, capsys):
        assert main(["--list"]) == 0
        assert "tier-validation" in capsys.readouterr().out

    def test_no_experiment_is_an_error(self):
        with pytest.raises(SystemExit):
            main([])

    def test_jobs_and_cache_flags(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        argv = ["fig12", "--jobs", "2", "--cache-dir", str(cache)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "[runner]" in cold
        assert any(cache.rglob("*.json"))
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "from cache" in warm
        # The tables (everything but the instrumentation) agree.
        strip = lambda s: [l for l in s.splitlines()
                           if not l.startswith(("[runner]", "---"))]
        assert strip(cold) == strip(warm)

    def test_no_cache_flag_writes_nothing(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["fig12", "--no-cache",
                     "--cache-dir", str(cache)]) == 0
        assert not cache.exists()

    def test_rejects_bad_jobs(self):
        with pytest.raises(SystemExit):
            main(["fig6", "--jobs", "0"])


class TestTraceOption:
    def test_fig5_trace_reproduces_history(self, tmp_path, capsys):
        # The acceptance bar for the telemetry layer: the JSONL trace's
        # interval records must equal the Figure 5 history, float for
        # float, after the JSON round trip.
        from repro.experiments.common import make_system
        from repro.telemetry import read_trace
        from repro.workloads import WorkloadMix

        trace_file = tmp_path / "fig5.jsonl"
        assert main(["fig5", "--quick", "--no-cache",
                     "--trace", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert f"-> {trace_file}" in out

        events = read_trace(trace_file)
        kinds = {e.kind for e in events}
        assert {"interval", "arbitration", "migration", "energy",
                "run"} <= kinds

        mix = WorkloadMix(
            name="fig5", category="Random",
            benchmarks=("bzip2", "gamess", "namd", "libquantum"))
        system = make_system(mix, "SC-MPKI", record_history=True)
        system.run(max_intervals=200)  # fig5's --quick interval count
        assert [e for e in events if e.kind == "interval"] \
            == system.history

    def test_trace_file_truncated_per_invocation(self, tmp_path, capsys):
        trace_file = tmp_path / "trace.jsonl"
        assert main(["fig5", "--quick", "--no-cache",
                     "--trace", str(trace_file)]) == 0
        first = trace_file.read_bytes()
        assert main(["fig5", "--quick", "--no-cache",
                     "--trace", str(trace_file)]) == 0
        assert trace_file.read_bytes() == first
        capsys.readouterr()

    def test_runner_trace_identical_serial_cached_parallel(self, tmp_path):
        # Same table, same trace bytes, whether the units were executed
        # serially, replayed from cache, or fanned out over processes.
        def run_headline(jobs, cache_dir, trace_file):
            params = ExperimentParams(
                quick=True, n_mixes=2, jobs=jobs,
                cache=CacheConfig(cache_dir=cache_dir), trace=trace_file)
            return EXPERIMENTS["headline"].run(params)

        cache = tmp_path / "cache"
        traces = [tmp_path / f"t{i}.jsonl" for i in range(3)]
        cold = run_headline(1, cache, traces[0])
        warm = run_headline(1, cache, traces[1])
        stats = EXPERIMENTS["headline"].last_runner.stats
        assert stats.cache_hits == stats.total_units > 0
        parallel = run_headline(2, tmp_path / "cache2", traces[2])
        assert cold == warm == parallel
        assert (traces[0].read_bytes() == traces[1].read_bytes()
                == traces[2].read_bytes())
        assert traces[0].stat().st_size > 0


class TestTraceCommand:
    @pytest.fixture()
    def trace_file(self, tmp_path, capsys):
        path = tmp_path / "fig5.jsonl"
        main(["fig5", "--quick", "--no-cache", "--trace", str(path)])
        capsys.readouterr()
        return path

    def test_summary_and_table(self, trace_file, capsys):
        assert main(["trace", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "records" in out and "interval" in out
        assert "4:1-Mirage under SC-MPKI" in out
        assert "bzip2" in out

    def test_app_filter_and_limit(self, trace_file, capsys):
        assert main(["trace", str(trace_file),
                     "--app", "namd", "--limit", "3"]) == 0
        out = capsys.readouterr().out
        assert "for namd" in out
        table_rows = [line for line in out.splitlines()
                      if line.split()[:2][-1:] == ["namd"]
                      and line.split()[0].isdigit()]
        assert len(table_rows) == 3
        assert "bzip2" not in out

    def test_migration_summary_line(self, trace_file, capsys):
        assert main(["trace", str(trace_file)]) == 0
        out = capsys.readouterr().out
        summary = [line for line in out.splitlines()
                   if line.startswith("migrations per app:")]
        assert len(summary) == 1
        # Every app that migrated appears as name=count.
        assert "=" in summary[0]

    def test_kind_filter_migration(self, trace_file, capsys):
        assert main(["trace", str(trace_file),
                     "--kind", "migration"]) == 0
        out = capsys.readouterr().out
        assert "migration records" in out
        assert "sc_bytes" in out and "charged" in out
        # The default interval table and run section are suppressed.
        assert "interval records" not in out
        assert "\nrun:" not in out

    def test_kind_filter_arbitration_and_energy(self, trace_file,
                                                capsys):
        assert main(["trace", str(trace_file),
                     "--kind", "arbitration"]) == 0
        out = capsys.readouterr().out
        assert "arbitration records" in out and "chosen" in out
        assert main(["trace", str(trace_file),
                     "--kind", "energy"]) == 0
        out = capsys.readouterr().out
        assert "energy records" in out and "energy_pj" in out

    def test_kind_filter_composes_with_app(self, trace_file, capsys):
        assert main(["trace", str(trace_file), "--kind", "migration",
                     "--app", "bzip2"]) == 0
        out = capsys.readouterr().out
        assert "migration records for bzip2" in out
        assert "namd" not in out

    def test_kind_rejected_for_experiments(self):
        with pytest.raises(SystemExit):
            main(["fig6", "--kind", "migration"])

    def test_missing_file_fails(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope.jsonl")]) == 1
        assert "no such file" in capsys.readouterr().err

    #: How each damaged trace is made, and what its error must say.
    DAMAGE = {
        "truncated": (None, "(char "),
        "unknown-kind": (b'{"kind": "bogus"}\n',
                         "unknown telemetry record kind 'bogus'"),
        "missing-fields": (b'{"kind": "interval", "interval": 0}\n',
                           "missing"),
    }

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_damaged_file_fails_with_its_line(self, trace_file, capsys,
                                              damage):
        # An interrupted run leaves a cut-off last line; foreign and
        # incomplete records are damage too.  Each one is a one-line
        # error naming the file and line, never a traceback.
        extra, reason = self.DAMAGE[damage]
        data = trace_file.read_bytes()
        data = data[:-40] if extra is None else data + extra
        trace_file.write_bytes(data)
        last_line = data.rstrip(b"\n").count(b"\n") + 1
        assert main(["trace", str(trace_file)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"mirage trace: {trace_file}:{last_line}: ")
        assert reason in err
        assert "Traceback" not in err

    def test_trace_needs_a_path(self):
        with pytest.raises(SystemExit):
            main(["trace"])

    def test_path_rejected_for_experiments(self, trace_file):
        with pytest.raises(SystemExit):
            main(["fig6", str(trace_file)])
