"""Tests for the repro.bench subsystem and the ``mirage bench`` CLI.

Covers registry discovery, report schema round-trips, the --compare
threshold logic in both directions, and — the property the hot-path
optimizations lean on — bit-determinism of every benchmark's counter
totals across invocations.
"""

import json

import pytest

from repro.bench import (
    BENCHMARKS,
    BenchContext,
    Benchmark,
    DEFAULT_THRESHOLD,
    SCHEMA,
    compare_reports,
    get,
    names,
    read_report,
    register,
    run_benchmarks,
    write_report,
)
from repro.bench.registry import TIERS
from repro.cli import main


def make_report(label, bests, *, extra=None):
    """A minimal schema-valid report with given best times."""
    report = {
        "schema": SCHEMA,
        "label": label,
        "version": "0.0.0",
        "git_rev": None,
        "created": "2026-01-01T00:00:00",
        "machine": {},
        "repeats": 1,
        "warmup": 0,
        "quick": True,
        "benchmarks": {
            name: {
                "tier": "detailed",
                "description": name,
                "wall_seconds": [best],
                "best": best,
                "mean": best,
                "phases": {},
                "counters": {},
            }
            for name, best in bests.items()
        },
    }
    if extra:
        report.update(extra)
    return report


class TestRegistry:
    def test_standard_probes_are_registered(self):
        expected = {"detailed-slice", "oino-replay", "interval-engine",
                    "memory-hierarchy", "runner-cache"}
        assert expected <= set(BENCHMARKS)

    def test_every_benchmark_has_valid_tier_and_description(self):
        for bench in BENCHMARKS.values():
            assert bench.tier in TIERS, bench.name
            assert len(bench.description) > 10, bench.name

    def test_detailed_tier_has_multiple_probes(self):
        detailed = [b for b in BENCHMARKS.values() if b.tier == "detailed"]
        assert len(detailed) >= 2

    def test_names_matches_registry_order(self):
        assert names() == list(BENCHMARKS)

    def test_get_unknown_name_raises_with_roster(self):
        with pytest.raises(KeyError, match="detailed-slice"):
            get("no-such-benchmark")

    def test_register_rejects_bad_tier_and_duplicates(self):
        with pytest.raises(ValueError, match="tier"):
            register("x", tier="bogus", description="d")(lambda ctx: None)
        with pytest.raises(ValueError, match="duplicate"):
            register("detailed-slice", tier="detailed",
                     description="d")(lambda ctx: None)

    def test_context_size_switches_on_quick(self):
        assert BenchContext(quick=False).size(100, 10) == 100
        assert BenchContext(quick=True).size(100, 10) == 10

    def test_benchmark_run_invokes_fn(self):
        seen = []
        bench = Benchmark(name="t", tier="infra", description="d",
                          fn=seen.append)
        ctx = BenchContext()
        bench.run(ctx)
        assert seen == [ctx]


class TestHarness:
    def test_report_schema_round_trip(self, tmp_path):
        report = run_benchmarks(["memory-hierarchy"], repeats=2, warmup=0,
                                quick=True, label="t")
        path = write_report(report, tmp_path / "BENCH_t.json")
        back = read_report(path)
        assert back == json.loads(json.dumps(report))
        assert back["schema"] == SCHEMA
        assert back["label"] == "t"
        entry = back["benchmarks"]["memory-hierarchy"]
        assert len(entry["wall_seconds"]) == 2
        assert entry["best"] == min(entry["wall_seconds"])
        assert entry["tier"] == "detailed"
        assert entry["counters"]["mem.accesses"] == 30_000
        assert "accesses" in entry["phases"]

    def test_read_report_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "something/else"}))
        with pytest.raises(ValueError, match="schema"):
            read_report(path)

    def test_run_benchmarks_rejects_zero_repeats(self):
        with pytest.raises(ValueError, match="repeats"):
            run_benchmarks(["memory-hierarchy"], repeats=0)

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_counter_totals_are_deterministic(self, name):
        """Fixed seeds: two fresh invocations must agree bit-for-bit.

        Every counter counts: no probe may share state with an earlier
        invocation, so a second run that reuses the first's work fails
        here.
        """
        first = BenchContext(quick=True)
        second = BenchContext(quick=True)
        BENCHMARKS[name].run(first)
        BENCHMARKS[name].run(second)
        assert first.telemetry.counters == second.telemetry.counters
        assert first.telemetry.counters, name


class TestCompare:
    def test_flags_regression_beyond_threshold(self):
        old = make_report("old", {"a": 1.0, "b": 1.0})
        new = make_report("new", {"a": 1.25, "b": 1.05})
        comparison = compare_reports(old, new, threshold=0.20)
        assert [d.name for d in comparison.regressions] == ["a"]
        assert not comparison.ok
        assert "REGRESSED" in comparison.summary()

    def test_flags_improvement_beyond_threshold(self):
        old = make_report("old", {"a": 1.0, "b": 1.0})
        new = make_report("new", {"a": 0.5, "b": 0.95})
        comparison = compare_reports(old, new, threshold=0.20)
        assert [d.name for d in comparison.improvements] == ["a"]
        assert comparison.ok

    def test_within_threshold_is_ok_both_ways(self):
        old = make_report("old", {"a": 1.0})
        for best in (1.19, 0.85):
            comparison = compare_reports(
                old, make_report("new", {"a": best}), threshold=0.20)
            assert comparison.ok
            assert not comparison.improvements

    def test_threshold_boundary_is_exclusive(self):
        old = make_report("old", {"a": 1.0})
        at = compare_reports(old, make_report("n", {"a": 1.20}),
                             threshold=0.20)
        assert at.ok  # exactly at the threshold is tolerated
        over = compare_reports(old, make_report("n", {"a": 1.2001}),
                               threshold=0.20)
        assert not over.ok

    def test_disjoint_benchmarks_are_reported_not_dropped(self):
        old = make_report("old", {"a": 1.0, "gone": 1.0})
        new = make_report("new", {"a": 1.0, "fresh": 1.0})
        comparison = compare_reports(old, new)
        assert comparison.only_old == ["gone"]
        assert comparison.only_new == ["fresh"]
        assert "gone" in comparison.summary()

    def test_summary_sorts_worst_regression_first(self):
        # Report order is registration order; the summary table must
        # lead with the biggest slowdown so CI logs surface it.
        old = make_report("old", {"a": 1.0, "b": 1.0, "c": 1.0})
        new = make_report("new", {"a": 1.1, "b": 2.0, "c": 0.5})
        summary = compare_reports(old, new).summary()
        rows = [line.split()[0] for line in summary.splitlines()
                if line.split() and line.split()[0] in ("a", "b", "c")]
        assert rows == ["b", "a", "c"]

    def test_speedup_and_ratio_are_reciprocal(self):
        old = make_report("old", {"a": 2.0})
        new = make_report("new", {"a": 1.0})
        delta = compare_reports(old, new).deltas[0]
        assert delta.speedup == pytest.approx(2.0)
        assert delta.ratio == pytest.approx(0.5)

    def test_quick_and_full_size_reports_do_not_compare(self):
        # A --quick run did less work per probe than a full-size one,
        # so its times say nothing about a full-size baseline.
        quick = make_report("ci", {"a": 0.1})
        full = make_report("baseline", {"a": 1.0},
                           extra={"quick": False})
        with pytest.raises(ValueError, match="quick"):
            compare_reports(full, quick)
        with pytest.raises(ValueError, match="quick"):
            compare_reports(quick, full)
        assert compare_reports(full, full).ok

    def test_counter_total_mismatch_fails_even_warn_only(self, tmp_path,
                                                         capsys):
        # Counter totals are deterministic: a differing, missing or new
        # total is a behaviour change, so --warn-only (which relaxes
        # the timing gate) must not let it through.
        old = make_report("old", {"a": 1.0, "b": 1.0})
        new = make_report("new", {"a": 1.0, "b": 1.0})
        old["benchmarks"]["a"]["counters"] = {"x": 1, "y": 2, "gone": 3}
        new["benchmarks"]["a"]["counters"] = {"x": 1, "y": 5, "fresh": 4}
        comparison = compare_reports(old, new)
        assert comparison.ok  # the timings are equal
        assert [(m.probe, m.counter, m.old, m.new)
                for m in comparison.counter_mismatches] == [
            ("a", "y", 2, 5), ("a", "gone", 3, None),
            ("a", "fresh", None, 4)]
        summary = comparison.summary()
        assert "a: COUNTER MISMATCH y 2 -> 5" in summary
        assert "3 counter totals differ" in summary
        old_path = write_report(old, tmp_path / "old.json")
        new_path = write_report(new, tmp_path / "new.json")
        for extra in ([], ["--warn-only"]):
            assert main(["bench", "--compare", str(old_path),
                         str(new_path), *extra]) == 1
        assert main(["bench", "--compare", str(old_path), str(old_path),
                     "--warn-only"]) == 0
        assert not compare_reports(old, old).counter_mismatches
        capsys.readouterr()

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            compare_reports(make_report("o", {}), make_report("n", {}),
                            threshold=-0.1)

    def test_default_threshold_is_twenty_percent(self):
        assert DEFAULT_THRESHOLD == 0.20


def make_sampled_report(label, samples_by_name):
    """A schema-valid report with explicit wall samples per benchmark."""
    report = make_report(label, {})
    report["benchmarks"] = {
        name: {
            "tier": "detailed",
            "description": name,
            "wall_seconds": list(samples),
            "best": min(samples),
            "mean": sum(samples) / len(samples),
            "phases": {},
            "counters": {},
        }
        for name, samples in samples_by_name.items()
    }
    return report


class TestNoiseAwareCompare:
    def test_noisy_shift_within_sigma_is_not_a_regression(self):
        # Means differ by 30% (over the 20% threshold) but the samples
        # are so scattered the shift is within the 2-sigma noise floor.
        old = make_sampled_report("old", {"a": [0.6, 1.0, 1.4]})
        new = make_sampled_report("new", {"a": [0.9, 1.3, 1.7]})
        comparison = compare_reports(old, new, threshold=0.20)
        delta = comparison.deltas[0]
        assert delta.ratio > 1.20
        assert delta.noise_floor > delta.new_mean - delta.old_mean
        assert comparison.ok

    def test_consistent_shift_beyond_sigma_is_a_regression(self):
        old = make_sampled_report("old", {"a": [1.00, 1.01, 0.99]})
        new = make_sampled_report("new", {"a": [1.30, 1.31, 1.29]})
        comparison = compare_reports(old, new, threshold=0.20)
        assert not comparison.ok
        assert comparison.deltas[0].regressed

    def test_improvement_also_gated_by_noise(self):
        old = make_sampled_report("old", {"a": [0.7, 1.0, 1.3]})
        new = make_sampled_report("new", {"a": [0.5, 0.8, 1.1]})
        comparison = compare_reports(old, new, threshold=0.20)
        assert not comparison.improvements
        steady = compare_reports(
            make_sampled_report("old", {"a": [1.00, 1.01, 0.99]}),
            make_sampled_report("new", {"a": [0.70, 0.71, 0.69]}),
            threshold=0.20)
        assert steady.improvements

    def test_single_sample_degenerates_to_pure_threshold(self):
        # repeats=1 reports carry one sample: std is zero, so the
        # verdict is the historical mean-ratio threshold.
        old = make_report("old", {"a": 1.0})
        new = make_report("new", {"a": 1.25})
        comparison = compare_reports(old, new, threshold=0.20)
        assert comparison.deltas[0].noise_floor == 0.0
        assert not comparison.ok

    def test_pre_noise_reports_without_samples_still_compare(self):
        old = make_report("old", {"a": 1.0})
        del old["benchmarks"]["a"]["wall_seconds"]
        new = make_report("new", {"a": 1.5})
        comparison = compare_reports(old, new, threshold=0.20)
        assert comparison.deltas[0].old_mean == 1.0
        assert not comparison.ok

    def test_summary_shows_mean_and_spread(self):
        old = make_sampled_report("old", {"a": [1.0, 1.2]})
        new = make_sampled_report("new", {"a": [1.0, 1.2]})
        summary = compare_reports(old, new).summary()
        assert "±" in summary and "x 1.00" in summary


class TestWelchGate:
    def test_ten_percent_regression_is_significant(self):
        # The acceptance case: a tight, consistent 10% slowdown is
        # below the 20% fail threshold but must be *flagged* as a
        # statistically significant shift.
        old = make_sampled_report(
            "old", {"a": [1.000, 1.002, 0.998, 1.001, 0.999]})
        new = make_sampled_report(
            "new", {"a": [1.100, 1.102, 1.098, 1.101, 1.099]})
        comparison = compare_reports(old, new, threshold=0.20)
        delta = comparison.deltas[0]
        assert delta.p_value < 0.05
        assert delta.significant
        assert not delta.regressed  # sub-threshold: warn, don't fail
        assert comparison.ok
        assert comparison.significant_shifts
        assert "significant" in comparison.summary()

    def test_resampled_identical_runs_stay_silent(self):
        # Two draws from the same distribution: the gate must not
        # manufacture significance out of noise.
        old = make_sampled_report("old", {"a": [1.00, 1.04, 0.96]})
        new = make_sampled_report("new", {"a": [1.02, 0.98, 1.01]})
        comparison = compare_reports(old, new, threshold=0.20)
        delta = comparison.deltas[0]
        assert delta.p_value >= 0.05
        assert not delta.significant
        assert not comparison.significant_shifts
        assert comparison.ok

    def test_significant_regression_beyond_threshold_fails(self):
        old = make_sampled_report("old", {"a": [1.00, 1.01, 0.99]})
        new = make_sampled_report("new", {"a": [1.30, 1.31, 1.29]})
        comparison = compare_reports(old, new, threshold=0.20)
        assert comparison.deltas[0].significant
        assert comparison.deltas[0].regressed
        assert not comparison.ok

    def test_single_sample_keeps_threshold_semantics(self):
        # One sample carries no spread, so Welch degenerates: any
        # mean shift is treated as significant and the historical
        # pure-threshold verdict is preserved.
        regression = compare_reports(
            make_report("old", {"a": 1.0}),
            make_report("new", {"a": 1.5}), threshold=0.20)
        assert regression.deltas[0].significant
        assert not regression.ok
        identical = compare_reports(
            make_report("old", {"a": 1.0}),
            make_report("new", {"a": 1.0}), threshold=0.20)
        assert not identical.deltas[0].significant
        assert identical.ok

    def test_p_value_matches_known_table(self):
        from repro.bench.compare import t_two_sided_p

        # t=2.0 at df=10 -> p=0.0734 (standard t-table value).
        assert t_two_sided_p(2.0, 10.0) == pytest.approx(
            0.0734, abs=2e-4)
        assert t_two_sided_p(0.0, 10.0) == pytest.approx(1.0)


class TestCLI:
    def test_bench_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        for name in BENCHMARKS:
            assert name in out

    def test_bench_run_writes_report(self, tmp_path, capsys):
        out_path = tmp_path / "BENCH_ci.json"
        code = main(["bench", "memory-hierarchy", "--quick",
                     "--repeat", "1", "--warmup", "0",
                     "--label", "ci", "--output", str(out_path)])
        assert code == 0
        report = read_report(out_path)
        assert set(report["benchmarks"]) == {"memory-hierarchy"}
        assert report["quick"] is True
        assert "report ->" in capsys.readouterr().out

    def test_bench_unknown_name_errors(self):
        with pytest.raises(SystemExit):
            main(["bench", "definitely-not-registered"])

    def test_compare_exit_codes_both_ways(self, tmp_path, capsys):
        old = write_report(make_report("old", {"a": 1.0}),
                           tmp_path / "old.json")
        slow = write_report(make_report("slow", {"a": 2.0}),
                            tmp_path / "slow.json")
        fast = write_report(make_report("fast", {"a": 0.5}),
                            tmp_path / "fast.json")
        assert main(["bench", "--compare", str(old), str(slow)]) == 1
        assert main(["bench", "--compare", str(old), str(fast)]) == 0
        assert main(["bench", "--compare", str(old), str(slow),
                     "--warn-only"]) == 0
        # A generous threshold tolerates the 2x slowdown.
        assert main(["bench", "--compare", str(old), str(slow),
                     "--threshold", "1.5"]) == 0
        capsys.readouterr()

    def test_compare_unreadable_report_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "nope"}))
        good = write_report(make_report("g", {"a": 1.0}),
                            tmp_path / "good.json")
        assert main(["bench", "--compare", str(bad), str(good)]) == 2
        assert "mirage bench:" in capsys.readouterr().err
