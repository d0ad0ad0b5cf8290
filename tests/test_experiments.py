"""Tests for the experiment drivers: structure and paper shapes.

These run the same ``run()`` functions as the benchmark harness, at
reduced sizes, and check the qualitative claims each figure makes.
"""

import pytest

from repro.experiments import (
    EXPERIMENTS,
    fig1_core_characteristics,
    fig2_memoization,
    fig3_interval_tradeoff,
    fig5_bzip2_timeline,
    fig6_area,
    fig7_throughput,
    fig8_energy,
    fig10_case_study,
    fig12_fair_share,
    fig14_area_neutral,
    fig15_migration,
    headline,
    table1,
)
from repro.runner import ResultCache, SweepRunner

pytestmark = pytest.mark.filterwarnings("ignore")

QUICK_BENCHES = ("hmmer", "mcf", "astar", "bzip2", "gcc", "libquantum")


class TestRegistry:
    def test_all_experiments_registered(self):
        # 16 paper tables/figures + 5 extension/validation drivers.
        assert len(EXPERIMENTS) == 21
        for exp in EXPERIMENTS.values():
            assert hasattr(exp, "run")
            assert hasattr(exp, "print_table")

    def test_quick_mapping_is_centralised(self):
        from repro.experiments.registry import QUICK_OVERRIDES

        assert set(QUICK_OVERRIDES) == set(EXPERIMENTS)
        for name, overrides in QUICK_OVERRIDES.items():
            unknown = set(overrides) - EXPERIMENTS[name].accepts
            assert not unknown, (name, unknown)


class TestTable1:
    def test_two_band_structure(self):
        result = table1.run(instructions=8_000, benchmarks=QUICK_BENCHES)
        assert 0.0 < result["boundary"] < 1.0
        assert result["agreement"] >= 0.5

    def test_rows_have_categories(self):
        result = table1.run(instructions=5_000,
                            benchmarks=("hmmer", "astar"))
        cats = {r["benchmark"]: r for r in result["rows"]}
        assert cats["hmmer"]["ratio"] < cats["astar"]["ratio"]


    def test_fig1_after_table1_executes_nothing(self, tmp_path):
        # Table 1 maps Figure 1's units: with one result cache, the
        # second of the two runs no core simulation.
        cache = ResultCache(tmp_path)
        benches = QUICK_BENCHES[:3]
        table = table1.run(instructions=2_000, benchmarks=benches,
                           runner=SweepRunner(cache=cache))
        runner = SweepRunner(cache=cache)
        result = fig1_core_characteristics.run(
            instructions=2_000, benchmarks=benches, runner=runner)
        assert (runner.stats.units_run, runner.stats.cache_hits) == (0, 3)
        assert ([r["ratio"] for r in table["rows"]]
                == [r["performance"] for r in result["benchmarks"]])


class TestFig1:
    def test_ino_is_cheaper_and_slower(self):
        result = fig1_core_characteristics.run(
            instructions=8_000, benchmarks=QUICK_BENCHES)
        overall = result["groups"]["overall"]
        assert overall["performance"] < 1.0
        assert overall["power"] < 0.5       # paper: ~1/5
        assert overall["energy"] < 1.0      # ~3x efficient
        assert overall["area"] < 0.5

    def test_hpd_slower_than_lpd_on_ino(self):
        result = fig1_core_characteristics.run(
            instructions=8_000, benchmarks=QUICK_BENCHES)
        assert (result["groups"]["HPD"]["performance"]
                < result["groups"]["LPD"]["performance"])


class TestFig2:
    def test_memoization_helps(self):
        result = fig2_memoization.run(instructions=15_000,
                                      benchmarks=QUICK_BENCHES)
        overall = result["groups"]["overall"]
        assert overall["perf_with_memoization"] > overall["perf_plain_ino"]
        assert 0.1 < overall["memoized_fraction"] <= 1.0

    def test_hpd_memoizes_more(self):
        result = fig2_memoization.run(instructions=15_000,
                                      benchmarks=QUICK_BENCHES)
        assert (result["groups"]["HPD"]["memoized_fraction"]
                > result["groups"]["LPD"]["memoized_fraction"])


class TestFig3:
    def test_migration_overhead_falls_with_interval(self):
        result = fig3_interval_tradeoff.run()
        perfs = [r["perf_vs_no_switching"] for r in result["rows"]]
        assert perfs == sorted(perfs)
        assert perfs[0] < 0.9          # >10 % loss at 1k cycles
        assert perfs[-1] > 0.99        # negligible at 10M

    def test_memoizability_falls_with_interval(self):
        result = fig3_interval_tradeoff.run()
        memo = [r["memoizable_fraction"] for r in result["rows"]]
        assert memo == sorted(memo, reverse=True)

    def test_chosen_interval_is_balanced(self):
        result = fig3_interval_tradeoff.run()
        at_choice = next(
            r for r in result["rows"]
            if r["interval_cycles"] == result["chosen_interval"])
        assert at_choice["perf_vs_no_switching"] > 0.98
        assert at_choice["memoizable_fraction"] > 0.4


class TestFig5:
    def test_timeline_has_spikes_aligned_with_phases(self):
        result = fig5_bzip2_timeline.run(intervals=300)
        assert result["n_phase_changes"] > 0
        assert result["n_spikes"] > 0
        alignment = fig5_bzip2_timeline.spikes_align_with_phase_changes(
            result)
        assert alignment > 0.5


class TestFig6:
    def test_paper_area_shape(self):
        rows = fig6_area.run()["rows"]
        by_n = {r["n"]: r for r in rows}
        assert by_n[8]["mirage"] == pytest.approx(0.74, abs=0.02)
        for r in rows:
            assert r["homo_ino"] < r["traditional"] < r["mirage"] < 1.0


class TestFig7AndFig8:
    def test_throughput_ordering(self):
        result = fig7_throughput.run(n_values=(8,), n_mixes=3)
        stp = result["rows"][0]["stp"]
        assert stp["Homo-InO"] < stp["maxSTP"] < stp["SC-MPKI"] <= 1.0

    def test_gains_taper_with_n(self):
        result = fig7_throughput.run(n_values=(4, 16), n_mixes=2)
        gain = {
            r["n"]: r["stp"]["SC-MPKI"] - r["stp"]["Homo-InO"]
            for r in result["rows"]
        }
        assert gain[16] < gain[4] + 0.05

    def test_energy_below_homo_ooo(self):
        result = fig8_energy.run(n_values=(8,), n_mixes=3)
        energy = result["rows"][0]["energy"]
        assert energy["SC-MPKI"] < 0.7
        assert energy["Homo-InO"] < energy["SC-MPKI"]


class TestFig10:
    def test_case_study_story(self):
        result = fig10_case_study.run(intervals=300)
        scmpki = result["SC-MPKI"]["apps"]
        maxstp = result["maxSTP"]["apps"]
        # astar gets little OoO time under both schedulers.
        assert scmpki["astar"]["ooo_fraction"] < 0.15
        # SC-MPKI serves hmmer mostly via memoization...
        assert (scmpki["hmmer"]["ooo_fraction"]
                < maxstp["hmmer"]["ooo_fraction"])
        # ...while hmmer still performs better than under maxSTP.
        assert (scmpki["hmmer"]["mean_speedup"]
                > maxstp["hmmer"]["mean_speedup"])
        # And the OoO is free to power down much more often.
        assert result["SC-MPKI"]["ooo_active"] < \
            result["maxSTP"]["ooo_active"]


class TestFig12:
    def test_fairness_ordering(self):
        result = fig12_fair_share.run()
        arbs = result["arbitrators"]
        assert arbs["Fair"]["fairness_index"] == pytest.approx(1.0,
                                                               abs=0.02)
        assert (arbs["maxSTP"]["fairness_index"]
                < arbs["SC-MPKI-fair"]["fairness_index"])

    def test_sc_mpki_fair_caps_at_share(self):
        result = fig12_fair_share.run()
        fair = result["arbitrators"]["SC-MPKI-fair"]
        assert fair["max_share"] <= 1 / 8 + 0.12


class TestFig14:
    def test_mirage_beats_area_neutral_traditional(self):
        result = fig14_area_neutral.run(n_mixes=2)
        assert result["mirage_8_1"]["stp"] > result["trad_5_3"]["stp"]
        assert result["mirage_8_1"]["energy"] < result["trad_5_3"]["energy"]
        assert result["mirage_8_1"]["area"] == pytest.approx(
            result["trad_5_3"]["area"], abs=0.12)


class TestFig15:
    def test_transfer_overhead_tiny(self):
        result = fig15_migration.run(n_mixes=4)
        assert result["overall_transfer_frac"] < 0.01  # paper: 0.15 %


class TestHeadline:
    def test_abstract_numbers(self):
        r = headline.run(n_mixes=4)
        assert 0.70 <= r["performance_vs_homo_ooo"] <= 0.95
        assert r["gain_vs_traditional"] > 0.05
        assert 0.30 <= r["energy_vs_homo_ooo"] <= 0.60
        assert r["area_vs_homo_ooo"] == pytest.approx(0.74, abs=0.02)

    def test_ooo_saturates_by_12(self):
        r = headline.run(n_mixes=3)
        util = r["ooo_utilization_by_n"]
        assert util[12] > 0.9 or util[16] > 0.9
