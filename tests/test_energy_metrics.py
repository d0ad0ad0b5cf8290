"""Unit tests for the energy/area model and scheduling metrics."""

import pytest

from repro.cores.base import EnergyEvents
from repro.energy import CoreEnergyModel, cmp_area, core_area
from repro.energy.model import AREA_UNITS
from repro.metrics import (
    delta_sc_mpki,
    fairness_index,
    speedup,
    system_throughput,
    util_share,
)


class TestEnergyModel:
    def test_breakdown_sums(self):
        em = CoreEnergyModel()
        events = EnergyEvents({"fetch": 100, "int_alu": 50})
        bd = em.breakdown("ino", events, cycles=100)
        assert bd.dynamic_total_pj == pytest.approx(
            100 * em.dynamic_pj["fetch"] + 50 * em.dynamic_pj["int_alu"])
        assert bd.leakage_pj == pytest.approx(100 * em.leakage["ino"])
        assert bd.total_pj == bd.dynamic_total_pj + bd.leakage_pj

    def test_unknown_structure_raises(self):
        em = CoreEnergyModel()
        events = EnergyEvents({"mystery": 1})
        with pytest.raises(KeyError):
            em.breakdown("ino", events, 10)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            CoreEnergyModel().breakdown("gpu", EnergyEvents(), 10)

    def test_oino_leaks_more_than_ino(self):
        em = CoreEnergyModel()
        e = EnergyEvents()
        ino = em.breakdown("ino", e, 1000)
        oino = em.breakdown("oino", e, 1000)
        assert oino.leakage_pj > ino.leakage_pj
        # SC leakage is ~10 % of InO leakage (paper claims ~10 %).
        assert (oino.leakage_pj - ino.leakage_pj) / ino.leakage_pj < 0.5

    def test_merged_breakdowns(self):
        em = CoreEnergyModel()
        e1 = EnergyEvents({"fetch": 10})
        e2 = EnergyEvents({"fetch": 5, "decode": 5})
        merged = em.breakdown("ino", e1, 10).merged(
            em.breakdown("ino", e2, 10))
        assert merged.dynamic_pj["fetch"] == pytest.approx(
            15 * em.dynamic_pj["fetch"])

    def test_interval_power_ordering(self):
        """At equal IPC: OoO burns most, OinO between, InO least."""
        em = CoreEnergyModel()
        p_ooo = em.interval_power("ooo", 1.0)
        p_oino = em.interval_power("oino", 1.0)
        p_ino = em.interval_power("ino", 1.0)
        assert p_ooo > p_oino > p_ino

    def test_paper_power_ratio_ino_vs_ooo(self):
        """InO ~1/5 of OoO power at the respective typical IPCs."""
        em = CoreEnergyModel()
        p_ooo = em.interval_power("ooo", 1.4)
        p_ino = em.interval_power("ino", 0.75)
        assert 3.5 < p_ooo / p_ino < 7.5

    def test_power_zero_cycles(self):
        em = CoreEnergyModel()
        bd = em.breakdown("ino", EnergyEvents(), 0)
        assert bd.power_pw_per_cycle(0) == 0.0


class TestArea:
    def test_relative_core_areas(self):
        assert core_area("ino") == 1.0
        assert core_area("ino") < core_area("oino") < core_area("ooo")
        # Paper: InO is less than half the OoO's area.
        assert core_area("ino") / core_area("ooo") < 0.5

    def test_mirage_8_1_is_about_74_percent(self):
        mirage = cmp_area(8, 1, mirage=True)
        homo = 8 * AREA_UNITS["ooo"]
        assert mirage / homo == pytest.approx(0.74, abs=0.02)

    def test_traditional_4_1_adds_55_percent_over_homo_ino(self):
        trad = cmp_area(4, 1, mirage=False)
        homo_ino = 4 * AREA_UNITS["ino"]
        assert trad / homo_ino == pytest.approx(1.55, abs=0.03)

    def test_oino_mode_adds_about_23_percent(self):
        mirage = cmp_area(4, 1, mirage=True)
        trad = cmp_area(4, 1, mirage=False)
        assert mirage / trad == pytest.approx(1.23, abs=0.03)


class TestMetrics:
    def test_speedup_basic(self):
        assert speedup(0.5, 1.0) == 0.5
        assert speedup(1.0, 0.0) == 1.0   # guarded division

    def test_stp_is_mean(self):
        assert system_throughput([1.0, 0.5]) == 0.75
        assert system_throughput([]) == 0.0

    def test_delta_sc_mpki_equation(self):
        assert delta_sc_mpki(20.0, 10.0) == pytest.approx(1.0)
        assert delta_sc_mpki(10.0, 10.0) == pytest.approx(0.0)

    def test_delta_sc_mpki_floor_guard(self):
        # Highly memoizable phase: producer MPKI near zero.
        assert delta_sc_mpki(5.0, 0.0, floor=0.1) == pytest.approx(50.0)

    def test_util_share_counts_memoized_time(self):
        # Eq 3: memoized InO time counts toward the OoO share.
        plain = util_share(10.0, 0.0, 0.9, 100.0)
        memoized = util_share(10.0, 50.0, 0.9, 100.0)
        assert memoized > plain
        assert memoized == pytest.approx((10 + 45) / 100)

    def test_util_share_zero_time(self):
        assert util_share(1.0, 1.0, 1.0, 0.0) == 0.0

    def test_fairness_index_bounds(self):
        assert fairness_index([0.25] * 4) == pytest.approx(1.0)
        skewed = fairness_index([1.0, 0.0, 0.0, 0.0])
        assert skewed == pytest.approx(0.25)
        assert fairness_index([]) == 1.0
        assert fairness_index([0.0, 0.0]) == 1.0
