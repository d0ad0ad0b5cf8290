"""Unit and integration tests for the interval-level CMP simulator."""

import tracemalloc

import pytest

from repro.arbiter import (
    FairArbitrator,
    MaxSTPArbitrator,
    SCMPKIArbitrator,
    SCMPKIFairArbitrator,
)
from repro.characterize import analytic_model
from repro.cmp import ClusterConfig, PAPER_SCALE, SIM_SCALE
from repro.cmp.migration import MigrationCostModel
from repro.cmp.system import CMPSystem, run_homo

MIX8 = ["hmmer", "bzip2", "astar", "mcf", "gcc", "libquantum", "gobmk",
        "namd"]


def models(names=MIX8):
    return [analytic_model(n) for n in names]


def mirage_config(n=8, **kw):
    return ClusterConfig(n_consumers=n, n_producers=1, mirage=True, **kw)


class TestTimeScale:
    def test_scaling_preserves_ratios(self):
        scaled = PAPER_SCALE.scaled(1 / 50)
        ratio = (PAPER_SCALE.sc_transfer_cycles
                 / PAPER_SCALE.interval_cycles)
        assert scaled.sc_transfer_cycles / scaled.interval_cycles == \
            pytest.approx(ratio, rel=0.1)

    def test_sim_scale_interval(self):
        assert SIM_SCALE.interval_cycles == 20_000

    def test_scaling_never_hits_zero(self):
        tiny = PAPER_SCALE.scaled(1e-9)
        assert tiny.drain_cycles >= 1


class TestClusterConfig:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ClusterConfig(n_consumers=0, n_producers=0)

    def test_name(self):
        assert "Mirage" in mirage_config().name
        assert "HetCMP" in ClusterConfig(
            n_consumers=4, n_producers=1, mirage=False).name


class TestMigrationModel:
    def test_cost_components(self):
        model = MigrationCostModel(mirage_config())
        event = model.migrate("app", now_cycles=0, interval_index=0,
                              to_ooo=True, sc_bytes=8192)
        assert event.sc_transfer_cycles > 0
        assert event.l1_warmup_cycles == SIM_SCALE.l1_warmup_cycles
        assert event.total_cycles > event.l1_warmup_cycles

    def test_empty_sc_costs_no_transfer(self):
        model = MigrationCostModel(mirage_config())
        event = model.migrate("app", now_cycles=0, interval_index=0,
                              to_ooo=True, sc_bytes=0)
        assert event.sc_transfer_cycles == 0

    def test_traditional_has_no_sc_cost(self):
        cfg = ClusterConfig(n_consumers=4, n_producers=1, mirage=False)
        model = MigrationCostModel(cfg)
        event = model.migrate("app", now_cycles=0, interval_index=0,
                              to_ooo=True, sc_bytes=8192)
        assert event.sc_transfer_cycles == 0

    def test_partial_sc_scales_cost(self):
        model = MigrationCostModel(mirage_config())
        full = model.migrate("a", now_cycles=0, interval_index=0,
                             to_ooo=True, sc_bytes=8192)
        half = model.migrate("b", now_cycles=10**6, interval_index=1,
                             to_ooo=True, sc_bytes=4096)
        assert half.sc_transfer_cycles < full.sc_transfer_cycles

    def test_summary_aggregates(self):
        model = MigrationCostModel(mirage_config())
        for k in range(3):
            model.migrate("app", now_cycles=k * 10**6, interval_index=k,
                          to_ooo=bool(k % 2), sc_bytes=8192)
        summary = model.cost_summary()
        assert model.total_migrations == 3
        assert summary["l1_warmup"] == 3 * SIM_SCALE.l1_warmup_cycles

    def test_pricing_retains_no_per_move_state(self):
        # Sweeps price hundreds of thousands of moves: the model keeps
        # a count and running totals, so what it holds on to must not
        # grow with the number of moves priced.
        model = MigrationCostModel(mirage_config())
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for k in range(10_000):
                model.migrate("app", now_cycles=k * 1_000, interval_index=k,
                              to_ooo=bool(k % 2), sc_bytes=4096)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert model.total_migrations == 10_000
        assert retained < 4 * 1024


class TestCMPSystem:
    def test_requires_enough_cores(self):
        with pytest.raises(ValueError):
            CMPSystem(ClusterConfig(n_consumers=2, n_producers=1),
                      models(), SCMPKIArbitrator())

    def test_requires_arbitrator_with_producer(self):
        with pytest.raises(ValueError):
            CMPSystem(mirage_config(), models(), None)

    def test_run_completes_all_apps(self):
        system = CMPSystem(mirage_config(), models(), SCMPKIArbitrator())
        result = system.run()
        assert result.intervals > 0
        assert len(result.speedups) == 8
        assert all(0.0 < s <= 1.0 for s in result.speedups)

    def test_determinism(self):
        r1 = CMPSystem(mirage_config(), models(),
                       SCMPKIArbitrator()).run()
        r2 = CMPSystem(mirage_config(), models(),
                       SCMPKIArbitrator()).run()
        assert r1.speedups == r2.speedups
        assert r1.energy_pj == r2.energy_pj

    def test_mirage_beats_plain_ino(self):
        cfg = mirage_config()
        mirage = CMPSystem(cfg, models(), SCMPKIArbitrator()).run()
        homo_ino = run_homo(models(), kind="ino", config=cfg)
        assert mirage.stp > homo_ino.stp

    def test_mirage_beats_traditional_het(self):
        mirage = CMPSystem(mirage_config(), models(),
                           SCMPKIArbitrator()).run()
        trad = CMPSystem(
            ClusterConfig(n_consumers=8, n_producers=1, mirage=False),
            models(), MaxSTPArbitrator()).run()
        assert mirage.stp > trad.stp

    def test_sc_mpki_gates_ooo_sometimes(self):
        result = CMPSystem(mirage_config(), models(),
                           SCMPKIArbitrator()).run()
        assert result.ooo_active_fraction < 1.0

    def test_max_stp_never_gates(self):
        result = CMPSystem(
            ClusterConfig(n_consumers=8, n_producers=1, mirage=False),
            models(), MaxSTPArbitrator()).run()
        assert result.ooo_active_fraction == pytest.approx(1.0)

    def test_fair_shares_are_equal(self):
        result = CMPSystem(
            ClusterConfig(n_consumers=8, n_producers=1, mirage=False),
            models(), FairArbitrator()).run()
        shares = result.ooo_share_per_app
        assert max(shares) - min(shares) < 0.05

    def test_sc_mpki_fair_caps_shares(self):
        result = CMPSystem(mirage_config(), models(),
                           SCMPKIFairArbitrator()).run()
        assert max(result.ooo_share_per_app) <= 1 / 8 + 0.12

    def test_energy_below_homo_ooo(self):
        cfg = mirage_config()
        mirage = CMPSystem(cfg, models(), SCMPKIArbitrator()).run()
        homo = run_homo(models(), kind="ooo", config=cfg)
        assert mirage.energy_pj < homo.energy_pj

    def test_migrations_counted(self):
        result = CMPSystem(mirage_config(), models(),
                           SCMPKIArbitrator()).run()
        assert result.migrations > 0
        assert result.migration_frequency > 0

    def test_history_recording(self):
        system = CMPSystem(mirage_config(), models(),
                           SCMPKIArbitrator(), record_history=True)
        system.run(max_intervals=50)
        assert len(system.history) == 50 * 8
        apps = {s.app for s in system.history}
        assert apps == set(MIX8)

    def test_more_consumers_saturate_ooo(self):
        small = CMPSystem(mirage_config(4), models(MIX8[:4]),
                          SCMPKIArbitrator()).run()
        names16 = MIX8 + MIX8
        big = CMPSystem(mirage_config(16),
                        [analytic_model(n) for n in names16],
                        SCMPKIArbitrator()).run()
        assert big.ooo_active_fraction >= small.ooo_active_fraction

    def test_fewer_consumers_than_apps_allowed_with_producers(self):
        # 5:3 area-neutral config: 8 apps on 5 consumers + 3 producers.
        cfg = ClusterConfig(n_consumers=5, n_producers=3, mirage=False)
        result = CMPSystem(cfg, models(), MaxSTPArbitrator()).run()
        assert result.intervals > 0


class TestHomoBaselines:
    def test_homo_ooo_speedups_are_one(self):
        result = run_homo(models(), kind="ooo", config=mirage_config())
        assert all(s == pytest.approx(1.0) for s in result.speedups)

    def test_homo_ino_speedups_match_ratio(self):
        result = run_homo(models(), kind="ino", config=mirage_config())
        for model, s in zip(models(), result.speedups):
            assert s == pytest.approx(
                model.mean_ipc_ino / model.mean_ipc_ooo, rel=0.01)

    def test_homo_kind_validated(self):
        with pytest.raises(ValueError):
            run_homo(models(), kind="oino", config=mirage_config())

    def test_homo_ino_uses_less_energy(self):
        cfg = mirage_config()
        ooo = run_homo(models(), kind="ooo", config=cfg)
        ino = run_homo(models(), kind="ino", config=cfg)
        assert ino.energy_pj < ooo.energy_pj
