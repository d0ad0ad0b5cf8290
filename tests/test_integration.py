"""End-to-end integration tests across the whole stack.

These exercise the full producer/consumer story on the detailed tier
(OoO memoizes -> SC ships over the bus -> OinO replays) and the full
arbitrated CMP on the interval tier, checking the invariants the paper
builds its argument on.
"""


import pytest

from repro.arbiter import MaxSTPArbitrator, SCMPKIArbitrator
from repro.characterize import analytic_model
from repro.cmp import ClusterConfig
from repro.cmp.system import CMPSystem, run_homo
from repro.cores import InOrderCore, OinOCore, OutOfOrderCore
from repro.memory import MemoryHierarchy, SharedBus
from repro.schedule import ScheduleCache, ScheduleRecorder
from repro.workloads import make_benchmark, standard_mixes


class TestProducerConsumerPipeline:
    """The core Mirage mechanism, end to end on the detailed tier."""

    def _pipeline(self, name, n=25_000, capacity=8 * 1024):
        bench = make_benchmark(name, seed=4)
        hier = MemoryHierarchy()
        # Producer memoizes into its SC.
        producer_sc = ScheduleCache(capacity)
        recorder = ScheduleRecorder(producer_sc)
        ooo = OutOfOrderCore(hier.core_view(0), recorder=recorder)
        r_ooo = ooo.run(bench.stream(), n)
        # SC contents transfer over the shared bus (migration).
        consumer_sc = ScheduleCache(capacity)
        contents = producer_sc.contents()
        payload = sum(s.storage_bytes for s in contents)
        hier.bus.transfer(r_ooo.cycles, payload)
        for schedule in contents:
            consumer_sc.insert(schedule)
        # Consumer replays.
        oino = OinOCore(hier.core_view(1), consumer_sc)
        r_oino = oino.run(bench.stream(), n)
        r_ino = InOrderCore(hier.core_view(2)).run(bench.stream(), n)
        return r_ooo, r_oino, r_ino, hier

    def test_full_mirage_flow_memoizable(self):
        r_ooo, r_oino, r_ino, hier = self._pipeline("hmmer")
        # Performance hierarchy: OoO >= OinO > InO.
        assert r_ooo.ipc >= r_oino.ipc * 0.95
        assert r_oino.ipc > r_ino.ipc
        # The transferred schedules actually got used.
        assert r_oino.stats.memoized_fraction > 0.5
        # And the bus saw the SC transfer.
        assert hier.bus.stats.bytes_moved > 0

    def test_full_mirage_flow_unmemoizable(self):
        _r_ooo, r_oino, r_ino, _ = self._pipeline("astar")
        # astar gains little; OinO degenerates to InO-like behaviour.
        assert r_oino.ipc == pytest.approx(r_ino.ipc, rel=0.35)

    def test_finite_sc_respects_capacity(self):
        bench = make_benchmark("gcc", seed=4)
        sc = ScheduleCache(8 * 1024)
        rec = ScheduleRecorder(sc)
        OutOfOrderCore(
            MemoryHierarchy().core_view(0), recorder=rec
        ).run(bench.stream(), 30_000)
        assert sc.used_bytes <= 8 * 1024

    def test_sc_misses_tracked_on_both_sides(self):
        r_ooo, r_oino, _r_ino, _ = self._pipeline("bzip2")
        assert r_ooo.stats.traces > 0
        assert r_oino.stats.sc_trace_hits + r_oino.stats.sc_trace_misses \
            == r_oino.stats.traces
        # SC-MPKI is measurable on both producer and consumer.
        assert r_ooo.stats.sc_mpki() >= 0.0
        assert r_oino.stats.sc_mpki() >= 0.0

    def test_oracle_beats_finite_sc(self):
        _, r_small, _, _ = self._pipeline("gcc", capacity=1024)
        _, r_oracle, _, _ = self._pipeline("gcc", capacity=None)
        assert (r_oracle.stats.memoized_fraction
                >= r_small.stats.memoized_fraction - 0.02)


class TestScaledCMPConsistency:
    """Interval tier: cross-configuration invariants."""

    def test_mirage_between_homo_baselines(self):
        names = standard_mixes(8, seed=11)[10].benchmarks
        models = [analytic_model(n) for n in names]
        cfg = ClusterConfig(n_consumers=8, n_producers=1, mirage=True)
        mirage = CMPSystem(cfg, models, SCMPKIArbitrator()).run()
        homo_ooo = run_homo(models, kind="ooo", config=cfg)
        homo_ino = run_homo(models, kind="ino", config=cfg)
        assert homo_ino.stp < mirage.stp <= homo_ooo.stp + 1e-9

    def test_more_producers_help_traditional(self):
        names = standard_mixes(8, seed=11)[12].benchmarks
        models = [analytic_model(n) for n in names]
        one = CMPSystem(
            ClusterConfig(n_consumers=8, n_producers=1, mirage=False),
            models, MaxSTPArbitrator()).run()
        three = CMPSystem(
            ClusterConfig(n_consumers=8, n_producers=3, mirage=False),
            models, MaxSTPArbitrator()).run()
        assert three.stp > one.stp

    def test_hpd_mix_uses_ooo_more_than_lpd_mix(self):
        mixes = standard_mixes(8, seed=2017)
        hpd = next(m for m in mixes if m.category == "HPD")
        lpd = next(m for m in mixes if m.category == "LPD")
        def util(mix):
            models = [analytic_model(n) for n in mix]
            cfg = ClusterConfig(n_consumers=8, n_producers=1, mirage=True)
            return CMPSystem(cfg, models,
                             SCMPKIArbitrator()).run().ooo_active_fraction
        assert util(hpd) > util(lpd)

    def test_migration_overhead_small_at_default_scale(self):
        names = standard_mixes(8, seed=3)[0].benchmarks
        models = [analytic_model(n) for n in names]
        cfg = ClusterConfig(n_consumers=8, n_producers=1, mirage=True)
        res = CMPSystem(cfg, models, SCMPKIArbitrator()).run()
        total = res.total_cycles * len(models)
        overhead = sum(res.migration_cost_cycles.values()) / total
        assert overhead < 0.02


class TestBusIntegration:
    def test_migrations_share_one_bus(self):
        bus = SharedBus()
        s1 = bus.transfer(0, 8192)
        s2 = bus.transfer(0, 8192)
        assert s2[0] >= s1[1]

    def test_detailed_cores_share_l2_through_bus_hierarchy(self):
        hier = MemoryHierarchy()
        bench = make_benchmark("libquantum", seed=5)
        InOrderCore(hier.core_view(0)).run(bench.stream(), 5_000)
        l2_after_first = hier.l2.stats.misses
        # Second core touches the same data: L2 is shared and warm.
        InOrderCore(hier.core_view(1)).run(bench.stream(), 5_000)
        second_core_misses = hier.l2.stats.misses - l2_after_first
        assert second_core_misses < l2_after_first
