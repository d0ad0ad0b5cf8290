"""Tests for repro.simcache — the detailed-tier slice memoization.

The load-bearing property is *bit-identity*: a cluster run served from
the SliceMemo must be indistinguishable — results, AppState fields,
telemetry counters — from the same run re-simulated from scratch, and
from a run with memoization disabled.  The structural tests below pin
the snapshot/restore contracts that identity rests on.
"""

import itertools

import pytest

from repro import simcache
from repro.arbiter import SCMPKIArbitrator
from repro.cmp.detailed import DetailedMirageCluster
from repro.frontend import BranchTargetBuffer, TournamentPredictor
from repro.memory import MemoryHierarchy
from repro.schedule import Schedule, ScheduleCache
from repro.simcache import SliceMemo, StreamCursor
from repro.workloads import make_benchmark


@pytest.fixture(autouse=True)
def _isolate_shared_memo(monkeypatch):
    """Keep the process-global memo out of other tests."""
    monkeypatch.setattr(SliceMemo, "_shared", None)


def small_cluster(sim_cache, *, seed=1, slices=1200):
    return DetailedMirageCluster(
        [make_benchmark("hmmer", seed=seed),
         make_benchmark("mcf", seed=seed)],
        SCMPKIArbitrator(),
        slice_instructions=slices,
        sim_cache=sim_cache,
    )


def run_fingerprint(cluster, result):
    """Everything observable from one run, for identity comparison."""
    counters = {k: v for k, v in sorted(cluster.telemetry.counters.items())
                if not k.startswith("simcache.")}
    apps = [(a.instructions, a.t_total, a.t_ooo, a.ipc_last,
             a.sc_mpki_ino_last, a.sc_mpki_ooo_last, a.migrations,
             a.on_ooo, a.sc.state_snapshot())
            for a in cluster.apps]
    return (result.ipcs, result.ooo_share, result.migrations,
            result.sc_bytes_transferred, result.energy_pj,
            counters, apps)


class TestToggle:
    def test_resolve_semantics(self):
        private = SliceMemo()
        assert simcache.resolve(private) is private
        assert simcache.resolve(False) is None
        assert simcache.resolve(True) is SliceMemo.shared()
        assert simcache.resolve(True) is simcache.resolve(True)

    def test_default_cluster_runs_without_a_memo(self):
        # The memo is opt-in: a default cluster never keys, stores or
        # reports a slice, and leaves the shared memo untouched.
        cluster = DetailedMirageCluster(
            [make_benchmark("hmmer", seed=1),
             make_benchmark("mcf", seed=1)],
            SCMPKIArbitrator(), slice_instructions=1200)
        assert cluster.backend.memo is None
        assert not isinstance(cluster.backend.apps[0].stream, StreamCursor)
        cluster.run(n_slices=3)
        assert not [k for k in cluster.telemetry.counters
                    if k.startswith("simcache.")]
        assert SliceMemo.shared().stats.lookups == 0


class TestStreamCursor:
    def test_take_matches_plain_stream(self):
        bench = make_benchmark("gcc", seed=7)
        cursor = StreamCursor(make_benchmark("gcc", seed=7))
        plain = bench.stream()
        for n in (100, 37, 250):
            expected = list(itertools.islice(plain, n))
            assert cursor.take(n) == expected

    def test_skip_then_take_resynchronizes(self):
        bench = make_benchmark("gcc", seed=7)
        cursor = StreamCursor(make_benchmark("gcc", seed=7))
        plain = bench.stream()
        skipped = list(itertools.islice(plain, 140))  # consumed, unused
        del skipped
        cursor.take(40)
        cursor.skip(100)
        assert cursor.pos == 140
        assert cursor.take(60) == list(itertools.islice(plain, 60))

    def test_fingerprint_identifies_the_stream(self):
        a = StreamCursor(make_benchmark("gcc", seed=7))
        b = StreamCursor(make_benchmark("gcc", seed=7))
        c = StreamCursor(make_benchmark("gcc", seed=8))
        assert a.fingerprint == b.fingerprint
        assert a.fingerprint != c.fingerprint


class TestSnapshotRestore:
    """state_snapshot/state_restore round-trips on every structure."""

    @staticmethod
    def exercise_memory(mem, base, n=400):
        for i in range(n):
            pc = base + (i % 97) * 4
            addr = base + 0x1000 + (i * 72) % 4096
            if i % 7 == 0:
                mem.store(pc, addr, now=i)
            elif i % 3 == 0:
                mem.fetch(pc, now=i)
            else:
                mem.load(pc, addr, now=i)

    def test_hierarchy_round_trip(self):
        hier = MemoryHierarchy()
        mem = hier.core_view(0)
        self.exercise_memory(mem, 0x10_0000)
        shared_snap = hier.state_snapshot()
        core_snap = mem.state_snapshot()
        self.exercise_memory(mem, 0x90_0000)
        assert hier.state_snapshot() != shared_snap
        hier.state_restore(shared_snap)
        mem.state_restore(core_snap)
        assert hier.state_snapshot() == shared_snap
        assert mem.state_snapshot() == core_snap

    def test_restored_hierarchy_behaves_identically(self):
        # Not just equal snapshots: subsequent accesses (evictions,
        # prefetches, bus timing) must replay the same way.
        def trajectory(hier, mem):
            self.exercise_memory(mem, 0x55_0000, n=600)
            return (hier.state_snapshot(), mem.state_snapshot())

        hier = MemoryHierarchy()
        mem = hier.core_view(0)
        self.exercise_memory(mem, 0x10_0000)
        shared_snap, core_snap = hier.state_snapshot(), mem.state_snapshot()
        expected = trajectory(hier, mem)
        hier.state_restore(shared_snap)
        mem.state_restore(core_snap)
        assert trajectory(hier, mem) == expected

    def test_predictor_and_btb_round_trip(self):
        pred = TournamentPredictor()
        btb = BranchTargetBuffer()
        for i in range(300):
            pred.access(0x4000 + (i % 37) * 4, i % 3 == 0)
            if btb.lookup(0x4000 + (i % 37) * 4) is None:
                btb.install(0x4000 + (i % 37) * 4, 0x5000)
        psnap, bsnap = pred.state_snapshot(), btb.state_snapshot()
        for i in range(100):
            pred.access(0x8000 + i * 4, True)
            btb.install(0x8000 + i * 4, 0x9000)
        pred.state_restore(psnap)
        btb.state_restore(bsnap)
        assert pred.state_snapshot() == psnap
        assert btb.state_snapshot() == bsnap

    def test_schedule_cache_round_trip(self):
        sc = ScheduleCache(2048)
        for pc in range(0x100, 0x800, 0x40):
            sc.insert(Schedule(start_pc=pc, path_hash=pc * 3,
                               issue_order=tuple(range(12))))
        sc.lookup(0x100, 0x300)
        sc.mark_unmemoizable(0x140)
        snap = sc.state_snapshot()
        sc.insert(Schedule(start_pc=0x9000, path_hash=1,
                           issue_order=tuple(range(8))))
        sc.lookup(0x9000, 1)
        sc.state_restore(snap)
        assert sc.state_snapshot() == snap
        assert sc.used_bytes == snap[1]
        assert not sc.has_pc(0x140)        # unmemoizable survived
        assert sc.has_pc(0x180)


class TestScheduleCacheGeneration:
    def make_schedule(self, pc=0x100, path=1):
        return Schedule(start_pc=pc, path_hash=path,
                        issue_order=tuple(range(10)))

    def test_content_changes_bump_generation(self):
        sc = ScheduleCache(None)
        g0 = sc.generation
        sc.insert(self.make_schedule())
        assert sc.generation > g0
        g1 = sc.generation
        sc.mark_unmemoizable(0x100)
        assert sc.generation > g1
        g2 = sc.generation
        sc.invalidate_all()
        assert sc.generation > g2

    def test_lookup_and_probe_do_not_bump(self):
        sc = ScheduleCache(None)
        sc.insert(self.make_schedule())
        g = sc.generation
        sc.lookup(0x100, 1)       # hit: recency/stat update only
        sc.lookup(0x999, 2)       # miss
        sc.probe(0x100, 1)
        sc.has_pc(0x100)
        assert sc.generation == g

    def test_eviction_bumps_generation(self):
        sc = ScheduleCache(128)   # fits only a couple of entries
        sc.insert(self.make_schedule(pc=0x100))
        g = sc.generation
        sc.insert(self.make_schedule(pc=0x200))
        sc.insert(self.make_schedule(pc=0x300))
        assert sc.generation > g


class TestSliceMemo:
    def delta(self, n=1):
        return simcache.SliceDelta(
            kind="oino", instructions=n, cycles=n, ipc=1.0,
            memo_frac=0.0, sc_mpki=0.0, counters={},
            exit_state=((),) * 3)

    def test_lookup_miss_then_hit(self):
        memo = SliceMemo()
        assert memo.lookup(("k",)) is None
        memo.store(("k",), self.delta())
        assert memo.lookup(("k",)).instructions == 1
        assert memo.stats.lookups == 2
        assert memo.stats.hits == 1
        assert memo.stats.misses == 1
        assert memo.stats.hit_rate == 0.5

    def test_lru_eviction_within_capacity(self):
        memo = SliceMemo(capacity=2)
        memo.store(("a",), self.delta())
        memo.store(("b",), self.delta())
        memo.lookup(("a",))               # refresh: b is now LRU
        memo.store(("c",), self.delta())
        assert memo.lookup(("b",)) is None
        assert memo.lookup(("a",)) is not None
        assert memo.lookup(("c",)) is not None
        assert memo.stats.invalidations == 1
        assert memo.num_entries == 2

    def test_bytes_tracking_and_clear(self):
        memo = SliceMemo()
        memo.store(("a",), self.delta())
        assert memo.approx_bytes > 0
        memo.clear()
        assert memo.approx_bytes == 0
        assert memo.num_entries == 0
        assert memo.stats.invalidations == 1

    def test_rejects_silly_capacity(self):
        with pytest.raises(ValueError):
            SliceMemo(capacity=0)


class TestClusterIdentity:
    """The headline guarantee: memoized == re-simulated, bit for bit."""

    def test_off_cold_and_replayed_runs_agree(self):
        memo = SliceMemo()
        off = small_cluster(False)
        off_res = off.run(n_slices=6)
        cold = small_cluster(memo)
        cold_res = cold.run(n_slices=6)
        warm = small_cluster(memo)
        warm_res = warm.run(n_slices=6)

        assert run_fingerprint(off, off_res) == \
            run_fingerprint(cold, cold_res)
        assert run_fingerprint(cold, cold_res) == \
            run_fingerprint(warm, warm_res)
        # The warm run must actually have replayed every slice.
        assert memo.stats.hits == 12
        assert memo.stats.misses == 12

    def test_warm_run_reports_simcache_counters(self):
        memo = SliceMemo()
        small_cluster(memo).run(n_slices=4)
        warm = small_cluster(memo)
        warm.run(n_slices=4)
        counters = warm.telemetry.counters
        assert counters["simcache.lookups"] == 8
        assert counters["simcache.hits"] == 8
        assert counters.get("simcache.misses", 0) == 0
        assert counters["simcache.replayed_instructions"] == 8 * 1200
        assert counters["simcache.bytes"] > 0
        assert counters["simcache.entries"] == memo.num_entries

    def test_seed_change_misses(self):
        memo = SliceMemo()
        small_cluster(memo, seed=1).run(n_slices=3)
        small_cluster(memo, seed=2).run(n_slices=3)
        assert memo.stats.hits == 0

    def test_disabled_backend_keeps_raw_stream(self):
        off = small_cluster(False)
        assert off.backend.memo is None
        assert not isinstance(off.backend.apps[0].stream, StreamCursor)
        on = small_cluster(SliceMemo())
        assert isinstance(on.backend.apps[0].stream, StreamCursor)
