"""Tests for repro.simcache — the detailed-tier slice memoization.

The load-bearing property is *bit-identity*: a cluster run served from
the SliceMemo must be indistinguishable — results, AppState fields,
telemetry counters — from the same run re-simulated from scratch, and
from a run with memoization disabled.  The structural tests below pin
the snapshot/restore contracts that identity rests on.
"""

import itertools
import os
from pathlib import Path

import pytest

from repro import simcache
from repro.arbiter import SCMPKIArbitrator
from repro.cmp.detailed import DetailedMirageCluster
from repro.frontend import BranchTargetBuffer, TournamentPredictor
from repro.memory import MemoryHierarchy
from repro.runner import ResultCache, cmp_unit
from repro.schedule import Schedule, ScheduleCache
from repro.simcache import SliceMemo, StreamCursor
from repro.workloads import make_benchmark

#: Where subprocess children find the package (PYTHONPATH=src runs).
REPO_SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True)
def _isolate_global_switch(monkeypatch):
    """Keep the process-wide default and env var out of other tests."""
    monkeypatch.delenv(simcache.ENV_VAR, raising=False)
    monkeypatch.delenv(simcache.DISK_ENV_VAR, raising=False)
    monkeypatch.setattr(simcache, "_enabled", None)
    monkeypatch.setattr(simcache, "_disk_enabled", None)
    monkeypatch.setattr(SliceMemo, "_shared", None)
    monkeypatch.setattr(simcache.SliceStore, "_shared", None)


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
    def test_default_is_on(self):
        assert simcache.enabled() is True

    def test_env_var_disables(self, monkeypatch):
        monkeypatch.setenv(simcache.ENV_VAR, "0")
        monkeypatch.setattr(simcache, "_enabled", None)
        assert simcache.enabled() is False

    def test_set_enabled_exports_env(self, monkeypatch):
        import os

        simcache.set_enabled(False)
        assert os.environ[simcache.ENV_VAR] == "0"
        assert simcache.resolve(None) is None
        simcache.set_enabled(True)
        assert os.environ[simcache.ENV_VAR] == "1"
        assert isinstance(simcache.resolve(None), SliceMemo)

    def test_resolve_semantics(self):
        private = SliceMemo()
        assert simcache.resolve(private) is private
        assert simcache.resolve(False) is None
        assert simcache.resolve(True) is SliceMemo.shared()
        assert simcache.resolve(True) is simcache.resolve(True)


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


class TestResultCacheKeying:
    def test_key_material_records_sim_cache_setting(self, tmp_path):
        unit = cmp_unit(("hmmer", "gcc"), "SC-MPKI", max_intervals=10)
        on = ResultCache(tmp_path, sim_cache=True)
        off = ResultCache(tmp_path, sim_cache=False)
        assert '"sim_cache":true' in on.key_material(unit)
        assert '"sim_cache":false' in off.key_material(unit)
        assert on.path_for(unit) != off.path_for(unit)

    def test_default_follows_process_switch(self, tmp_path):
        simcache.set_enabled(False)
        assert ResultCache(tmp_path).sim_cache is False
        simcache.set_enabled(True)
        assert ResultCache(tmp_path).sim_cache is True


class TestSliceStore:
    """The disk layer: exact-key hits, corruption-tolerant misses."""

    def delta(self, n=1):
        return simcache.SliceDelta(
            kind="oino", instructions=n, cycles=n, ipc=1.0,
            memo_frac=0.0, sc_mpki=0.0, counters={},
            exit_state=((),) * 3)

    def test_round_trip(self, tmp_path):
        store = simcache.SliceStore(tmp_path)
        assert store.load(("k", 1)) is None
        assert store.save(("k", 1), self.delta(7))
        back = store.load(("k", 1))
        assert back.instructions == 7
        assert store.stats.stores == 1
        assert store.stats.hits == 1
        assert store.stats.misses == 1

    def test_hit_requires_exact_key_equality(self, tmp_path):
        # A digest collision (or a moved file) must not serve a wrong
        # entry: the stored key is re-checked after unpickling.
        store = simcache.SliceStore(tmp_path)
        store.save(("k",), self.delta())
        path = store.path_for(("k",))
        other = store.path_for(("other",))
        other.parent.mkdir(parents=True, exist_ok=True)
        other.write_bytes(path.read_bytes())
        assert store.load(("other",)) is None
        assert store.stats.rejected == 1

    def test_corrupt_file_is_a_miss_never_a_crash(self, tmp_path):
        store = simcache.SliceStore(tmp_path)
        store.save(("k",), self.delta())
        store.path_for(("k",)).write_bytes(b"\x80garbage")
        assert store.load(("k",)) is None
        assert store.stats.rejected == 1

    def test_schema_bump_invalidates(self, tmp_path, monkeypatch):
        store = simcache.SliceStore(tmp_path)
        store.save(("k",), self.delta())
        path_v1 = store.path_for(("k",))
        monkeypatch.setattr(simcache, "STORE_SCHEMA",
                            "mirage-slices/v999")
        # Different schema -> different digest -> plain miss.
        assert store.path_for(("k",)) != path_v1
        assert store.load(("k",)) is None

    def test_save_failure_is_best_effort(self, tmp_path):
        # A plain file where the store root should be: every mkdir
        # under it fails, and save() must swallow that (works even as
        # root, where permission bits would not stop the write).
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        store = simcache.SliceStore(blocker / "sub")
        assert store.save(("k",), self.delta()) is False
        assert store.load(("k",)) is None

    def test_memo_promotes_disk_hits(self, tmp_path):
        store = simcache.SliceStore(tmp_path)
        writer = SliceMemo(disk=store)
        writer.store(("k",), self.delta(3))
        assert writer.stats.disk_stores == 1

        reader = SliceMemo(disk=store)
        assert reader.lookup(("k",)).instructions == 3
        assert reader.stats.disk_hits == 1
        # Promoted into memory: the second lookup never goes to disk.
        assert reader.lookup(("k",)).instructions == 3
        assert reader.stats.disk_hits == 1
        assert store.stats.loads == 1

    def test_resolve_attaches_store_only_when_disk_enabled(self):
        simcache.set_enabled(True)
        assert simcache.resolve(None).disk is None
        simcache.set_disk_enabled(True)
        SliceMemo._shared = None
        assert simcache.resolve(None).disk is not None
        # Private memos are used as-is either way.
        private = SliceMemo()
        assert simcache.resolve(private).disk is None

    def test_disk_toggle_exports_env(self):
        simcache.set_disk_enabled(True)
        assert os.environ[simcache.DISK_ENV_VAR] == "1"
        assert simcache.disk_enabled() is True
        simcache.set_disk_enabled(False)
        assert os.environ[simcache.DISK_ENV_VAR] == "0"
        assert simcache.disk_enabled() is False


class TestDiskCrossProcess:
    """The headline disk guarantee: a cold process with a warm store
    replays slices it never simulated."""

    SCRIPT = """
import json, sys
from repro import simcache
from repro.arbiter import SCMPKIArbitrator
from repro.cmp.detailed import DetailedMirageCluster
from repro.workloads import make_benchmark

store = simcache.SliceStore(sys.argv[1])
memo = simcache.SliceMemo(disk=store)
cluster = DetailedMirageCluster(
    [make_benchmark("hmmer", seed=1), make_benchmark("mcf", seed=1)],
    SCMPKIArbitrator(), slice_instructions=1200, sim_cache=memo)
result = cluster.run(n_slices=4)
print(json.dumps({
    "ipcs": result.ipcs,
    "migrations": result.migrations,
    "energy_pj": result.energy_pj,
    "mem_hits": memo.stats.hits,
    "disk_hits": memo.stats.disk_hits,
    "disk_stores": memo.stats.disk_stores,
}))
"""

    def run_child(self, tmp_path):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(tmp_path / "slices")],
            capture_output=True, text=True,
            env={**os.environ,
                 "PYTHONPATH": str(REPO_SRC)},
        )
        assert proc.returncode == 0, proc.stderr
        import json

        return json.loads(proc.stdout)

    def test_fresh_process_replays_from_disk(self, tmp_path):
        first = self.run_child(tmp_path)
        assert first["disk_hits"] == 0
        assert first["disk_stores"] == 8

        second = self.run_child(tmp_path)
        # Every slice served from disk, never re-simulated...
        assert second["mem_hits"] == 8
        assert second["disk_hits"] == 8
        # ...and the results are exactly the first process's.
        for field in ("ipcs", "migrations", "energy_pj"):
            assert second[field] == first[field]
