"""Property-based tests (hypothesis) for core data structures."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.cores.functional_units import (
    DEFAULT_FU_COUNTS,
    FUPool,
    fu_type_for,
)
from repro.memory import Cache, CacheConfig, SharedBus
from repro.metrics import fairness_index, system_throughput
from repro.schedule import Schedule, ScheduleCache, TraceBuilder
from repro.workloads import make_benchmark
from repro.isa import Instruction, OpClass
from repro.isa.instructions import BASE_LATENCY

addresses = st.integers(min_value=0, max_value=1 << 20)


class TestCacheProperties:
    @given(st.lists(addresses, min_size=1, max_size=200))
    def test_capacity_never_exceeded(self, addrs):
        cache = Cache(CacheConfig(512, 2, 64))
        for a in addrs:
            cache.access(a)
        assert cache.resident_lines <= cache.capacity_lines

    @given(st.lists(addresses, min_size=1, max_size=200))
    def test_repeat_access_hits(self, addrs):
        """Accessing the same address twice in a row always hits."""
        cache = Cache(CacheConfig(1024, 2, 64))
        for a in addrs:
            cache.access(a)
            assert cache.access(a) is True

    @given(st.lists(addresses, min_size=1, max_size=300))
    def test_stats_are_consistent(self, addrs):
        cache = Cache(CacheConfig(512, 2, 64))
        for a in addrs:
            cache.access(a)
        assert cache.stats.hits + cache.stats.misses == \
            cache.stats.accesses
        assert 0.0 <= cache.stats.miss_rate <= 1.0

    @given(st.lists(st.tuples(addresses, st.booleans()),
                    min_size=1, max_size=200))
    def test_flush_leaves_empty(self, ops):
        cache = Cache(CacheConfig(512, 2, 64))
        for addr, write in ops:
            cache.access(addr, write=write)
        cache.flush()
        assert cache.resident_lines == 0


class TestFUPoolProperties:
    @given(st.integers(1, 4),
           st.lists(st.tuples(st.sampled_from(list(OpClass)),
                              st.integers(0, 60)),
                    min_size=1, max_size=120))
    def test_per_cycle_capacity_respected(self, width, requests):
        pool = FUPool(width)
        issues = {}
        units = {}
        for op, earliest in requests:
            latency = BASE_LATENCY[op]
            cycle = pool.issue_at(op, earliest, latency)
            assert cycle >= earliest
            issues[cycle] = issues.get(cycle, 0) + 1
            held = latency if op in (OpClass.IDIV, OpClass.FDIV) else 1
            for c in range(cycle, cycle + held):
                key = (fu_type_for(op), c)
                units[key] = units.get(key, 0) + 1
        assert all(n <= width for n in issues.values())
        assert all(n <= DEFAULT_FU_COUNTS[fu]
                   for (fu, _), n in units.items())


class TestBusProperties:
    @given(st.lists(st.tuples(st.integers(0, 1000),
                              st.integers(1, 4096)),
                    min_size=1, max_size=60))
    def test_transfers_never_overlap(self, requests):
        bus = SharedBus(width_bytes=32)
        windows = []
        for now, size in sorted(requests):
            start, finish = bus.transfer(now, size)
            assert start >= now
            windows.append((start, finish))
        for (s1, f1), (s2, f2) in zip(windows, windows[1:]):
            assert s2 >= f1


class TestScheduleCacheProperties:
    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 5),
                              st.integers(8, 60)),
                    min_size=1, max_size=120))
    def test_capacity_invariant(self, inserts):
        sc = ScheduleCache(capacity_bytes=2048)
        for pc_idx, path, n in inserts:
            sc.insert(Schedule(start_pc=0x1000 + pc_idx * 0x100,
                               path_hash=path,
                               issue_order=tuple(range(n))))
        assert sc.used_bytes <= 2048
        assert sc.used_bytes == sum(
            s.storage_bytes for s in sc.contents())

    @given(st.lists(st.tuples(st.integers(0, 10), st.integers(0, 8)),
                    min_size=1, max_size=80))
    def test_paths_per_pc_invariant(self, inserts):
        sc = ScheduleCache(capacity_bytes=None, paths_per_pc=3)
        for pc_idx, path in inserts:
            sc.insert(Schedule(start_pc=pc_idx, path_hash=path,
                               issue_order=tuple(range(10))))
        per_pc = {}
        for s in sc.contents():
            per_pc[s.start_pc] = per_pc.get(s.start_pc, 0) + 1
        assert all(n <= 3 for n in per_pc.values())

    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 3)),
                    min_size=1, max_size=60))
    def test_lookup_after_insert(self, inserts):
        sc = ScheduleCache(capacity_bytes=None)
        for pc, path in inserts:
            sc.insert(Schedule(start_pc=pc, path_hash=path,
                               issue_order=tuple(range(12))))
            assert sc.probe(pc, path) is not None


class TestTraceBuilderProperties:
    @given(st.integers(0, 2**31), st.integers(200, 1200))
    @settings(max_examples=20, deadline=None)
    def test_traces_reconstruct_stream(self, seed, n):
        """Concatenated trace instructions == the original stream."""
        bench = make_benchmark("gcc", seed=seed % 7)
        insns = list(itertools.islice(bench.stream(), n))
        builder = TraceBuilder()
        rebuilt = []
        for insn in insns:
            t = builder.feed(insn)
            if t:
                rebuilt.extend(t.instructions)
        tail = builder.flush()
        if tail:
            rebuilt.extend(tail.instructions)
        assert [i.seq for i in rebuilt] == [i.seq for i in insns]

    @given(st.integers(1, 40))
    def test_every_trace_ends_with_backward_branch(self, iters):
        builder = TraceBuilder()
        traces = []
        seq = 0
        for k in range(iters):
            for i in range(5):
                t = builder.feed(Instruction(
                    seq=seq, pc=0x100 + 4 * i, opclass=OpClass.IALU,
                    dst=4, srcs=(1,)))
                assert t is None
                seq += 1
            t = builder.feed(Instruction(
                seq=seq, pc=0x114, opclass=OpClass.BRANCH,
                is_branch=True, taken=True, target=0x100))
            seq += 1
            traces.append(t)
        assert all(t is not None for t in traces)
        assert all(t.instructions[-1].is_backward_branch for t in traces)


class TestMetricsProperties:
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=32))
    def test_stp_bounded_by_extremes(self, speedups):
        stp = system_throughput(speedups)
        assert min(speedups) - 1e-9 <= stp <= max(speedups) + 1e-9

    @given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=32))
    def test_fairness_index_in_unit_interval(self, shares):
        fi = fairness_index(shares)
        assert 0.0 < fi <= 1.0 + 1e-9

    @given(st.floats(0.01, 10.0), st.integers(2, 32))
    def test_equal_shares_perfectly_fair(self, value, n):
        assert fairness_index([value] * n) >= 1.0 - 1e-9


class TestGeneratorProperties:
    @given(st.sampled_from(["hmmer", "gcc", "mcf", "astar"]),
           st.integers(0, 3))
    @settings(max_examples=12, deadline=None)
    def test_stream_replay_identical(self, name, seed):
        bench = make_benchmark(name, seed=seed)
        a = list(itertools.islice(bench.stream(), 400))
        b = list(itertools.islice(bench.stream(), 400))
        assert [(i.pc, i.opclass, i.mem_addr, i.taken) for i in a] == \
            [(i.pc, i.opclass, i.mem_addr, i.taken) for i in b]

    @given(st.sampled_from(["bzip2", "libquantum"]))
    @settings(max_examples=4, deadline=None)
    def test_pcs_are_word_aligned(self, name):
        bench = make_benchmark(name, seed=1)
        for insn in itertools.islice(bench.stream(), 500):
            assert insn.pc % 4 == 0
