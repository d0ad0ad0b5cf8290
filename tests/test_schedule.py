"""Unit tests for trace detection, the Schedule Cache and the recorder."""

import pytest

from repro.isa import Instruction, OpClass
from repro.schedule import (
    Schedule,
    ScheduleCache,
    ScheduleRecorder,
    Trace,
    TraceBuilder,
)
from repro.schedule.recorder import MAX_TRACE_LEN, MIN_TRACE_LEN


def loop_iteration(start_pc=0x1000, body=10, seq=0, taken=True,
                   internal=()):
    """One loop iteration: body instrs + backward branch (included)."""
    insns = []
    pc = start_pc
    for i in range(body):
        if i in internal:
            insns.append(Instruction(
                seq=seq, pc=pc, opclass=OpClass.BRANCH, is_branch=True,
                taken=False, target=pc + 16))
        else:
            insns.append(Instruction(
                seq=seq, pc=pc, opclass=OpClass.IALU, dst=4, srcs=(1,)))
        seq += 1
        pc += 4
    insns.append(Instruction(
        seq=seq, pc=pc, opclass=OpClass.BRANCH, is_branch=True,
        taken=taken, target=start_pc))
    return insns


class TestTraceBuilder:
    def test_segments_on_backward_branch(self):
        builder = TraceBuilder()
        done = None
        for insn in loop_iteration():
            done = builder.feed(insn) or done
        assert done is not None
        assert len(done) == 11
        assert done.start_pc == 0x1000

    def test_multiple_iterations_same_key(self):
        builder = TraceBuilder()
        traces = []
        for k in range(3):
            for insn in loop_iteration(seq=k * 11):
                t = builder.feed(insn)
                if t:
                    traces.append(t)
        assert len(traces) == 3
        assert len({t.key for t in traces}) == 1

    def test_different_internal_path_different_key(self):
        builder = TraceBuilder()
        keys = []
        for internal in ((), (3,)):
            for insn in loop_iteration(internal=internal):
                t = builder.feed(insn)
                if t:
                    keys.append(t.key)
        assert keys[0] != keys[1]

    def test_flush_returns_partial_trace(self):
        builder = TraceBuilder()
        for insn in loop_iteration()[:5]:
            builder.feed(insn)
        tail = builder.flush()
        assert tail is not None and len(tail) == 5
        assert builder.flush() is None

    def test_trace_storage_bytes(self):
        trace = Trace(start_pc=0, path_hash=0,
                      instructions=loop_iteration())
        assert trace.storage_bytes() == 4 * 11 + 20

    def test_trace_mem_and_branch_counters(self):
        insns = [
            Instruction(seq=0, pc=0, opclass=OpClass.LOAD, dst=4,
                        srcs=(1,), mem_addr=0x80),
            Instruction(seq=1, pc=4, opclass=OpClass.BRANCH,
                        is_branch=True, taken=True, target=0),
        ]
        trace = Trace(start_pc=0, path_hash=0, instructions=insns)
        assert trace.num_mem_ops == 1
        assert trace.num_branches == 1


def sched(pc=0x1000, path=1, n=10):
    return Schedule(start_pc=pc, path_hash=path,
                    issue_order=tuple(range(n)))


class TestScheduleCache:
    def test_miss_then_hit(self):
        sc = ScheduleCache()
        assert sc.lookup(0x1000, 1) is None
        sc.insert(sched())
        assert sc.lookup(0x1000, 1) is not None
        assert sc.stats.misses == 1 and sc.stats.hits == 1

    def test_path_mismatch_is_miss(self):
        sc = ScheduleCache()
        sc.insert(sched(path=1))
        assert sc.lookup(0x1000, 2) is None
        assert sc.has_pc(0x1000)

    def test_path_associativity(self):
        sc = ScheduleCache(paths_per_pc=2)
        sc.insert(sched(path=1))
        sc.insert(sched(path=2))
        sc.insert(sched(path=3))   # evicts LRU path 1
        assert sc.probe(0x1000, 1) is None
        assert sc.probe(0x1000, 2) is not None
        assert sc.probe(0x1000, 3) is not None

    def test_capacity_eviction_lru(self):
        # Each schedule is 4*10+20 = 60 B; capacity for 2.
        sc = ScheduleCache(capacity_bytes=120)
        sc.insert(sched(pc=0x1000))
        sc.insert(sched(pc=0x2000))
        sc.lookup(0x1000, 1)       # touch 0x1000
        sc.insert(sched(pc=0x3000))
        assert sc.probe(0x2000, 1) is None   # LRU victim
        assert sc.probe(0x1000, 1) is not None
        assert sc.used_bytes <= 120

    def test_unmemoizable_evicted_first(self):
        sc = ScheduleCache(capacity_bytes=120)
        sc.insert(sched(pc=0x1000))
        sc.insert(sched(pc=0x2000))
        sc.lookup(0x2000, 1)
        sc.lookup(0x1000, 1)       # 0x1000 is MRU
        sc.mark_unmemoizable(0x1000)
        sc.insert(sched(pc=0x3000))
        assert not sc.has_pc(0x1000)   # evicted despite recency

    def test_unmemoizable_lookup_misses(self):
        sc = ScheduleCache()
        sc.insert(sched())
        sc.mark_unmemoizable(0x1000)
        assert sc.lookup(0x1000, 1) is None
        assert not sc.has_pc(0x1000)

    def test_oversized_schedule_rejected(self):
        sc = ScheduleCache(capacity_bytes=64)
        assert sc.insert(sched(n=100)) is False

    def test_infinite_capacity(self):
        sc = ScheduleCache(None)
        for i in range(500):
            assert sc.insert(sched(pc=0x1000 + 0x100 * i))
        assert sc.num_entries == 500

    def test_reinsert_replaces(self):
        sc = ScheduleCache()
        sc.insert(sched(n=10))
        sc.insert(Schedule(start_pc=0x1000, path_hash=1,
                           issue_order=(1, 0)))
        assert sc.lookup(0x1000, 1).num_instructions == 2
        assert sc.num_entries == 1

    def test_mpki(self):
        sc = ScheduleCache()
        sc.lookup(0x1, 0)
        sc.lookup(0x2, 0)
        assert sc.stats.mpki(1000) == pytest.approx(2.0)


def make_trace(start_pc=0x1000, path=7, n=20):
    insns = [
        Instruction(seq=i, pc=start_pc + 4 * i, opclass=OpClass.IALU,
                    dst=4, srcs=(1,))
        for i in range(n)
    ]
    return Trace(start_pc=start_pc, path_hash=path, instructions=insns)


class TestScheduleRecorder:
    def test_memoizes_after_confidence(self):
        sc = ScheduleCache(None)
        rec = ScheduleRecorder(sc, confidence_threshold=2)
        order = tuple(range(20))
        rec.observe(make_trace(), order, 10)
        assert sc.num_entries == 0   # first sighting: streak 1
        rec.observe(make_trace(), order, 10)
        assert sc.num_entries == 1   # second match reaches threshold

    def test_changing_schedule_resets_streak(self):
        sc = ScheduleCache(None)
        rec = ScheduleRecorder(sc, confidence_threshold=2)
        t = make_trace()
        a = tuple(range(20))
        b = tuple(reversed(range(20)))
        for order in (a, b, a, b, a, b):
            rec.observe(make_trace(), order, 10)
        assert sc.num_entries == 0

    def test_short_traces_ignored(self):
        sc = ScheduleCache(None)
        rec = ScheduleRecorder(sc, confidence_threshold=1)
        tiny = make_trace(n=MIN_TRACE_LEN - 1)
        for _ in range(5):
            rec.observe(tiny, tuple(range(len(tiny))), 5)
        assert sc.num_entries == 0

    def test_huge_traces_ignored(self):
        sc = ScheduleCache(None)
        rec = ScheduleRecorder(sc, confidence_threshold=1)
        huge = make_trace(n=MAX_TRACE_LEN + 1)
        for _ in range(5):
            rec.observe(huge, tuple(range(len(huge))), 5)
        assert sc.num_entries == 0

    def test_signature_tolerates_duration_jitter(self):
        t = make_trace()
        order = tuple(range(20))
        s1 = ScheduleRecorder.signature_of(t, order, 40)
        s2 = ScheduleRecorder.signature_of(t, order, 43)
        assert s1 == s2

    def test_table_lru_bound(self):
        sc = ScheduleCache(None)
        rec = ScheduleRecorder(sc, table_size=4)
        for i in range(10):
            t = make_trace(start_pc=0x1000 + 0x100 * i)
            rec.observe(t, tuple(range(20)), 10)
        assert len(rec.tables.entries) <= 4
