"""Unit tests for the cycle-level core models."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.cores import (
    INO_PARAMS,
    LDT_PARAMS,
    CoreStats,
    InOrderCore,
    OinOCore,
    OutOfOrderCore,
)
from repro.cores.functional_units import FUPool, SlotPool, fu_type_for
from repro.isa import Instruction, OpClass
from repro.memory import MemoryHierarchy
from repro.schedule import Schedule, ScheduleCache, ScheduleRecorder
from repro.workloads import ALL_BENCHMARKS, make_benchmark


def mem(core_id=0):
    return MemoryHierarchy().core_view(core_id)


def independent_alu_stream():
    seq = 0
    while True:
        yield Instruction(seq=seq, pc=0x1000 + (seq % 64) * 4,
                          opclass=OpClass.IALU, dst=4 + seq % 20,
                          srcs=(1, 2))
        seq += 1


def serial_chain_stream():
    seq = 0
    while True:
        yield Instruction(seq=seq, pc=0x1000 + (seq % 64) * 4,
                          opclass=OpClass.IALU, dst=5, srcs=(5,))
        seq += 1


class TestSlotPool:
    def test_capacity_per_cycle(self):
        pool = SlotPool(2)
        assert pool.earliest_free(0) == 0
        pool.reserve(0)
        pool.reserve(0)
        assert pool.earliest_free(0) == 1

    def test_span_reservation(self):
        pool = SlotPool(1)
        pool.reserve(3, span=4)   # busy cycles 3..6
        assert pool.earliest_free(3) == 7
        assert pool.earliest_free(0, span=3) == 0

    def test_span_scan_restarts_past_mid_window_conflict(self):
        # A busy cycle in the middle of the candidate window must
        # restart the scan just past the conflict, not one-by-one.
        pool = SlotPool(1)
        pool.reserve(2)
        assert pool.earliest_free(0, span=4) == 3

    def test_span_scan_walks_repeated_conflicts(self):
        # Alternating busy cycles: every window [c, c+1] conflicts at
        # its second slot until the pool runs out of reservations.
        pool = SlotPool(1)
        for busy in (1, 3, 5):
            pool.reserve(busy)
        assert pool.earliest_free(0, span=2) == 6

    def test_overlapping_span_reservations_accumulate(self):
        pool = SlotPool(2)
        pool.reserve(0, span=3)
        pool.reserve(0, span=3)      # cycles 0..2 now full
        assert pool.earliest_free(0, span=2) == 3
        assert pool.usage_at(2) == 2
        assert pool.usage_at(3) == 0

    def test_span_reservation_survives_pruning(self):
        # A long-span reservation written just before the prune
        # threshold trips must stay accurate for recent cycles.
        pool = SlotPool(1, prune_window=64)
        for c in range(0, 120, 2):
            pool.reserve(c)          # trips _prune at least once
        pool.reserve(200, span=8)    # busy 200..207
        assert pool.earliest_free(200) == 208
        assert pool.earliest_free(199, span=4) == 208
        assert pool.usage_at(207) == 1

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            SlotPool(0)

    def test_pruning_keeps_recent(self):
        pool = SlotPool(1, prune_window=100)
        for c in range(0, 500, 2):
            pool.reserve(c)
        # Old entries may be pruned, recent ones must remain accurate.
        assert pool.usage_at(498) == 1
        assert pool.earliest_free(498) == 499


class TestFUPool:
    def test_width_bound(self):
        pool = FUPool(width=2)
        cycles = [pool.issue_at(OpClass.IALU, 0, 1) for _ in range(4)]
        assert cycles == [0, 0, 1, 1]

    def test_single_multiplier_serializes(self):
        pool = FUPool(width=3)
        c1 = pool.issue_at(OpClass.IMUL, 0, 3)
        c2 = pool.issue_at(OpClass.IMUL, 0, 3)
        assert c1 == 0 and c2 == 1   # pipelined: next cycle ok

    def test_divide_unpipelined(self):
        pool = FUPool(width=3)
        c1 = pool.issue_at(OpClass.IDIV, 0, 12)
        c2 = pool.issue_at(OpClass.IDIV, 0, 12)
        assert c1 == 0 and c2 == 12

    def test_fu_type_mapping(self):
        assert fu_type_for(OpClass.LOAD) == fu_type_for(OpClass.STORE)
        assert fu_type_for(OpClass.IALU) != fu_type_for(OpClass.FALU)


class TestOutOfOrderCore:
    def test_independent_work_near_width(self):
        core = OutOfOrderCore(mem())
        r = core.run(independent_alu_stream(), 20_000)
        assert r.ipc > 2.5

    def test_serial_chain_is_ipc_one(self):
        core = OutOfOrderCore(mem())
        r = core.run(serial_chain_stream(), 10_000)
        assert 0.9 < r.ipc <= 1.05

    def test_long_latency_chain(self):
        def muls():
            seq = 0
            while True:
                yield Instruction(seq=seq, pc=0x1000, opclass=OpClass.IMUL,
                                  dst=5, srcs=(5,))
                seq += 1
        r = OutOfOrderCore(mem()).run(muls(), 5_000)
        assert r.ipc == pytest.approx(1 / 3, rel=0.1)

    def test_reorders_around_stall(self):
        """Adjacent load-use pairs stall the InO; the OoO hides them."""
        def blocked():
            seq = 0
            while True:
                yield Instruction(seq=seq, pc=0x1000, opclass=OpClass.LOAD,
                                  dst=5, srcs=(1,),
                                  mem_addr=0x100000 + (seq * 64) % 4096)
                seq += 1
                # Immediate use: program order is hostile to in-order.
                yield Instruction(seq=seq, pc=0x1004, opclass=OpClass.IMUL,
                                  dst=6, srcs=(5,))
                seq += 1
                for _ in range(7):
                    yield Instruction(seq=seq, pc=0x1000 + 4 * (seq % 60),
                                      opclass=OpClass.IALU,
                                      dst=7 + seq % 10, srcs=(1,))
                    seq += 1
        r_ooo = OutOfOrderCore(mem(0)).run(blocked(), 10_000)
        r_ino = InOrderCore(mem(1)).run(blocked(), 10_000)
        assert r_ooo.ipc > r_ino.ipc * 1.2

    def test_mispredicts_counted(self):
        def noisy_branches():
            import random
            rng = random.Random(7)
            seq = 0
            while True:
                yield Instruction(seq=seq, pc=0x1000 + (seq % 16) * 4,
                                  opclass=OpClass.BRANCH, is_branch=True,
                                  taken=rng.random() < 0.5,
                                  target=0x1000)
                seq += 1
        r = OutOfOrderCore(mem()).run(noisy_branches(), 3_000)
        assert r.stats.mispredicts > 300

    def test_recording_populates_sc(self):
        sc = ScheduleCache(None)
        rec = ScheduleRecorder(sc)
        core = OutOfOrderCore(mem(), recorder=rec)
        core.run(make_benchmark("hmmer", seed=3).stream(), 20_000)
        assert sc.num_entries > 0
        assert rec.memoized_writes > 0

    def test_result_counts(self):
        r = OutOfOrderCore(mem()).run(independent_alu_stream(), 1_000)
        assert r.instructions == 1_000
        assert r.cycles > 0
        assert r.energy_events["fetch"] == 1_000


class TestInOrderCore:
    def test_matches_ooo_on_independent_work(self):
        r_ino = InOrderCore(mem()).run(independent_alu_stream(), 20_000)
        assert r_ino.ipc > 2.5

    def test_matches_ooo_on_serial_chain(self):
        r = InOrderCore(mem()).run(serial_chain_stream(), 10_000)
        assert 0.9 < r.ipc <= 1.05

    def test_stall_on_use_allows_miss_overlap(self):
        """Independent missing loads with distant uses overlap."""
        def mlp_friendly():
            seq = 0
            while True:
                for c in range(4):
                    yield Instruction(
                        seq=seq, pc=0x1000 + (seq % 60) * 4,
                        opclass=OpClass.LOAD, dst=10 + c, srcs=(1,),
                        mem_addr=0x10000000 + seq * 4096)
                    seq += 1
                for c in range(4):
                    yield Instruction(
                        seq=seq, pc=0x1000 + (seq % 60) * 4,
                        opclass=OpClass.IALU, dst=20, srcs=(10 + c,))
                    seq += 1

        def mlp_hostile():
            seq = 0
            while True:
                for c in range(4):
                    yield Instruction(
                        seq=seq, pc=0x1000 + (seq % 60) * 4,
                        opclass=OpClass.LOAD, dst=10 + c, srcs=(1,),
                        mem_addr=0x10000000 + seq * 4096)
                    seq += 1
                    yield Instruction(
                        seq=seq, pc=0x1000 + (seq % 60) * 4,
                        opclass=OpClass.IALU, dst=20, srcs=(10 + c,))
                    seq += 1
        r_friendly = InOrderCore(mem(0)).run(mlp_friendly(), 4_000)
        r_hostile = InOrderCore(mem(1)).run(mlp_hostile(), 4_000)
        assert r_friendly.ipc > r_hostile.ipc

    def test_in_order_never_beats_ooo_on_benchmarks(self):
        for name in ("hmmer", "gobmk"):
            bench = make_benchmark(name, seed=2)
            r_ooo = OutOfOrderCore(mem(0)).run(bench.stream(), 15_000)
            r_ino = InOrderCore(mem(1)).run(bench.stream(), 15_000)
            assert r_ino.ipc <= r_ooo.ipc * 1.02

    def test_store_to_load_ordering(self):
        def st_ld():
            seq = 0
            while True:
                yield Instruction(seq=seq, pc=0x1000, opclass=OpClass.STORE,
                                  srcs=(1,), mem_addr=0x8000)
                seq += 1
                yield Instruction(seq=seq, pc=0x1004, opclass=OpClass.LOAD,
                                  dst=5, srcs=(2,), mem_addr=0x8000)
                seq += 1
        r = InOrderCore(mem()).run(st_ld(), 2_000)
        # Same-line dependence throttles well below width.
        assert r.ipc < 1.0


class TestOinOCore:
    def _producer_consumer(self, name, n=25_000, sc_bytes=None):
        bench = make_benchmark(name, seed=2)
        sc = ScheduleCache(sc_bytes)
        rec = ScheduleRecorder(sc)
        OutOfOrderCore(mem(0), recorder=rec).run(bench.stream(), n)
        r_oino = OinOCore(mem(1), sc).run(bench.stream(), n)
        r_ino = InOrderCore(mem(2)).run(bench.stream(), n)
        return r_oino, r_ino

    def test_replay_beats_plain_ino_on_memoizable(self):
        r_oino, r_ino = self._producer_consumer("hmmer")
        assert r_oino.stats.memoized_fraction > 0.8
        assert r_oino.ipc > r_ino.ipc * 1.1

    @given(
        name=st.sampled_from(ALL_BENCHMARKS),
        seed=st.integers(0, 3),
        n=st.integers(100, 4_000),
        params=st.sampled_from([INO_PARAMS, LDT_PARAMS]),
    )
    @settings(max_examples=30, deadline=None)
    def test_empty_sc_degrades_to_ino(self, name, seed, n, params):
        # With nothing to replay every trace misses and runs in program
        # order, so the OinO is the InO exactly: same stats apart from
        # its trace bookkeeping, and the same energy events in the same
        # first-touch order apart from the SC lookups it pays for.
        bench = make_benchmark(name, seed=seed)
        r_oino = OinOCore(mem(0), ScheduleCache(None), params=params).run(
            bench.stream(), n)
        r_ino = InOrderCore(mem(1), params=params).run(bench.stream(), n)
        for f in dataclasses.fields(CoreStats):
            if f.name not in ("traces", "sc_trace_misses"):
                assert (getattr(r_oino.stats, f.name)
                        == getattr(r_ino.stats, f.name)), f.name
        assert r_oino.stats.sc_trace_misses == r_oino.stats.traces
        assert [
            (k, v) for k, v in r_oino.energy_events.items() if k != "sc_read"
        ] == list(r_ino.energy_events.items())

    def test_finite_sc_memoizes_less_than_infinite(self):
        r_small, _ = self._producer_consumer("gcc", sc_bytes=1024)
        r_inf, _ = self._producer_consumer("gcc", sc_bytes=None)
        assert (r_small.stats.memoized_fraction
                <= r_inf.stats.memoized_fraction + 0.02)

    def test_unmemoizable_benchmark_low_replay(self):
        r_oino, _ = self._producer_consumer("astar")
        assert r_oino.stats.memoized_fraction < 0.4

    def test_alias_detection(self):
        insns = [
            Instruction(seq=0, pc=0x1000, opclass=OpClass.STORE,
                        srcs=(1,), mem_addr=0x8000),
            Instruction(seq=1, pc=0x1004, opclass=OpClass.LOAD, dst=5,
                        srcs=(2,), mem_addr=0x8000),
        ] + [
            Instruction(seq=2 + i, pc=0x1008 + 4 * i,
                        opclass=OpClass.IALU, dst=6, srcs=(1,))
            for i in range(8)
        ]
        from repro.schedule import Trace
        trace = Trace(start_pc=0x1000, path_hash=0, instructions=insns)
        # Load scheduled before the older same-line store: alias.
        bad = (1, 0) + tuple(range(2, 10))
        good = tuple(range(10))
        assert OinOCore._replay_aliases(trace, bad) is True
        assert OinOCore._replay_aliases(trace, good) is False

    def test_wrong_path_costs_abort(self):
        """A stored schedule for a different path aborts, not replays."""
        bench = make_benchmark("hmmer", seed=2)
        sc = ScheduleCache(None)
        rec = ScheduleRecorder(sc)
        OutOfOrderCore(mem(0), recorder=rec).run(bench.stream(), 20_000)
        # Corrupt every stored path so lookups become wrong-path.
        schedules = sc.contents()
        sc.invalidate_all()
        for s in schedules:
            sc.insert(Schedule(start_pc=s.start_pc,
                               path_hash=s.path_hash ^ 0xDEAD,
                               issue_order=s.issue_order))
        core = OinOCore(mem(1), sc)
        r = core.run(bench.stream(), 20_000)
        assert r.stats.memoized_fraction == 0.0
        assert r.stats.trace_aborts > 0

    def test_launch_gate_suppresses_hopeless_speculation(self):
        """After enough wrong-path launches the gate stops aborting."""
        bench = make_benchmark("hmmer", seed=2)
        sc = ScheduleCache(None)
        rec = ScheduleRecorder(sc)
        OutOfOrderCore(mem(0), recorder=rec).run(bench.stream(), 20_000)
        schedules = sc.contents()
        sc.invalidate_all()
        for s in schedules:
            sc.insert(Schedule(start_pc=s.start_pc,
                               path_hash=s.path_hash ^ 0xDEAD,
                               issue_order=s.issue_order))
        r = OinOCore(mem(1), sc).run(bench.stream(), 20_000)
        # Gate engages after ~8 launches per pc: aborts must be far
        # fewer than the number of traces.
        assert r.stats.trace_aborts < r.stats.traces * 0.5
