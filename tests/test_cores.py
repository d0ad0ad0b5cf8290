"""Unit tests for the cycle-level core models."""

import dataclasses
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from repro.cores import (
    INO_PARAMS,
    LDT_PARAMS,
    CGOoOCore,
    CoreStats,
    InOrderCore,
    OinOCore,
    OutOfOrderCore,
)
from repro.cores.functional_units import (
    DEFAULT_FU_COUNTS,
    FU_TYPE_BY_OP,
    FUPool,
    fu_type_for,
)
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


class SlotPool:
    """Reference model: one resource's per-cycle occupancy, the table
    the cores kept per resource before FUPool packed them into one.

    Cycle indices only grow over a run; entries far behind the
    high-water mark are pruned in bulk to bound memory.
    """

    def __init__(self, capacity, prune_window=50_000):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._used = {}
        self._horizon = 0
        self._prune_at = prune_window

    def earliest_free(self, cycle, span=1):
        """First cycle >= *cycle* with *span* consecutive free slots."""
        c = cycle
        while True:
            for offset in range(span):
                if self._used.get(c + offset, 0) >= self.capacity:
                    c = c + offset + 1
                    break
            else:
                return c

    def reserve(self, cycle, span=1):
        """Consume one slot in each of cycles [cycle, cycle+span)."""
        for c in range(cycle, cycle + span):
            self._used[c] = self._used.get(c, 0) + 1
        self._horizon = max(self._horizon, cycle)
        if len(self._used) > self._prune_at:
            floor = self._horizon - self._prune_at // 2
            self._used = {c: n for c, n in self._used.items() if c >= floor}

    def usage_at(self, cycle):
        return self._used.get(cycle, 0)


class ReferenceFUPool:
    """Reference model: the two-SlotPool scan FUPool replaced, one pool
    for the issue slots and one per unit type."""

    def __init__(self, width, counts=None, prune_window=50_000):
        counts = DEFAULT_FU_COUNTS if counts is None else counts
        self.issue_slots = SlotPool(width, prune_window)
        self.units = {fu: SlotPool(n, prune_window)
                      for fu, n in counts.items()}

    def issue_at(self, opclass, earliest, latency):
        unit = self.units[fu_type_for(opclass)]
        span = latency if opclass in (OpClass.IDIV, OpClass.FDIV) else 1
        cycle = earliest
        while True:
            cycle = self.issue_slots.earliest_free(cycle)
            unit_cycle = unit.earliest_free(cycle, span)
            if unit_cycle == cycle:
                self.issue_slots.reserve(cycle)
                unit.reserve(cycle, span)
                return cycle
            cycle = unit_cycle


class TestSlotPool:
    """The reference model itself, so that agreeing with it means
    something."""

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


#: One unit of each type, so a single op fills its unit for a cycle.
SINGLE_UNITS = {fu: 1 for fu in DEFAULT_FU_COUNTS}


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
        assert [fu_type_for(op) for op in OpClass] == list(FU_TYPE_BY_OP)

    def test_span_holds_the_unit_not_the_issue_slot(self):
        pool = FUPool(width=1)
        assert pool.issue_at(OpClass.IDIV, 3, 4) == 3   # unit busy 3..6
        assert pool.issue_at(OpClass.IMUL, 3, 3) == 7
        assert pool.issue_at(OpClass.IALU, 4, 1) == 4
        assert pool.issue_at(OpClass.IDIV, 0, 3) == 0

    def test_span_scan_restarts_past_mid_window_conflict(self):
        pool = FUPool(width=3)
        pool.issue_at(OpClass.IMUL, 2, 3)               # unit busy at 2
        assert pool.issue_at(OpClass.IDIV, 0, 4) == 3

    def test_span_scan_walks_repeated_conflicts(self):
        pool = FUPool(width=3)
        for busy in (1, 3, 5):
            pool.issue_at(OpClass.IMUL, busy, 3)
        assert pool.issue_at(OpClass.IDIV, 0, 2) == 6

    def test_span_scan_skips_full_issue_cycles(self):
        pool = FUPool(width=1)
        pool.issue_at(OpClass.IALU, 0, 1)               # cycle 0 full
        assert pool.issue_at(OpClass.FDIV, 0, 16) == 1
        assert pool.issue_at(OpClass.FDIV, 0, 16) == 17

    def test_overlapping_spans_accumulate(self):
        pool = FUPool(width=3, counts={**DEFAULT_FU_COUNTS, "int_mul": 2})
        assert pool.issue_at(OpClass.IDIV, 0, 3) == 0
        assert pool.issue_at(OpClass.IDIV, 0, 3) == 0   # cycles 0..2 full
        assert pool.issue_at(OpClass.IDIV, 0, 2) == 3
        assert pool.issue_at(OpClass.IMUL, 2, 3) == 3   # one unit free
        assert pool.issue_at(OpClass.IMUL, 3, 3) == 4

    def test_span_survives_pruning(self):
        # A long span written after the table was pruned must stay
        # accurate for recent cycles.
        pool = FUPool(width=1, counts=SINGLE_UNITS, prune_window=64)
        for c in range(0, 120, 2):
            assert pool.issue_at(OpClass.IALU, c, 1) == c
        assert len(pool._used) <= 64                    # pruned
        assert pool.issue_at(OpClass.IDIV, 200, 8) == 200  # busy 200..207
        assert pool.issue_at(OpClass.IMUL, 200, 3) == 208
        assert pool.issue_at(OpClass.IDIV, 199, 4) == 209

    def test_pruning_keeps_recent(self):
        pool = FUPool(width=1, prune_window=100)
        for c in range(0, 500, 2):
            assert pool.issue_at(OpClass.IALU, c, 1) == c
        assert len(pool._used) <= 100
        # Old cycles may be pruned, recent ones must remain accurate.
        assert pool.issue_at(OpClass.BRANCH, 498, 1) == 499

    @pytest.mark.parametrize("width, counts", [
        (0, None), (256, None), (-1, None),
        (3, {**DEFAULT_FU_COUNTS, "int_alu": 0}),
        (3, {**DEFAULT_FU_COUNTS, "mem_port": 256}),
    ])
    def test_rejects_sizes_outside_one_to_255(self, width, counts):
        with pytest.raises(ValueError):
            FUPool(width, counts)

    def test_accepts_255_of_everything(self):
        pool = FUPool(255, {fu: 255 for fu in DEFAULT_FU_COUNTS})
        cycles = [pool.issue_at(OpClass.LOAD, 0, 1) for _ in range(256)]
        assert cycles == [0] * 255 + [1]

    @given(
        width=st.integers(1, 4),
        prune_window=st.integers(2, 48),
        requests=st.lists(
            st.tuples(st.sampled_from(list(OpClass)),
                      st.integers(-24, 6), st.integers(0, 20)),
            min_size=1, max_size=150),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_two_pool_reference(self, width, prune_window,
                                        requests):
        # Same requests, same issue cycles.  Earliest cycles wander
        # back and forth around the latest issue, but never further
        # back than the prune window keeps (the pools' contract).
        pool = FUPool(width, prune_window=prune_window)
        ref = ReferenceFUPool(width, prune_window=prune_window)
        latest = 0
        for op, offset, latency in requests:
            earliest = max(0, latest - prune_window // 2, latest + offset)
            cycle = pool.issue_at(op, earliest, latency)
            assert cycle == ref.issue_at(op, earliest, latency)
            assert cycle >= earliest
            latest = max(latest, cycle)

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


class TestEnergyEventOrder:
    """Energy events keep their keys in first-touch order, and
    ``CoreEnergyModel.breakdown`` sums in that order, so the order is
    part of every energy float.  Pinned on one seeded window that
    reaches every key, divides and an OinO abort included."""

    EXPECTED = {
        "ooo": [
            ("sc_write", 35), ("icache", 177), ("fetch", 2000),
            ("decode", 2000), ("rename", 2000), ("rob", 2000),
            ("scheduler", 2000), ("prf_read", 3472), ("prf_write", 1753),
            ("lsq", 280), ("dcache", 280), ("l2", 66), ("bpred", 141),
            ("int_alu", 424), ("branch", 141), ("fp_alu", 945),
            ("int_mul", 175), ("mem_port", 280), ("fp_div", 35),
        ],
        "ino": [
            ("icache", 177), ("fetch", 2000), ("decode", 2000),
            ("rf_read", 3472), ("int_alu", 424), ("rf_write", 1753),
            ("branch", 141), ("bpred", 141), ("fp_alu", 945),
            ("int_mul", 175), ("dcache", 280), ("l2", 66),
            ("mem_port", 280), ("fp_div", 35),
        ],
        "ldt": [
            ("icache", 177), ("fetch", 2000), ("decode", 2000),
            ("rf_read", 3472), ("int_alu", 424), ("rf_write", 1753),
            ("branch", 141), ("bpred", 141), ("fp_alu", 945),
            ("int_mul", 175), ("dcache", 280), ("l2", 66),
            ("mem_port", 280), ("lsq", 40), ("fp_div", 35),
        ],
        "oino": [
            ("sc_read", 1973), ("decode", 2000), ("oino_prf", 1938),
            ("rf_read", 3472), ("int_alu", 424), ("rf_write", 1753),
            ("branch", 141), ("fp_alu", 945), ("dcache", 280),
            ("oino_lsq", 272), ("l2", 66), ("mem_port", 280),
            ("int_mul", 175), ("fp_div", 35), ("icache", 7),
            ("fetch", 62), ("bpred", 5),
        ],
        "cgooo": [
            ("sc_read", 1917), ("bw_select", 119), ("icache", 177),
            ("fetch", 2000), ("decode", 2000), ("bw_window", 2000),
            ("rf_read", 3472), ("int_alu", 424), ("rf_write", 1753),
            ("branch", 141), ("bpred", 141), ("fp_alu", 945),
            ("int_mul", 175), ("dcache", 280), ("l2", 66),
            ("mem_port", 280), ("fp_div", 35), ("sc_write", 3),
        ],
    }

    def test_keys_values_and_order(self):
        n = 2_000
        window = list(islice(make_benchmark("calculix", seed=1).stream(), n))
        sc = ScheduleCache(None)
        cores = {   # in run order: the OinO replays the OoO's recording
            "ooo": OutOfOrderCore(mem(0), recorder=ScheduleRecorder(sc)),
            "ino": InOrderCore(mem(1)),
            "ldt": InOrderCore(mem(1), params=LDT_PARAMS),
            "oino": OinOCore(mem(2), sc),
            "cgooo": CGOoOCore(mem(3), ScheduleCache(8 * 1024)),
        }
        results = {kind: core.run(iter(window), n)
                   for kind, core in cores.items()}
        assert results["oino"].stats.trace_aborts == 1
        for kind, expected in self.EXPECTED.items():
            assert list(results[kind].energy_events.items()) == expected, \
                kind


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
        sc = ScheduleCache(None)
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
        sc = ScheduleCache(None)
        for s in schedules:
            sc.insert(Schedule(start_pc=s.start_pc,
                               path_hash=s.path_hash ^ 0xDEAD,
                               issue_order=s.issue_order))
        r = OinOCore(mem(1), sc).run(bench.stream(), 20_000)
        # Gate engages after ~8 launches per pc: aborts must be far
        # fewer than the number of traces.
        assert r.stats.trace_aborts < r.stats.traces * 0.5
