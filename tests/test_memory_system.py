"""Unit tests for prefetcher, bus and the hierarchy."""

import gc

import pytest

from repro.memory import MemoryHierarchy, SharedBus, StridePrefetcher
from repro.memory.hierarchy import L1_LATENCY, L2_LATENCY, MEM_LATENCY


class TestStridePrefetcher:
    def test_detects_constant_stride(self):
        pf = StridePrefetcher(degree=2, confirm_threshold=2)
        pc = 0x1000
        issued = []
        for i in range(6):
            issued = pf.observe(pc, 0x8000 + i * 64)
        assert issued == [0x8000 + 6 * 64, 0x8000 + 7 * 64]

    def test_no_prefetch_before_confirmation(self):
        pf = StridePrefetcher(confirm_threshold=2)
        assert pf.observe(0x1000, 0x8000) == []
        assert pf.observe(0x1000, 0x8040) == []

    def test_random_addresses_never_confirm(self):
        pf = StridePrefetcher()
        addrs = [0x8000, 0x9137, 0x8890, 0xA001, 0x8123]
        for a in addrs:
            assert pf.observe(0x1000, a) == []

    def test_stride_change_resets_confidence(self):
        pf = StridePrefetcher(confirm_threshold=2)
        for i in range(5):
            pf.observe(0x1000, 0x8000 + i * 64)
        pf.observe(0x1000, 0x20000)        # break the pattern
        assert pf.observe(0x1000, 0x20040) == []   # must re-confirm

    def test_table_eviction(self):
        pf = StridePrefetcher(entries=2)
        pf.observe(0x1000, 0x8000)
        pf.observe(0x2000, 0x9000)
        pf.observe(0x3000, 0xA000)   # evicts 0x1000
        assert len(pf._table) == 2


class TestSharedBus:
    def test_transfer_duration(self):
        bus = SharedBus(width_bytes=32)
        start, finish = bus.transfer(0, 64)
        assert (start, finish) == (0, 2)

    def test_partial_beat_rounds_up(self):
        bus = SharedBus(width_bytes=32)
        assert bus.beats_for(33) == 2
        assert bus.beats_for(32) == 1

    def test_contention_queues(self):
        bus = SharedBus(width_bytes=32)
        bus.transfer(0, 320)          # busy until cycle 10
        start, finish = bus.transfer(5, 32)
        assert start == 10 and finish == 11
        assert bus.stats.contention_cycles == 5

    def test_zero_bytes_is_free(self):
        bus = SharedBus()
        assert bus.transfer(7, 0) == (7, 7)
        assert bus.stats.transfers == 0

    def test_occupancy(self):
        bus = SharedBus(width_bytes=32)
        bus.transfer(0, 320)
        assert bus.occupancy(20) == pytest.approx(0.5)
        assert bus.occupancy(0) == 0.0


class TestHierarchy:
    def test_l1_hit_latency(self):
        mem = MemoryHierarchy().core_view(0)
        mem.load(0x100, 0x8000)
        res = mem.load(0x100, 0x8000)
        assert res.l1_hit and res.latency == L1_LATENCY

    def test_l2_hit_latency(self):
        hier = MemoryHierarchy()
        c0, c1 = hier.core_view(0), hier.core_view(1)
        c0.load(0x100, 0x8000)       # fills L2
        c1.load(0x100, 0x8040)       # warms c1's DTLB for the page
        # now=100: past the earlier refills' bus occupancy.
        res = c1.load(0x100, 0x8000, now=100)
        assert not res.l1_hit and res.l2_hit
        assert res.latency == L1_LATENCY + L2_LATENCY

    def test_memory_latency(self):
        mem = MemoryHierarchy().core_view(0)
        mem.load(0x100, 0x8040)      # warm the DTLB for this page
        res = mem.load(0x100, 0x8000, now=100)
        assert res.went_to_memory
        assert res.latency == L1_LATENCY + L2_LATENCY + MEM_LATENCY

    def test_bus_contention_adds_latency(self):
        hier = MemoryHierarchy()
        c0, c1 = hier.core_view(0), hier.core_view(1)
        c0.load(0x100, 0x8000)             # refill occupies the bus
        res = c1.load(0x100, 0x8000, now=0)  # queues behind it
        assert res.latency > L1_LATENCY + L2_LATENCY

    def test_tlb_miss_adds_walk_latency(self):
        mem = MemoryHierarchy().core_view(0)
        mem.load(0x100, 0x8000)            # warm line + TLB
        far = mem.load(0x100, 0x8000 + (1 << 22))  # new page, cold line
        near = mem.load(0x100, 0x8000)     # warm everything
        assert near.latency == L1_LATENCY
        assert far.latency > L1_LATENCY

    def test_migration_flushes_tlbs(self):
        mem = MemoryHierarchy().core_view(0)
        mem.load(0x100, 0x8000)
        assert mem.dtlb.resident > 0
        mem.flush_for_migration()
        assert mem.dtlb.resident == 0
        assert mem.itlb.resident == 0

    def test_l1_hits_share_one_result_per_tlb_outcome(self):
        mem = MemoryHierarchy().core_view(0)
        mem.load(0x100, 0x8000)
        first = mem.load(0x100, 0x8000)
        assert first.l1_hit and first.latency == L1_LATENCY
        assert mem.store(0x104, 0x8008) is first
        mem.fetch(0x4000)
        assert mem.fetch(0x4000) is first
        mem.dtlb.flush()
        walked = mem.load(0x100, 0x8000)
        assert walked.l1_hit
        assert walked.latency == L1_LATENCY + mem.dtlb.walk_latency
        mem.dtlb.flush()
        assert mem.store(0x104, 0x8010) is walked

    def test_build_allocates_for_touched_state_only(self):
        # The L2 alone models 2,048 sets; building a hierarchy and a
        # core view must not allocate per modelled set or line (the
        # collector counts container allocations, empty dicts too).
        MemoryHierarchy().core_view(0)
        gc.collect()
        gc.disable()
        try:
            before = gc.get_count()[0]
            MemoryHierarchy().core_view(0)
            allocated = gc.get_count()[0] - before
        finally:
            gc.enable()
        assert allocated < 50

    def test_core_views_are_cached(self):
        hier = MemoryHierarchy()
        assert hier.core_view(3) is hier.core_view(3)

    def test_fetch_uses_l1i(self):
        mem = MemoryHierarchy().core_view(0)
        mem.fetch(0x4000)
        assert mem.l1i.stats.accesses == 1
        assert mem.l1d.stats.accesses == 0

    def test_migration_flush(self):
        hier = MemoryHierarchy()
        mem = hier.core_view(0)
        mem.load(0x100, 0x8000)
        mem.store(0x104, 0x9000)
        dirty, resident = mem.flush_for_migration()
        assert dirty == 1 and resident == 2
        assert mem.l1d.resident_lines == 0

    def test_prefetcher_fills_l2(self):
        hier = MemoryHierarchy()
        mem = hier.core_view(0)
        # Strided misses train the L2 prefetcher.
        for i in range(8):
            mem.load(0x100, 0x100000 + i * 64)
        assert hier.prefetcher.issued > 0
