"""Tests for the ``repro.simcache.SliceMemo`` LRU class.

Nothing in ``src`` runs the memo any more: the detailed tier simulates
every slice.  The class stays while the benchmark still reads
``SliceMemo.shared()``, so its bounded-LRU contract stays pinned here.
"""

import pytest

from repro import simcache
from repro.simcache import SliceMemo


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
