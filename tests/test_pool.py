"""Tests for the warm worker pool: identity, crashes, transport, LPT.

The contract under test is the one the CI ``--pool-gate`` enforces
end to end: the pool is a pure transport/scheduling layer.  Results
are bit-identical to serial execution whether envelopes travel via
the shared-memory ring or the inline fallback, whether dispatch is
FIFO or longest-processing-time-first, and across worker crashes.

All task helpers are module-level: pool workers resolve targets by
``module:qualname``, so they must be importable (functions defined
inside a test body would only exist in the parent's ``__main__``).
"""

import os

import pytest

from repro.runner import (
    ResultCache,
    WarmPool,
    cmp_unit,
    execute_unit,
    lpt_order,
    unit_digest,
    unit_label,
)
from repro.runner import pool as pool_mod
from repro.workloads import standard_mixes

MIXES = standard_mixes(4)[:3]


def _double(x):
    return x * 2


def _blob(n):
    """A deterministic large payload, to force the shm ring path."""
    return bytes(i % 251 for i in range(n))


def _rot13ish(blob):
    """A big-in, big-out transform (forces shm both directions)."""
    return bytes((b + 13) % 256 for b in blob)


def _crash_once(arg):
    """Die hard on the first call per flag file, then compute."""
    flag, value = arg
    if not os.path.exists(flag):
        with open(flag, "w") as fh:
            fh.write("crashed")
        os._exit(1)
    return value * 10


def _boom(x):
    raise ValueError(f"boom {x}")


@pytest.fixture
def pool():
    p = WarmPool(2)
    yield p
    p.shutdown()


class TestMapIdentity:
    def test_results_in_input_order(self, pool):
        assert pool.map(_double, list(range(20))) == [
            x * 2 for x in range(20)]

    def test_cmp_units_bit_identical_to_serial(self, pool):
        units = [cmp_unit(mix, "SC-MPKI") for mix in MIXES]
        serial = [execute_unit(u) for u in units]
        assert pool.map(execute_unit, units) == serial

    def test_lpt_dispatch_matches_fifo_results(self, pool):
        items = list(range(12))
        fifo = pool.map(_double, items)
        lpt = pool.map(_double, items,
                       costs=[float(12 - i) for i in items])
        assert lpt == fifo == [x * 2 for x in items]

    def test_task_error_propagates(self, pool):
        with pytest.raises(pool_mod.PoolTaskError, match="boom 1"):
            pool.map(_boom, [1])
        # The pool survives a task failure and keeps serving.
        assert pool.map(_double, [5]) == [10]


class TestLptOrder:
    def test_descending_and_stable(self):
        assert lpt_order([1.0, 3.0, 2.0, 3.0]) == [1, 3, 2, 0]

    def test_unknown_costs_go_first(self):
        assert lpt_order([1.0, None, 5.0]) == [1, 2, 0]

    def test_deterministic(self):
        costs = [2.0, None, 7.0, 7.0, 0.5]
        assert lpt_order(costs) == lpt_order(list(costs))


class TestCrashRecovery:
    def test_crashed_worker_is_respawned_and_batch_requeued(
            self, tmp_path):
        pool = WarmPool(2)
        try:
            flag = str(tmp_path / "crash-flag")
            args = [(flag, v) for v in (1, 2, 3)]
            assert pool.map(_crash_once, args) == [10, 20, 30]
            assert pool.stats.respawns >= 1
            assert pool.alive
            # And the pool still works after the respawn.
            assert pool.map(_double, [7]) == [14]
        finally:
            pool.shutdown()


class TestTransport:
    def test_large_payloads_use_shared_memory(self, pool):
        if pool.ring is None:
            pytest.skip("no shared-memory support on this box")
        blobs = [_blob(200_000), _blob(300_000)]
        out = pool.map(_rot13ish, blobs)
        assert out == [_rot13ish(b) for b in blobs]
        assert pool.stats.shm_batches >= 1
        assert pool.stats.shm_results >= 1

    def test_exhausted_ring_falls_back_inline(self):
        # A ring too small for the payload: every envelope must take
        # the inline path and results must be unchanged.
        pool = WarmPool(2, ring_bytes=4096)
        try:
            blobs = [_blob(200_000), _blob(300_000)]
            assert pool.map(_rot13ish, blobs) == [
                _rot13ish(b) for b in blobs]
            assert pool.stats.shm_batches == 0
            assert pool.stats.inline_batches >= 1
        finally:
            pool.shutdown()

    def test_envelope_round_trip(self):
        obj = {"a": bytes(range(256)) * 100, "b": [1.5, None, "x"]}
        segments = pool_mod.encode_envelope(obj)
        assert pool_mod.decode_envelope(segments) == obj


class TestToggle:
    def test_shared_raises_when_disabled(self):
        old = pool_mod._enabled
        try:
            pool_mod.set_warm_pool_enabled(False)
            with pytest.raises(pool_mod.PoolUnavailable):
                WarmPool.shared(2)
        finally:
            pool_mod._enabled = old

    def test_disabled_inside_pool_worker(self, monkeypatch):
        monkeypatch.setenv(pool_mod.WORKER_ENV_VAR, "1")
        assert not pool_mod.warm_pool_enabled()


class TestCacheKeying:
    def test_key_material_ignores_pool_toggle(self, tmp_path,
                                              monkeypatch):
        cache = ResultCache(tmp_path)
        unit = cmp_unit(MIXES[0], "maxSTP")
        monkeypatch.setenv(pool_mod.ENV_VAR, "1")
        key_on = cache.key_material(unit)
        monkeypatch.setenv(pool_mod.ENV_VAR, "0")
        key_off = cache.key_material(unit)
        assert key_on == key_off
        assert "pool" not in key_on

    def test_timings_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        unit = cmp_unit(MIXES[0], "SC-MPKI")
        digest = unit_digest(unit)
        cache.record_timings("fig7", {digest: 1.25})
        assert cache.load_timings("fig7") == {digest: 1.25}
        # Merge-on-write keeps earlier entries.
        cache.record_timings("fig7", {"other": 0.5})
        assert cache.load_timings("fig7") == {digest: 1.25,
                                              "other": 0.5}

    @pytest.mark.parametrize("text", [
        "not json {", "[1]", "null", '"wall"', '{"wall": [1]}',
        '{"wall": {"d": "slow"}}', '{"wall": {"d": null}}',
    ], ids=["garbage", "list", "null", "string", "wall-list",
            "wall-text", "wall-null"])
    def test_malformed_hints_file_reads_as_empty(self, tmp_path, text):
        cache = ResultCache(tmp_path)
        path = cache.timings_path("fig7")
        path.parent.mkdir(parents=True)
        path.write_text(text)
        assert cache.load_timings("fig7") == {}
        # Recording never fails a sweep: it replaces the bad file.
        cache.record_timings("fig7", {"d": 0.5})
        assert cache.load_timings("fig7") == {"d": 0.5}

    def test_unit_digest_is_version_free(self, monkeypatch):
        import repro

        unit = cmp_unit(MIXES[0], "SC-MPKI")
        before = unit_digest(unit)
        monkeypatch.setattr(repro, "__version__", "9.9.9")
        assert unit_digest(unit) == before
        # Content alone: an equal unit, whichever experiment built it,
        # has the same digest; a different unit does not.
        assert unit_digest(cmp_unit(MIXES[0], "SC-MPKI")) == before
        assert unit_digest(cmp_unit(MIXES[0], "maxSTP")) != before

    def test_unit_label_is_compact(self):
        label = unit_label(cmp_unit(MIXES[0], "SC-MPKI"))
        assert "SC-MPKI" in label
        assert len(label) < 120
