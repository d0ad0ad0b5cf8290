"""Tests for the warm worker pool: identity, crashes, transport.

The contract under test: the pool is a pure transport/scheduling
layer.  Results are bit-identical to serial execution for small and
large pickled batches and across worker crashes; a call that raises
leaves nothing behind for the next one, a pool without workers
refuses work so callers run serially, and workers do not outlive
their parent.  ``tests/test_equivalence.py`` draws
randomized batches against serial execution.

All task helpers are module-level: pool workers resolve targets by
``module:qualname``, so they must be importable (functions defined
inside a test body would only exist in the parent's ``__main__``).
"""

import json
import os
import pickle
import signal
import subprocess
import sys
import time

import pytest

from repro.runner import (
    SweepRunner,
    WarmPool,
    call_unit,
    cmp_unit,
    execute_unit,
    unit_digest,
    unit_label,
)
from repro.runner import pool as pool_mod
from repro.workloads import standard_mixes

MIXES = standard_mixes(4)[:3]


def _double(x):
    return x * 2


def _blob(n):
    """A deterministic large payload."""
    return bytes(i % 251 for i in range(n))


def _rot13ish(blob):
    """A big-in, big-out transform (large envelopes both ways)."""
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


def _sleep(seconds):
    time.sleep(seconds)
    return {"slept": seconds}


def _unpicklable(x):
    """A result the return trip cannot pickle."""
    return lambda: x


NESTED_UNITS = [call_unit("builtins:sorted", [3, 1, 2]),
                call_unit("builtins:len", [1, 2])]


def _nested_sweep(_):
    """A ``jobs=2`` sweep started from inside a pool worker."""
    runner = SweepRunner(jobs=2)
    return runner.map(NESTED_UNITS), runner.stats.mode


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

    def test_task_error_propagates(self, pool):
        with pytest.raises(pool_mod.PoolTaskError, match="boom 1"):
            pool.map(_boom, [1])
        # The pool survives a task failure and keeps serving.
        assert pool.map(_double, [5]) == [10]

    def test_raising_map_leaks_nothing_into_the_next_call(self, pool):
        # The second item cannot be pickled, so map raises while the
        # first batch is still running on a worker.
        with pytest.raises((pickle.PicklingError, AttributeError)):
            pool.map(_sleep, [0.5, lambda: None])
        time.sleep(0.8)         # the orphaned batch has replied by now
        assert pool.map(_sleep, [0.0]) == [{"slept": 0.0}]
        assert pool.map(_sleep, [0.0]) == [{"slept": 0.0}]

    def test_submit_resolves_one_batch(self, pool):
        future = pool.submit(_double, [1, 2, 3])
        assert future.result(timeout=30) == [2, 4, 6]


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


class TestNoLiveWorkers:
    def test_map_raises_pool_unavailable(self):
        pool = WarmPool(1)
        pool.shutdown()
        with pytest.raises(pool_mod.PoolUnavailable):
            pool.map(abs, [-1])

    def test_sweep_falls_back_to_serial(self, monkeypatch):
        # Every worker gone between WarmPool.shared() and map: the
        # runner must run the batch serially, not crash.
        dead = WarmPool(1)
        dead.shutdown()
        monkeypatch.setattr(WarmPool, "shared",
                            classmethod(lambda cls, workers=None: dead))
        runner = SweepRunner(jobs=2)
        assert (runner.map(NESTED_UNITS)
                == SweepRunner(jobs=1).map(NESTED_UNITS))
        assert runner.stats.mode == "serial"


def _running(pid):
    """True while *pid* is a live (non-zombie) process."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rpartition(")")[2].split()[0] != "Z"
    except OSError:                 # gone (or going) from /proc
        return False


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_workers_exit_when_their_parent_is_killed():
    script = ("import json, multiprocessing, time\n"
              "from repro.runner import WarmPool\n"
              "pool = WarmPool(2)\n"
              "print(json.dumps([p.pid for p in "
              "multiprocessing.active_children()]), flush=True)\n"
              "time.sleep(60)\n")
    parent = subprocess.Popen([sys.executable, "-c", script],
                              stdout=subprocess.PIPE, text=True)
    pids = []
    try:
        pids = json.loads(parent.stdout.readline())
        assert len(pids) == 2
        parent.kill()
        parent.wait(timeout=10)
        deadline = time.monotonic() + 5.0
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, pids)), "workers outlived the parent"
    finally:
        parent.kill()
        parent.stdout.close()
        for pid in filter(_running, pids):
            os.kill(pid, signal.SIGKILL)


class TestTransport:
    def test_large_payloads_round_trip(self, pool):
        blobs = [_blob(200_000), _blob(300_000)]
        out = pool.map(_rot13ish, blobs)
        assert out == [_rot13ish(b) for b in blobs]

    def test_unpicklable_result_fails_its_task(self, pool):
        with pytest.raises(pool_mod.PoolTaskError, match="pickle"):
            pool.map(_unpicklable, [1])
        assert pool.map(_double, [5]) == [10]


class TestNesting:
    def test_disabled_inside_pool_worker(self, monkeypatch):
        monkeypatch.setenv(pool_mod.WORKER_ENV_VAR, "1")
        with pytest.raises(pool_mod.PoolUnavailable):
            WarmPool.shared(2)

    def test_nested_sweep_runs_serially(self, pool):
        serial = SweepRunner(jobs=1).map(NESTED_UNITS)
        assert pool.map(_nested_sweep, [0]) == [(serial, "serial")]


class TestCacheKeying:
    def test_unit_digest_is_content_only(self):
        # An equal unit, whichever experiment built it, has the same
        # digest; a different unit does not.
        before = unit_digest(cmp_unit(MIXES[0], "SC-MPKI"))
        assert unit_digest(cmp_unit(MIXES[0], "SC-MPKI")) == before
        assert unit_digest(cmp_unit(MIXES[0], "maxSTP")) != before

    def test_unit_label_is_compact(self):
        label = unit_label(cmp_unit(MIXES[0], "SC-MPKI"))
        assert "SC-MPKI" in label
        assert len(label) < 120
