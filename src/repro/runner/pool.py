"""Warm worker pools: persistent processes, pickled batches, LPT.

Every parallel path in the repo used to pay a fresh
``ProcessPoolExecutor`` per call: :class:`~repro.runner.executor
.SweepRunner` spawned one per sweep, :func:`repro.cmp.sharded.fan_out`
one per fan-out, and a ``mirage all --jobs N`` run therefore forked
and tore down a pool per experiment.  :class:`WarmPool` replaces that
churn with a **process-global pool of persistent workers**: spawned
once, preloaded with :mod:`repro` (inherited under ``fork``, imported
at startup under ``spawn``), reused across sweeps and fan-outs, and
respawned on crash with the in-flight batch requeued — the same
discipline the experiment-service fleet applies to its TCP workers.

Transport
---------
A batch travels to its worker as one :func:`pickle.dumps` bytes object
on the worker's inbox, and its results come back the same way on the
shared outbox.  The worker pickles its results inside the task's
``try``, so an unpicklable result fails its task like any other error
instead of vanishing in the queue's feeder thread.  Work units and
their payloads are small, so the queue pipes carry them directly.

Scheduling
----------
:meth:`WarmPool.map` returns results in input order but *dispatches*
longest-expected-first when per-item cost hints are given
(:func:`lpt_order` — unknown costs are conservatively treated as
infinite and go first).  Assignment is demand-driven — an idle worker
immediately pulls the next pending batch, which is work stealing by
construction — and cheap items are coalesced into dynamic chunks
(:func:`chunk_sizes`) so queue round-trips never dominate wide sweeps
of tiny units.  With LPT ordering, a sweep's wall clock tracks its
critical path instead of its submission order.

Fallback
--------
Every parallel path goes through the pool, and every caller runs
serially when the pool raises :class:`PoolUnavailable`: when workers
cannot be spawned here, or when the caller is itself a pool worker.
Worker processes set ``MIRAGE_POOL_WORKER``, so a nested fan-out
inside a worker degrades to the serial path instead of forking
grandchildren.  The pool is a pure transport/scheduling layer:
results are bit-identical to serial execution by construction (same
``execute_unit``, same deterministic merge order), and the CI
``--pool-gate`` holds ``--jobs 2`` to ``--jobs 1`` byte for byte.
"""

from __future__ import annotations

import atexit
import os
import pickle
import queue as queue_mod
import time
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

#: Set inside pool workers; nested pool use degrades to serial there.
WORKER_ENV_VAR = "MIRAGE_POOL_WORKER"

#: How many times a batch survives a worker crash before its items
#: are failed (the service fleet's respawn-budget idea, per batch).
MAX_CRASH_RETRIES = 2

#: Poll interval while waiting on results; liveness checks run on
#: this cadence, so crash detection latency is bounded by it.
POLL_SECONDS = 0.05

#: Every live pool, so the atexit sweep can stop the workers even of
#: pools a caller forgot to shut down.
_all_pools: "weakref.WeakSet[WarmPool] | None" = None


def _nested() -> bool:
    """True inside a pool worker (daemonic: it cannot fork children)."""
    return os.environ.get(WORKER_ENV_VAR) == "1"


class PoolUnavailable(RuntimeError):
    """The pool cannot run here (sandbox or nesting).

    Callers catch this and run serially, which is bit-identical by
    construction.
    """


class PoolTaskError(RuntimeError):
    """A task function raised (or crashed its worker beyond retries)."""


# ----------------------------------------------------------------------
# Scheduling helpers
# ----------------------------------------------------------------------
def lpt_order(costs: Sequence[float | None]) -> list[int]:
    """Longest-processing-time-first dispatch order over *costs*.

    Items with unknown cost (``None``) are conservatively treated as
    infinitely long and dispatched first (in index order); known
    costs follow in descending order, ties broken by index — the
    whole order is a pure function of *costs*, so identical sweeps
    dispatch identically.
    """
    return sorted(
        range(len(costs)),
        key=lambda i: (costs[i] is not None, -(costs[i] or 0.0), i))


def chunk_sizes(n_items: int, n_workers: int) -> int:
    """Dynamic chunk width for *n_items* over *n_workers*.

    Small batches dispatch singly (best makespan: nothing queues
    behind a long item); wide sweeps of cheap items coalesce so the
    queue round-trip cost stays sublinear.  Mirrors the classic
    executor heuristic but re-evaluated per dispatch, so the tail of
    a sweep always degrades back to single-item assignments.
    """
    if n_items <= 2 * n_workers:
        return 1
    return min(16, max(1, n_items // (4 * n_workers)))


# ----------------------------------------------------------------------
# The worker loop
# ----------------------------------------------------------------------
def _resolve_target(target: str, cache: dict) -> Callable:
    fn = cache.get(target)
    if fn is None:
        import importlib

        mod_name, _, fn_name = target.partition(":")
        fn = importlib.import_module(mod_name)
        for part in fn_name.split("."):
            fn = getattr(fn, part)
        cache[target] = fn
    return fn


def _worker_main(worker_seq: int, inbox, outbox) -> None:
    """One persistent worker: read batches, execute, reply. Forever.

    The worker is intentionally dumb (the service fleet's design):
    no queueing, no retry — crash handling lives in the parent, so
    killing a worker at any moment is safe.
    """
    os.environ[WORKER_ENV_VAR] = "1"
    import repro  # noqa: F401 — preload (no-op under fork)

    fn_cache: dict[str, Callable] = {}
    while True:
        message = inbox.get()
        if message[0] == "stop":
            break
        _, batch_id, target, payload = message
        try:
            fn = _resolve_target(target, fn_cache)
            results = [fn(item) for item in pickle.loads(payload)]
            reply = pickle.dumps(results, protocol=pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:  # noqa: BLE001 — reported upstream
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            try:
                outbox.put(("fail", worker_seq, batch_id,
                            f"{type(exc).__name__}: {exc}"))
            except Exception:
                break
            continue
        outbox.put(("ok", worker_seq, batch_id, reply))


# ----------------------------------------------------------------------
# Parent-side pool
# ----------------------------------------------------------------------
@dataclass
class _Worker:
    seq: int
    process: Any
    inbox: Any
    batch: "_Batch | None" = None    #: in flight, or None when idle


@dataclass
class _Batch:
    batch_id: int
    indices: tuple[int, ...]         #: positions in the caller's items
    retries: int = 0


@dataclass
class PoolStats:
    """Lifetime counters for one :class:`WarmPool`."""

    batches: int = 0
    tasks: int = 0
    respawns: int = 0
    maps: int = 0
    spawned_workers: int = 0
    dispatch_orders: list = field(default_factory=list)

    def summary(self) -> str:
        return (f"{self.maps} maps, {self.tasks} tasks in "
                f"{self.batches} batches, "
                f"{self.respawns} respawns")


class WarmPool:
    """A pool of persistent workers shared across sweeps and fan-outs.

    Args:
        workers: worker processes to keep warm (>= 1).

    Raises:
        PoolUnavailable: worker processes cannot be spawned here, or
            this process is itself a pool worker.
    """

    _shared: "WarmPool | None" = None

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if _nested():
            raise PoolUnavailable("nested inside a pool worker")
        import multiprocessing

        self._ctx = multiprocessing.get_context()
        self.stats = PoolStats()
        self._workers: list[_Worker] = []
        self._seq = 0
        self._batch_seq = 0
        self._closed = False
        try:
            self._outbox = self._ctx.Queue()
        except (OSError, PermissionError) as exc:
            raise PoolUnavailable(f"no queue support: {exc}") from exc
        try:
            for _ in range(workers):
                self._spawn()
        except (OSError, PermissionError) as exc:
            self.shutdown()
            raise PoolUnavailable(f"cannot spawn workers: {exc}") from exc
        global _all_pools
        if _all_pools is None:
            _all_pools = weakref.WeakSet()
            atexit.register(_shutdown_all)
        _all_pools.add(self)

    # -- lifecycle -----------------------------------------------------
    def _spawn(self) -> _Worker:
        self._seq += 1
        inbox = self._ctx.SimpleQueue()
        process = self._ctx.Process(
            target=_worker_main,
            args=(self._seq, inbox, self._outbox),
            name=f"mirage-pool-{self._seq}",
            daemon=True,
        )
        process.start()
        worker = _Worker(seq=self._seq, process=process, inbox=inbox)
        self._workers.append(worker)
        self.stats.spawned_workers += 1
        return worker

    def ensure(self, workers: int) -> None:
        """Grow the pool to at least *workers* live processes."""
        self._reap(requeue=None)
        while len(self._workers) < workers:
            try:
                self._spawn()
            except (OSError, PermissionError) as exc:
                if not self._workers:
                    raise PoolUnavailable(
                        f"cannot spawn workers: {exc}") from exc
                return

    @property
    def size(self) -> int:
        return len(self._workers)

    @property
    def alive(self) -> bool:
        return bool(self._workers) and not self._closed

    def shutdown(self) -> None:
        """Stop every worker."""
        self._closed = True
        for worker in self._workers:
            try:
                worker.inbox.put(("stop",))
            except Exception:
                pass
        deadline = time.monotonic() + 1.0
        for worker in self._workers:
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.terminate()
        self._workers.clear()
        if WarmPool._shared is self:
            WarmPool._shared = None

    # -- the shared pool ----------------------------------------------
    @classmethod
    def shared(cls, workers: int | None = None) -> "WarmPool":
        """The process-global pool, created (or grown) on demand.

        Raises :class:`PoolUnavailable` when called from inside a pool
        worker or when workers cannot be spawned — callers run serially
        in both cases.
        """
        if _nested():
            raise PoolUnavailable("nested inside a pool worker")
        want = workers or max(1, (os.cpu_count() or 2) - 1)
        pool = cls._shared
        if pool is None or not pool.alive:
            cls._shared = pool = cls(want)
        else:
            pool.ensure(want)
        return pool

    # -- dispatch ------------------------------------------------------
    def map(self, fn: Callable, items: Sequence[Any], *,
            costs: Sequence[float | None] | None = None) -> list[Any]:
        """Results of ``fn(item)`` for every item, in input order.

        *fn* must be module-level (it travels by dotted name).  With
        *costs* (expected seconds per item, ``None`` = unknown),
        dispatch goes longest-expected-first; without, submission
        order.  Either way results land in input order and are
        bit-identical to ``[fn(item) for item in items]``.
        """
        if self._closed:
            raise PoolUnavailable("pool is shut down")
        items = list(items)
        if not items:
            return []
        self._reap(requeue=None)
        if not self._workers:
            self.ensure(1)
        self.stats.maps += 1
        target = f"{fn.__module__}:{fn.__qualname__}"
        if costs is not None:
            if len(costs) != len(items):
                raise ValueError("costs must match items")
            order = lpt_order(costs)
        else:
            order = list(range(len(items)))
        self.stats.dispatch_orders.append(tuple(order))
        if len(self.stats.dispatch_orders) > 16:
            del self.stats.dispatch_orders[0]

        chunk = chunk_sizes(len(items), len(self._workers))
        # With cost hints, the head of the order is the critical path:
        # dispatch those singly, chunk only the cheap tail.
        pending: deque[_Batch] = deque()
        cursor = 0
        while cursor < len(order):
            width = 1
            if chunk > 1 and (costs is None
                              or costs[order[cursor]] is None
                              or cursor >= 2 * len(self._workers)):
                width = min(chunk, len(order) - cursor)
            pending.append(self._new_batch(
                tuple(order[cursor:cursor + width])))
            cursor += width

        results: list[Any] = [None] * len(items)
        resolved = [False] * len(items)
        errors: list[str] = []
        in_flight = 0

        def dispatch_all() -> int:
            n = 0
            for worker in self._workers:
                if not pending:
                    break
                if worker.batch is None:
                    self._dispatch(worker, pending.popleft(),
                                   target, items)
                    n += 1
            return n

        in_flight += dispatch_all()
        while in_flight > 0:
            try:
                message = self._outbox.get(timeout=POLL_SECONDS)
            except queue_mod.Empty:
                requeued = self._reap(requeue=pending)
                if requeued:
                    in_flight -= requeued
                    if not self._workers:
                        raise PoolUnavailable(
                            "every pool worker died; degrading")
                    in_flight += dispatch_all()
                continue
            kind, wseq, batch_id, body = message
            worker = self._worker_by_seq(wseq)
            batch = worker.batch if worker is not None else None
            if (worker is None or batch is None
                    or batch.batch_id != batch_id):
                continue  # stale reply from a presumed-dead worker
            worker.batch = None
            in_flight -= 1
            if kind == "ok":
                values = pickle.loads(body)
                if len(values) != len(batch.indices):
                    errors.append("result arity mismatch")
                    for index in batch.indices:
                        resolved[index] = True
                else:
                    for index, value in zip(batch.indices, values):
                        results[index] = value
                        resolved[index] = True
            elif len(batch.indices) > 1:  # "fail"
                # Isolate the culprit: re-run the batch singly
                # (deterministic functions make re-running safe).
                for index in batch.indices:
                    pending.append(self._new_batch((index,)))
            else:
                errors.append(body)
                resolved[batch.indices[0]] = True
            in_flight += dispatch_all()

        if errors:
            raise PoolTaskError(errors[0])
        assert all(resolved), "pool lost track of a task"
        return results

    # -- internals -----------------------------------------------------
    def _new_batch(self, indices: tuple[int, ...]) -> _Batch:
        self._batch_seq += 1
        return _Batch(batch_id=self._batch_seq, indices=indices)

    def _worker_by_seq(self, seq: int) -> _Worker | None:
        for worker in self._workers:
            if worker.seq == seq:
                return worker
        return None

    def _dispatch(self, worker: _Worker, batch: _Batch,
                  target: str, items: list) -> None:
        payload = pickle.dumps([items[index] for index in batch.indices],
                               protocol=pickle.HIGHEST_PROTOCOL)
        worker.batch = batch
        self.stats.batches += 1
        self.stats.tasks += len(batch.indices)
        worker.inbox.put(("run", batch.batch_id, target, payload))

    def _reap(self, requeue: "deque[_Batch] | None") -> int:
        """Respawn dead workers; requeue their in-flight batches.

        Returns how many in-flight batches were pulled back (the
        caller's ``in_flight`` bookkeeping subtracts them before the
        requeued batches re-dispatch).
        """
        pulled = 0
        for worker in list(self._workers):
            if worker.process.is_alive():
                continue
            self._workers.remove(worker)
            batch = worker.batch
            if batch is not None and requeue is not None:
                pulled += 1
                batch.retries += 1
                if batch.retries > MAX_CRASH_RETRIES:
                    raise PoolTaskError(
                        f"task crashed its worker "
                        f"{batch.retries} times "
                        f"(items {list(batch.indices)})")
                requeue.appendleft(batch)
            self.stats.respawns += 1
            try:
                self._spawn()
            except (OSError, PermissionError):
                pass  # map() degrades when no workers remain
        return pulled


def _shutdown_all() -> None:
    for pool in list(_all_pools or ()):
        if not pool._closed:
            pool.shutdown()
