"""Warm worker pools: persistent processes, pickled batches.

Every parallel path in the repo runs on a :class:`WarmPool`, and there
are two: :class:`~repro.runner.executor.SweepRunner` sweeps (every
experiment driver, and :func:`repro.cluster.run_scenario`) share the
process-global pool (:meth:`WarmPool.shared`), and ``mirage serve``
owns a private one.  Workers start once, preloaded with :mod:`repro` (inherited under
``fork``, imported at startup under ``spawn``), are reused across
calls, and are respawned on crash with the in-flight batch requeued.

Transport
---------
Each worker has its own pipe.  :meth:`WarmPool.submit` pickles one
batch — the target's dotted name plus its items — into a single bytes
message and returns a :class:`concurrent.futures.Future`; an idle
worker receives the batch at once, otherwise it waits in the pool's
queue.  One collector thread waits on every worker's pipe and process
sentinel together (:func:`multiprocessing.connection.wait`):

* a reply resolves the future of the batch that worker was given, and
  the worker takes the next queued batch;
* a ready sentinel means the worker died: its batch goes back to the
  front of the queue (or fails with :class:`PoolTaskError` once it has
  crashed more than :data:`MAX_CRASH_RETRIES` workers) and a
  replacement starts.

A reply can only reach its own batch's future, so a caller that gives
up on a call never receives another call's results.  The worker
pickles its results inside the task's ``try``, so an unpicklable
result fails its task like any other error.  Workers also wait on
their parent's sentinel and exit as soon as the parent dies.

Scheduling
----------
:meth:`WarmPool.map` dispatches in submission order and returns
results in input order.  Assignment is demand-driven — a worker takes
the next queued batch the moment it replies, which is work stealing by
construction — and cheap items are coalesced into chunks
(:func:`chunk_sizes`) so pipe round-trips never dominate wide sweeps
of tiny units.

Fallback
--------
Every parallel path goes through the pool, and every caller runs
serially when the pool raises :class:`PoolUnavailable`: when workers
cannot be spawned here, or when the caller is itself a pool worker.
Worker processes set ``MIRAGE_POOL_WORKER``, so a nested fan-out
inside a worker degrades to the serial path instead of forking
grandchildren.  The pool is a pure transport/scheduling layer:
results are bit-identical to serial execution by construction (same
function, same deterministic merge order), and
``tests/test_equivalence.py`` holds pooled maps to serial execution
on randomized batches.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import threading
import time
import weakref
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Any, Callable, Sequence

#: Set inside pool workers; nested pool use degrades to serial there.
WORKER_ENV_VAR = "MIRAGE_POOL_WORKER"

#: How many times a batch survives a worker crash before it is failed.
MAX_CRASH_RETRIES = 2

#: The message that tells an idle worker to exit.
_STOP = b""

#: Every live pool, so the atexit sweep can stop the workers even of
#: pools a caller forgot to shut down.
_all_pools: "weakref.WeakSet[WarmPool] | None" = None


def _nested() -> bool:
    """True inside a pool worker (daemonic: it cannot fork children)."""
    return os.environ.get(WORKER_ENV_VAR) == "1"


class PoolUnavailable(RuntimeError):
    """The pool cannot run here (sandbox, nesting, shut down).

    Callers catch this and run serially, which is bit-identical by
    construction.
    """


class PoolTaskError(RuntimeError):
    """A task function raised (or crashed its worker beyond retries)."""


# ----------------------------------------------------------------------
# Scheduling helpers
# ----------------------------------------------------------------------
def chunk_sizes(n_items: int, n_workers: int) -> int:
    """Dynamic chunk width for *n_items* over *n_workers*.

    Small batches dispatch singly (best makespan: nothing queues
    behind a long item); wide sweeps of cheap items coalesce so the
    pipe round-trip cost stays sublinear.
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


def _worker_main(conn) -> None:
    """One persistent worker: read a batch, execute, reply, repeat.

    The worker is intentionally dumb: no queueing, no retry — crash
    handling lives in the parent, so killing a worker at any moment
    is safe.  It exits on the stop message or when its parent dies.
    """
    os.environ[WORKER_ENV_VAR] = "1"
    import repro  # noqa: F401 — preload (no-op under fork)

    parent = multiprocessing.parent_process().sentinel
    fn_cache: dict[str, Callable] = {}
    while parent not in wait([conn, parent]):
        try:
            message = conn.recv_bytes()
        except EOFError:
            return
        if message == _STOP:
            return
        try:
            target, items = pickle.loads(message)
            fn = _resolve_target(target, fn_cache)
            reply = pickle.dumps((True, [fn(item) for item in items]),
                                 protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # noqa: BLE001 — reported upstream
            reply = pickle.dumps((False, f"{type(exc).__name__}: {exc}"))
        conn.send_bytes(reply)


# ----------------------------------------------------------------------
# Parent-side pool
# ----------------------------------------------------------------------
@dataclass
class _Batch:
    future: Future
    message: bytes                   #: pickled ``(target, items)``
    size: int                        #: items in the batch
    crashes: int = 0                 #: workers it has taken down


@dataclass
class _Worker:
    seq: int
    process: Any
    conn: Any
    batch: _Batch | None = None      #: in flight, or None when idle
    units_done: int = 0


@dataclass
class PoolStats:
    """Lifetime crash-recovery counters for one :class:`WarmPool`."""

    requeues: int = 0    #: batches queued again after their worker died
    respawns: int = 0    #: replacement workers started


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
        self._ctx = multiprocessing.get_context()
        self.stats = PoolStats()
        self._workers: list[_Worker] = []
        self._pending: deque[_Batch] = deque()
        self._lock = threading.Lock()
        self._seq = 0
        self._closed = False
        self._collector: threading.Thread | None = None
        try:
            self._wake_r, self._wake_w = self._ctx.Pipe(duplex=False)
        except OSError as exc:
            raise PoolUnavailable(f"no pipe support: {exc}") from exc
        try:
            for _ in range(workers):
                self._spawn()
        except OSError as exc:
            self.shutdown()
            raise PoolUnavailable(f"cannot spawn workers: {exc}") from exc
        self._collector = threading.Thread(
            target=self._collect, name="mirage-pool-collector", daemon=True)
        self._collector.start()
        global _all_pools
        if _all_pools is None:
            _all_pools = weakref.WeakSet()
            atexit.register(_shutdown_all)
        _all_pools.add(self)

    # -- lifecycle -----------------------------------------------------
    def _spawn(self) -> None:
        """Start one worker (the caller holds the lock or is __init__)."""
        self._seq += 1
        conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main, args=(child_conn,),
            name=f"mirage-pool-{self._seq}", daemon=True)
        try:
            process.start()
        except OSError:
            conn.close()
            raise
        finally:
            child_conn.close()
        self._workers.append(_Worker(self._seq, process, conn))

    def ensure(self, workers: int) -> None:
        """Grow the pool to at least *workers* live processes."""
        with self._lock:
            before = len(self._workers)
            try:
                while len(self._workers) < workers:
                    self._spawn()
            except OSError as exc:
                if not self._workers:
                    raise PoolUnavailable(
                        f"cannot spawn workers: {exc}") from exc
            if len(self._workers) > before:
                self._wake_w.send_bytes(b"")     # watch the new workers
                self._dispatch()

    @property
    def size(self) -> int:
        return len(self._workers)

    @property
    def alive(self) -> bool:
        return bool(self._workers) and not self._closed

    def status(self) -> list[dict]:
        """Per-worker ``id``, ``pid``, ``state`` and ``units_done``."""
        with self._lock:
            return [{"id": f"w{w.seq}", "pid": w.process.pid,
                     "state": "idle" if w.batch is None else "busy",
                     "units_done": w.units_done} for w in self._workers]

    def shutdown(self) -> None:
        """Stop every worker; unfinished batches fail with
        :class:`PoolUnavailable`."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers, self._workers = self._workers, []
            unfinished = [w.batch for w in workers if w.batch is not None]
            unfinished += self._pending
            self._pending.clear()
            for worker in workers:
                try:
                    worker.conn.send_bytes(_STOP)
                except OSError:
                    pass
            self._wake_w.send_bytes(b"")
        if self._collector is not None:
            self._collector.join()
        deadline = time.monotonic() + 1.0
        for worker in workers:
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.terminate()
            worker.conn.close()
        self._wake_r.close()
        self._wake_w.close()
        for batch in unfinished:
            if _claim(batch):
                batch.future.set_exception(
                    PoolUnavailable("pool is shut down"))
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
    def submit(self, fn: Callable, items: Sequence[Any]) -> Future:
        """Run ``[fn(item) for item in items]`` on one worker, without
        blocking; returns the batch's future.

        *fn* must be module-level (it travels by dotted name).
        Pickling errors raise here, before anything is queued.  The
        future resolves to the result list, or raises
        :class:`PoolTaskError` (the task raised, or crashed its worker
        more than :data:`MAX_CRASH_RETRIES` times) or
        :class:`PoolUnavailable` (the pool shut down or lost every
        worker).  Cancelling the future before a worker takes the
        batch drops it.
        """
        items = list(items)
        message = pickle.dumps((f"{fn.__module__}:{fn.__qualname__}", items),
                               protocol=pickle.HIGHEST_PROTOCOL)
        batch = _Batch(Future(), message, len(items))
        with self._lock:
            if self._closed or not self._workers:
                raise PoolUnavailable("pool is shut down")
            self._pending.append(batch)
            self._dispatch()
        return batch.future

    def map(self, fn: Callable, items: Sequence[Any]) -> list[Any]:
        """Results of ``fn(item)`` for every item, in input order.

        *fn* must be module-level (it travels by dotted name).  Items
        dispatch in submission order, coalesced into chunks of
        :func:`chunk_sizes` width; results are bit-identical to
        ``[fn(item) for item in items]``.  Raises
        :class:`PoolUnavailable` when the pool is shut down or has no
        live worker.
        """
        items = list(items)
        if not items:
            return []
        workers = self.size
        if not workers:
            raise PoolUnavailable("pool has no live worker")
        chunk = chunk_sizes(len(items), workers)
        batches = [range(start, min(start + chunk, len(items)))
                   for start in range(0, len(items), chunk)]

        futures: list[Future] = []
        try:
            for indices in batches:
                futures.append(
                    self.submit(fn, [items[index] for index in indices]))
            results: list[Any] = [None] * len(items)
            for indices, future in zip(batches, futures):
                for index, value in zip(indices, future.result()):
                    results[index] = value
            return results
        finally:
            for future in futures:
                future.cancel()     # a raise leaves no batch queued

    # -- internals (the caller holds the lock) -------------------------
    def _dispatch(self) -> None:
        """Hand queued batches to idle workers."""
        idle = [w for w in self._workers if w.batch is None]
        while idle and self._pending:
            batch = self._pending.popleft()
            if not _claim(batch):
                continue                     # its caller cancelled it
            worker = idle.pop()
            worker.batch = batch
            try:
                worker.conn.send_bytes(batch.message)
            except OSError:
                pass        # the worker died: its sentinel requeues

    def _collect(self) -> None:
        """The collector thread: replies, crashes and respawns."""
        while True:
            with self._lock:
                if self._closed:
                    return
                owners: dict[Any, _Worker | None] = {self._wake_r: None}
                for worker in self._workers:
                    owners[worker.conn] = worker
                    owners[worker.process.sentinel] = worker
            # Replies first: a worker that replied and then died has
            # both its pipe and its sentinel ready.
            ready = sorted(wait(list(owners)),
                           key=lambda handle: isinstance(handle, int))
            settled: list[tuple[Future, bool, Any]] = []
            with self._lock:
                if self._closed:
                    return
                for handle in ready:
                    worker = owners[handle]
                    if worker is None:
                        self._wake_r.recv_bytes()
                    elif worker not in self._workers:
                        continue                 # already handled
                    elif handle is worker.conn:
                        self._receive(worker, settled)
                    else:
                        self._lost(worker, settled)
                self._dispatch()
            # Resolve outside the lock: done-callbacks may submit.
            for future, ok, value in settled:
                if ok:
                    future.set_result(value)
                else:
                    future.set_exception(value)

    def _receive(self, worker: _Worker, settled: list) -> None:
        try:
            ok, body = pickle.loads(worker.conn.recv_bytes())
        except (EOFError, OSError):
            self._lost(worker, settled)          # died mid-reply
            return
        batch, worker.batch = worker.batch, None
        if ok:
            worker.units_done += batch.size
            settled.append((batch.future, True, body))
        else:
            settled.append((batch.future, False, PoolTaskError(body)))

    def _lost(self, worker: _Worker, settled: list) -> None:
        """Requeue a dead worker's batch and start its replacement."""
        self._workers.remove(worker)
        worker.process.join()
        worker.process.close()
        worker.conn.close()
        batch = worker.batch
        if batch is not None:
            batch.crashes += 1
            if batch.crashes > MAX_CRASH_RETRIES:
                settled.append((batch.future, False, PoolTaskError(
                    f"task crashed its worker {batch.crashes} times")))
            else:
                self.stats.requeues += 1
                self._pending.appendleft(batch)
        try:
            self._spawn()
            self.stats.respawns += 1
        except OSError:
            if not self._workers:
                while self._pending:
                    batch = self._pending.popleft()
                    if _claim(batch):
                        settled.append((batch.future, False, PoolUnavailable(
                            "every pool worker died")))


def _claim(batch: _Batch) -> bool:
    """Mark *batch*'s future running; False if its caller cancelled it."""
    return (batch.future.running()
            or batch.future.set_running_or_notify_cancel())


def _shutdown_all() -> None:
    for pool in list(_all_pools or ()):
        if not pool._closed:
            pool.shutdown()
