"""Warm worker pools: persistent processes, zero-copy transport, LPT.

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
Task and result envelopes are pickled with **protocol 5** and
out-of-band buffer extraction (:func:`encode_envelope`), so payloads
that expose :class:`pickle.PickleBuffer`-aware buffers (numpy arrays,
big byte blobs) travel as raw segments instead of being copied into
the pickle stream.  Large envelopes move through a
:class:`multiprocessing.shared_memory` ring (:class:`ShmRing`) — the
parent writes segments into the ring and ships only a small
``(offset, sizes, digest)`` descriptor through the queue; each worker
owns a private result segment for the return trip.  Every shared-
memory read is **digest-verified** (SHA-256 over the segments) and
falls back to inline pickling when the ring is exhausted or a
digest mismatches, so shared-memory pressure or corruption costs
time, never correctness.  Envelopes decoded from shared memory borrow
the segment's storage until the batch result is acknowledged;
task functions must not leak buffer views into results (none of the
repo's unit payloads do — they build fresh result objects).

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
import hashlib
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

#: Task-ring capacity (bytes) of the shared parent->worker segment.
DEFAULT_RING_BYTES = 8 * 1024 * 1024

#: Per-worker result-segment capacity (bytes).
DEFAULT_RESULT_BYTES = 4 * 1024 * 1024

#: Envelopes smaller than this go inline: queue pipes beat the ring's
#: allocator bookkeeping for small payloads.
SHM_MIN_BYTES = 16 * 1024

#: How many times a batch survives a worker crash before its items
#: are failed (the service fleet's respawn-budget idea, per batch).
MAX_CRASH_RETRIES = 2

#: Poll interval while waiting on results; liveness checks run on
#: this cadence, so crash detection latency is bounded by it.
POLL_SECONDS = 0.05

#: Every live pool, so the atexit sweep can release shared segments
#: even for pools a caller forgot to shut down.
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
# Zero-copy envelopes
# ----------------------------------------------------------------------
def encode_envelope(obj: Any) -> list[bytes | memoryview]:
    """Pickle *obj* at protocol 5 with out-of-band buffer extraction.

    Returns the segment list ``[stream, buffer, buffer, ...]`` —
    buffer segments are raw :class:`memoryview`\\ s of the object's
    own storage (zero copies for ``PickleBuffer``-aware payloads
    such as numpy arrays); plain-data payloads produce a single
    stream segment.
    """
    buffers: list[pickle.PickleBuffer] = []
    stream = pickle.dumps(obj, protocol=5,
                          buffer_callback=buffers.append)
    return [stream, *[b.raw() for b in buffers]]


def decode_envelope(segments: Sequence[bytes | memoryview]) -> Any:
    """Rebuild the object from :func:`encode_envelope` segments."""
    return pickle.loads(segments[0], buffers=list(segments[1:]))


def decode_from_shm(segments: Sequence[memoryview]) -> Any:
    """Decode an envelope whose segments live in shared memory.

    Out-of-band buffers are copied out: the reconstructed object
    could otherwise alias ring storage that the allocator reuses
    the moment this batch resolves.  The pickle *stream* (the bulk
    of a typical envelope) is still consumed straight from the
    segment with no intermediate copy, and every view is released
    so the segment can be unmapped cleanly.
    """
    try:
        return pickle.loads(segments[0],
                            buffers=[bytes(s) for s in segments[1:]])
    finally:
        for view in segments:
            view.release()


def envelope_digest(segments: Sequence[bytes | memoryview]) -> str:
    """SHA-256 over the concatenated segments (transport check)."""
    h = hashlib.sha256()
    for segment in segments:
        h.update(segment)
    return h.hexdigest()


class ShmRing:
    """A shared-memory segment with a parent-side region allocator.

    The parent is the only allocator and the only writer; workers
    attach read-only by name and are handed ``(offset, sizes)``
    descriptors.  A region is freed when the batch it carried
    resolves (its result arrived, or the batch was requeued after a
    crash), which is by construction after the worker stopped
    reading it.  Allocation is first-fit over a sorted free list
    with coalescing on free; :meth:`alloc` returning ``None`` (ring
    exhausted) is the signal to fall back to inline transport.
    """

    def __init__(self, nbytes: int):
        from multiprocessing import shared_memory

        self.shm = shared_memory.SharedMemory(create=True, size=nbytes)
        self.nbytes = nbytes
        self._free: list[list[int]] = [[0, nbytes]]  # [offset, length]

    @property
    def name(self) -> str:
        return self.shm.name

    def alloc(self, nbytes: int) -> int | None:
        """First-fit region of *nbytes*, or ``None`` when exhausted."""
        for span in self._free:
            if span[1] >= nbytes:
                offset = span[0]
                span[0] += nbytes
                span[1] -= nbytes
                if span[1] == 0:
                    self._free.remove(span)
                return offset
        return None

    def free(self, offset: int, nbytes: int) -> None:
        """Return a region; adjacent free spans coalesce."""
        self._free.append([offset, nbytes])
        self._free.sort()
        merged: list[list[int]] = []
        for span in self._free:
            if merged and merged[-1][0] + merged[-1][1] == span[0]:
                merged[-1][1] += span[1]
            else:
                merged.append(span)
        self._free = merged

    def write(self, offset: int,
              segments: Sequence[bytes | memoryview]) -> tuple[int, ...]:
        """Copy *segments* consecutively at *offset*; returns sizes."""
        sizes = []
        cursor = offset
        for segment in segments:
            view = memoryview(segment).cast("B")
            n = view.nbytes
            self.shm.buf[cursor:cursor + n] = view
            cursor += n
            sizes.append(n)
        return tuple(sizes)

    def close(self, *, unlink: bool = False) -> None:
        try:
            self.shm.close()
            if unlink:
                self.shm.unlink()
        except (OSError, FileNotFoundError):
            pass


def read_segments(buf, offset: int,
                  sizes: Sequence[int]) -> list[memoryview]:
    """Zero-copy views of consecutive segments inside *buf*."""
    views = []
    cursor = offset
    for n in sizes:
        views.append(memoryview(buf)[cursor:cursor + n])
        cursor += n
    return views


def _attach_shm(name: str | None):
    """Attach a shared segment by name, silencing tracker adoption.

    Attaching registers the segment with the resource tracker even
    though the parent owns its lifetime.  Under ``spawn`` the worker
    has its *own* tracker which would unlink the segment out from
    under the parent when the worker exits — unregister there.
    Under ``fork`` the tracker process is shared with the parent, so
    unregistering would erase the parent's own registration; leave
    it alone (the duplicate register is an idempotent no-op).
    """
    if not name:
        return None
    import multiprocessing
    from multiprocessing import shared_memory

    try:
        shm = shared_memory.SharedMemory(name=name)
    except (OSError, FileNotFoundError):
        return None
    if multiprocessing.get_start_method(allow_none=True) != "fork":
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:
            pass
    return shm


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


def _worker_main(worker_seq: int, inbox, outbox,
                 ring_name: str | None, result_name: str | None) -> None:
    """One persistent worker: read batches, execute, reply. Forever.

    The worker is intentionally dumb (the service fleet's design):
    no queueing, no retry — crash handling lives in the parent, so
    killing a worker at any moment is safe.
    """
    os.environ[WORKER_ENV_VAR] = "1"
    import repro  # noqa: F401 — preload (no-op under fork)

    ring = _attach_shm(ring_name)
    result_seg = _attach_shm(result_name)
    fn_cache: dict[str, Callable] = {}

    def reply_ok(batch_id: int, results: list) -> None:
        segments = encode_envelope(results)
        total = sum(memoryview(s).cast("B").nbytes for s in segments)
        if result_seg is not None and SHM_MIN_BYTES <= total <= len(
                result_seg.buf):
            cursor = 0
            sizes = []
            for segment in segments:
                view = memoryview(segment).cast("B")
                result_seg.buf[cursor:cursor + view.nbytes] = view
                cursor += view.nbytes
                sizes.append(view.nbytes)
            outbox.put(("ok", worker_seq, batch_id, "shm",
                        (0, tuple(sizes), envelope_digest(segments))))
        else:
            outbox.put(("ok", worker_seq, batch_id, "inline",
                        ([bytes(s) for s in segments],
                         envelope_digest(segments))))

    while True:
        message = inbox.get()
        if message[0] == "stop":
            break
        _, batch_id, target, where, payload = message
        try:
            if where == "shm":
                offset, sizes, digest = payload
                if ring is None:
                    raise _TransportError("no ring attached")
                segments = read_segments(ring.buf, offset, sizes)
                if envelope_digest(segments) != digest:
                    for view in segments:
                        view.release()
                    raise _TransportError("task digest mismatch")
                items = decode_from_shm(segments)
            else:
                raw, digest = payload
                if envelope_digest(raw) != digest:
                    raise _TransportError("task digest mismatch")
                items = decode_envelope(raw)
            fn = _resolve_target(target, fn_cache)
            results = [fn(item) for item in items]
            reply_ok(batch_id, results)
        except _TransportError as exc:
            outbox.put(("fail", worker_seq, batch_id, "transport",
                        str(exc)))
        except BaseException as exc:  # noqa: BLE001 — reported upstream
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            try:
                outbox.put(("fail", worker_seq, batch_id, "task",
                            f"{type(exc).__name__}: {exc}"))
            except Exception:
                break


class _TransportError(RuntimeError):
    """Shared-memory envelope could not be trusted; retry inline."""


# ----------------------------------------------------------------------
# Parent-side pool
# ----------------------------------------------------------------------
@dataclass
class _Worker:
    seq: int
    process: Any
    inbox: Any
    result_shm: Any = None           #: parent's attached view
    result_name: str | None = None
    batch: "_Batch | None" = None    #: in flight, or None when idle


@dataclass
class _Batch:
    batch_id: int
    indices: tuple[int, ...]         #: positions in the caller's items
    retries: int = 0
    force_inline: bool = False
    single: bool = False             #: re-dispatched one-by-one
    ring_offset: int | None = None
    ring_bytes: int = 0


@dataclass
class PoolStats:
    """Lifetime counters for one :class:`WarmPool`."""

    batches: int = 0
    tasks: int = 0
    shm_batches: int = 0
    inline_batches: int = 0
    shm_results: int = 0
    inline_results: int = 0
    respawns: int = 0
    transport_retries: int = 0
    maps: int = 0
    spawned_workers: int = 0
    dispatch_orders: list = field(default_factory=list)

    def summary(self) -> str:
        return (f"{self.maps} maps, {self.tasks} tasks in "
                f"{self.batches} batches ({self.shm_batches} shm), "
                f"{self.respawns} respawns")


class WarmPool:
    """A pool of persistent workers shared across sweeps and fan-outs.

    Args:
        workers: worker processes to keep warm (>= 1).
        ring_bytes: task-ring capacity; tiny values force the inline
            fallback (the tests do this deliberately).
        result_bytes: per-worker result-segment capacity; ``0``
            disables result segments (all results inline).

    Raises:
        PoolUnavailable: worker processes cannot be spawned here, or
            this process is itself a pool worker.
    """

    _shared: "WarmPool | None" = None

    def __init__(self, workers: int, *,
                 ring_bytes: int = DEFAULT_RING_BYTES,
                 result_bytes: int = DEFAULT_RESULT_BYTES):
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
        self.ring: ShmRing | None = None
        self.result_bytes = result_bytes
        if ring_bytes > 0:
            try:
                self.ring = ShmRing(ring_bytes)
            except Exception:
                self.ring = None  # shm-less boxes: inline transport
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
        result_shm = None
        result_name = None
        if self.result_bytes > 0 and self.ring is not None:
            try:
                from multiprocessing import shared_memory

                result_shm = shared_memory.SharedMemory(
                    create=True, size=self.result_bytes)
                result_name = result_shm.name
            except Exception:
                result_shm = None
        process = self._ctx.Process(
            target=_worker_main,
            args=(self._seq, inbox, self._outbox,
                  self.ring.name if self.ring is not None else None,
                  result_name),
            name=f"mirage-pool-{self._seq}",
            daemon=True,
        )
        process.start()
        worker = _Worker(seq=self._seq, process=process, inbox=inbox,
                         result_shm=result_shm, result_name=result_name)
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
        """Stop every worker and release the shared segments."""
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
            self._release_worker_shm(worker)
        self._workers.clear()
        if self.ring is not None:
            self.ring.close(unlink=True)
            self.ring = None
        if WarmPool._shared is self:
            WarmPool._shared = None

    def _release_worker_shm(self, worker: _Worker) -> None:
        if worker.result_shm is not None:
            try:
                worker.result_shm.close()
                worker.result_shm.unlink()
            except (OSError, FileNotFoundError):
                pass
            worker.result_shm = None

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
            kind, wseq, batch_id, *rest = message
            worker = self._worker_by_seq(wseq)
            batch = worker.batch if worker is not None else None
            if (worker is None or batch is None
                    or batch.batch_id != batch_id):
                continue  # stale reply from a presumed-dead worker
            worker.batch = None
            in_flight -= 1
            self._free_batch_ring(batch)
            if kind == "ok":
                where, payload = rest
                try:
                    values = self._read_result(worker, where, payload)
                except _TransportError:
                    self.stats.transport_retries += 1
                    batch.force_inline = True
                    pending.append(batch)
                    in_flight += dispatch_all()
                    continue
                if len(values) != len(batch.indices):
                    errors.append("result arity mismatch")
                    for index in batch.indices:
                        resolved[index] = True
                else:
                    for index, value in zip(batch.indices, values):
                        results[index] = value
                        resolved[index] = True
            else:  # "fail"
                fail_kind, detail = rest
                if fail_kind == "transport":
                    self.stats.transport_retries += 1
                    batch.force_inline = True
                    pending.append(batch)
                elif len(batch.indices) > 1:
                    # Isolate the culprit: re-run the batch singly
                    # (deterministic functions make re-running safe).
                    for index in batch.indices:
                        single = self._new_batch((index,))
                        single.single = True
                        single.force_inline = batch.force_inline
                        pending.append(single)
                else:
                    errors.append(detail)
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
        segments = encode_envelope(
            [items[index] for index in batch.indices])
        total = sum(memoryview(s).cast("B").nbytes for s in segments)
        where, payload = "inline", None
        if (self.ring is not None and not batch.force_inline
                and total >= SHM_MIN_BYTES):
            offset = self.ring.alloc(total)
            if offset is not None:
                sizes = self.ring.write(offset, segments)
                batch.ring_offset = offset
                batch.ring_bytes = total
                where = "shm"
                payload = (offset, sizes, envelope_digest(segments))
                self.stats.shm_batches += 1
        if where == "inline":
            payload = ([bytes(s) for s in segments],
                       envelope_digest(segments))
            self.stats.inline_batches += 1
        worker.batch = batch
        self.stats.batches += 1
        self.stats.tasks += len(batch.indices)
        worker.inbox.put(("run", batch.batch_id, target, where, payload))

    def _read_result(self, worker: _Worker, where: str,
                     payload) -> list:
        if where == "shm":
            offset, sizes, digest = payload
            if worker.result_shm is None:
                raise _TransportError("no result segment")
            segments = read_segments(worker.result_shm.buf, offset,
                                     sizes)
            if envelope_digest(segments) != digest:
                for view in segments:
                    view.release()
                raise _TransportError("result digest mismatch")
            self.stats.shm_results += 1
            return decode_from_shm(segments)
        raw, digest = payload
        if envelope_digest(raw) != digest:
            raise _TransportError("result digest mismatch")
        self.stats.inline_results += 1
        return decode_envelope(raw)

    def _free_batch_ring(self, batch: _Batch) -> None:
        if batch.ring_offset is not None and self.ring is not None:
            self.ring.free(batch.ring_offset, batch.ring_bytes)
        batch.ring_offset = None
        batch.ring_bytes = 0

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
            self._release_worker_shm(worker)
            batch = worker.batch
            if batch is not None and requeue is not None:
                pulled += 1
                self._free_batch_ring(batch)
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
