"""The asyncio experiment server behind ``mirage serve``.

One process, one event loop, three responsibilities:

* **Jobs** — submissions decompose into work units
  (:func:`~repro.service.protocol.decompose`); a priority
  :class:`~repro.service.jobs.JobQueue` feeds them to the fleet.
  Identical concurrent submissions coalesce: unit identity is the
  shared :class:`~repro.runner.cache.ResultCache` digest, so two
  clients asking for the same sweep share one in-flight execution —
  and a later identical submission after completion is a cache hit
  that never reaches the queue at all.
* **Workers** — a typed registry
  (:class:`~repro.service.registry.WorkerRegistry`) of worker
  processes the server spawns (and respawns) plus any that attach
  externally.  Workers speak a JSONL protocol over the same TCP port
  the HTTP API lives on; heartbeats ride the connection, a monitor
  loop evicts the silent, and evicted workers' in-flight units are
  requeued ahead of later submissions.
* **State** — every submission and job state change is appended to an
  on-disk journal (:mod:`repro.service.journal`); a restarted server
  replays it and resubmits unfinished jobs, whose finished units come
  straight back from the result cache.  Per-job progress streams as
  typed :class:`~repro.telemetry.events.JobRecord` lines through
  :class:`~repro.telemetry.sinks.JSONLSink` files that ``mirage
  tail`` (the ``GET /jobs/<id>/stream`` endpoint) follows live.

The HTTP surface is deliberately tiny — ``GET /health``, ``GET
/jobs``, ``GET /jobs/<id>``, ``POST /jobs``, ``GET /jobs/<id>/stream``
and ``POST /shutdown`` — JSON in, JSON (or an NDJSON stream) out, one
request per connection.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import secrets
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

import repro
from repro.config import ServiceConfig
from repro.runner.cache import MISS, ResultCache, decode_payload, encode_payload
import repro.service.jobs as jobstates
from repro.service.journal import Journal, replay
from repro.service.jobs import Job, JobQueue, UnitTask
from repro.service.protocol import (
    SubmitRequest,
    decompose,
    dump_message,
    load_message,
    request_from_dict,
    request_to_dict,
    unit_digest,
    unit_from_dict,
    unit_to_dict,
)
from repro.service.registry import BUSY, IDLE, WorkerInfo, WorkerRegistry
from repro.telemetry.events import JobRecord, WorkerRecord
from repro.telemetry.sinks import JSONLSink, dump_record

#: Per-line buffer limit for the shared listener.  Worker ``result``
#: lines carry whole encoded result envelopes (detailed-tier CMP
#: histories run to megabytes), which would blow through asyncio's
#: default 64 KiB stream limit and kill the session mid-job — so the
#: listener gets a far larger one, and :meth:`_worker_session` treats
#: an overrun as a failed unit rather than a retriable disconnect.
PROTOCOL_LINE_LIMIT = 64 * 1024 * 1024

#: Bind hosts the server treats as trusted (no HTTP auth required).
_LOOPBACK_HOSTS = ("localhost", "::1")


def _is_loopback(host: str) -> bool:
    """Whether *host* only accepts connections from this machine."""
    return host in _LOOPBACK_HOSTS or host.startswith("127.")


class ExperimentServer:
    """The long-running job server wrapping the ``Experiment`` API.

    Construct with a :class:`~repro.config.ServiceConfig`, then either
    ``await start()`` inside an existing event loop, or use
    :class:`ServerHandle` to run one on a background thread (what the
    tests and the bench probe do), or :func:`serve` for the blocking
    CLI entry point.
    """

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        self.dir = self.config.resolved_dir()
        cache_cfg = self.config.cache_config()
        #: Keying/dedup layer; ``use_result_cache`` only gates whether
        #: finished payloads are read/written, never the keying.
        self.cache = ResultCache(cache_cfg.cache_dir)
        self.use_result_cache = cache_cfg.use_result_cache
        self.journal = Journal(self.dir / "journal.jsonl")
        self.registry = WorkerRegistry()
        self.queue = JobQueue()
        self.jobs: dict[str, Job] = {}
        self.tasks: dict[str, UnitTask] = {}
        self.token = secrets.token_hex(8)
        #: Operational counters exposed under ``GET /health``.
        self.stats = {"executions": 0, "cache_hits": 0, "coalesced": 0,
                      "evictions": 0, "requeues": 0, "respawns": 0,
                      "submissions": 0}
        self.address: tuple[str, int] | None = None
        self._active_keys: dict[str, str] = {}    # job key -> job id
        self._key_of: dict[str, str] = {}         # job id -> job key
        self._streams: dict[str, list[str]] = {}
        self._stream_sinks: dict[str, JSONLSink] = {}
        self._stream_events: dict[str, asyncio.Event] = {}
        self._evict_reason: dict[str, str] = {}
        self._procs: dict[str, subprocess.Popen] = {}
        self._seq = 0
        self._job_counter = 0
        self._worker_counter = 0
        self._respawn_budget = 5 * max(1, self.config.workers)
        self._draining = False
        self._stopping = False
        self._server: asyncio.base_events.Server | None = None
        self._monitor: asyncio.Task | None = None
        self._stopped = asyncio.Event()
        self._trace: JSONLSink | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind, recover the journal, spawn the fleet; returns the
        bound ``(host, port)``."""
        self.dir.mkdir(parents=True, exist_ok=True)
        (self.dir / "streams").mkdir(exist_ok=True)
        self._trace = JSONLSink(self.dir / "server-trace.jsonl", mode="a")
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
            limit=PROTOCOL_LINE_LIMIT)
        sock = self._server.sockets[0].getsockname()
        self.address = (sock[0], sock[1])
        if not _is_loopback(self.config.host):
            print(f"[serve] WARNING: bound to non-loopback "
                  f"{self.config.host} — POST /jobs runs arbitrary "
                  f"call targets, so mutating endpoints now require "
                  f"the session token from server.json",
                  file=sys.stderr, flush=True)
        self._write_address_file()
        await self._recover()
        for _ in range(self.config.workers):
            self._spawn_worker()
        self._monitor = asyncio.ensure_future(self._monitor_loop())
        return self.address

    async def run_until_stopped(self) -> None:
        """Start (if needed) and block until a shutdown completes."""
        if self.address is None:
            await self.start()
        await self._stopped.wait()

    async def shutdown(self, drain: bool = True) -> None:
        """Stop the server; with *drain*, finish accepted work first.

        Draining rejects new submissions (503) immediately, then waits
        up to ``drain_timeout`` for the queue and every in-flight unit
        to finish before stopping the fleet.  Without drain (or past
        the timeout) unfinished jobs simply stay non-terminal in the
        journal, and the next server start requeues them.
        """
        self._draining = True
        if drain:
            deadline = time.monotonic() + self.config.drain_timeout
            while ((self.queue or self.tasks)
                   and time.monotonic() < deadline):
                await asyncio.sleep(0.05)
        self._stopping = True
        for info in self.registry.all():
            writer = info.handle
            if writer is not None:
                try:
                    writer.write((dump_message({"type": "stop"})
                                  + "\n").encode())
                    await writer.drain()
                except (ConnectionError, OSError):
                    pass
        if self._monitor is not None:
            self._monitor.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for popen in self._procs.values():
            popen.terminate()
        for popen in self._procs.values():
            try:
                popen.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                popen.kill()
        self._procs.clear()
        for sink in self._stream_sinks.values():
            sink.close()
        if self._trace is not None:
            self._trace.close()
        self.journal.close()
        try:
            (self.dir / "server.json").unlink()
        except OSError:
            pass
        self._stopped.set()

    def _write_address_file(self) -> None:
        host, port = self.address
        payload = {"host": host, "port": port, "pid": os.getpid(),
                   "token": self.token, "version": repro.__version__,
                   "started": round(time.time(), 3)}
        (self.dir / "server.json").write_text(
            json.dumps(payload, indent=2) + "\n")

    async def _recover(self) -> None:
        """Replay the journal: restore history, requeue the unfinished."""
        state = replay(self.dir / "journal.jsonl")
        self._job_counter = state.max_job_number
        self._seq = state.max_seq
        for jj in state.jobs.values():
            request = request_from_dict(jj.request)
            units = [unit_from_dict(u) for u in jj.units]
            job = Job(job_id=jj.job_id, request=request,
                      digests=list(jj.digests), units=units,
                      state=jj.state, priority=jj.priority, seq=jj.seq,
                      error=jj.error)
            self.jobs[jj.job_id] = job
            self._streams[jj.job_id] = self._read_stream_file(jj.job_id)
            if job.finished:
                continue
            # Unfinished: requeue as if freshly submitted (results
            # already in the cache come back instantly).
            key = _job_key(job.digests)
            self._active_keys[key] = job.job_id
            self._key_of[job.job_id] = key
            self._emit_job(job, "requeued",
                           detail="journal replay after restart")
            self._enqueue_units(job)
            self._maybe_finalize(job)

    def _read_stream_file(self, job_id: str) -> list[str]:
        path = self.dir / "streams" / f"{job_id}.jsonl"
        try:
            return [line for line in
                    path.read_text().splitlines() if line.strip()]
        except OSError:
            return []

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    async def submit(self, request: SubmitRequest) -> tuple[Job, bool]:
        """Accept one submission; returns ``(job, coalesced)``.

        Raises ``ValueError`` for undecomposable requests and
        ``RuntimeError`` while draining.
        """
        if self._draining:
            raise RuntimeError("server is draining: not accepting jobs")
        self.stats["submissions"] += 1
        units = decompose(request)
        digests = [unit_digest(self.cache, u) for u in units]
        key = _job_key(digests)
        active = self._active_keys.get(key)
        if active is not None and not self.jobs[active].finished:
            job = self.jobs[active]
            job.submissions += 1
            self.stats["coalesced"] += 1
            if request.priority > job.priority:
                job.priority = request.priority
                for digest in job.digests:
                    task = self.tasks.get(digest)
                    if task is not None and not task.done:
                        task.priority = max(task.priority,
                                            request.priority)
                        if not task.assigned_to:
                            self.queue.push(task)
            self._emit_job(job, "coalesced",
                           detail=f"submission #{job.submissions}")
            await self._dispatch()
            return job, True
        self._job_counter += 1
        self._seq += 1
        job = Job(job_id=f"j{self._job_counter}", request=request,
                  digests=digests, units=units,
                  priority=request.priority, seq=self._seq,
                  created=round(time.time(), 3))
        self.jobs[job.job_id] = job
        self._active_keys[key] = job.job_id
        self._key_of[job.job_id] = key
        self._streams[job.job_id] = []
        self.journal.append({
            "event": "submit", "id": job.job_id, "seq": job.seq,
            "priority": job.priority, "key": key,
            "request": request_to_dict(request),
            "units": [unit_to_dict(u) for u in units],
            "digests": digests,
        })
        self._emit_job(job, "queued")
        self._enqueue_units(job)
        self._maybe_finalize(job)
        await self._dispatch()
        return job, False

    def _enqueue_units(self, job: Job) -> None:
        """Subscribe the job to its units: share in-flight tasks,
        satisfy cache hits immediately, queue the rest."""
        for unit, digest in zip(job.units, job.digests):
            if digest in job.results:
                continue                       # duplicate within job
            task = self.tasks.get(digest)
            if task is not None and not task.done:
                if job.job_id not in task.job_ids:
                    task.job_ids.append(job.job_id)
                task.priority = max(task.priority, job.priority)
                continue
            hit = self.cache.get(unit) if self.use_result_cache else MISS
            if hit is not MISS:
                self.stats["cache_hits"] += 1
                job.results[digest] = encode_payload(hit)
                self._emit_job(job, "unit", worker_id="cache",
                               payload={"digest": digest,
                                        "result": job.results[digest]})
                continue
            task = UnitTask(digest=digest, unit=unit,
                            job_ids=[job.job_id],
                            priority=job.priority, seq=job.seq)
            self.tasks[digest] = task
            self.queue.push(task)

    # ------------------------------------------------------------------
    # Dispatch and completion
    # ------------------------------------------------------------------
    async def _dispatch(self) -> None:
        """Hand queued units to idle workers until one side runs dry."""
        while True:
            idle = self.registry.idle()
            if not idle:
                return
            digest = self.queue.pop()
            if digest is None:
                return
            task = self.tasks.get(digest)
            if task is None or task.done or task.assigned_to:
                continue
            worker = idle[0]
            task.assigned_to = worker.worker_id
            task.attempts += 1
            worker.state = BUSY
            worker.unit_digest = digest
            self._emit_worker(worker, "busy", unit_digest=digest)
            for job_id in task.job_ids:
                job = self.jobs.get(job_id)
                if job is not None and job.state == jobstates.QUEUED:
                    job.state = jobstates.RUNNING
                    self._emit_job(job, "started",
                                   worker_id=worker.worker_id)
            message = dump_message({"type": "run", "digest": digest,
                                    "unit": unit_to_dict(task.unit)})
            try:
                worker.handle.write((message + "\n").encode())
                await worker.handle.drain()
            except (ConnectionError, OSError):
                # The session handler will notice the dead connection
                # and requeue; just stop assigning to this worker.
                worker.state = IDLE
                worker.unit_digest = ""
                task.assigned_to = ""
                self.queue.push(task)
                return

    def _unit_result(self, info: WorkerInfo, digest: str,
                     envelope: dict) -> None:
        info.state = IDLE
        info.unit_digest = ""
        info.units_done += 1
        self._emit_worker(info, "idle", unit_digest=digest)
        task = self.tasks.get(digest)
        if task is None or task.done:
            return                              # late duplicate: drop
        task.done = True
        task.assigned_to = ""
        self.stats["executions"] += 1
        if self.use_result_cache:
            try:
                self.cache.put(task.unit, decode_payload(envelope))
            except (OSError, TypeError, KeyError):
                pass                            # caching is best-effort
        self._complete_unit(task, envelope, worker_id=info.worker_id)

    def _unit_error(self, info: WorkerInfo, digest: str,
                    message: str) -> None:
        info.state = IDLE
        info.unit_digest = ""
        self._emit_worker(info, "idle", unit_digest=digest,
                          detail=message)
        task = self.tasks.get(digest)
        if task is None or task.done:
            return
        task.done = True
        task.assigned_to = ""
        self.queue.discard(digest)
        self.tasks.pop(digest, None)
        for job_id in task.job_ids:
            job = self.jobs.get(job_id)
            if job is not None and not job.finished:
                self._finalize(job, jobstates.FAILED, error=message)

    def _complete_unit(self, task: UnitTask, envelope: dict,
                       worker_id: str) -> None:
        self.queue.discard(task.digest)
        self.tasks.pop(task.digest, None)
        for job_id in task.job_ids:
            job = self.jobs.get(job_id)
            if job is None or job.finished:
                continue
            job.results[task.digest] = envelope
            self._emit_job(job, "unit", worker_id=worker_id,
                           payload={"digest": task.digest,
                                    "result": envelope})
            self._maybe_finalize(job)

    def _maybe_finalize(self, job: Job) -> None:
        if not job.finished and all(
                d in job.results for d in job.digests):
            self._finalize(job, jobstates.DONE)

    def _finalize(self, job: Job, state: str, error: str = "") -> None:
        job.state = state
        job.error = error
        self.journal.append({"event": "state", "id": job.job_id,
                             "state": state, "error": error})
        payload = ({"results": job.ordered_results()}
                   if state == jobstates.DONE else {})
        self._emit_job(job, "done" if state == jobstates.DONE
                       else state, detail=error, payload=payload)
        key = self._key_of.pop(job.job_id, None)
        if key is not None and self._active_keys.get(key) == job.job_id:
            del self._active_keys[key]
        sink = self._stream_sinks.pop(job.job_id, None)
        if sink is not None:
            sink.close()

    # ------------------------------------------------------------------
    # Worker fleet
    # ------------------------------------------------------------------
    def _spawn_worker(self) -> None:
        if self._respawn_budget <= 0 or self.address is None:
            return
        self._respawn_budget -= 1
        self._worker_counter += 1
        worker_id = f"w{self._worker_counter}"
        host, port = self.address
        env = dict(os.environ)
        src_root = str(Path(repro.__file__).resolve().parent.parent)
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = (src_root + (os.pathsep + existing
                                         if existing else ""))
        popen = subprocess.Popen(
            [sys.executable, "-m", "repro.service.worker",
             "--connect", f"{host}:{port}", "--id", worker_id,
             "--token", self.token,
             "--heartbeat", str(self.config.heartbeat_interval)],
            env=env, stdout=subprocess.DEVNULL)
        self._procs[worker_id] = popen
        self._emit_worker_raw(worker_id, "spawned", pid=popen.pid)

    async def _monitor_loop(self) -> None:
        """Evict workers whose heartbeats went silent."""
        interval = max(0.05, self.config.heartbeat_interval / 2)
        while not self._stopping:
            await asyncio.sleep(interval)
            for info in self.registry.stale(
                    self.config.heartbeat_timeout):
                self.stats["evictions"] += 1
                self._evict_reason[info.worker_id] = "heartbeat-timeout"
                writer = info.handle
                if writer is not None:
                    writer.close()  # session handler does the requeue

    async def _worker_session(self, hello_line: str, reader, writer
                              ) -> None:
        try:
            hello = load_message(hello_line)
        except ValueError:
            writer.close()
            return
        if (hello.get("type") != "hello"
                or hello.get("token") != self.token):
            writer.close()
            return
        worker_id = str(hello.get("worker_id") or
                        f"x{secrets.token_hex(3)}")
        info = WorkerInfo(worker_id=worker_id,
                          pid=int(hello.get("pid", 0)),
                          spawned=worker_id in self._procs,
                          handle=writer)
        try:
            self.registry.add(info)
        except ValueError:
            writer.close()
            return
        self._emit_worker(info, "registered")
        await self._dispatch()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # The line overran PROTOCOL_LINE_LIMIT: a result
                    # this server can never read.  Requeueing would
                    # loop forever (a respawned worker reproduces the
                    # same oversized line), so fail the unit instead.
                    if info.unit_digest:
                        self._unit_error(
                            info, info.unit_digest,
                            "result line exceeded the protocol limit "
                            f"of {PROTOCOL_LINE_LIMIT} bytes")
                        await self._dispatch()
                    break
                if not line:
                    break
                try:
                    message = load_message(line.decode())
                except ValueError:
                    continue
                info.beat()
                mtype = message.get("type")
                if mtype == "result":
                    self._unit_result(info, message.get("digest", ""),
                                      message.get("payload", {}))
                    await self._dispatch()
                elif mtype == "error":
                    self._unit_error(info, message.get("digest", ""),
                                     str(message.get("message", "")))
                    await self._dispatch()
                # heartbeats only needed info.beat() above
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            await self._worker_gone(worker_id)

    async def _worker_gone(self, worker_id: str) -> None:
        info = self.registry.remove(worker_id)
        if info is None:
            return
        reason = self._evict_reason.pop(worker_id, "disconnect")
        popen = self._procs.pop(worker_id, None)
        if popen is not None:
            popen.kill()
        if info.unit_digest:
            task = self.tasks.get(info.unit_digest)
            if (task is not None and not task.done
                    and task.assigned_to == worker_id):
                task.assigned_to = ""
                self.queue.push(task)
                self.stats["requeues"] += 1
                for job_id in task.job_ids:
                    job = self.jobs.get(job_id)
                    if job is not None and not job.finished:
                        self._emit_job(
                            job, "requeued", worker_id=worker_id,
                            detail=f"worker lost ({reason})")
        self._emit_worker(info, "evicted", detail=reason)
        # Respawn during a drain too: a drain that loses its last
        # worker would otherwise spin out the whole drain_timeout with
        # accepted work it can never finish.
        if info.spawned and not self._stopping:
            self.stats["respawns"] += 1
            self._spawn_worker()
        if not self._stopping:
            await self._dispatch()

    # ------------------------------------------------------------------
    # Streaming + telemetry emission
    # ------------------------------------------------------------------
    def _emit_job(self, job: Job, event: str, *, worker_id: str = "",
                  detail: str = "", payload: dict | None = None) -> None:
        record = JobRecord(
            job_id=job.job_id, event=event,
            experiment=job.request.describe(),
            units_total=job.units_total, units_done=job.units_done,
            priority=job.priority, worker_id=worker_id, detail=detail,
            payload=payload or {})
        line = dump_record(record)
        self._streams.setdefault(job.job_id, []).append(line)
        sink = self._stream_sinks.get(job.job_id)
        if sink is None:
            sink = JSONLSink(
                self.dir / "streams" / f"{job.job_id}.jsonl", mode="a")
            self._stream_sinks[job.job_id] = sink
        sink.emit(record)
        sink.close()          # flush every record: tails may be live
        self._notify_stream(job.job_id)

    def _emit_worker(self, info: WorkerInfo, event: str, *,
                     unit_digest: str = "", detail: str = "") -> None:
        self._emit_worker_raw(info.worker_id, event, pid=info.pid,
                              unit_digest=unit_digest,
                              units_done=info.units_done, detail=detail)

    def _emit_worker_raw(self, worker_id: str, event: str, *,
                         pid: int = 0, unit_digest: str = "",
                         units_done: int = 0, detail: str = "") -> None:
        if self._trace is None:
            return
        self._trace.emit(WorkerRecord(
            worker_id=worker_id, event=event, pid=pid,
            unit_digest=unit_digest, units_done=units_done,
            detail=detail))
        self._trace.close()

    def _notify_stream(self, job_id: str) -> None:
        event = self._stream_events.pop(job_id, None)
        if event is not None:
            event.set()

    def _stream_event(self, job_id: str) -> asyncio.Event:
        return self._stream_events.setdefault(job_id, asyncio.Event())

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        """Sort one fresh connection into worker vs HTTP handling."""
        try:
            first = await reader.readline()
        except (ConnectionError, OSError, ValueError):
            writer.close()
            return
        if not first:
            writer.close()
            return
        text = first.decode("utf-8", errors="replace").strip()
        try:
            if text.startswith("{"):
                await self._worker_session(text, reader, writer)
            else:
                await self._http_session(text, reader, writer)
        except (ConnectionError, OSError, EOFError):
            # EOFError covers asyncio.IncompleteReadError: a client
            # that sent Content-Length but hung up early.
            pass
        finally:
            try:
                writer.close()
            except (ConnectionError, OSError):
                pass

    async def _http_session(self, request_line: str, reader, writer
                            ) -> None:
        parts = request_line.split()
        if len(parts) < 2:
            return
        method, path = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if not line or line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode("utf-8", "replace").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        length = int(headers.get("content-length", 0) or 0)
        if length:
            body = await reader.readexactly(length)
        await self._route(method, path, body, writer, headers)

    def _authorized(self, headers: dict[str, str]) -> bool:
        """Whether a request may hit a mutating endpoint.

        Loopback binds trust their clients (anything that can connect
        can also read ``server.json``).  Any other bind requires the
        session token — ``POST /jobs`` executes arbitrary call
        targets, so an open bind without auth would be remote code
        execution.
        """
        if _is_loopback(self.config.host):
            return True
        token = self.token.encode()
        auth = headers.get("authorization", "")
        if auth.startswith("Bearer ") and secrets.compare_digest(
                auth[len("Bearer "):].strip().encode(), token):
            return True
        return secrets.compare_digest(
            headers.get("x-mirage-token", "").encode(), token)

    async def _route(self, method: str, path: str, body: bytes,
                     writer, headers: dict[str, str]) -> None:
        path, _, query = path.partition("?")
        if method == "POST" and not self._authorized(headers):
            await _respond(writer, 403, {
                "error": "mutating endpoints on a non-loopback bind "
                         "require the session token (Authorization: "
                         "Bearer <token> from server.json)"})
            return
        if method == "GET" and path == "/health":
            await _respond(writer, 200, self.health())
        elif method == "GET" and path == "/jobs":
            await _respond(writer, 200, {
                "jobs": [j.info() for j in self.jobs.values()]})
        elif method == "POST" and path == "/jobs":
            try:
                request = request_from_dict(json.loads(body or b"{}"))
                job, coalesced = await self.submit(request)
            except (ValueError, json.JSONDecodeError) as exc:
                await _respond(writer, 400, {"error": str(exc)})
                return
            except RuntimeError as exc:
                await _respond(writer, 503, {"error": str(exc)})
                return
            await _respond(writer, 200, {"job": job.info(),
                                         "coalesced": coalesced})
        elif method == "POST" and path == "/shutdown":
            try:
                drain = bool(json.loads(body or b"{}").get("drain", True))
            except json.JSONDecodeError:
                drain = True
            await _respond(writer, 200, {"ok": True, "drain": drain})
            asyncio.ensure_future(self.shutdown(drain=drain))
        elif method == "GET" and path.startswith("/jobs/"):
            rest = path[len("/jobs/"):]
            job_id, _, tail = rest.partition("/")
            if tail == "stream":
                start = 0
                for part in query.split("&"):
                    if part.startswith("from="):
                        try:
                            start = int(part[5:])
                        except ValueError:
                            pass
                await self._stream_response(writer, job_id, start)
            elif not tail:
                job = self.jobs.get(job_id)
                if job is None:
                    await _respond(writer, 404,
                                   {"error": f"no job {job_id!r}"})
                else:
                    await _respond(writer, 200, {"job": job.info()})
            else:
                await _respond(writer, 404, {"error": "not found"})
        else:
            await _respond(writer, 404, {"error": "not found"})

    async def _stream_response(self, writer, job_id: str,
                               start: int) -> None:
        """Live-tail a job's JSONL stream until it reaches a terminal
        state (response is terminated by connection close)."""
        if job_id not in self._streams and job_id not in self.jobs:
            # Unknown in memory: fall back to a stream file from a
            # previous server generation, if one exists.
            lines = self._read_stream_file(job_id)
            if not lines:
                await _respond(writer, 404,
                               {"error": f"no job {job_id!r}"})
                return
            self._streams[job_id] = lines
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: application/x-ndjson\r\n"
                     b"Connection: close\r\n\r\n")
        index = max(0, start)
        while True:
            event = self._stream_event(job_id)
            lines = self._streams.get(job_id, [])
            while index < len(lines):
                writer.write((lines[index] + "\n").encode())
                index += 1
            await writer.drain()
            job = self.jobs.get(job_id)
            if job is None or job.finished:
                break
            await event.wait()

    # ------------------------------------------------------------------
    def health(self) -> dict:
        """The ``GET /health`` snapshot: fleet, queue, and counters."""
        states: dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "ok": True,
            "version": repro.__version__,
            "draining": self._draining,
            "queue_depth": len(self.queue),
            "inflight": len([t for t in self.tasks.values()
                             if t.assigned_to]),
            "workers": [w.status() for w in self.registry.all()],
            "jobs": states,
            "stats": dict(self.stats),
        }


def _job_key(digests: list[str]) -> str:
    """A job's coalescing identity: the digest of its unit digests."""
    return hashlib.sha256("|".join(digests).encode()).hexdigest()[:32]


async def _respond(writer, status: int, payload: dict) -> None:
    """Write one JSON response and flush (connection closes after)."""
    reasons = {200: "OK", 400: "Bad Request", 403: "Forbidden",
               404: "Not Found", 503: "Service Unavailable"}
    body = json.dumps(payload).encode()
    writer.write((f"HTTP/1.1 {status} {reasons.get(status, 'OK')}\r\n"
                  f"Content-Type: application/json\r\n"
                  f"Content-Length: {len(body)}\r\n"
                  f"Connection: close\r\n\r\n").encode() + body)
    await writer.drain()


def serve(config: ServiceConfig | None = None) -> None:
    """Blocking entry point: run a server until shutdown or Ctrl-C."""
    server = ExperimentServer(config)

    async def _main() -> None:
        host, port = await server.start()
        print(f"[serve] listening on {host}:{port} "
              f"({server.config.workers} workers, "
              f"dir {server.dir})", flush=True)
        try:
            await server.run_until_stopped()
        except asyncio.CancelledError:
            pass

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass


class ServerHandle:
    """An in-process server running its event loop on a thread.

    What the tests, the bench probe, and embedding applications use:
    ``ServerHandle.start(config)`` returns once the server is bound,
    and the calling thread talks to it over the normal client API.
    """

    def __init__(self, server: ExperimentServer, loop, thread):
        self.server = server
        self.loop = loop
        self.thread = thread

    @classmethod
    def start(cls, config: ServiceConfig | None = None,
              timeout: float = 30.0) -> "ServerHandle":
        """Spin up a server on a daemon thread; returns when bound."""
        server = ExperimentServer(config)
        loop = asyncio.new_event_loop()
        thread = threading.Thread(
            target=_run_loop, args=(loop,), daemon=True,
            name="mirage-service")
        thread.start()
        future = asyncio.run_coroutine_threadsafe(server.start(), loop)
        future.result(timeout=timeout)
        return cls(server, loop, thread)

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``."""
        return self.server.address

    def call(self, coro, timeout: float = 60.0) -> Any:
        """Run a coroutine on the server loop and wait for its result."""
        return asyncio.run_coroutine_threadsafe(
            coro, self.loop).result(timeout=timeout)

    def stop(self, drain: bool = True, timeout: float = 60.0) -> None:
        """Graceful shutdown, then tear the loop and thread down."""
        self.call(self.server.shutdown(drain=drain), timeout=timeout)
        self._teardown()

    def abort(self) -> None:
        """Simulate a crash: kill workers and the loop with no
        journal finalization (the journal-replay tests use this)."""
        for popen in list(self.server._procs.values()):
            popen.kill()
        self.server._procs.clear()

        def _close() -> None:
            if self.server._server is not None:
                self.server._server.close()
            if self.server._monitor is not None:
                self.server._monitor.cancel()

        self.loop.call_soon_threadsafe(_close)
        self._teardown()

    def _teardown(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10.0)
        if not self.loop.is_running():
            self.loop.close()


def _run_loop(loop) -> None:
    asyncio.set_event_loop(loop)
    loop.run_forever()
