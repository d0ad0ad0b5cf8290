"""The asyncio experiment server behind ``mirage serve``.

One process, one event loop, three responsibilities:

* **Jobs** — submissions decompose into work units
  (:func:`~repro.service.protocol.decompose`); a priority
  :class:`~repro.service.jobs.JobQueue` orders them for execution.
  Identical concurrent submissions coalesce: unit identity is the
  shared :class:`~repro.runner.cache.ResultCache` digest, so two
  clients asking for the same sweep share one in-flight execution —
  and a later identical submission after completion is a cache hit
  that never reaches the queue at all.
* **Execution** — the server owns a private
  :class:`~repro.runner.pool.WarmPool` of ``workers`` processes and
  keeps at most that many units in flight, so the queue, not the
  pool, decides what runs next.  Each unit is one
  :meth:`~repro.runner.pool.WarmPool.submit` whose future the loop
  awaits; the pool detects a dead worker, requeues its unit and
  respawns it, and fails a unit that keeps crashing workers.
* **State** — every submission and job state change is appended to an
  on-disk journal (:mod:`repro.service.journal`); a restarted server
  replays it and resubmits unfinished jobs, whose finished units come
  straight back from the result cache.  Per-job progress streams as
  typed :class:`~repro.telemetry.events.JobRecord` lines appended to
  ``streams/<job>.jsonl``, which ``mirage tail`` (the ``GET
  /jobs/<id>/stream`` endpoint) follows live.

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
import sys
import threading
import time
from typing import Any

import repro
from repro.config import ServiceConfig
from repro.runner.cache import MISS, ResultCache, decode_payload, encode_payload
from repro.runner.pool import PoolTaskError, PoolUnavailable, WarmPool
import repro.service.jobs as jobstates
from repro.service.journal import Journal, replay
from repro.service.jobs import Job, JobQueue, UnitTask
from repro.service.protocol import (
    SubmitRequest,
    decompose,
    request_from_dict,
    request_to_dict,
    run_unit,
    unit_from_dict,
    unit_to_dict,
)
from repro.telemetry.events import JobRecord
from repro.telemetry.sinks import dump_record

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
        #: The worker processes; started by :meth:`start`.
        self.pool: WarmPool | None = None
        self.queue = JobQueue()
        self.jobs: dict[str, Job] = {}
        self.tasks: dict[str, UnitTask] = {}
        self.token = secrets.token_hex(8)
        #: Operational counters exposed under ``GET /health`` (the pool
        #: adds its ``requeues`` and ``respawns``).
        self.stats = {"executions": 0, "cache_hits": 0, "coalesced": 0,
                      "submissions": 0}
        self.address: tuple[str, int] | None = None
        self._active_keys: dict[str, str] = {}    # job key -> job id
        self._key_of: dict[str, str] = {}         # job id -> job key
        self._streams: dict[str, list[str]] = {}
        self._stream_events: dict[str, asyncio.Event] = {}
        self._running: set[asyncio.Task] = set()  # units on the pool
        self._seq = 0
        self._job_counter = 0
        self._draining = False
        self._stopping = False
        self._server: asyncio.base_events.Server | None = None
        self._stopped = asyncio.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Start the pool, bind, recover the journal; returns the bound
        ``(host, port)``."""
        self.dir.mkdir(parents=True, exist_ok=True)
        (self.dir / "streams").mkdir(exist_ok=True)
        # Workers fork before the listener exists, so they hold no
        # copy of it.
        self.pool = WarmPool(self.config.workers)
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)
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
        self._dispatch()
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
        to finish before stopping the pool.  Without drain (or past
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
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self.pool is not None:
            self.pool.shutdown()
        # Shutting the pool down failed every unit still on it.
        await asyncio.gather(*self._running, return_exceptions=True)
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
        digests = [self.cache.digest(u) for u in units]
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
                    if task is not None:
                        task.priority = max(task.priority,
                                            request.priority)
                        if not task.running:
                            self.queue.push(task)
            self._emit_job(job, "coalesced",
                           detail=f"submission #{job.submissions}")
            self._dispatch()
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
        self._dispatch()
        return job, False

    def _enqueue_units(self, job: Job) -> None:
        """Subscribe the job to its units: share in-flight tasks,
        satisfy cache hits immediately, queue the rest."""
        for unit, digest in zip(job.units, job.digests):
            if digest in job.results:
                continue                       # duplicate within job
            task = self.tasks.get(digest)
            if task is not None:
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
    def _dispatch(self) -> None:
        """Hand queued units to the pool, at most ``workers`` at once."""
        while (len(self._running) < self.config.workers
               and not self._stopping):
            digest = self.queue.pop()
            if digest is None:
                return
            task = self.tasks.get(digest)
            if task is None or task.running:
                continue
            task.running = True
            for job_id in task.job_ids:
                job = self.jobs.get(job_id)
                if job is not None and job.state == jobstates.QUEUED:
                    job.state = jobstates.RUNNING
                    self._emit_job(job, "started")
            run = asyncio.ensure_future(self._run_unit(task))
            self._running.add(run)
            run.add_done_callback(self._unit_settled)

    def _unit_settled(self, run: asyncio.Task) -> None:
        self._running.discard(run)
        self._dispatch()

    async def _run_unit(self, task: UnitTask) -> None:
        """Execute one unit on the pool and record its outcome."""
        try:
            future = self.pool.submit(run_unit, [task.unit])
            [envelope] = await asyncio.wrap_future(future)
        except (PoolTaskError, PoolUnavailable) as exc:
            if not self._stopping:
                self._unit_error(task, str(exc))
            return
        if self._stopping:
            return          # the journal may be closed: replay reruns it
        self.stats["executions"] += 1
        if self.use_result_cache:
            try:
                self.cache.put(task.unit, decode_payload(envelope))
            except OSError:
                pass                            # caching is best-effort
        self._complete_unit(task, envelope)

    def _unit_error(self, task: UnitTask, message: str) -> None:
        self.queue.discard(task.digest)
        self.tasks.pop(task.digest, None)
        for job_id in task.job_ids:
            job = self.jobs.get(job_id)
            if job is not None and not job.finished:
                self._finalize(job, jobstates.FAILED, error=message)

    def _complete_unit(self, task: UnitTask, envelope: dict) -> None:
        self.queue.discard(task.digest)
        self.tasks.pop(task.digest, None)
        for job_id in task.job_ids:
            job = self.jobs.get(job_id)
            if job is None or job.finished:
                continue
            job.results[task.digest] = envelope
            self._emit_job(job, "unit", worker_id="pool",
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
        # Closed after every record: tails may be live, and a restarted
        # server replays the file as a crash left it.
        path = self.dir / "streams" / f"{job.job_id}.jsonl"
        with path.open("a") as stream:
            stream.write(line + "\n")
        self._notify_stream(job.job_id)

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
        """Serve one HTTP request; the response ends at connection
        close."""
        try:
            first = await reader.readline()
        except (ConnectionError, OSError, ValueError):
            first = b""
        try:
            if first:
                await self._http_session(
                    first.decode("utf-8", errors="replace").strip(),
                    reader, writer)
        except (ConnectionError, OSError, EOFError):
            # EOFError covers asyncio.IncompleteReadError: a client
            # that sent Content-Length but hung up early.
            pass
        finally:
            try:
                # Half-close first: a worker forked while this
                # connection was open holds a copy of the socket, so
                # close() alone would never send the client its EOF.
                writer.write_eof()
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
        """The ``GET /health`` snapshot: workers, queue, and counters."""
        states: dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "ok": True,
            "version": repro.__version__,
            "draining": self._draining,
            "queue_depth": len(self.queue),
            "inflight": len(self._running),
            "workers": self.pool.status(),
            "jobs": states,
            "stats": {**self.stats, "requeues": self.pool.stats.requeues,
                      "respawns": self.pool.stats.respawns},
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
        """Simulate a crash: stop the loop, then the pool, with no
        journal finalization (the journal-replay tests use this)."""
        self.loop.call_soon_threadsafe(self.server._server.close)
        self._teardown()
        self.server.pool.shutdown()

    def _teardown(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10.0)
        if not self.loop.is_running():
            self.loop.close()


def _run_loop(loop) -> None:
    asyncio.set_event_loop(loop)
    loop.run_forever()
