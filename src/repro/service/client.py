"""The thin HTTP client behind ``mirage submit`` / ``jobs`` / ``tail``.

:class:`ServiceClient` talks plain HTTP/1.1 (one request per
connection) to a running :class:`~repro.service.server.ExperimentServer`.
Clients find the server through the ``server.json`` address file the
server writes under its service directory, so ``mirage submit table1``
works with no flags as long as ``mirage serve`` runs with the same
``MIRAGE_SERVICE_DIR``.

The streaming endpoint (``GET /jobs/<id>/stream``) replays a job's
full :class:`~repro.telemetry.events.JobRecord` history and then
follows it live; :meth:`ServiceClient.tail` exposes that as an
iterator of record dicts, and :meth:`ServiceClient.result` folds it
down to the decoded result payloads most callers want.
"""

from __future__ import annotations

import http.client
import json
import time
from collections.abc import Iterator
from pathlib import Path
from typing import Any

from repro.config import default_service_dir
from repro.runner.cache import decode_payload
from repro.service.protocol import SubmitRequest, request_to_dict

#: Job stream events that end a tail.
TERMINAL_EVENTS = frozenset({"done", "failed", "cancelled"})


class ServiceError(RuntimeError):
    """A request the server answered with an error (or not at all)."""


def discover(service_dir: str | Path | None = None
             ) -> tuple[str, int] | None:
    """Read the server address file; ``None`` when no server is up.

    The file may be stale (a crashed server leaves it behind) — the
    first actual request will surface that as a connection error.
    """
    base = Path(service_dir) if service_dir else default_service_dir()
    try:
        data = json.loads((base / "server.json").read_text())
        return str(data["host"]), int(data["port"])
    except (OSError, json.JSONDecodeError, KeyError, ValueError):
        return None


def _read_token(service_dir: str | Path | None = None) -> str:
    """The session token from the server address file (or ``""``)."""
    base = Path(service_dir) if service_dir else default_service_dir()
    try:
        data = json.loads((base / "server.json").read_text())
        return str(data.get("token", ""))
    except (OSError, json.JSONDecodeError, ValueError):
        return ""


class ServiceClient:
    """HTTP client for one experiment server.

    *token* authenticates mutating requests against servers bound to
    non-loopback interfaces; when omitted it is read from the same
    ``server.json`` file used for address discovery (explicit
    *address* with no *service_dir* sends no token — loopback servers
    never require one).
    """

    def __init__(self, address: tuple[str, int] | None = None,
                 service_dir: str | Path | None = None,
                 timeout: float = 30.0, token: str | None = None):
        discovered = address is None
        if address is None:
            address = discover(service_dir)
            if address is None:
                base = (Path(service_dir) if service_dir
                        else default_service_dir())
                raise ServiceError(
                    f"no server address file under {base} — "
                    f"is `mirage serve` running?")
        if token is None and (discovered or service_dir is not None):
            token = _read_token(service_dir)
        self.address = address
        self.timeout = timeout
        self.token = token or ""

    def _headers(self, with_content: bool = False) -> dict[str, str]:
        headers: dict[str, str] = {}
        if with_content:
            headers["Content-Type"] = "application/json"
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        return headers

    # ------------------------------------------------------------------
    def _request(self, method: str, path: str,
                 body: dict | None = None) -> dict:
        host, port = self.address
        conn = http.client.HTTPConnection(host, port,
                                          timeout=self.timeout)
        try:
            payload = json.dumps(body).encode() if body is not None else None
            conn.request(method, path, body=payload,
                         headers=self._headers(
                             with_content=payload is not None))
            response = conn.getresponse()
            data = json.loads(response.read() or b"{}")
            if response.status >= 400:
                raise ServiceError(
                    data.get("error",
                             f"HTTP {response.status} for {path}"))
            return data
        except (ConnectionError, OSError, TimeoutError) as exc:
            raise ServiceError(
                f"server at {host}:{port} unreachable: {exc}") from exc
        finally:
            conn.close()

    # ------------------------------------------------------------------
    def health(self) -> dict:
        """The server's ``GET /health`` snapshot."""
        return self._request("GET", "/health")

    def jobs(self) -> list[dict]:
        """Every job the server knows, as info dicts."""
        return self._request("GET", "/jobs")["jobs"]

    def job(self, job_id: str) -> dict:
        """One job's info dict; raises :class:`ServiceError` if
        unknown."""
        return self._request("GET", f"/jobs/{job_id}")["job"]

    def submit(self, request: SubmitRequest) -> dict:
        """Submit one request; returns ``{"job": info, "coalesced":
        bool}``."""
        return self._request("POST", "/jobs", request_to_dict(request))

    def shutdown(self, drain: bool = True) -> dict:
        """Ask the server to stop (draining accepted work first)."""
        return self._request("POST", "/shutdown", {"drain": drain})

    # ------------------------------------------------------------------
    def tail(self, job_id: str, start: int = 0,
             timeout: float | None = None) -> Iterator[dict]:
        """Yield a job's stream records (replay, then live) until the
        job reaches a terminal state.

        *timeout* bounds the wait for each next record (defaults to
        the client timeout); blowing it raises :class:`ServiceError`.
        """
        host, port = self.address
        conn = http.client.HTTPConnection(
            host, port, timeout=timeout or self.timeout)
        try:
            conn.request("GET", f"/jobs/{job_id}/stream?from={start}",
                         headers=self._headers())
            response = conn.getresponse()
            if response.status >= 400:
                data = json.loads(response.read() or b"{}")
                raise ServiceError(
                    data.get("error", f"HTTP {response.status}"))
            while True:
                line = response.readline()
                if not line:
                    return
                line = line.strip()
                if line:
                    yield json.loads(line)
        except (ConnectionError, OSError, TimeoutError) as exc:
            raise ServiceError(
                f"stream for {job_id} broke: {exc}") from exc
        finally:
            conn.close()

    def wait(self, job_id: str,
             timeout: float | None = None) -> dict:
        """Block until the job finishes; returns its terminal record.

        *timeout* is a wall-clock bound on the whole wait, not on a
        single record.
        """
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        last: dict | None = None
        for record in self.tail(job_id, timeout=timeout):
            last = record
            if record.get("event") in TERMINAL_EVENTS:
                return record
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceError(
                    f"timed out waiting for job {job_id}")
        if last is not None and last.get("event") in TERMINAL_EVENTS:
            return last
        raise ServiceError(
            f"stream for job {job_id} ended before a terminal state")

    def result(self, job_id: str,
               timeout: float | None = None) -> list[Any]:
        """The job's decoded unit results, in decomposition order.

        Raises :class:`ServiceError` if the job failed or was
        cancelled.
        """
        record = self.wait(job_id, timeout=timeout)
        if record.get("event") != "done":
            raise ServiceError(
                f"job {job_id} {record.get('event')}: "
                f"{record.get('detail', '')}")
        return [decode_payload(envelope)
                for envelope in record["payload"]["results"]]
