"""Tests for the experiment service (repro.service).

Covers the queue, coalescing-through-the-cache, worker SIGKILL
recovery on the server's pool, crash-looping units, graceful drain,
journal replay after a simulated crash, the HTTP client round-trip,
stream EOF with a respawned worker alive, and the end-to-end
byte-identity of streamed results against a direct SweepRunner
execution.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import threading
import time

import pytest

from repro.config import CacheConfig, ServiceConfig
from repro.runner.cache import encode_payload
from repro.runner.executor import SweepRunner
from repro.service import (
    ServerHandle,
    ServiceClient,
    ServiceError,
    SubmitRequest,
    discover,
)
from repro.service.jobs import Job, JobQueue, UnitTask
from repro.service.journal import Journal, replay
from repro.service.protocol import (
    decompose,
    unit_from_dict,
    unit_to_dict,
)
from repro.runner.pool import MAX_CRASH_RETRIES
from repro.runner.units import call_unit

@pytest.fixture(autouse=True)
def _restore_mirage_env():
    """Keep the cache and service directory variables test-local."""
    keys = ("MIRAGE_CACHE_DIR", "MIRAGE_SERVICE_DIR")
    saved = {key: os.environ.get(key) for key in keys}
    yield
    for key, value in saved.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value


ECHO = "repro.service.protocol:echo_unit"
SLEEP = "repro.service.protocol:sleep_unit"
FLAKY = "repro.service.protocol:flaky_unit"


def _config(tmp_path, **kwargs) -> ServiceConfig:
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("service_dir", tmp_path / "svc")
    kwargs.setdefault("cache", CacheConfig(
        cache_dir=str(tmp_path / "cache"), use_result_cache=True))
    return ServiceConfig(**kwargs)


def _echo_request(tag: str, **kwargs) -> SubmitRequest:
    return SubmitRequest(target=ECHO, kwargs=(("tag", tag),), **kwargs)


def _wait_for(predicate, timeout=20.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(f"timed out waiting for {message}")


# ----------------------------------------------------------------------
# Queue ordering
# ----------------------------------------------------------------------
def _task(digest, priority=0, seq=0):
    return UnitTask(digest=digest, unit=call_unit(ECHO, tag=digest),
                    priority=priority, seq=seq)


def test_queue_orders_by_priority_then_submission():
    queue = JobQueue()
    queue.push(_task("low", priority=0, seq=1))
    queue.push(_task("high", priority=5, seq=2))
    queue.push(_task("mid", priority=2, seq=3))
    queue.push(_task("tie", priority=5, seq=4))
    assert [queue.pop() for _ in range(4)] == [
        "high", "tie", "mid", "low"]
    assert queue.pop() is None


def test_queue_requeue_keeps_original_seq():
    queue = JobQueue()
    evicted = _task("evicted", seq=1)
    queue.push(evicted)
    queue.push(_task("later", seq=2))
    assert queue.pop() == "evicted"
    queue.push(evicted)            # requeue after a worker died
    assert queue.pop() == "evicted"   # still ahead of "later"
    assert queue.pop() == "later"


def test_queue_discard_and_shadowed_entries():
    queue = JobQueue()
    task = _task("a", priority=0, seq=1)
    queue.push(task)
    task.priority = 9
    queue.push(task)               # shadows the stale heap entry
    assert len(queue) == 1
    assert queue.pop() == "a"
    assert queue.pop() is None     # the stale entry is skipped
    queue.push(task)
    queue.discard("a")
    assert queue.pop() is None


def test_units_done_counts_duplicate_units():
    """A job whose decomposition repeats a unit still reports
    units_done == units_total on completion (results are keyed by
    digest, digests may repeat)."""
    unit = call_unit(ECHO, tag="dup")
    job = Job(job_id="j1", request=SubmitRequest(target=ECHO),
              digests=["d", "d"], units=[unit, unit])
    assert (job.units_total, job.units_done) == (2, 0)
    job.results["d"] = {"kind": "json", "payload": 1}
    assert job.units_done == 2
    assert job.info()["units_done"] == job.info()["units_total"] == 2


# ----------------------------------------------------------------------
# Protocol round-trips
# ----------------------------------------------------------------------
def test_unit_dict_round_trip_preserves_digest(tmp_path):
    from repro.runner.cache import ResultCache

    cache = ResultCache(tmp_path / "cache")
    from repro.service.protocol import unit_digest

    unit = call_unit(ECHO, tag="x", value=3)
    again = unit_from_dict(json.loads(json.dumps(unit_to_dict(unit))))
    assert again == unit
    assert unit_digest(cache, again) == unit_digest(cache, unit)


def test_decompose_validates_names():
    with pytest.raises(ValueError, match="unknown experiment"):
        decompose(SubmitRequest(experiments=("nope",)))
    with pytest.raises(ValueError, match="nothing to run"):
        decompose(SubmitRequest())
    units = decompose(SubmitRequest(experiments=("all",), quick=True))
    from repro.experiments import EXPERIMENTS

    assert len(units) == len(EXPERIMENTS)
    assert all(u.kind == "call" for u in units)


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------
def test_journal_replay_tolerates_truncation(tmp_path):
    path = tmp_path / "journal.jsonl"
    journal = Journal(path)
    journal.append({"event": "submit", "id": "j1", "seq": 1,
                    "priority": 2, "request": {}, "units": [],
                    "digests": ["d1"]})
    journal.append({"event": "submit", "id": "j2", "seq": 2,
                    "request": {}, "units": [], "digests": ["d2"]})
    journal.append({"event": "state", "id": "j1", "state": "done"})
    journal.close()
    with path.open("a") as handle:
        handle.write('{"event": "state", "id": "j2", "sta')  # crash
    state = replay(path)
    assert state.max_job_number == 2
    assert state.max_seq == 2
    assert state.jobs["j1"].state == "done"
    assert [j.job_id for j in state.unfinished()] == ["j2"]


# ----------------------------------------------------------------------
# Server integration (in-process, real pool worker processes)
# ----------------------------------------------------------------------
def test_client_round_trip_and_errors(tmp_path):
    handle = ServerHandle.start(_config(tmp_path))
    try:
        client = ServiceClient(service_dir=tmp_path / "svc")
        assert discover(tmp_path / "svc") == handle.address
        health = client.health()
        assert health["ok"] and health["version"]
        response = client.submit(_echo_request("round-trip"))
        job_id = response["job"]["id"]
        assert response["coalesced"] is False
        assert client.result(job_id, timeout=60) == [
            {"value": None, "tag": "round-trip"}]
        assert client.job(job_id)["state"] == "done"
        assert any(j["id"] == job_id for j in client.jobs())
        with pytest.raises(ServiceError, match="no job"):
            client.job("j999")
        with pytest.raises(ServiceError, match="unknown experiment"):
            client.submit(SubmitRequest(experiments=("nope",)))
    finally:
        handle.stop(drain=False)


def test_concurrent_identical_submissions_coalesce(tmp_path):
    handle = ServerHandle.start(_config(tmp_path, workers=2))
    try:
        client = ServiceClient(service_dir=tmp_path / "svc")
        request = SubmitRequest(target=SLEEP, args=(0.8,))
        first = client.submit(request)
        second = client.submit(request)
        assert second["coalesced"] is True
        assert second["job"]["id"] == first["job"]["id"]
        assert second["job"]["submissions"] == 2
        job_id = first["job"]["id"]
        assert client.result(job_id, timeout=60) == [{"slept": 0.8}]
        stats = client.health()["stats"]
        assert stats["executions"] == 1      # one execution for both
        assert stats["coalesced"] == 1
        # A third, later identical submission is a pure cache hit.
        third = client.submit(request)
        assert third["job"]["id"] != job_id
        assert third["job"]["state"] == "done"
        assert client.health()["stats"]["executions"] == 1
    finally:
        handle.stop(drain=False)


def test_service_and_sweep_runner_share_one_entry(tmp_path):
    """Keys hold unit content only: a unit a sweep cached is a hit for
    the service, a unit the service ran is a hit for any sweep, and
    each lives in one entry file."""
    from repro.runner.cache import ResultCache

    cache = ResultCache(tmp_path / "cache")
    swept = call_unit(ECHO, tag="swept")
    served = call_unit(ECHO, tag="served")
    SweepRunner(cache=cache, experiment="fig7").map([swept])
    handle = ServerHandle.start(_config(tmp_path))
    try:
        client = ServiceClient(service_dir=tmp_path / "svc")
        assert client.submit(_echo_request("swept"))["job"]["state"] \
            == "done"
        job_id = client.submit(_echo_request("served"))["job"]["id"]
        assert client.result(job_id, timeout=60) == [
            {"value": None, "tag": "served"}]
        stats = client.health()["stats"]
        assert (stats["cache_hits"], stats["executions"]) == (1, 1)
    finally:
        handle.stop(drain=False)
    runner = SweepRunner(cache=cache, experiment="fig8")
    assert runner.map([served]) == [{"value": None, "tag": "served"}]
    assert (runner.stats.cache_hits, runner.stats.units_run) == (1, 0)
    assert sorted((tmp_path / "cache").glob("v*/*/*.json")) == sorted(
        [cache.path_for(swept), cache.path_for(served)])


def test_sigkilled_worker_job_requeues_and_completes(tmp_path):
    flag = tmp_path / "flaky.flag"
    handle = ServerHandle.start(_config(tmp_path, workers=2))
    try:
        client = ServiceClient(service_dir=tmp_path / "svc")
        request = SubmitRequest(
            target=FLAKY, args=(str(flag),), kwargs=(("sleep_s", 60.0),))
        job_id = client.submit(request)["job"]["id"]
        # The flag file appears once a worker is inside the unit.
        _wait_for(flag.exists, message="first execution to start")
        busy = [w for w in client.health()["workers"]
                if w["state"] == "busy"]
        assert busy, "a worker should be executing the unit"
        os.kill(busy[0]["pid"], signal.SIGKILL)
        record = client.wait(job_id, timeout=60)
        assert record["event"] == "done"
        payload = record["payload"]["results"][0]
        assert payload["value"] == {"attempt": "retry"}
        stats = client.health()["stats"]
        assert stats["requeues"] >= 1
        assert stats["respawns"] >= 1
    finally:
        handle.stop(drain=False)


def test_large_result_payload_round_trips(tmp_path):
    """Results far bigger than a pipe buffer (and than asyncio's
    default 64 KiB stream limit) come back whole from the pool."""
    handle = ServerHandle.start(_config(tmp_path))
    try:
        client = ServiceClient(service_dir=tmp_path / "svc")
        big = "x" * 300_000          # ~300 KB once JSON-encoded
        request = SubmitRequest(
            target=ECHO, kwargs=(("tag", "big"), ("value", big)))
        job_id = client.submit(request)["job"]["id"]
        assert client.result(job_id, timeout=60) == [
            {"value": big, "tag": "big"}]
    finally:
        handle.stop(drain=False)


@pytest.mark.parametrize("target, args, detail, crashes", [
    ("os:_exit", (3,),
     f"crashed its worker {MAX_CRASH_RETRIES + 1} times",
     MAX_CRASH_RETRIES + 1),
    ("builtins:frozenset", ([1, 2],), "not JSON serializable", 0),
], ids=["crash-loop", "non-json-result"])
def test_failing_unit_fails_its_job_and_server_keeps_serving(
        tmp_path, target, args, detail, crashes):
    """A unit that kills every worker it runs on fails its job once the
    pool's retry limit is spent, and so does a result the stream
    cannot carry; the server keeps serving either way."""
    handle = ServerHandle.start(_config(tmp_path))
    try:
        client = ServiceClient(service_dir=tmp_path / "svc")
        request = SubmitRequest(target=target, args=args)
        job_id = client.submit(request)["job"]["id"]
        record = client.wait(job_id, timeout=60)
        assert record["event"] == "failed"
        assert detail in record["detail"]
        stats = client.health()["stats"]
        assert stats["requeues"] == max(0, crashes - 1)
        assert stats["respawns"] == crashes
        job_id = client.submit(_echo_request("after"))["job"]["id"]
        assert client.result(job_id, timeout=60) == [
            {"value": None, "tag": "after"}]
    finally:
        handle.stop(drain=False)


def test_stream_ends_at_done_with_a_respawned_worker(tmp_path):
    """A respawned worker is forked while a tail is connected, so it
    holds a copy of that socket; the stream must still reach EOF when
    the job is done."""
    flag = tmp_path / "flaky.flag"
    handle = ServerHandle.start(_config(tmp_path))
    try:
        client = ServiceClient(service_dir=tmp_path / "svc")
        request = SubmitRequest(
            target=FLAKY, args=(str(flag),), kwargs=(("sleep_s", 60.0),))
        job_id = client.submit(request)["job"]["id"]
        _wait_for(flag.exists, message="first execution to start")
        seen: list[tuple[str, float]] = []
        ended: list[float] = []

        def follow() -> None:
            try:
                for record in client.tail(job_id, timeout=20):
                    seen.append((record["event"], time.monotonic()))
            finally:
                ended.append(time.monotonic())

        thread = threading.Thread(target=follow, daemon=True)
        thread.start()
        _wait_for(lambda: any(e == "started" for e, _ in seen),
                  message="the tail to connect")
        busy = [w for w in client.health()["workers"]
                if w["state"] == "busy"]
        os.kill(busy[0]["pid"], signal.SIGKILL)
        thread.join(timeout=40)
        assert not thread.is_alive()
        done_at = [t for event, t in seen if event == "done"]
        assert done_at, f"no done record in {seen}"
        assert ended[0] - done_at[0] < 10
    finally:
        handle.stop(drain=False)


def test_graceful_drain_finishes_accepted_work(tmp_path):
    handle = ServerHandle.start(_config(tmp_path, workers=1))
    client = ServiceClient(service_dir=tmp_path / "svc")
    request = SubmitRequest(target=SLEEP, args=(0.6,))
    job_id = client.submit(request)["job"]["id"]
    client.shutdown(drain=True)
    # Draining servers refuse new work immediately...
    _wait_for(lambda: handle.server._draining, timeout=5,
              message="drain flag")
    with pytest.raises(ServiceError):
        client.submit(_echo_request("rejected"))
    # ...but finish what they accepted before stopping.
    _wait_for(handle.server._stopped.is_set, timeout=30,
              message="drained shutdown")
    job = handle.server.jobs[job_id]
    assert job.state == "done"
    assert not (tmp_path / "svc" / "server.json").exists()
    handle._teardown()


def test_drain_respawns_dead_worker_and_finishes(tmp_path):
    """Losing the only worker mid-drain must not strand the queue:
    the pool respawns it and retries the unit, so the drain completes
    instead of spinning out its timeout."""
    flag = tmp_path / "flaky.flag"
    config = _config(tmp_path, workers=1, drain_timeout=60.0)
    handle = ServerHandle.start(config)
    client = ServiceClient(service_dir=tmp_path / "svc")
    request = SubmitRequest(
        target=FLAKY, args=(str(flag),), kwargs=(("sleep_s", 60.0),))
    job_id = client.submit(request)["job"]["id"]
    _wait_for(flag.exists, message="first execution to start")
    busy = [w for w in client.health()["workers"]
            if w["state"] == "busy"]
    assert busy, "a worker should be executing the unit"
    client.shutdown(drain=True)
    _wait_for(lambda: handle.server._draining, timeout=5,
              message="drain flag")
    os.kill(busy[0]["pid"], signal.SIGKILL)
    # The respawned worker retries the unit (fast path: flag exists),
    # and the drain finishes well before its 60 s budget.
    _wait_for(handle.server._stopped.is_set, timeout=40,
              message="drained shutdown after worker loss")
    job = handle.server.jobs[job_id]
    assert job.state == "done"
    assert handle.server.health()["stats"]["respawns"] >= 1
    handle._teardown()


def test_non_loopback_bind_requires_token_for_mutations(tmp_path):
    """POST /jobs executes arbitrary call targets, so a non-loopback
    bind demands the session token; reads stay open."""
    config = _config(tmp_path, host="0.0.0.0")
    handle = ServerHandle.start(config)
    try:
        port = handle.address[1]
        token = json.loads(
            (tmp_path / "svc" / "server.json").read_text())["token"]
        # Explicit address, no service dir: the client has no token.
        anon = ServiceClient(address=("127.0.0.1", port))
        assert anon.token == ""
        assert anon.health()["ok"]               # reads stay open
        assert anon.jobs() == []
        with pytest.raises(ServiceError, match="session token"):
            anon.submit(_echo_request("forbidden"))
        with pytest.raises(ServiceError, match="session token"):
            anon.shutdown()
        # The token (explicit or discovered) unlocks mutations.
        authed = ServiceClient(address=("127.0.0.1", port), token=token)
        assert authed.submit(_echo_request("ok-explicit"))["job"]["id"]
        discovered = ServiceClient(service_dir=tmp_path / "svc",
                                   address=("127.0.0.1", port))
        assert discovered.token == token
        assert discovered.submit(_echo_request("ok-found"))["job"]["id"]
    finally:
        handle.stop(drain=False)


def test_truncated_http_request_is_harmless(tmp_path):
    """A client that advertises Content-Length then hangs up must not
    wedge the server (readexactly's IncompleteReadError is handled)."""
    handle = ServerHandle.start(_config(tmp_path))
    try:
        host, port = handle.address
        sock = socket.create_connection((host, port))
        sock.sendall(b"POST /jobs HTTP/1.1\r\n"
                     b"Content-Length: 500\r\n\r\nshort")
        sock.close()
        client = ServiceClient(service_dir=tmp_path / "svc")
        assert client.health()["ok"]
    finally:
        handle.stop(drain=False)


def test_journal_replay_after_crash_resubmits(tmp_path):
    # Server A accepts a job whose first execution parks: it cannot
    # finish before the crash.
    flag = tmp_path / "flaky.flag"
    handle_a = ServerHandle.start(_config(tmp_path))
    client = ServiceClient(service_dir=tmp_path / "svc")
    request = SubmitRequest(
        target=FLAKY, args=(str(flag),), kwargs=(("sleep_s", 60.0),))
    job_id = client.submit(request)["job"]["id"]
    _wait_for(flag.exists, message="first execution to start")
    assert client.job(job_id)["state"] == "running"
    handle_a.abort()               # simulated crash: no finalization

    # Server B replays the journal and runs the job to completion.
    handle_b = ServerHandle.start(_config(tmp_path, workers=1))
    try:
        client = ServiceClient(service_dir=tmp_path / "svc")
        record = client.wait(job_id, timeout=60)
        assert record["event"] == "done"
        assert record["payload"]["results"][0]["value"] == {
            "attempt": "retry"}
        # Replayed history (including the original queued record) is
        # visible to late tails, and the id counter moved on.
        events = [r["event"] for r in client.tail(job_id, timeout=10)]
        assert events[0] == "queued"
        assert "requeued" in events
        new_id = client.submit(_echo_request("after"))["job"]["id"]
        assert int(new_id[1:]) > int(job_id[1:])
    finally:
        handle_b.stop(drain=False)


def test_streamed_result_matches_direct_sweeprunner(tmp_path):
    """The ISSUE's e2e identity: the streamed JSONL result payload is
    byte-identical to the same units run directly through
    SweepRunner."""
    request = SubmitRequest(
        experiments=("table1",), quick=True, n_mixes=2, seed=7)
    units = decompose(request)

    handle = ServerHandle.start(_config(tmp_path, workers=2))
    try:
        client = ServiceClient(service_dir=tmp_path / "svc")
        job_id = client.submit(request)["job"]["id"]
        record = client.wait(job_id, timeout=600)
        assert record["event"] == "done"
        streamed = record["payload"]["results"]
    finally:
        handle.stop(drain=False)

    direct = [encode_payload(result)
              for result in SweepRunner(experiment="service").map(units)]
    canonical = dict(separators=(",", ":"), sort_keys=True)
    assert (json.dumps(streamed, **canonical)
            == json.dumps(direct, **canonical))
