"""One pass of one benchmark workload, in a fresh interpreter.

``perf/run.py`` starts this file once per pass (twice for the two
halves of ``parallel-cache``) with a JSON spec as its only argument,
and reads one JSON report from the last line of its standard output::

    python perf/workloads.py '{"workload": "interval-sweep", "seed": 2017, ...}'

A fresh process per pass is the point: ``SliceMemo.shared()``,
``WarmPool.shared()`` and the ``lru_cache``s start cold, as they do for
a user's ``mirage`` command.  The pass calls only public surfaces —
``repro.api.run_experiment``, ``SweepRunner``/``call_unit``,
``ServiceClient`` and ``mirage serve`` — and reports raw material
(host-time windows, work counts, digests, runner and service
statistics, trace aggregates); ``run.py`` turns it into metrics.
"""

from __future__ import annotations

import time

import repro.api as api

#: When ``import repro.api`` returned, on the system-wide monotonic
#: clock that ``run.py`` stamped the interpreter start with.
IMPORTED = time.perf_counter()

import dataclasses  # noqa: E402 — after the timed import on purpose
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Callable  # noqa: E402

from repro.service import ServiceError  # noqa: E402

TABLE1_TARGET = "repro.experiments.table1:measure_ratio"
FIG2_TARGET = "repro.experiments.fig2_memoization:measure"

#: Steps per workload and size: ``(name, kind, parameters)``.  Kind
#: ``"experiment"`` goes through ``run_experiment(name, quick=True)``
#: with the parameters as driver overrides; kind ``"units"`` maps one
#: call unit per benchmark through a ``SweepRunner``.  The full sizes
#: are scaled down from ``--quick`` so that at least three passes fit in
#: one timed run even while the machine runs at half speed, and the
#: run's median pass shrugs off one disturbed pass; the ``smoke`` sizes
#: shrink them again for the test suite.
STEPS: dict[str, dict[str, tuple]] = {
    "interval-sweep": {
        "full": (
            ("fig7", "experiment", {"n_mixes": 1, "n_values": (4, 8)}),
            ("fig8", "experiment", {"n_mixes": 1, "n_values": (4, 8)}),
            ("headline", "experiment", {"n_mixes": 1, "n_seeds": 1}),
        ),
        "smoke": (
            ("fig7", "experiment", {"n_mixes": 1, "n_values": (4,)}),
            ("fig8", "experiment", {"n_mixes": 1, "n_values": (4,)}),
            ("headline", "experiment", {"n_mixes": 1, "n_seeds": 1}),
        ),
    },
    "detailed-sweep": {
        "full": (
            ("table1", "units", {"target": TABLE1_TARGET,
                                 "instructions": 1_500}),
            ("fig2", "units", {"target": FIG2_TARGET,
                               "instructions": 1_500}),
            ("tier-validation", "experiment", {"n_slices": 2}),
            ("backend-matrix", "experiment", {
                "intervals": 4, "slice_instructions": 1_500,
                "max_intervals": 60, "energy_instructions": 1_000}),
        ),
        "smoke": (
            ("table1", "units", {"target": TABLE1_TARGET,
                                 "instructions": 1_000,
                                 "benchmarks": api.ALL_BENCHMARKS[:3]}),
            ("fig2", "units", {"target": FIG2_TARGET,
                               "instructions": 1_000,
                               "benchmarks": api.ALL_BENCHMARKS[:3]}),
            ("tier-validation", "experiment", {"n_slices": 2}),
            ("backend-matrix", "experiment", {
                "intervals": 4, "slice_instructions": 1_000,
                "max_intervals": 50, "energy_instructions": 1_000}),
        ),
    },
    # fig7 and fig8 keep the drivers' default mixes: a mix seed moves
    # their simulated work up to fourfold, and a two-worker makespan
    # does not scale with it.  The workload seed is the stream seed of
    # the table1 and fig2 units, as in detailed-sweep.
    "parallel-cache": {
        "full": (
            ("fig7", "experiment", {"n_mixes": 1, "n_values": (4, 8),
                                    "seed": 2017}),
            ("fig8", "experiment", {"n_mixes": 1, "n_values": (4, 8),
                                    "seed": 2017}),
            ("table1", "units", {"target": TABLE1_TARGET,
                                 "instructions": 1_500}),
            ("fig2", "units", {"target": FIG2_TARGET,
                               "instructions": 1_500}),
        ),
        "smoke": (
            ("fig7", "experiment", {"n_mixes": 1, "n_values": (4,),
                                    "seed": 2017}),
            ("fig8", "experiment", {"n_mixes": 1, "n_values": (4,),
                                    "seed": 2017}),
            ("table1", "units", {"target": TABLE1_TARGET,
                                 "instructions": 1_000,
                                 "benchmarks": api.ALL_BENCHMARKS[:3]}),
            ("fig2", "units", {"target": FIG2_TARGET,
                               "instructions": 1_000,
                               "benchmarks": api.ALL_BENCHMARKS[:3]}),
        ),
    },
}

#: Worker processes for ``parallel-cache`` and ``mirage serve``, and
#: client threads for ``service-loop``: the box's two cores.
PARALLEL_JOBS = 2
SERVICE_CLIENTS = 2
#: table1 call units the service jobs run, per job.
SERVICE_TABLE1_INSTRUCTIONS = 2_500
#: Mix seeds of the service's fig12 and fig15 jobs, fixed because a
#: drawn mix seed would move a pass's work up to threefold.
SERVICE_MIX_SEEDS = (2019, 2022)

#: The headline's four seed-dependent claims (fraction, paper value).
PAPER_CLAIMS = (("performance_vs_homo_ooo", 0.84),
                ("gain_vs_traditional", 0.28),
                ("energy_vs_homo_ooo", 0.45),
                ("ooo_gated_fraction", 0.40))


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def service_jobs(seed: int, smoke: bool = False) -> list[dict]:
    """The closed-loop job sequence of one ``service-loop`` pass.

    About 70 % are distinct jobs: ``table1:measure_ratio`` targets over
    every benchmark at stream seeds drawn from 1–6 (each benchmark the
    same number of times, so the work per pass hardly moves with the
    seed), plus ``fig12`` and one-mix ``fig15 --quick`` at
    :data:`SERVICE_MIX_SEEDS`.  The other ~30 % repeat an earlier job,
    which the server answers by coalescing or from its result cache.
    The seed draws the stream seeds, the order and the repeats.

    The repeat share, the 52:4 split between call targets and
    experiment jobs and the two clients are assumptions, not a record
    of traffic any ``mirage serve`` has received: nothing measures that
    traffic yet.  They set ``service.dedup_ratio`` and how much of
    ``wall_s`` coalescing and cache hits save, so a dedup gain on this
    workload holds for this mix only.
    """
    rng = random.Random(seed)
    benchmarks = api.ALL_BENCHMARKS[:2] if smoke else api.ALL_BENCHMARKS
    per_benchmark = 1 if smoke else 2
    fresh: list[dict] = []
    for name in benchmarks:
        for stream_seed in rng.sample(range(1, 7), per_benchmark):
            fresh.append({"target": TABLE1_TARGET, "args": [name],
                          "kwargs": {"instructions":
                                     SERVICE_TABLE1_INSTRUCTIONS,
                                     "seed": stream_seed}})
    for mix_seed in SERVICE_MIX_SEEDS[:1] if smoke else SERVICE_MIX_SEEDS:
        fresh.append({"experiment": "fig12", "seed": mix_seed})
        fresh.append({"experiment": "fig15", "n_mixes": 1, "seed": mix_seed})
    rng.shuffle(fresh)
    slots = [True] * len(fresh) + [False] * round(len(fresh) * 3 / 7)
    rng.shuffle(slots)
    slots.remove(True)
    slots.insert(0, True)           # the first job cannot be a repeat
    sequence: list[dict] = []
    issued: list[dict] = []
    fresh_iter = iter(fresh)
    for new in slots:
        job = next(fresh_iter) if new else rng.choice(issued)
        if new:
            issued.append(job)
        sequence.append(job)
    return sequence


def submit_request(job: dict):
    """The :class:`~repro.api.SubmitRequest` a drawn job is sent as."""
    if "target" in job:
        return api.SubmitRequest(target=job["target"],
                                 args=tuple(job["args"]),
                                 kwargs=tuple(sorted(job["kwargs"].items())))
    return api.SubmitRequest(experiments=(job["experiment"],), quick=True,
                             seed=job["seed"], n_mixes=job.get("n_mixes"))


# ----------------------------------------------------------------------
# Observation helpers
# ----------------------------------------------------------------------
def digest(value: Any) -> str:
    """SHA-256 of the canonical JSON of a result (dataclasses such as
    ``CMPResult`` as their field dicts)."""
    plain = json.loads(json.dumps(value, default=dataclasses.asdict))
    text = json.dumps(plain, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def unit_identity(unit) -> str:
    return json.dumps(dataclasses.asdict(unit), sort_keys=True, default=str)


class Capture(api.SweepRunner):
    """A ``SweepRunner`` that keeps the units it mapped and their results
    (for digests, work counts and duplicate detection)."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.units: list = []
        self.results: list = []

    def map(self, units):
        units = list(units)
        results = super().map(units)
        self.units.extend(units)
        self.results.extend(results)
        return results


def app_intervals(results) -> int:
    """Σ engine intervals × apps over the interval-tier results."""
    return sum(r.intervals * len(r.app_names) for r in results
               if isinstance(r, api.CMPResult))


def tree_rss_mib(root: int) -> float:
    """Σ ``VmHWM`` of *root* and every live descendant, in MiB."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    total_kib = 0
    todo = [root]
    while todo:
        pid = todo.pop()
        todo.extend(children.get(pid, ()))
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kib / 1024


class Report:
    """What one process hands back to ``run.py``.

    Timed windows are host ``[start, end]`` pairs on the system-wide
    monotonic clock, which ``run.py`` turns into reference seconds.
    """

    def __init__(self, phase: str, spawned: float):
        self.data: dict[str, Any] = {
            "phase": phase, "setup": [spawned, IMPORTED],
            "span": [spawned, None], "steps": [], "loop": None,
            "ops": {}, "digests": {}, "failed": 0, "failures": [],
            "rss_mib": 0.0,
            "runner": {"units": 0, "hits": 0, "misses": 0, "unit_s": [],
                       "dup_units": 0, "jobs": 1},
            "simcache": None, "service": None, "paper_gap_pp": None,
            "trace": None,
        }

    def check(self, key: str, value: Any, ops: int) -> None:
        self.data["ops"][key] = ops
        self.data["digests"][key] = digest(value)

    def fail(self, what: str, detail: str | None = None) -> None:
        """Count one failed operation (called from an ``except`` block
        unless *detail* says what went wrong)."""
        self.data["ops"].setdefault(what, 1)
        self.data["failed"] += 1
        self.data["failures"].append(
            f"{what}: {detail or traceback.format_exc(limit=3).strip()}")


# ----------------------------------------------------------------------
# Sweep workloads
# ----------------------------------------------------------------------
def run_steps(steps: tuple, *, seed: int, jobs: int, cache_dir: str | None,
              report: Report, wrap: Callable | None) -> None:
    """Run a workload's steps in order, timing and checking each."""
    seen: set[str] = set()
    for name, kind, params in steps:
        runner = Capture(jobs=jobs, experiment=name,
                         cache=api.ResultCache(cache_dir) if cache_dir
                         else None)
        body = _step_body(name, kind, dict(params), seed, jobs, cache_dir,
                          runner)
        if wrap is not None:
            body = wrap(body, f"experiments.{name}")
        start = time.perf_counter()
        try:
            result = body()
        except Exception:
            report.fail(f"step:{name}")
            continue
        window = [start, time.perf_counter()]
        stats = runner.stats
        unit_s = [seconds for seconds, _ in stats.unit_timings]
        report.data["steps"].append({
            "name": name, "window": window,
            "work": app_intervals(runner.results) or None})
        report.check(f"step:{name}", result, 1)
        report.check(f"units:{name}", runner.results, len(runner.results))
        acc = report.data["runner"]
        acc["jobs"] = jobs
        acc["units"] += len(runner.units)
        acc["hits"] += stats.cache_hits
        acc["misses"] += stats.cache_misses
        acc["unit_s"].extend(unit_s)
        if stats.cache_hits == 0:
            # Executed units already executed under an earlier step's
            # experiment name (the result cache keys on that name).
            identities = [unit_identity(u) for u in runner.units]
            acc["dup_units"] += sum(i in seen for i in identities)
            seen.update(identities)
        if name == "headline":
            report.data["paper_gap_pp"] = 100 * sum(
                abs(result[key] - paper) for key, paper in PAPER_CLAIMS
            ) / len(PAPER_CLAIMS)


def _step_body(name, kind, params, seed, jobs, cache_dir, runner):
    if kind == "units":
        units = [api.call_unit(params["target"], bench,
                               instructions=params["instructions"],
                               seed=seed)
                 for bench in params.get("benchmarks", api.ALL_BENCHMARKS)]
        return lambda: runner.map(units)
    if "seed" in api.EXPERIMENTS[name].accepts:
        params.setdefault("seed", seed)
    cache = (api.CacheConfig(cache_dir=cache_dir) if cache_dir else None)
    return lambda: api.run_experiment(name, quick=True, jobs=jobs,
                                      cache=cache, runner=runner, **params)


def sweep_pass(spec: dict, report: Report, wrap: Callable | None) -> None:
    workload = spec["workload"]
    steps = STEPS[workload]["smoke" if spec["smoke"] else "full"]
    parallel = workload == "parallel-cache" and not spec["reference"]
    cache_dir = str(Path(spec["scratch"]) / "cache") if parallel else None
    run_steps(steps, seed=spec["seed"],
              jobs=PARALLEL_JOBS if parallel else 1, cache_dir=cache_dir,
              report=report, wrap=wrap)
    memo = api.SliceMemo.shared()
    report.data["simcache"] = {"lookups": memo.stats.lookups,
                               "hits": memo.stats.hits,
                               "bytes": memo.approx_bytes}
    report.data["rss_mib"] = tree_rss_mib(os.getpid())


# ----------------------------------------------------------------------
# Service workload
# ----------------------------------------------------------------------
def service_pass(spec: dict, report: Report, wrap: Callable | None) -> None:
    jobs = service_jobs(spec["seed"], spec["smoke"])
    if spec["reference"]:
        _service_reference(jobs, report)
        return
    scratch = Path(spec["scratch"])
    service_dir = scratch / "service"
    log = open(scratch / "serve.log", "wb")
    # The server and its workers stay in this pass's process group, so
    # run.py can reap whatever an aborted pass leaves behind.
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--workers", str(PARALLEL_JOBS), "--service-dir", str(service_dir),
         "--cache-dir", str(scratch / "cache")],
        stdout=log, stderr=subprocess.STDOUT)
    try:
        client = _wait_ready(service_dir, server)
        report.data["setup"][1] = time.perf_counter()
        windows, results = _closed_loop(client, jobs, report, wrap)
        for i, job in enumerate(jobs):
            if results[i] is not None:
                report.check(f"job:{i}", results[i], 1)
        _check_repeats(jobs, report)
        stats = client.health()["stats"]
        report.data["service"] = {"windows": windows, "stats": stats}
        report.data["rss_mib"] = tree_rss_mib(os.getpid())
        client.shutdown(drain=True)
        server.wait(timeout=30)
    finally:
        if server.poll() is None:
            server.kill()
        server.wait()
        log.close()


def _wait_ready(service_dir: Path, server, timeout: float = 60.0):
    """A client once ``mirage serve`` answers with its whole fleet."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if server.poll() is not None:
            raise RuntimeError(f"mirage serve exited {server.returncode}")
        if (service_dir / "server.json").exists():
            try:
                client = api.ServiceClient(service_dir=service_dir)
                workers = client.health()["workers"]
                if (len(workers) >= PARALLEL_JOBS
                        and all(w["state"] == "idle" for w in workers)):
                    return client
            except ServiceError:
                pass    # address file written before the port answers
        time.sleep(0.02)
    raise RuntimeError("mirage serve did not become ready")


def _closed_loop(client, jobs: list[dict], report: Report,
                 wrap: Callable | None) -> tuple[list, list]:
    """Run *jobs* from :data:`SERVICE_CLIENTS` threads, each sending its
    next job only after the previous one reached a terminal record.
    Returns each completed job's ``[submit, terminal record]`` window
    and every job's results (``None`` where it failed)."""
    windows: list[list[float] | None] = [None] * len(jobs)
    results: list[Any] = [None] * len(jobs)
    lock = threading.Lock()
    cursor = iter(range(len(jobs)))

    def one_job(i: int) -> None:
        start = time.perf_counter()
        info = client.submit(submit_request(jobs[i]))
        record = client.wait(info["job"]["id"], timeout=120)
        windows[i] = [start, time.perf_counter()]
        if record.get("event") != "done":
            raise RuntimeError(f"job ended {record.get('event')}: "
                               f"{record.get('detail', '')}")
        results[i] = record["payload"]["results"]

    if wrap is not None:
        one_job = wrap(one_job, "service.job")

    def client_thread() -> None:
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            try:
                one_job(i)
            except Exception:
                with lock:
                    report.fail(f"job:{i}")

    threads = [threading.Thread(target=client_thread)
               for _ in range(SERVICE_CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    report.data["loop"] = [start, time.perf_counter()]
    return [w for w in windows if w is not None], results


def _check_repeats(jobs: list[dict], report: Report) -> None:
    """A repeated job must stream the same result as its first send."""
    first: dict[str, str] = {}
    digests = report.data["digests"]
    for i, job in enumerate(jobs):
        key = json.dumps(job, sort_keys=True)
        got = digests.get(f"job:{i}")
        if got is None:
            continue
        if first.setdefault(key, got) != got:
            report.fail(f"job:{i}", "a repeat streamed a different result")


def _service_reference(jobs: list[dict], report: Report) -> None:
    """The serial reference: every job's units executed in-process."""
    from repro.runner import execute_unit
    from repro.runner.cache import encode_payload
    from repro.service import decompose

    done: dict[str, Any] = {}
    for i, job in enumerate(jobs):
        key = json.dumps(job, sort_keys=True)
        if key not in done:
            done[key] = [encode_payload(execute_unit(unit))
                         for unit in decompose(submit_request(job))]
        report.check(f"job:{i}", done[key], 1)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
PASSES = {
    "interval-sweep": sweep_pass,
    "detailed-sweep": sweep_pass,
    "parallel-cache": sweep_pass,
    "service-loop": service_pass,
}


def run_pass(spec: dict) -> dict:
    """Run one process's share of a pass and return its report."""
    report = Report(spec["phase"], spec["t_spawn"])
    tracer = None
    wrap = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.calibrate(tracer)
        tracer.install()
        # Forked pool workers cannot report their spans back, so they
        # run the unwrapped code instead of paying for the wrappers.
        os.register_at_fork(after_in_child=tracer.uninstall)

        def wrap(fn, layer):
            return tracer.wrap(fn, layer, tracing.SPAN)
    try:
        PASSES[spec["workload"]](spec, report, wrap)
        report.data["span"][1] = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        span_s: dict[str, list[float]] = {}
        for _id, _parent, name, start, end, _root in tracer.spans:
            if name.startswith("service."):
                span_s.setdefault(name, []).append(end - start)
        report.data["trace"] = {
            "rows": tracer.aggregates(), "counts": tracer.counts,
            "cost_out": tracer.cost_out, "cost_in": tracer.cost_in,
            "span_s": span_s}
        if spec["trace_file"]:
            tracer.dump(Path(spec["trace_file"]),
                        workload=spec["workload"], seed=spec["seed"],
                        phase=spec["phase"])
    return report.data


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    print(json.dumps(run_pass(spec)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
