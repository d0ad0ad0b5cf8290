"""The repo benchmark: four end-to-end workloads, layer tracing on demand.

One run of one workload (the form ``BENCHMARK.json`` names)::

    python3 perf/run.py --workload W [--seed S] [--seconds T] [--trace 0|1]

A set of runs, round-robin over the workloads, saved for ``compare``::

    python3 perf/run.py [--workload W] --runs N [--seed S] [--trace] [--label L]
    python3 perf/run.py compare perf/out/A.json perf/out/B.json

Also ``--list`` (workloads and metrics), ``--smoke`` (tiny inputs, for
the tests) and ``golden`` (regenerate ``perf/golden.json``).

A run repeats passes of its workload for ``--seconds`` and reports the
median of each end-to-end metric over them, with times in reference
seconds: host seconds weighted by each core's speed measured during
them (see :class:`CoreProbes`).  Every pass runs in fresh interpreters
(``perf/workloads.py``), so process-global state starts cold the way
it does for a user.  With ``--trace 1`` the first half of
the time goes to untraced passes and the second half to traced ones;
the run then reports the per-layer metrics.  Untraced passes never
import the tracer.  Every operation's result is checked against
``perf/golden.json`` where it holds the seed, and against the run's
other passes otherwise.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
PERF = ROOT / "perf"
OUT = PERF / "out"
GOLDEN = PERF / "golden.json"

#: Workloads in round-robin order: (default seed, held-out seed).
WORKLOADS: dict[str, tuple[int, int]] = {
    "interval-sweep": (2017, 2018),
    "detailed-sweep": (1, 2),
    "parallel-cache": (1, 2),
    "service-loop": (7, 8),
}
#: Extra seeds whose combined digest ``golden`` records per workload.
GOLDEN_EXTRA_SEEDS = tuple(range(21))
#: Untraced passes an untraced run aims for, even past its seconds...
MIN_PASSES = 3
#: ...but it starts none expected to end after this many times them.
STRETCH = 1.3
#: A run is cut off this long after it started, whatever it measures.
RUN_CAP_S = 170.0
#: Per-layer metrics that untraced runs also record and ``compare``
#: gates, each against the bound of the end-to-end metric named here:
#: they exist on one workload only, so they cannot be end-to-end
#: metrics.  The model's distance from the paper repeats exactly, so
#: any move in it counts (bound 0).
GATED_LAYERS: dict[str, str | None] = {
    "runner.warm_wall_s": "wall_s",
    "service.job_p50_s": "wall_s",
    "service.job_p95_s": "wall_s",
    "service.jobs_per_s": "wall_s",
    "model.paper_gap_pp": None,
}


class PassError(RuntimeError):
    """A pass process failed, timed out, or printed no report."""


# ----------------------------------------------------------------------
# Small statistics
# ----------------------------------------------------------------------
def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0 < q <= 100)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


# ----------------------------------------------------------------------
# Files
# ----------------------------------------------------------------------
def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_golden() -> dict:
    try:
        return json.loads(GOLDEN.read_text())
    except (OSError, json.JSONDecodeError):
        return {}


def combined_digest(digests: dict[str, str]) -> str:
    """One SHA-256 over a pass's per-operation digests."""
    text = json.dumps(digests, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------
# Machine speed
# ----------------------------------------------------------------------
#: A probe kernel call that takes this long is full speed: one host
#: second at full speed is one reference second.
REFERENCE_PROBE_S = 50e-6
#: Host seconds between two samples of one core's speed.
PROBE_PERIOD_S = 0.03
#: One sample: ``(start, end, kernel seconds)``.
SAMPLE = struct.Struct("ddd")


def probe_kernel() -> int:
    """A fixed pure-Python loop of dict, list and integer work."""
    table: dict[int, int] = {}
    recent: list[int] = []
    total = 0
    for i in range(300):
        table[i & 255] = total
        total += (i * 7) % 13
        recent.append(total)
        if len(recent) > 64:
            recent.pop(0)
    return total


def _sample_core(cpu: int, path: Path) -> None:
    """Append samples of *cpu*'s speed to *path* until killed."""
    os.sched_setaffinity(0, {cpu})
    clock = time.perf_counter
    with open(path, "ab", buffering=0) as out:
        while True:
            start = clock()
            probe_kernel()
            middle = clock()
            probe_kernel()
            end = clock()
            out.write(SAMPLE.pack(start, end,
                                  min(middle - start, end - middle)))
            time.sleep(PROBE_PERIOD_S)


def reference_seconds(samples: list[tuple[float, float, float]],
                      start: float, end: float) -> float:
    """Reference seconds of the host window ``[start, end]`` on one core.

    Every stretch between two samples counts at the speed its earlier
    sample read, ``REFERENCE_PROBE_S / kernel seconds`` (the stretch
    before the first sample at the first one's); the samples' own time
    counts for nothing.
    """
    total = max(0.0, min(end, samples[0][0]) - start) / samples[0][2]
    # From the last sample that began before the window.
    first = max(0, bisect.bisect_left(samples, (start,)) - 1)
    for i in range(first, len(samples)):
        _, done, kernel = samples[i]
        if done >= end:
            break
        until = samples[i + 1][0] if i + 1 < len(samples) else end
        total += max(0.0, min(end, until) - max(start, done)) / kernel
    return total * REFERENCE_PROBE_S


class CoreProbes:
    """How fast each core of this machine runs Python, all through a run.

    This box shares its cores with other tenants, which for a second at
    a time, most of the time, halve the speed at which it runs Python.
    One sampler process per core, pinned to it, times the probe kernel
    twice every :data:`PROBE_PERIOD_S` (about 0.1 ms, so 0.3 % of the
    core) and keeps the faster call.  A window of host time in reference
    seconds is the mean over cores of :func:`reference_seconds`: a pass
    measured in them follows the work, not the neighbours.  The
    samplers are forked when the ``with`` block opens and killed and
    reaped when it closes.
    """

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self.pids: list[int] = []
        self.paths: list[Path] = []

    def __enter__(self) -> "CoreProbes":
        self.directory.mkdir(parents=True, exist_ok=True)
        for cpu in sorted(os.sched_getaffinity(0)):
            path = self.directory / f"probe-{os.getpid()}-{cpu}.bin"
            path.write_bytes(b"")
            pid = os.fork()
            if pid == 0:
                try:
                    _sample_core(cpu, path)
                finally:
                    os._exit(0)
            self.pids.append(pid)
            self.paths.append(path)
        return self

    def __exit__(self, *_exc) -> None:
        for pid in self.pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for path in self.paths:
            path.unlink(missing_ok=True)

    def read(self) -> list[list[tuple[float, float, float]]]:
        """Every core's samples so far (cores without any left out)."""
        cores = []
        for path in self.paths:
            data = path.read_bytes()
            data = data[:len(data) - len(data) % SAMPLE.size]
            if data:
                cores.append(list(SAMPLE.iter_unpack(data)))
        return cores


def in_seconds(report: dict, cores: list[list[tuple]]) -> dict:
    """*report* with every host window as ``{"host_s", "ref_s"}`` (the
    reference seconds are host seconds when *cores* is empty)."""
    def timed(window: list[float]) -> dict[str, float]:
        start, end = window
        readings = [reference_seconds(samples, start, end)
                    for samples in cores]
        return {"host_s": end - start,
                "ref_s": statistics.fmean(readings) if readings
                else end - start}

    for key in ("setup", "span", "loop"):
        if report[key] is not None:
            report[key] = timed(report[key])
    for step in report["steps"]:
        step.update(timed(step.pop("window")))
    if report["service"]:
        report["service"]["latencies_s"] = [
            timed(window)["ref_s"]
            for window in report["service"].pop("windows")]
    return report


# ----------------------------------------------------------------------
# Pass processes
# ----------------------------------------------------------------------
def pass_env(scratch: Path) -> dict[str, str]:
    """The environment of a pass: this checkout's ``src``, every cache
    and service directory inside the pass's scratch directory, and no
    inherited ``MIRAGE_*`` switches."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MIRAGE_")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["MIRAGE_CACHE_DIR"] = str(scratch / "cache")
    env["MIRAGE_SERVICE_DIR"] = str(scratch / "service")
    env["XDG_CACHE_HOME"] = str(scratch / "xdg")
    env["PYTHONHASHSEED"] = "0"
    return env


def launch(spec: dict, scratch: Path, timeout: float) -> dict:
    """Run one pass process to completion and return its report."""
    env = pass_env(scratch)
    spec = dict(spec, scratch=str(scratch), t_spawn=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, str(PERF / "workloads.py"), json.dumps(spec)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        raise PassError(f"{spec['workload']} pass timed out after "
                        f"{timeout:.0f}s") from None
    finally:
        _kill_group(proc.pid)   # pool workers or servers left behind
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"{spec['workload']} pass exited "
                        f"{proc.returncode}:\n{err[-2000:]}")
    return json.loads(lines[-1])


def _kill_group(pgid: int, wait_s: float = 10.0) -> None:
    """SIGKILL what is left of a pass's process group and wait until
    every member has gone."""
    deadline = time.monotonic() + wait_s
    try:
        os.killpg(pgid, signal.SIGKILL)
        while time.monotonic() < deadline:
            time.sleep(0.01)
            os.killpg(pgid, 0)
    except (ProcessLookupError, PermissionError):
        pass


def one_pass(workload: str, seed: int, *, smoke: bool, traced: bool,
             index: int, deadline: float, reference: bool = False,
             probes: CoreProbes | None = None) -> list[dict]:
    """One pass: its process reports (``parallel-cache`` has two — the
    cold half A and the warm half B, which shares A's cache), with their
    windows in seconds as *probes* measured them.  A *reference* pass
    runs the workload's calls serially and uncached in one process (the
    service's jobs in-process): the results ``golden.json`` holds."""
    scratch = OUT / "tmp" / f"{workload}-{seed}-{os.getpid()}-{index}"
    scratch.mkdir(parents=True, exist_ok=True)
    phases = ("A", "B") if workload == "parallel-cache" and not reference \
        else ("",)
    reports = []
    try:
        for phase in phases:
            trace_file = None
            if traced:
                suffix = "-warm" if phase == "B" else ""
                trace_file = str(OUT / f"trace-{workload}-{seed}{suffix}.json")
            spec = {"workload": workload, "seed": seed, "smoke": smoke,
                    "trace": traced, "phase": phase, "reference": reference,
                    "trace_file": trace_file}
            timeout = max(5.0, deadline - time.monotonic())
            reports.append(launch(spec, scratch, timeout))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    cores = probes.read() if probes is not None else []
    return [in_seconds(report, cores) for report in reports]


# ----------------------------------------------------------------------
# Metrics from pass reports
# ----------------------------------------------------------------------
def timed_windows(reports: list[dict]) -> list[tuple[str, dict]]:
    """``(step name or "loop", window)`` for the timed work of a pass:
    its steps and its service loop.  Pass B of ``parallel-cache`` is the
    warm pass, which ``runner.warm_wall_s`` reports on its own."""
    windows = []
    for report in reports:
        if report["phase"] == "B":
            continue
        windows.extend((step["name"], step) for step in report["steps"])
        if report["loop"] is not None:
            windows.append(("loop", report["loop"]))
    return windows


def pass_wall(reports: list[dict],
              default_work: dict[str, int] | None = None,
              unit: str = "ref_s") -> float:
    """Seconds of a pass's timed work (*unit* ``ref_s`` or ``host_s``).

    Every interval-tier step named in *default_work* is scaled to the
    default seed's simulated work (× W_default / W, W = Σ engine
    intervals × apps of the step's results), so that passes over other
    mixes stay comparable; steps whose work does not depend on the seed
    count as measured.  For the default seed the two readings are equal.
    """
    total = 0.0
    for name, window in timed_windows(reports):
        base = (default_work or {}).get(name)
        work = window.get("work")
        total += window[unit] * (base / work if base and work else 1.0)
    return total


def speed_ratio(reports: list[dict]) -> float:
    """Reference ÷ host seconds of a pass's timed work."""
    return pass_wall(reports) / pass_wall(reports, unit="host_s")


def end_to_end(passes: list[list[dict]], default_work: dict
               ) -> tuple[dict[str, float], dict[str, list[float]]]:
    """(median, per-pass samples) of every end-to-end metric."""
    samples = {
        "wall_s": [pass_wall(p, default_work) for p in passes],
        "setup_s": [p[0]["setup"]["ref_s"] for p in passes],
        "peak_rss_mb": [max(r["rss_mib"] for r in p) for p in passes],
    }
    values = {name: statistics.median(v) for name, v in samples.items()}
    return values, samples


def stats_layers(reports: list[dict], scale: float) -> dict[str, float]:
    """Per-layer values the program's own statistics give (any pass);
    unit times × *scale*, the pass's reference ÷ host seconds."""
    values: dict[str, float] = {}
    runner = {"units": 0, "hits": 0, "misses": 0, "unit_s": [],
              "dup_units": 0}
    for report in reports:
        for key in ("units", "hits", "misses", "dup_units"):
            runner[key] += report["runner"][key]
        runner["unit_s"].extend(report["runner"]["unit_s"])
    values["runner.units"] = runner["units"]
    values["runner.cache.dup_units"] = runner["dup_units"]
    lookups = runner["hits"] + runner["misses"]
    values["runner.cache.hit_ratio"] = (runner["hits"] / lookups
                                        if lookups else 0.0)
    if runner["unit_s"]:
        values["runner.unit_p50_ms"] = 1e3 * scale * statistics.median(
            runner["unit_s"])
        values["runner.unit_p90_ms"] = 1e3 * scale * percentile(
            runner["unit_s"], 90)
    for report in reports:
        memo = report["simcache"]
        if memo and report["phase"] != "B":
            values["simcache.lookups"] = memo["lookups"]
            values["simcache.hit_ratio"] = (memo["hits"] / memo["lookups"]
                                            if memo["lookups"] else 0.0)
            values["simcache.bytes"] = memo["bytes"]
        service = report["service"]
        if service:
            stats = service["stats"]
            values["service.executions"] = stats["executions"]
            values["service.requeues"] = stats["requeues"]
            values["service.respawns"] = stats["respawns"]
            values["service.dedup_ratio"] = (
                (stats["coalesced"] + stats["cache_hits"])
                / max(1, stats["submissions"]))
        if report["paper_gap_pp"] is not None:
            values["model.paper_gap_pp"] = report["paper_gap_pp"]
    return values


def traced_layers(reports: list[dict], scale: float) -> dict[str, float]:
    """Per-layer values read from a traced pass's aggregates, times in
    reference seconds: host seconds × *scale*, the pass's reference ÷
    host seconds."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    counts: dict[str, float] = {}
    span_s: dict[str, list[float]] = {}
    root_total = named_self = overhead = 0.0
    for report in reports:
        trace = report["trace"]
        if not trace:
            continue
        per_call = trace["cost_out"] + trace["cost_in"]
        for row in trace["rows"]:
            layer = row["layer"]
            calls[layer] = calls.get(layer, 0) + row["calls"]
            total[layer] = total.get(layer, 0.0) + row["total_s"]
            self_s[layer] = self_s.get(layer, 0.0) + row["self_s"]
            overhead += row["calls"] * per_call
            if layer.startswith("experiments.") or layer == "service.job":
                if not row["parent"]:
                    root_total += row["total_s"]
            else:
                named_self += row["self_s"]
        for key, value in trace["counts"].items():
            counts[key] = counts.get(key, 0) + value
        for key, value in trace["span_s"].items():
            span_s.setdefault(key, []).extend(value)

    def own(*layers):
        return scale * sum(self_s.get(layer, 0.0) for layer in layers)

    def n(*layers):
        return sum(calls.get(layer, 0) for layer in layers)

    values: dict[str, float] = {}
    for phase in ("arbitration", "migration", "execution", "energy", "loop"):
        values[f"engine.{phase}.self_s"] = own(f"engine.{phase}")
    for method in ("advance_all", "views_batch"):
        values[f"engine.backends.{method}.self_s"] = own(
            f"engine.backends.{method}")
    values["engine.runs"] = n("engine.loop")
    values["engine.intervals"] = counts.get("engine.intervals", 0)
    values["trace.app_intervals"] = counts.get("engine.app_intervals", 0)
    for method in ("pick", "pick_batch"):
        values[f"arbiter.{method}.calls"] = n(f"arbiter.{method}")
        values[f"arbiter.{method}.self_s"] = own(f"arbiter.{method}")
    values["cmp.detailed.advance.calls"] = n("cmp.detailed.advance")
    values["cmp.detailed.advance.self_s"] = own("cmp.detailed.advance")
    values["simcache.store.self_s"] = own("simcache.store")
    for core in ("ooo", "ino", "oino", "cgooo"):
        values[f"cores.{core}.self_s"] = own(f"cores.{core}")
    values["cores.instructions"] = counts.get("cores.instructions", 0)
    values["memory.accesses"] = n("memory.fetch", "memory.load",
                                  "memory.store")
    values["memory.l2_accesses"] = n("memory.l2_access")
    values["memory.self_s"] = own("memory.fetch", "memory.load",
                                  "memory.store", "memory.l2_access")
    lookups = n("schedule.lookup")
    values["schedule.lookups"] = lookups
    values["schedule.hit_ratio"] = (counts.get("schedule.lookup.hits", 0)
                                    / lookups if lookups else 0.0)
    values["schedule.self_s"] = own("schedule.lookup", "schedule.insert")
    values["runner.map.self_s"] = own("runner.map")
    values["runner.cache.get_s"] = scale * total.get("runner.cache.get", 0.0)
    values["runner.cache.put_s"] = scale * total.get("runner.cache.put", 0.0)
    values["runner.pool.spawn_s"] = scale * total.get("runner.pool.shared",
                                                      0.0)
    pool_wall = total.get("runner.pool.map", 0.0)
    busy = sum(sum(r["runner"]["unit_s"]) / r["runner"]["jobs"]
               for r in reports if r["phase"] == "A")
    values["runner.pool.busy_ratio"] = busy / pool_wall if pool_wall else 0.0
    for name in ("submit", "wait"):
        samples = span_s.get(f"service.{name}")
        values[f"service.{name}_p50_ms"] = (
            1e3 * scale * statistics.median(samples) if samples else 0.0)
    denominator = root_total - overhead
    values["trace.coverage_pct"] = (100 * named_self / denominator
                                    if denominator > 0 else 0.0)
    return values


def medians(samples: list[dict[str, float]]) -> dict[str, float]:
    """Per key, the median over the samples that hold it."""
    keys = {k for sample in samples for k in sample}
    return {k: statistics.median(s[k] for s in samples if k in s)
            for k in keys}


def untraced_layers(untraced: list[list[dict]]) -> dict[str, float]:
    """Per-layer values the untraced passes give: the program's own
    statistics, and the times of steps, the warm pass and service jobs."""
    def timings(p: list[dict]) -> dict[str, float]:
        found = {"host.wall_s": pass_wall(p, unit="host_s"),
                 "host.speed_ratio": speed_ratio(p)}
        for name, window in timed_windows(p):
            if name != "loop":
                key = f"experiments.{name}.s"
                found[key] = found.get(key, 0.0) + window["ref_s"]
        for report in p:
            if report["phase"] == "B":
                found["runner.warm_wall_s"] = report["span"]["ref_s"]
        return found

    values = medians([stats_layers(p, speed_ratio(p)) for p in untraced])
    values.update(medians([timings(p) for p in untraced]))
    latencies = [t for p in untraced for r in p if r["service"]
                 for t in r["service"]["latencies_s"]]
    if latencies:
        loops = sum(r["loop"]["ref_s"] for p in untraced for r in p
                    if r["loop"])
        values["service.job_p50_s"] = statistics.median(latencies)
        values["service.job_p95_s"] = percentile(latencies, 95)
        values["service.jobs_per_s"] = len(latencies) / loops
    return values


def layer_metrics(untraced: list[list[dict]], reference: list[list[dict]],
                  traced: list[list[dict]], names: list[str]
                  ) -> dict[str, float]:
    """Every per-layer metric: program statistics from the untraced
    passes, trace readings from the traced ones, medians over passes;
    ``runner.pool.speedup`` from the *reference* passes, which run the
    same calls serially."""
    values = medians([traced_layers(p, speed_ratio(p)) for p in traced])
    values.update(untraced_layers(untraced))
    wall = statistics.median(pass_wall(p) for p in untraced)
    traced_wall = statistics.median(pass_wall(p) for p in traced)
    values["trace.overhead_pct"] = 100 * (traced_wall / wall - 1)
    values["sim.kips"] = values.get("cores.instructions", 0) / wall / 1e3
    values["sim.kintervals_per_s"] = values.pop("trace.app_intervals", 0) \
        / wall / 1e3
    if reference:
        values["runner.pool.speedup"] = statistics.median(
            pass_wall(p) for p in reference) / wall
    return {name: float(values.get(name, 0.0)) for name in names}


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def check_outputs(workload: str, seed: int, smoke: bool,
                  reports: list[dict], golden: dict
                  ) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every process of a run.

    Each result digest is compared with ``golden.json`` when it holds
    this seed (per operation, or as one combined digest), and with the
    run's first report otherwise.
    """
    expected = None if smoke else (
        golden.get("digests", {}).get(workload, {}).get(str(seed)))
    combined = None if smoke else (
        golden.get("combined", {}).get(workload, {}).get(str(seed)))
    attempted = failed = 0
    messages: list[str] = []
    reference = None
    for report in reports:
        attempted += sum(report["ops"].values())
        failed += report["failed"]
        messages.extend(report["failures"])
        digests = report["digests"]
        if expected is None and combined is not None:
            if combined_digest(digests) != combined:
                failed += sum(report["ops"][k] for k in digests)
                messages.append(f"{workload} seed {seed}: results differ "
                                f"from golden.json")
            continue
        if expected is None:
            reference = reference or digests
        want = expected if expected is not None else reference
        for key, value in digests.items():
            if want.get(key, value) != value:
                failed += report["ops"][key]
                messages.append(f"{workload} seed {seed}: {key} differs "
                                f"from the {'golden' if expected else 'first'}"
                                f" result")
        for key in set(want) - set(digests) - set(report["ops"]):
            attempted += 1
            failed += 1
            messages.append(f"{workload} seed {seed}: {key} missing")
    return attempted, failed, messages


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run_workload(workload: str, seed: int, seconds: float, *, trace: bool,
                 smoke: bool = False) -> dict:
    """Passes of *workload* for *seconds*; the run's metrics."""
    bench = load_benchmark()
    golden = load_golden()
    default_work = {} if smoke else golden.get("default_work", {}).get(
        workload, {})
    start = time.monotonic()
    cap = start + RUN_CAP_S
    passes: dict[str, list[list[dict]]] = {
        "untraced": [], "reference": [], "traced": []}
    errors: list[str] = []

    def fill(kinds: tuple[str, ...], until: float, minimum: int,
             probes: CoreProbes) -> None:
        # Start another round, one pass of each kind, while it is
        # expected to end by *until*; a run short of *minimum* rounds may
        # stretch a little past it, so that a slow machine costs passes
        # rather than run time.
        durations: list[float] = []
        stretch = start + STRETCH * seconds
        while time.monotonic() < cap and len(errors) < 2:
            limit = until if len(durations) >= minimum else stretch
            if durations and (
                    time.monotonic() + statistics.median(durations) > limit):
                return
            begun = time.monotonic()
            for kind in kinds:
                try:
                    passes[kind].append(one_pass(
                        workload, seed, smoke=smoke, traced=kind == "traced",
                        reference=kind == "reference",
                        index=sum(map(len, passes.values())) + len(errors),
                        deadline=cap, probes=probes))
                except PassError as exc:
                    errors.append(str(exc))
            durations.append(time.monotonic() - begun)

    with CoreProbes(OUT / "tmp") as probes:
        if trace:
            # runner.pool.speedup sets the pooled calls against the same
            # calls run serially, alternating so that drift hits both.
            fill(("untraced", "reference") if workload == "parallel-cache"
                 else ("untraced",), start + seconds / 2, 1, probes)
            fill(("traced",), start + seconds, 1, probes)
        else:
            fill(("untraced",), start + seconds,
                 1 if smoke else MIN_PASSES, probes)
    untraced, traced = passes["untraced"], passes["traced"]
    if not untraced or (trace and not traced):
        raise PassError("no pass completed:\n" + "\n".join(errors))

    reports = [r for kind in passes.values() for p in kind for r in p]
    attempted, failed, messages = check_outputs(workload, seed, smoke,
                                                reports, golden)
    attempted += len(errors)
    failed += len(errors)
    messages.extend(errors)
    layers: dict[str, float] = {}
    if trace:
        names = [m["name"] for m in bench["per_layer"]]
        values = layer_metrics(untraced, passes["reference"], traced, names)
        samples = {name: [value] for name, value in values.items()}
    else:
        values, samples = end_to_end(untraced, default_work)
        layers = {k: v for k, v in untraced_layers(untraced).items()
                  if k in GATED_LAYERS}
    return {"workload": workload, "seed": seed, "trace": int(trace),
            "passes": sum(map(len, passes.values())),
            "samples": samples, "metrics": values, "layers": layers,
            "attempted": attempted, "failed": failed,
            "correct": failed == 0, "messages": messages}


def metric_units(bench: dict) -> dict[str, str]:
    return {m["name"]: m["unit"]
            for m in bench["end_to_end"] + bench["per_layer"]}


def print_table(title: str, values: dict[str, float],
                samples: dict[str, list[float]],
                units: dict[str, str]) -> None:
    """The reported value of each metric beside the median, quartiles
    and count of the samples it came from."""
    print(title)
    print(f"  {'metric':<36} {'unit':<14} {'value':>12} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'n':>3}")
    for name, value in values.items():
        q1, med, q3 = quartiles(samples[name])
        print(f"  {name:<36} {units.get(name, ''):<14} {value:>12.6g} "
              f"{med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{len(samples[name]):>3}")


def result_line(run: dict, units: dict[str, str]) -> str:
    return json.dumps({
        "correct": run["correct"], "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in run["metrics"].items()}})


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def cmd_run(args) -> int:
    bench = load_benchmark()
    units = metric_units(bench)
    seed = args.seed if args.seed is not None else (
        WORKLOADS[args.workload][0])
    seconds = args.seconds if args.seconds is not None else (
        1 if args.smoke else bench["run_seconds"])
    run = run_workload(args.workload, seed, seconds, trace=bool(args.trace),
                       smoke=args.smoke)
    for message in run["messages"]:
        print(f"[perf] {message}", file=sys.stderr)
    kind = "per-layer (traced)" if args.trace else "end-to-end"
    print_table(f"{args.workload} seed {seed}: {kind} metrics; samples are "
                f"per pass ({run['passes']} passes)", run["metrics"],
                run["samples"], units)
    print(result_line(run, units), flush=True)
    return 0 if run["correct"] else 1


def cmd_series(args) -> int:
    bench = load_benchmark()
    units = metric_units(bench)
    names = [args.workload] if args.workload else list(WORKLOADS)
    seconds = args.seconds if args.seconds is not None else (
        1 if args.smoke else bench["run_seconds"])
    runs: list[dict] = []

    def record(name: str, trace: bool, round_: int) -> None:
        seed = args.seed if args.seed is not None else WORKLOADS[name][0]
        run = run_workload(name, seed, seconds, trace=trace,
                           smoke=args.smoke)
        run["round"] = round_
        runs.append(run)
        print(f"[perf] round {round_} {name}{' (traced)' if trace else ''}: "
              + ", ".join(f"{k}={v:.4g}" for k, v in run["metrics"].items()
                          if not trace)
              + ("" if run["correct"] else " — INCORRECT"), flush=True)

    # Round-robin: run r of every workload before run r+1 of any, so
    # drift in the machine spreads over all workloads alike.
    for round_ in range(1, (args.runs or 1) + 1):
        for name in names:
            record(name, False, round_)
    if args.trace:
        for name in names:
            record(name, True, 0)
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.label}.json"
    path.write_text(json.dumps({"label": args.label, "runs": runs},
                               indent=1) + "\n")
    for name in names:
        for trace in (False, True):
            chosen = [r for r in runs if r["workload"] == name
                      and r["trace"] == trace]
            if not chosen:
                continue
            samples = {k: [r["metrics"][k] for r in chosen]
                       for k in chosen[0]["metrics"]}
            medians = {k: statistics.median(v) for k, v in samples.items()}
            print_table(f"\n{name}: {'per-layer' if trace else 'end-to-end'}"
                        f" metrics; samples are per run ({len(chosen)} runs)",
                        medians, samples, units)
    correct = all(r["correct"] for r in runs)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in runs),
                      "failed": sum(r["failed"] for r in runs),
                      "results": str(path.relative_to(ROOT))}), flush=True)
    return 0 if correct else 1


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> dict:
    """Compare two samples of one metric (choosing-metrics §8).

    ``improved``: the change wins at least nine tenths of the pairs and
    its median beats the parent's by more than the parent's quartile
    spread.  ``regressed``: the median is worse by more than *bound*
    (a share of the parent's median) and either the spread is within
    the bound or every run of the change is worse than every parent
    run.  ``unresolved``: the spread is wider than the bound.
    Otherwise ``unchanged``.
    """
    sign = 1.0 if better == "lower" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    won = wins / len(pairs) if pairs else 0.0
    scale = abs(pm) or 1.0
    spread = max((p3 - p1) / scale, (c3 - c1) / (abs(cm) or 1.0))
    worse = sign * (cm - pm) / scale
    if won >= 0.9 and -sign * (cm - pm) > (p3 - p1):
        outcome = "improved"
    elif worse > bound and (spread <= bound or all(
            sign * (c - p) > 0 for p in parent for c in change)):
        outcome = "regressed"
    elif spread > bound:
        outcome = "unresolved"
    else:
        outcome = "unchanged"
    return {"parent": (p1, pm, p3), "change": (c1, cm, c3), "won": won,
            "worse": worse, "spread": spread, "verdict": outcome}


def cmd_compare(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="perf/run.py compare",
        description="Compare two saved sets of runs, metric by metric.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    bench = load_benchmark()
    sides = [json.loads(p.read_text())["runs"] for p in (args.parent,
                                                         args.change)]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"]
              for m in bench["end_to_end"] + bench["per_layer"]}
    gated = [(m["name"], m["bound"]) for m in bench["end_to_end"]] + [
        (name, bounds.get(of, 0.0)) for name, of in GATED_LAYERS.items()]
    regressed = False
    print(f"{'workload':<16} {'metric':<20} {'bound':>5} "
          f"{'parent median [q1, q3]':<32} {'change median [q1, q3]':<32} "
          f"{'won':>5} {'verdict'}")
    for workload in WORKLOADS:
        for name, bound in gated:
            parent, change = (
                [r["metrics"].get(name, r.get("layers", {}).get(name))
                 for r in side if r["workload"] == workload and not r["trace"]]
                for side in sides)
            if None in parent + change or not parent or not change:
                continue
            v = verdict(parent, change, better[name], bound)
            regressed |= v["verdict"] == "regressed"
            fmt = "{1:.4g} [{0:.4g}, {2:.4g}]"
            print(f"{workload:<16} {name:<20} {bound:>5.0%} "
                  f"{fmt.format(*v['parent']):<32} "
                  f"{fmt.format(*v['change']):<32} {v['won']:>5.0%} "
                  f"{v['verdict']}")
    return 1 if regressed else 0


def cmd_golden(argv: list[str]) -> int:
    argparse.ArgumentParser(
        prog="perf/run.py golden",
        description="Regenerate perf/golden.json from serial, untraced "
                    "reference passes.").parse_args(argv)
    document: dict[str, Any] = {
        "schema": "mirage-perf-golden/v1",
        "reference_seed": {w: seeds[0] for w, seeds in WORKLOADS.items()},
        "default_work": {}, "digests": {}, "combined": {}}
    for workload, (default, held_out) in WORKLOADS.items():
        document["digests"][workload] = {}
        document["combined"][workload] = {}
        for seed in sorted({default, held_out, *GOLDEN_EXTRA_SEEDS}):
            (report,) = one_pass(workload, seed, smoke=False, traced=False,
                                 index=0, deadline=time.monotonic() + 600,
                                 reference=True)
            if report["failed"]:
                raise SystemExit(f"golden {workload} seed {seed} failed:\n"
                                 + "\n".join(report["failures"]))
            digests = report["digests"]
            if seed in (default, held_out):
                document["digests"][workload][str(seed)] = digests
            document["combined"][workload][str(seed)] = combined_digest(
                digests)
            if seed == default:
                document["default_work"][workload] = {
                    s["name"]: s["work"] for s in report["steps"]
                    if s["work"]}
            print(f"[golden] {workload} seed {seed}: {len(digests)} digests",
                  flush=True)
    GOLDEN.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0


def cmd_list() -> int:
    bench = load_benchmark()
    print("workloads (default seed, held-out seed):")
    for item in bench["workloads"]:
        seeds = WORKLOADS.get(item["name"], ("?", "?"))
        print(f"  {item['name']:<16} {seeds[0]}, {seeds[1]} — {item['why']}")
    print("end-to-end metrics:")
    for m in bench["end_to_end"]:
        print(f"  {m['name']:<14} {m['unit']:<6} {m['better']:<6} "
              f"bound {m['bound']:.0%}")
    print(f"per-layer metrics ({len(bench['per_layer'])}, traced runs):")
    for m in bench["per_layer"]:
        print(f"  {m['name']:<36} {m['unit']:<14} {m['better']}")
    return 0


def main(argv: list[str]) -> int:
    if argv and argv[0] == "compare":
        return cmd_compare(argv[1:])
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"perf/run.py: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if argv and argv[0] == "golden":
        return cmd_golden(argv[1:])
    parser = argparse.ArgumentParser(
        prog="perf/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one run measures (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1 (or bare --trace): report per-layer metrics")
    parser.add_argument("--runs", type=int, default=None,
                        help="runs per workload, round-robin; saves "
                             "perf/out/<label>.json")
    parser.add_argument("--label", default="runs")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one pass per run")
    parser.add_argument("--list", action="store_true",
                        help="print the workloads and metrics, then exit")
    args = parser.parse_args(argv)
    if args.list:
        return cmd_list()
    try:
        if args.runs is not None or args.workload is None:
            return cmd_series(args)
        return cmd_run(args)
    except PassError as exc:
        print(f"perf/run.py: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
