"""Tests for the benchmark itself (not part of the tier-1 suite).

Run with ``PYTHONPATH=src python -m pytest -p no:cacheprovider perf/tests -q``
(without the cache plugin, the tests leave nothing behind outside
``perf/out/``).
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent.parent
ROOT = PERF.parent
sys.path.insert(0, str(PERF))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_run_emits_exactly_the_benchmark_metrics(workload, trace):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--smoke", "--workload", workload,
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert time.monotonic() - start < 60
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    section = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert isinstance(metric["value"], float)
        assert metric["unit"] == next(m["unit"] for m in section
                                      if m["name"] == name)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_pass_restores_every_wrapped_attribute(tmp_path):
    originals = {}
    for module, cls_name, attr, _layer, _flags in tracer.TARGETS:
        cls = getattr(__import__(module, fromlist=[cls_name]), cls_name)
        originals[(cls, attr)] = vars(cls)[attr]
    report = workloads.run_pass({
        "workload": "interval-sweep", "seed": 3, "smoke": True,
        "trace": True, "phase": "", "reference": False,
        "scratch": str(tmp_path), "t_spawn": time.monotonic(),
        "trace_file": str(tmp_path / "trace.json")})
    assert report["failed"] == 0
    layers = {row["layer"] for row in report["trace"]["rows"]}
    assert {"engine.loop", "engine.arbitration", "arbiter.pick_batch",
            "experiments.fig7"} <= layers
    for (cls, attr), original in originals.items():
        assert vars(cls)[attr] is original, f"{cls.__name__}.{attr}"
    dumped = json.loads((tmp_path / "trace.json").read_text())
    assert dumped["spans"] and dumped["aggregates"]


def test_tracer_self_time_excludes_wrapped_children():
    t = tracer.Tracer()

    def child():
        time.sleep(0.02)

    traced_child = t.wrap(child, "child")

    def parent():
        time.sleep(0.01)
        traced_child()

    t.wrap(parent, "parent", tracer.SPAN)()
    rows = {row["layer"]: row for row in t.aggregates()}
    assert rows["child"]["parent"] == "parent"
    assert rows["parent"]["self_s"] == pytest.approx(0.01, abs=0.008)
    assert rows["child"]["self_s"] == pytest.approx(0.02, abs=0.008)
    (span,) = t.spans
    assert span[2] == "parent" and span[1] == 0


def test_reference_seconds_weigh_each_stretch_by_the_speed_before_it():
    full = run.REFERENCE_PROBE_S
    # Full speed from t=0, half speed from t=1; each sample takes 1 ms.
    samples = [(0.0, 0.001, full), (1.0, 1.001, 2 * full)]
    assert run.reference_seconds(samples, 0.5, 0.9) == pytest.approx(0.4)
    assert run.reference_seconds(samples, 1.001, 2.001) == pytest.approx(0.5)
    # The samples' own time counts for nothing; before the first sample
    # counts at its speed.
    assert run.reference_seconds(samples, 0.0, 1.0) == pytest.approx(0.999)
    assert run.reference_seconds(samples, -1.0, 0.0) == pytest.approx(1.0)


def test_core_probes_sample_every_core_and_are_reaped(tmp_path):
    with run.CoreProbes(tmp_path) as probes:
        time.sleep(0.3)
        cores = probes.read()
        pids = list(probes.pids)
    assert len(cores) == len(os.sched_getaffinity(0))
    assert all(len(samples) >= 3 for samples in cores)
    report = {"setup": [cores[0][0][0], cores[0][-1][1]], "span": None,
              "loop": None, "steps": [], "service": None}
    timed = run.in_seconds(report, cores)["setup"]
    assert 0 < timed["ref_s"] and timed["host_s"] > 0
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    assert not list(tmp_path.iterdir())


def test_service_job_draw_follows_the_seed():
    first = workloads.service_jobs(7)
    assert first == workloads.service_jobs(7)
    assert first != workloads.service_jobs(8)
    keys = [json.dumps(job, sort_keys=True) for job in first]
    assert len(keys) == 80
    repeats = len(keys) - len(set(keys))
    assert 0.25 <= repeats / len(keys) <= 0.35
    distinct = {key: job for key, job in zip(keys, first)}.values()
    per_benchmark = Counter(job["args"][0] for job in distinct
                            if "target" in job)
    # Every benchmark the same number of times: the seed moves which
    # stream seeds run, not how much work a pass holds.
    assert len(per_benchmark) == 26
    assert set(per_benchmark.values()) == {2}


def _report(digests, ops=None, failed=0):
    return {"ops": ops or {k: 1 for k in digests}, "digests": digests,
            "failed": failed, "failures": []}


def test_digest_mismatch_counts_as_failed():
    golden = {"digests": {"interval-sweep": {"5": {"step:fig7": "aa",
                                                   "units:fig7": "bb"}}}}
    good = _report({"step:fig7": "aa", "units:fig7": "bb"},
                   {"step:fig7": 1, "units:fig7": 16})
    bad = _report({"step:fig7": "aa", "units:fig7": "xx"},
                  {"step:fig7": 1, "units:fig7": 16})
    assert run.check_outputs("interval-sweep", 5, False, [good], golden)[:2] \
        == (17, 0)
    attempted, failed, messages = run.check_outputs(
        "interval-sweep", 5, False, [good, bad], golden)
    assert (attempted, failed) == (34, 16) and messages
    # Seeds golden.json does not hold fall back to agreement between passes.
    attempted, failed, _ = run.check_outputs(
        "interval-sweep", 6, False, [good, bad], golden)
    assert failed == 16


BOUND = 0.10


@pytest.mark.parametrize("parent, change, expected", [
    ([10.0, 10.1, 9.9, 10.05, 9.95] * 2, [8.0, 8.1, 7.9, 8.05, 7.95] * 2,
     "improved"),
    ([10.0, 10.1, 9.9, 10.05, 9.95] * 2, [10.2, 9.9, 10.1, 10.0, 10.15] * 2,
     "unchanged"),
    ([10.0, 10.1, 9.9, 10.05, 9.95] * 2, [12.0, 12.1, 11.9, 12.05, 11.95] * 2,
     "regressed"),
    ([10.0, 14.0, 7.0, 12.0, 8.0] * 2, [10.5, 13.0, 8.0, 11.0, 9.0] * 2,
     "unresolved"),
])
def test_compare_verdicts(parent, change, expected):
    assert run.verdict(parent, change, "lower", BOUND)["verdict"] == expected


def test_compare_respects_direction():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5] * 2
    faster = [120.0, 121.0, 119.0, 120.5, 119.5] * 2
    assert run.verdict(parent, faster, "higher", BOUND)["verdict"] \
        == "improved"
    assert run.verdict(parent, faster, "lower", BOUND)["verdict"] \
        == "regressed"


def test_compare_gates_the_warm_pass_and_service_tail(tmp_path, capsys):
    def series(path, warm_s, p95_s):
        runs = [{"workload": "parallel-cache", "trace": 0,
                 "metrics": {"wall_s": 2.0 + i / 100, "setup_s": 0.3,
                             "peak_rss_mb": 100.0},
                 "layers": {"runner.warm_wall_s": warm_s + i / 100}}
                for i in range(10)]
        runs += [{"workload": "service-loop", "trace": 0,
                  "metrics": {"wall_s": 2.0 + i / 100, "setup_s": 0.9,
                              "peak_rss_mb": 130.0},
                  "layers": {"service.job_p95_s": p95_s + i / 1000}}
                 for i in range(10)]
        path.write_text(json.dumps({"runs": runs}))
        return str(path)

    parent = series(tmp_path / "parent.json", 0.3, 0.1)
    slower_warm = series(tmp_path / "warm.json", 0.6, 0.1)
    slower_tail = series(tmp_path / "tail.json", 0.3, 0.2)
    assert run.cmd_compare([parent, parent]) == 0
    assert run.cmd_compare([parent, slower_warm]) == 1
    rows = capsys.readouterr().out.splitlines()
    assert any("runner.warm_wall_s" in r and r.endswith("regressed")
               for r in rows)
    assert run.cmd_compare([parent, slower_tail]) == 1
    rows = capsys.readouterr().out.splitlines()
    assert any("service.job_p95_s" in r and r.endswith("regressed")
               for r in rows)
    assert not any(r.split()[1] == "wall_s" and r.endswith("regressed")
                   for r in rows)
