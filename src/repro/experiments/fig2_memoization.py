"""Figure 2: oracle memoizability and its effect on InO performance.

Detailed-tier experiment under the paper's ideal conditions: infinite
Schedule Cache, producer-trained oracle schedules.  For each benchmark
the OoO runs first (populating the infinite SC through the recorder),
then the OinO consumes it.  Reported per category: the fraction of
instructions executed from memoized schedules, and the OinO's
performance relative to the OoO.

Paper shape: HPD memoizes more than LPD and gains a larger boost;
once memoized, the best benchmarks reach ~90 % of OoO performance.
"""

from __future__ import annotations

from itertools import islice

from repro.characterize import run_core_trio
from repro.experiments.common import format_table, mean
from repro.runner import SweepRunner, call_unit, run_units
from repro.workloads import ALL_BENCHMARKS, get_profile, make_benchmark


def measure(name: str, *, instructions: int = 40_000, seed: int = 1) -> dict:
    trio = run_core_trio(
        islice(make_benchmark(name, seed=seed).stream(), instructions))
    ooo_ipc = max(1e-9, trio.ooo.ipc)
    return {
        "benchmark": name,
        "category": get_profile(name).category,
        "memoized_fraction": trio.oino.stats.memoized_fraction,
        "perf_plain_ino": trio.ino.ipc / ooo_ipc,
        "perf_with_memoization": trio.oino.ipc / ooo_ipc,
        "trace_aborts": trio.oino.stats.trace_aborts,
        "traces": trio.oino.stats.traces,
    }


def run(*, instructions: int = 40_000,
        benchmarks: tuple[str, ...] = ALL_BENCHMARKS,
        runner: SweepRunner | None = None) -> dict:
    # One pure call per benchmark -> one cached, parallelizable sweep.
    per_bench = run_units(
        [call_unit("repro.experiments.fig2_memoization:measure",
                   name, instructions=instructions)
         for name in benchmarks],
        runner)
    groups = {}
    for label, pred in [
        ("overall", lambda r: True),
        ("HPD", lambda r: r["category"] == "HPD"),
        ("LPD", lambda r: r["category"] == "LPD"),
    ]:
        rows = [r for r in per_bench if pred(r)]
        groups[label] = {
            "memoized_fraction": mean(
                r["memoized_fraction"] for r in rows),
            "perf_with_memoization": mean(
                r["perf_with_memoization"] for r in rows),
            "perf_plain_ino": mean(r["perf_plain_ino"] for r in rows),
        }
    return {"benchmarks": per_bench, "groups": groups}


def print_table(result: dict) -> None:
    print("Figure 2: oracle memoization (infinite SC)")
    print(format_table(
        ["group", "memoized", "OinO perf vs OoO", "plain InO vs OoO"],
        [[g, v["memoized_fraction"], v["perf_with_memoization"],
          v["perf_plain_ino"]]
         for g, v in result["groups"].items()],
    ))
