"""Table 1: classification of benchmarks by InO:OoO IPC ratio.

The paper splits the suite at a 60 % IPC ratio.  Our detailed cores
produce a lower absolute InO:OoO ratio across the board (a coarser
model than gem5's), so the reproduction target is the *two-band
structure* and per-benchmark ordering: we report both the paper's
boundary and the empirical split boundary, and score agreement against
the paper's category labels.
"""

from __future__ import annotations

from itertools import islice

from repro.characterize import run_core_pair
from repro.experiments import fig1_core_characteristics as fig1
from repro.experiments.common import format_table
from repro.runner import SweepRunner, run_units
from repro.workloads import ALL_BENCHMARKS, get_profile, make_benchmark

PAPER_BOUNDARY = 0.60


def measure_ratio(name: str, *, instructions: int = 30_000,
                  seed: int = 1) -> float:
    """InO:OoO IPC ratio for one benchmark on the detailed cores.

    Equal to ``fig1_core_characteristics.measure(...)["performance"]``
    without the energy breakdown; :func:`run` reads that value from
    Figure 1's units instead.
    """
    r_ooo, r_ino = run_core_pair(
        islice(make_benchmark(name, seed=seed).stream(), instructions))
    return r_ino.ipc / max(1e-9, r_ooo.ipc)


def run(*, instructions: int = 30_000,
        benchmarks: tuple[str, ...] = ALL_BENCHMARKS,
        runner: SweepRunner | None = None) -> dict:
    # The ratio is Figure 1's "performance": map Figure 1's own units,
    # so one result cache runs each benchmark's core pair once for both
    # experiments (floats survive the call-unit JSON round-trip
    # exactly, keeping the printed table byte-identical).
    ratios = [r["performance"] for r in run_units(
        fig1.measure_units(benchmarks, instructions), runner)]
    rows = []
    for name, ratio in zip(benchmarks, ratios):
        prof = get_profile(name)
        rows.append({
            "benchmark": name,
            "paper_category": prof.category,
            "ratio": ratio,
        })
    # Empirical boundary: midpoint between the two bands' medians.
    hpd = sorted(r["ratio"] for r in rows if r["paper_category"] == "HPD")
    lpd = sorted(r["ratio"] for r in rows if r["paper_category"] == "LPD")
    if hpd and lpd:
        boundary = (hpd[len(hpd) // 2] + lpd[len(lpd) // 2]) / 2
    else:
        boundary = PAPER_BOUNDARY
    agree = 0
    for r in rows:
        r["measured_category"] = "HPD" if r["ratio"] < boundary else "LPD"
        r["agrees"] = r["measured_category"] == r["paper_category"]
        agree += r["agrees"]
    return {
        "rows": rows,
        "boundary": boundary,
        "paper_boundary": PAPER_BOUNDARY,
        "agreement": agree / len(rows) if rows else 0.0,
    }


def print_table(result: dict) -> None:
    print(format_table(
        ["benchmark", "paper", "ratio", "measured", "agrees"],
        [[r["benchmark"], r["paper_category"], r["ratio"],
          r["measured_category"], "yes" if r["agrees"] else "NO"]
         for r in result["rows"]],
    ))
    print(f"\nempirical boundary: {result['boundary']:.3f} "
          f"(paper: {result['paper_boundary']:.2f}); "
          f"agreement {result['agreement']:.0%}")
