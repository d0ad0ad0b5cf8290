"""Figure 1: InO relative to OoO — performance, power, energy, area.

Detailed-tier experiment: run each benchmark on the OoO and the InO,
feed the event counts through the McPAT-like energy model, and report
category means of InO/OoO for performance (IPC), power (pJ/cycle),
energy (pJ for the same instruction count) and area.

Paper shape: InO keeps ~60 % performance overall (less for HPD), at
~1/5 the power, ~1/3 the energy, and <1/2 the area.
"""

from __future__ import annotations

from itertools import islice

from repro.characterize import run_core_pair
from repro.energy import CoreEnergyModel, core_area
from repro.experiments.common import format_table, mean
from repro.runner import SweepRunner, WorkUnit, call_unit, run_units
from repro.workloads import ALL_BENCHMARKS, get_profile, make_benchmark


def measure(name: str, *, instructions: int = 30_000,
            seed: int = 1) -> dict:
    r_ooo, r_ino = run_core_pair(
        islice(make_benchmark(name, seed=seed).stream(), instructions))
    em = CoreEnergyModel()
    e_ooo = em.breakdown("ooo", r_ooo.energy_events, r_ooo.cycles)
    e_ino = em.breakdown("ino", r_ino.energy_events, r_ino.cycles)
    return {
        "benchmark": name,
        "category": get_profile(name).category,
        "performance": r_ino.ipc / max(1e-9, r_ooo.ipc),
        "power": (e_ino.power_pw_per_cycle(r_ino.cycles)
                  / max(1e-9, e_ooo.power_pw_per_cycle(r_ooo.cycles))),
        "energy": e_ino.total_pj / max(1e-9, e_ooo.total_pj),
        "area": core_area("ino") / core_area("ooo"),
    }


def measure_units(benchmarks: tuple[str, ...],
                  instructions: int) -> list[WorkUnit]:
    """One :func:`measure` call unit per benchmark.

    Table 1 maps these same units, so whichever of the two runs second
    is served from the result cache.
    """
    return [call_unit("repro.experiments.fig1_core_characteristics:measure",
                      name, instructions=instructions)
            for name in benchmarks]


def run(*, instructions: int = 30_000,
        benchmarks: tuple[str, ...] = ALL_BENCHMARKS,
        runner: SweepRunner | None = None) -> dict:
    # One pure call per benchmark -> one cached, parallelizable sweep.
    per_bench = run_units(measure_units(benchmarks, instructions), runner)
    groups = {}
    for label, pred in [
        ("overall", lambda r: True),
        ("HPD", lambda r: r["category"] == "HPD"),
        ("LPD", lambda r: r["category"] == "LPD"),
    ]:
        rows = [r for r in per_bench if pred(r)]
        groups[label] = {
            metric: mean(r[metric] for r in rows)
            for metric in ("performance", "power", "energy", "area")
        }
    return {"benchmarks": per_bench, "groups": groups}


def print_table(result: dict) -> None:
    print("Figure 1: InO relative to OoO (category means)")
    print(format_table(
        ["group", "performance", "power", "energy", "area"],
        [[g, v["performance"], v["power"], v["energy"], v["area"]]
         for g, v in result["groups"].items()],
    ))
