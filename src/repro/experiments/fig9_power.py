"""Figure 9: (a) per-structure power breakdown, (b) OoO utilization.

(a) Detailed-tier: run a representative benchmark set on all three
core models and report each structure's contribution to overall
power.  Paper shape: the OoO's scheduler/ROB/rename dominate its
budget; OinO additions (expanded PRF, replay LSQ, SC) raise InO
dynamic power ~2.4x while staying well under the OoO (which burns
~2.1x OinO); OinO fetches from the small SC, cutting I-cache and
branch-prediction power.

(b) Interval-tier: fraction of cycles the producer OoO is active per
arbitrator and cluster size.  Paper shape: SC-MPKI gates the OoO
(~60 % active at 8:1, saturating at 100 % by 12:1); the
throughput-oriented arbitrators keep it always on.
"""

from __future__ import annotations

from itertools import islice

from repro.characterize import run_core_trio
from repro.energy import CoreEnergyModel
from repro.experiments.common import format_table, mean
from repro.runner import SweepRunner, call_unit, cmp_unit
from repro.workloads import make_benchmark, standard_mixes

#: Representative benchmarks for the power breakdown.
BREAKDOWN_BENCHMARKS = ("hmmer", "bzip2", "libquantum", "gobmk")
N_VALUES = (4, 8, 12, 16)
ARBITRATOR_NAMES = ("SC-MPKI", "SC-MPKI+maxSTP", "maxSTP")


def power_breakdown(*, instructions: int = 30_000, seed: int = 1) -> dict:
    """Per-structure fraction of overall power for OoO, InO, OinO."""
    em = CoreEnergyModel()
    totals = {"ooo": {}, "ino": {}, "oino": {}}
    power = {"ooo": 0.0, "ino": 0.0, "oino": 0.0}
    for name in BREAKDOWN_BENCHMARKS:
        trio = run_core_trio(
            islice(make_benchmark(name, seed=seed).stream(), instructions))
        runs = {"ooo": trio.ooo, "ino": trio.ino, "oino": trio.oino}
        for kind, result in runs.items():
            bd = em.breakdown(kind, result.energy_events, result.cycles)
            for structure, pj in bd.dynamic_pj.items():
                totals[kind][structure] = (
                    totals[kind].get(structure, 0.0)
                    + pj / result.cycles)
            totals[kind]["leakage"] = (
                totals[kind].get("leakage", 0.0)
                + bd.leakage_pj / result.cycles)
            power[kind] += bd.power_pw_per_cycle(result.cycles)
    fractions = {
        kind: {s: v / max(1e-9, sum(parts.values()))
               for s, v in parts.items()}
        for kind, parts in totals.items()
    }
    n = len(BREAKDOWN_BENCHMARKS)
    return {
        "fractions": fractions,
        "avg_power": {k: v / n for k, v in power.items()},
    }


def ooo_utilization(*, n_values=N_VALUES, n_mixes: int = 6,
                    seed: int = 2017,
                    runner: SweepRunner | None = None) -> list[dict]:
    runner = runner or SweepRunner()
    per_n = {n: standard_mixes(n, seed=seed)[:n_mixes] for n in n_values}
    units = [
        cmp_unit(mix, name)
        for n in n_values
        for mix in per_n[n]
        for name in ARBITRATOR_NAMES
    ]
    results = iter(runner.map(units))
    rows = []
    for n in n_values:
        active = {name: [] for name in ARBITRATOR_NAMES}
        for _mix in per_n[n]:
            for name in ARBITRATOR_NAMES:
                active[name].append(next(results).ooo_active_fraction)
        rows.append({"n": n,
                     "active": {k: mean(v) for k, v in active.items()}})
    return rows


def run(*, instructions: int = 30_000, n_mixes: int = 6,
        runner: SweepRunner | None = None) -> dict:
    runner = runner or SweepRunner()
    # The detailed-tier breakdown is one expensive indivisible unit;
    # running it through the runner makes it cacheable alongside the
    # utilization sweep.
    breakdown = runner.run(call_unit(
        "repro.experiments.fig9_power:power_breakdown",
        instructions=instructions))
    return {
        "breakdown": breakdown,
        "utilization": ooo_utilization(n_mixes=n_mixes, runner=runner),
    }


def print_table(result: dict) -> None:
    bd = result["breakdown"]
    print("Figure 9a: average power (pJ/cycle) per core kind")
    print(format_table(
        ["kind", "power", "vs InO"],
        [[k, v, v / max(1e-9, bd["avg_power"]["ino"])]
         for k, v in bd["avg_power"].items()],
    ))
    print("\ntop power structures per core kind:")
    for kind, parts in bd["fractions"].items():
        top = sorted(parts.items(), key=lambda kv: -kv[1])[:5]
        desc = ", ".join(f"{s} {f:.0%}" for s, f in top)
        print(f"  {kind:<5} {desc}")
    print("\nFigure 9b: fraction of cycles the OoO is active")
    print(format_table(
        ["n", *ARBITRATOR_NAMES],
        [[r["n"], *(r["active"][a] for a in ARBITRATOR_NAMES)]
         for r in result["utilization"]],
    ))
