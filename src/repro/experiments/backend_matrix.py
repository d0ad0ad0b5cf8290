"""Backend matrix: every registered backend, cross-validated pairwise.

:mod:`repro.experiments.tier_validation` checks the analytic tier
against one cycle-level substrate; this experiment generalizes that
pattern to the whole :mod:`repro.engine.registry` roster.  Each
registered backend gets one *leg*: the same benchmark pair, the same
SC-MPKI arbitrator, the same unchanged
:class:`~repro.engine.loop.IntervalEngine` four-phase pipeline —
only the execution substrate differs.  Every pair of legs is then
compared on the dynamics all substrates must agree on (which
application earns more producer time, how far throughput diverges),
so adding a backend to the registry automatically buys it a
cross-validation row here.

A second table reruns the core models alone (InO, InO-LDT, CG-OoO,
OoO on one benchmark) through the McPAT-like energy model — the
fig8-style check that CG-OoO's energy-per-instruction lands between
the in-order and out-of-order endpoints.
"""

from __future__ import annotations

from itertools import combinations, islice

from repro.arbiter import SCMPKIArbitrator
from repro.energy import CoreEnergyModel
from repro.engine import (
    ArbitrationPhase,
    EnergyPhase,
    ExecutionPhase,
    IntervalEngine,
    MigrationPhase,
)
from repro.engine.registry import BackendSpec, backend_names, get_backend
from repro.experiments.common import format_table, mean
from repro.runner import SweepRunner, call_unit
from repro.telemetry import Telemetry
from repro.workloads import get_profile

#: A memoizable app paired with an unmemoizable one (same pair the
#: tier-validation experiment uses, so legs are directly comparable).
PAIR = ("bzip2", "astar")

#: The standalone core models the energy table compares, with the
#: energy-model kind each one's event counts are priced under.
ENERGY_CORES = (("ino", "ino"), ("ldt", "ino"),
                ("cgooo", "cgooo"), ("ooo", "ooo"))


def backend_leg(name: str, *, intervals: int = 24,
                slice_instructions: int = 8_000,
                max_intervals: int = 400) -> dict:
    """One backend's run over :data:`PAIR`, as a JSON-pure work unit.

    Interval-tier legs run to completion (up to *max_intervals*);
    cycle-tier legs run a fixed *intervals* slices.  Both report the
    same shape — OoO share per app, system throughput, migration and
    schedule-transfer totals — so the matrix can diff any two legs.
    """
    info = get_backend(name)
    bundle = info.build(BackendSpec(
        benchmarks=PAIR, slice_instructions=slice_instructions))
    tele, trace = Telemetry.recording(kinds={"migration"})
    engine = IntervalEngine(
        bundle.config, bundle.apps,
        [
            ArbitrationPhase(SCMPKIArbitrator()),
            MigrationPhase(),
            ExecutionPhase(),
            EnergyPhase(CoreEnergyModel()),
        ],
        backend=bundle.backend, telemetry=tele,
    )
    budget = max_intervals if info.tier == "interval" else intervals
    ctx = engine.run(max_intervals=budget)
    apps = bundle.apps
    if info.tier == "interval":
        active = max(1, ctx.ooo_active_intervals)
        share = {a.model.name: s / active
                 for a, s in zip(apps, ctx.ooo_share)}
        total_cycles = ctx.intervals * ctx.interval
        speedups = []
        for a in apps:
            alone = ctx.budget / max(1e-9, a.model.mean_ipc_ooo)
            took = a.first_completion_cycles or total_cycles
            speedups.append(min(1.0, alone / max(1e-9, took)))
    else:
        share = {a.model.name: (a.t_ooo / a.t_total if a.t_total else 0.0)
                 for a in apps}
        speedups = [
            (a.instructions / a.t_total if a.t_total else 0.0)
            / max(1e-9, get_profile(a.model.name).target_ipc_ooo)
            for a in apps
        ]
    migrations = trace.records("migration")
    return {
        "backend": name,
        "tier": info.tier,
        "ooo_share": share,
        "stp": mean(speedups),
        "migrations": bundle.migration.total_migrations,
        "sc_bytes_transferred": sum(m.sc_bytes for m in migrations),
        "energy_pj": sum(a.energy_pj for a in apps),
    }


def energy_table(instructions: int = 20_000) -> list[dict]:
    """EPI of each standalone core model on one benchmark (fig8-style).

    Runs InO, load-delay-tracking InO, CG-OoO and OoO alone on the
    memoizable half of :data:`PAIR` and prices the event counts with
    :meth:`~repro.energy.CoreEnergyModel.breakdown`.  The ordering the
    paper's energy story needs — InO < CG-OoO < OoO — is asserted by
    the test suite, not here.
    """
    from repro.cores import (
        CGOoOCore,
        InOrderCore,
        LDT_PARAMS,
        OutOfOrderCore,
    )
    from repro.memory import MemoryHierarchy
    from repro.schedule.schedule_cache import ScheduleCache
    from repro.workloads import make_benchmark

    # The stream is deterministic: generate it once for every core.
    window = list(islice(make_benchmark(PAIR[0], seed=7).stream(),
                         instructions))
    em = CoreEnergyModel()
    rows = []
    for model, kind in ENERGY_CORES:
        view = MemoryHierarchy().core_view(0)
        if model == "ooo":
            core = OutOfOrderCore(view)
        elif model == "cgooo":
            core = CGOoOCore(view, ScheduleCache(capacity_bytes=8 * 1024))
        elif model == "ldt":
            core = InOrderCore(view, params=LDT_PARAMS)
        else:
            core = InOrderCore(view)
        result = core.run(iter(window), instructions)
        energy = em.breakdown(kind, result.energy_events, result.cycles)
        rows.append({
            "model": model,
            "ipc": result.ipc,
            "epi_pj": energy.total_pj / max(1, result.instructions),
            "total_pj": energy.total_pj,
        })
    return rows


def _divergence(a: dict, b: dict) -> dict:
    """How far two legs disagree on the shared dynamics."""
    memo, unmemo = PAIR
    return {
        "pair": (a["backend"], b["backend"]),
        "d_share_memo": abs(a["ooo_share"][memo] - b["ooo_share"][memo]),
        "d_stp": abs(a["stp"] - b["stp"]),
        "agree_preference": (
            (a["ooo_share"][memo] > a["ooo_share"][unmemo])
            == (b["ooo_share"][memo] > b["ooo_share"][unmemo])),
    }


def run(*, backends: tuple[str, ...] | None = None, intervals: int = 24,
        slice_instructions: int = 8_000, max_intervals: int = 400,
        energy_instructions: int = 20_000,
        runner: SweepRunner | None = None) -> dict:
    """Run every selected backend's leg and diff all pairs.

    ``backends=None`` means the full registry roster; explicit names
    are validated up front so a typo fails with the roster listing
    before any work is scheduled.
    """
    names = tuple(backends) if backends else backend_names()
    for name in names:
        get_backend(name)
    units = [
        call_unit("repro.experiments.backend_matrix:backend_leg", name,
                  intervals=intervals,
                  slice_instructions=slice_instructions,
                  max_intervals=max_intervals)
        for name in names
    ]
    units.append(call_unit(
        "repro.experiments.backend_matrix:energy_table",
        energy_instructions))
    *legs, energy = (runner or SweepRunner()).map(units)
    pairwise = [_divergence(a, b) for a, b in combinations(legs, 2)]
    return {
        "pair": PAIR,
        "backends": list(names),
        "legs": legs,
        "pairwise": pairwise,
        "energy": energy,
        "all_agree": all(p["agree_preference"] for p in pairwise),
    }


def print_table(result: dict) -> None:
    """Render the legs, the pairwise diff, and the energy table."""
    memo, unmemo = result["pair"]
    print(f"Backend matrix on ({memo}, {unmemo}):")
    print(format_table(
        ["backend", "tier", f"{memo} OoO share", f"{unmemo} OoO share",
         "STP", "migrations", "SC bytes"],
        [
            [leg["backend"], leg["tier"],
             leg["ooo_share"][memo], leg["ooo_share"][unmemo],
             leg["stp"], leg["migrations"], leg["sc_bytes_transferred"]]
            for leg in result["legs"]
        ],
    ))
    print("\nPairwise divergence:")
    print(format_table(
        ["pair", "d(OoO share)", "d(STP)", "same preference"],
        [
            ["/".join(p["pair"]), p["d_share_memo"], p["d_stp"],
             "yes" if p["agree_preference"] else "NO"]
            for p in result["pairwise"]
        ],
    ))
    print(f"\nCore-model energy on {memo} "
          "(fig8-style; expect InO < CG-OoO < OoO):")
    print(format_table(
        ["model", "IPC", "EPI (pJ)", "total (pJ)"],
        [[r["model"], r["ipc"], r["epi_pj"], r["total_pj"]]
         for r in result["energy"]],
    ))
    agree = sum(p["agree_preference"] for p in result["pairwise"])
    print(f"\npairs agreeing on the qualitative preference: "
          f"{agree}/{len(result['pairwise'])}")
    if "cgooo" in result["backends"]:
        print("(CG-OoO consumers self-record block schedules, so they "
              "lean on the producer less; divergence there is the "
              "model's point, not a tier bug.)")
