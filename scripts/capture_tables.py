#!/usr/bin/env python3
"""Capture the tier-identity tables for byte-exact comparison.

Runs the experiments whose output refactors and perf changes must
never change (:data:`EXPERIMENTS`) in ``--quick --no-cache`` mode,
strips the run-dependent chatter (``[runner] ...`` stats,
``--- <name> done in X.Xs ---`` footers and the ``[exported ...]``
line, which names a temporary directory), and writes one
``<experiment>.txt`` per experiment.  Beside each table it writes the
experiment's ``--export`` result as ``<experiment>.json``: the tables
round to three decimals or whole percents, the JSON holds every float
at full precision.

CI runs this script twice (PR tree vs base tree) and fails the
tier-identity gate on any byte difference::

    python scripts/capture_tables.py --src src --out /tmp/pr
    python scripts/capture_tables.py --src base-tree/src --out /tmp/base
    diff -ru /tmp/base /tmp/pr

``--backend-smoke`` runs ``backend-matrix --quick`` twice on one
tree: every registered backend must appear as a leg row and the two
runs must print byte-identical tables and export byte-identical JSON
(determinism across the whole roster).  The warm pool is held to
serial execution by ``tests/test_equivalence.py`` instead.

``--roster`` runs the cycle-level cores directly, outside any
experiment, and writes ``core-roster.txt``: per run, a label, the
``repr`` of its ``CoreStats`` and its energy events as a list of
items (key order included); then the ``repr`` of a few benchmarks'
``measure_model`` profiles, the cycle tier's measured-profile path.
The tables above only show what the experiments round and aggregate;
CI diffs the roster base vs PR next to them::

    python scripts/capture_tables.py --roster --src src --out /tmp/pr
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import subprocess
import sys
import tempfile
from itertools import islice
from pathlib import Path

#: The experiments whose results must stay bit-identical: the
#: detailed-core measurements (table1, fig1, fig2, fig9's breakdown,
#: backend-matrix's energy table), both tiers of one cluster
#: (tier-validation, every backend-matrix leg), and the interval tier
#: (fig7, fig9's utilization; fig12's maxSTP, Fair and SC-MPKI-fair
#: arbitrators; fig15's migration cost summary; the headline).
EXPERIMENTS = ("table1", "fig1", "fig2", "fig7", "fig9", "fig12",
               "fig15", "headline", "tier-validation", "backend-matrix")


def is_volatile(line: str) -> bool:
    """True for lines that legitimately vary run to run."""
    if line.startswith(("[runner] ", "[exported ")):
        return True
    return line.startswith("--- ") and " done in " in line


def capture(experiment: str, src: Path) -> tuple[str, str]:
    """One experiment's ``(table, exported JSON)``, with volatile
    lines stripped from the table."""
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryDirectory() as export:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", experiment,
             "--quick", "--no-cache", "--export", export],
            env=env, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(
                f"capture_tables: {experiment} exited {proc.returncode}")
        exported = (Path(export) / f"{experiment}.json").read_text()
    lines = [line for line in proc.stdout.splitlines()
             if not is_volatile(line)]
    return "\n".join(lines) + "\n", exported


def write_capture(out: Path, stem: str,
                  captured: tuple[str, str]) -> None:
    """Write one capture as ``<stem>.txt`` and ``<stem>.json``."""
    text, exported = captured
    (out / f"{stem}.txt").write_text(text)
    (out / f"{stem}.json").write_text(exported)


#: Backend names whose leg rows ``--backend-smoke`` requires in the
#: ``backend-matrix`` output (the built-in registry roster).
BACKEND_ROSTER = ("analytic", "detailed", "cgooo", "ldt")


def backend_smoke(src: Path, out: Path) -> None:
    """Run ``backend-matrix --quick`` twice; require the full roster
    in the output and byte-identical tables and JSON between the runs.

    One mode covers two promises at once: every built-in backend
    still registers and runs under the unchanged engine, and the
    whole matrix (cycle tiers included) is deterministic.
    """
    first = capture("backend-matrix", src)
    second = capture("backend-matrix", src)
    write_capture(out, "backend-matrix.first", first)
    write_capture(out, "backend-matrix.second", second)
    table = first[0]
    missing = [name for name in BACKEND_ROSTER if name not in table]
    if missing:
        raise SystemExit(
            f"capture_tables: backend-matrix output is missing leg "
            f"rows for: {', '.join(missing)} (see {out})")
    if first != second:
        raise SystemExit(
            "capture_tables: backend-matrix printed different tables "
            f"or exported different JSON on two identical runs — a "
            f"backend is nondeterministic (see {out})")
    print(f"[backend-smoke] backend-matrix: {len(BACKEND_ROSTER)} "
          f"backends present, two runs byte-identical "
          f"({len(table.splitlines())} lines, "
          f"{len(first[1])} JSON bytes)")


#: The core roster's windows: ``(benchmarks, instructions)``: every
#: benchmark at a short window, and two memory-bound ones at a long
#: window.
ROSTER_WINDOWS = (
    (None, 4_000),                # None: every benchmark
    (("mcf", "milc"), 40_000),
)

#: Seed of every roster stream.
ROSTER_SEED = 1


def roster_runs(src: Path):
    """Yield ``(label, CoreResult)`` for every run of the core roster.

    Per benchmark and window: the OoO with a recorder into an infinite
    Schedule Cache, InO, InO-LDT, the OinO replaying that recording,
    and CG-OoO with an 8 KB SC.  At the 4k window the roster adds the
    OinO at an abort penalty of 40 cycles, and all five cores again at
    2-wide with 2 MSHRs.  Imports the ``repro`` under *src*.
    """
    sys.path.insert(0, str(src))
    from repro.cores import (
        CGOOO_PARAMS,
        INO_PARAMS,
        LDT_PARAMS,
        OOO_PARAMS,
        CGOoOCore,
        InOrderCore,
        OinOCore,
        OutOfOrderCore,
    )
    from repro.memory import MemoryHierarchy
    from repro.schedule import ScheduleCache, ScheduleRecorder
    from repro.workloads import ALL_BENCHMARKS, make_benchmark

    def narrow(params):
        return dataclasses.replace(params, width=2, mem_inflight=2)

    def five(window, n, ooo, ino, ldt, cgooo):
        """The five cores on one window; the OinO replays what the OoO
        recorded."""
        sc = ScheduleCache(None)
        yield "ooo", OutOfOrderCore(
            MemoryHierarchy().core_view(0), params=ooo,
            recorder=ScheduleRecorder(sc)).run(iter(window), n)
        yield "ino", InOrderCore(
            MemoryHierarchy().core_view(1), params=ino).run(iter(window), n)
        yield "ldt", InOrderCore(
            MemoryHierarchy().core_view(1), params=ldt).run(iter(window), n)
        yield "oino", OinOCore(
            MemoryHierarchy().core_view(2), sc, params=ino).run(
                iter(window), n)
        yield "cgooo", CGOoOCore(
            MemoryHierarchy().core_view(3), ScheduleCache(8 * 1024),
            params=cgooo).run(iter(window), n)

    def oino_at(window, n, abort_penalty):
        sc = ScheduleCache(None)
        OutOfOrderCore(MemoryHierarchy().core_view(0),
                       recorder=ScheduleRecorder(sc)).run(iter(window), n)
        return OinOCore(MemoryHierarchy().core_view(2), sc,
                        abort_penalty=abort_penalty).run(iter(window), n)

    base = (OOO_PARAMS, INO_PARAMS, LDT_PARAMS, CGOOO_PARAMS)
    for names, n in ROSTER_WINDOWS:
        for name in names or ALL_BENCHMARKS:
            window = list(islice(
                make_benchmark(name, seed=ROSTER_SEED).stream(), n))
            for core, result in five(window, n, *base):
                yield f"{name} {n} {core}", result
            if names is not None:
                continue
            yield f"{name} {n} oino abort_penalty=40", \
                oino_at(window, n, 40)
            for core, result in five(window, n, *map(narrow, base)):
                yield f"{name} {n} {core} width=2 mshrs=2", result


#: Benchmarks whose ``measure_model`` profile the roster writes, and
#: the instructions each phase runs there.
ROSTER_MODELS = ("hmmer", "gcc", "bzip2", "mcf")
ROSTER_MODEL_PHASE = 4_000


def roster_models(src: Path):
    """Yield ``(label, AppModel)`` for every :data:`ROSTER_MODELS`
    benchmark's measured profile.  Imports the ``repro`` under *src*."""
    sys.path.insert(0, str(src))
    from repro.characterize import measure_model

    for name in ROSTER_MODELS:
        yield (f"{name} measure_model {ROSTER_MODEL_PHASE}",
               measure_model(name,
                             instructions_per_phase=ROSTER_MODEL_PHASE))


def capture_roster(src: Path, out: Path) -> int:
    """Write ``core-roster.txt``; returns the number of core runs."""
    lines = []
    for label, result in roster_runs(src):
        lines += [f"== {label}", repr(result.stats),
                  repr(list(result.energy_events.items()))]
    runs = len(lines) // 3
    for label, model in roster_models(src):
        lines += [f"== {label}", repr(model)]
    (out / "core-roster.txt").write_text("\n".join(lines) + "\n")
    return runs


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: capture every experiment into ``--out``."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--src", default="src",
        help="the src/ tree to put on PYTHONPATH (default: src)")
    parser.add_argument(
        "--out", required=True,
        help="directory to write <experiment>.txt and .json files into")
    parser.add_argument(
        "--experiments", nargs="*", default=list(EXPERIMENTS),
        help=f"experiments to capture (default: {' '.join(EXPERIMENTS)})")
    parser.add_argument(
        "--backend-smoke", action="store_true",
        help="run backend-matrix --quick twice and fail unless every "
             "registered backend appears and the runs are "
             "byte-identical")
    parser.add_argument(
        "--roster", action="store_true",
        help="run the cycle-level core roster and write every run's "
             "stats and energy events, and a few measured phase "
             "profiles, to core-roster.txt")
    args = parser.parse_args(argv)

    src = Path(args.src).resolve()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.backend_smoke:
        backend_smoke(src, out)
        return 0
    if args.roster:
        runs = capture_roster(src, out)
        print(f"[roster] {runs} core runs and {len(ROSTER_MODELS)} "
              f"measured profiles -> {out / 'core-roster.txt'}")
        return 0
    for experiment in args.experiments:
        captured = capture(experiment, src)
        write_capture(out, experiment, captured)
        print(f"[capture] {experiment}: "
              f"{len(captured[0].splitlines())} lines, "
              f"{len(captured[1])} JSON bytes -> {out / experiment}.*")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
