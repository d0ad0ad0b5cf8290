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
(determinism across the whole roster).  Perf layers are held to their
references by ``tests/test_equivalence.py`` instead: the slice memo
against its memo-less run, and the warm pool against serial execution.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
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
    args = parser.parse_args(argv)

    src = Path(args.src).resolve()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.backend_smoke:
        backend_smoke(src, out)
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
