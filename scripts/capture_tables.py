#!/usr/bin/env python3
"""Capture the tier-identity tables for byte-exact comparison.

Runs the experiments whose output refactors and perf changes must
never change (:data:`EXPERIMENTS`) in ``--quick --no-cache`` mode,
strips the wall-clock-dependent runner chatter (``[runner] ...``
stats and ``--- <name> done in X.Xs ---`` footers), and writes one
``<experiment>.txt`` per experiment.

CI runs this script twice (PR tree vs base tree) and fails the
tier-identity gate on any byte difference::

    python scripts/capture_tables.py --src src --out /tmp/pr
    python scripts/capture_tables.py --src base-tree/src --out /tmp/base
    diff -ru /tmp/base /tmp/pr

``--backend-smoke`` runs ``backend-matrix --quick`` twice on one
tree: every registered backend must appear as a leg row and the two
runs must print byte-identical tables (determinism across the whole
roster).  Perf layers are held to their references by
``tests/test_equivalence.py`` instead: the slice memo against its
memo-less run, and the warm pool against serial execution.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

#: The experiments whose printed tables must stay bit-identical: the
#: detailed-core measurements (table1, fig1, fig2, fig9's breakdown,
#: backend-matrix's energy table), both tiers of one cluster
#: (tier-validation, every backend-matrix leg), and the interval tier
#: (fig7, fig9's utilization).
EXPERIMENTS = ("table1", "fig1", "fig2", "fig7", "fig9",
               "tier-validation", "backend-matrix")


def is_volatile(line: str) -> bool:
    """True for timing lines that legitimately vary run to run."""
    if line.startswith("[runner] "):
        return True
    return line.startswith("--- ") and " done in " in line


def capture(experiment: str, src: Path) -> str:
    """One experiment's table, with volatile timing lines stripped."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", experiment,
         "--quick", "--no-cache"],
        env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(
            f"capture_tables: {experiment} exited {proc.returncode}")
    lines = [line for line in proc.stdout.splitlines()
             if not is_volatile(line)]
    return "\n".join(lines) + "\n"


#: Backend names whose leg rows ``--backend-smoke`` requires in the
#: ``backend-matrix`` output (the built-in registry roster).
BACKEND_ROSTER = ("analytic", "detailed", "cgooo", "ldt")


def backend_smoke(src: Path, out: Path) -> None:
    """Run ``backend-matrix --quick`` twice; require the full roster
    in the output and byte-identical tables between the runs.

    One mode covers two promises at once: every built-in backend
    still registers and runs under the unchanged engine, and the
    whole matrix (cycle tiers included) is deterministic.
    """
    first = capture("backend-matrix", src)
    second = capture("backend-matrix", src)
    (out / "backend-matrix.first.txt").write_text(first)
    (out / "backend-matrix.second.txt").write_text(second)
    missing = [name for name in BACKEND_ROSTER if name not in first]
    if missing:
        raise SystemExit(
            f"capture_tables: backend-matrix output is missing leg "
            f"rows for: {', '.join(missing)} (see {out})")
    if first != second:
        raise SystemExit(
            "capture_tables: backend-matrix printed different tables "
            f"on two identical runs — a backend is nondeterministic "
            f"(see {out})")
    print(f"[backend-smoke] backend-matrix: {len(BACKEND_ROSTER)} "
          f"backends present, two runs byte-identical "
          f"({len(first.splitlines())} lines)")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: capture every experiment into ``--out``."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--src", default="src",
        help="the src/ tree to put on PYTHONPATH (default: src)")
    parser.add_argument(
        "--out", required=True,
        help="directory to write <experiment>.txt files into")
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
        text = capture(experiment, src)
        path = out / f"{experiment}.txt"
        path.write_text(text)
        print(f"[capture] {experiment}: {len(text.splitlines())} lines "
              f"-> {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
