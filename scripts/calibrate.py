"""Calibration sweep: detailed-sim behaviour vs. paper-derived targets.

Run:  python scripts/calibrate.py [benchmark ...]

Prints, per benchmark: OoO IPC, InO:OoO ratio, oracle memoized
fraction, OinO relative performance — next to the profile targets.
Used while tuning the structural generator parameters.
"""

import sys
import time
from itertools import islice

from repro.characterize import run_core_trio
from repro.workloads import ALL_BENCHMARKS, get_profile, make_benchmark

N = 50_000


def evaluate(name: str) -> dict:
    prof = get_profile(name)
    trio = run_core_trio(islice(make_benchmark(name, seed=1).stream(), N))
    return {
        "name": name,
        "cat": prof.category,
        "ipc_ooo": trio.ooo.ipc,
        "t_ipc": prof.target_ipc_ooo,
        "ratio": trio.ino.ipc / trio.ooo.ipc,
        "t_ratio": prof.target_ipc_ratio,
        "memo": trio.oino.stats.memoized_fraction,
        "t_memo": prof.target_memoizable,
        "oino_rel": trio.oino.ipc / trio.ooo.ipc,
        "aborts": trio.oino.stats.trace_aborts,
    }


def main() -> None:
    names = sys.argv[1:] or list(ALL_BENCHMARKS)
    print(f"{'bench':<12} {'cat':<4} {'ipcO(t)':>14} {'ratio(t)':>14} "
          f"{'memo(t)':>14} {'oinoRel':>8} {'aborts':>6}")
    t0 = time.time()
    miscls = 0
    for name in names:
        r = evaluate(name)
        ok = (r["ratio"] < 0.6) == (r["cat"] == "HPD")
        miscls += not ok
        print(f"{r['name']:<12} {r['cat']:<4} "
              f"{r['ipc_ooo']:>6.2f}({r['t_ipc']:>4.2f}) "
              f"{r['ratio']:>6.2f}({r['t_ratio']:>4.2f}) "
              f"{r['memo']:>6.2f}({r['t_memo']:>4.2f}) "
              f"{r['oino_rel']:>8.2f} {r['aborts']:>6} "
              f"{'' if ok else '  <-- misclassified'}")
    print(f"misclassified: {miscls}/{len(names)}  "
          f"({time.time()-t0:.0f}s)")


if __name__ == "__main__":
    main()
