"""Validation: same engine, two backends.

The big sweeps (Figures 7-15) run on the analytic backend; this
experiment checks its dynamics bottom-up by running the *same*
:class:`~repro.engine.loop.IntervalEngine` pipeline on the cycle-level
:class:`~repro.cmp.detailed.DetailedBackend` (via
:class:`~repro.cmp.detailed.DetailedMirageCluster`) and comparing the
qualitative outcomes both execution substrates must agree on:

* the SC-MPKI arbitrator gives memoizable applications more producer
  time than unmemoizable ones;
* the memoizable application ends up closer to its OoO-alone speed
  than the unmemoizable one (relative to their InO baselines);
* schedule bytes genuinely cross the bus when migrations happen.
"""

from __future__ import annotations

from repro.arbiter import SCMPKIArbitrator
from repro.cmp.detailed import DetailedMirageCluster
from repro.experiments.common import format_table
from repro.runner import SweepRunner, call_unit, cmp_unit
from repro.telemetry import Telemetry
from repro.workloads import make_benchmark

#: A memoizable app paired with an unmemoizable one.
PAIR = ("bzip2", "astar")


def detailed_tier(n_slices: int, slice_instructions: int) -> dict:
    """The cycle-level half, as one JSON-pure work unit."""
    benches = [
        make_benchmark(name, seed=5, base_addr=(i + 1) << 34)
        for i, name in enumerate(PAIR)
    ]
    tele, trace = Telemetry.recording(kinds={"migration"})
    detailed = DetailedMirageCluster(
        benches, SCMPKIArbitrator(),
        slice_instructions=slice_instructions,
        telemetry=tele,
    ).run(n_slices=n_slices)
    migrations = trace.records("migration")
    return {
        "ooo_share": dict(zip(detailed.app_names, detailed.ooo_share)),
        "stp": detailed.stp,
        # Summed from the telemetry migration records — structurally
        # the same accounting the interval tier emits.
        "sc_bytes_transferred": sum(m.sc_bytes for m in migrations),
        "migration_charged_cycles": sum(
            m.charged_cycles for m in migrations),
    }


def run(*, n_slices: int = 16, slice_instructions: int = 8_000,
        runner: SweepRunner | None = None) -> dict:
    runner = runner or SweepRunner()
    det, interval = runner.map([
        call_unit("repro.experiments.tier_validation:detailed_tier",
                  n_slices, slice_instructions),
        cmp_unit(PAIR, "SC-MPKI", n_consumers=2, mirage=True,
                 max_intervals=400),
    ])
    det_share = det["ooo_share"]
    int_share = dict(zip(interval.app_names, interval.ooo_share_per_app))

    memo, unmemo = PAIR
    return {
        "pair": PAIR,
        "detailed": det,
        "interval": {
            "ooo_share": int_share,
            "stp": interval.stp,
        },
        "agreement": {
            "detailed_prefers_memoizable":
                det_share[memo] > det_share[unmemo],
            "interval_prefers_memoizable":
                int_share[memo] > int_share[unmemo],
            "schedules_transferred":
                det["sc_bytes_transferred"] > 0,
        },
    }


def print_table(result: dict) -> None:
    memo, unmemo = result["pair"]
    print(f"Tier validation on ({memo}, {unmemo}):")
    print(format_table(
        ["tier", f"{memo} OoO share", f"{unmemo} OoO share", "STP"],
        [
            ["detailed",
             result["detailed"]["ooo_share"][memo],
             result["detailed"]["ooo_share"][unmemo],
             result["detailed"]["stp"]],
            ["interval",
             result["interval"]["ooo_share"][memo],
             result["interval"]["ooo_share"][unmemo],
             result["interval"]["stp"]],
        ],
    ))
    ok = all(result["agreement"].values())
    print(f"\ntiers agree on the qualitative dynamics: "
          f"{'yes' if ok else 'NO'}")


