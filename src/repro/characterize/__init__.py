"""Per-benchmark phase characterization.

The interval-level CMP simulator (:mod:`repro.cmp`) advances whole
arbitration intervals at a time and therefore needs, per benchmark
phase: the IPC on each core type, the memoizable instruction fraction,
the schedule working-set size, and the schedule volatility.  Two
sources provide these :class:`PhaseProfile` sets:

* :func:`analytic_model` derives them from the paper-calibrated targets
  in :mod:`repro.workloads.profiles` (fast; the default for the big
  CMP sweeps).
* :func:`measure_model` runs the detailed cycle-level cores on the
  synthetic benchmark, one phase at a time (slow; used by validation
  tests and ``scripts/capture_tables.py --roster``).

The detailed-tier experiments run the cores on one window through
:func:`run_core_pair` (the OoO and the InO; Table 1 and Figure 1) or
:func:`run_core_trio` (the OoO recording into an infinite Schedule
Cache, the InO, and the OinO replaying it; Figures 2 and 9a), which
:func:`measure_model` also runs once per phase.
"""

from repro.characterize.phase_model import (
    AppModel,
    CoreTrio,
    PhaseProfile,
    analytic_model,
    measure_model,
    run_core_pair,
    run_core_trio,
)

__all__ = [
    "PhaseProfile",
    "AppModel",
    "CoreTrio",
    "analytic_model",
    "measure_model",
    "run_core_pair",
    "run_core_trio",
]
