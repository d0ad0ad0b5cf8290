"""Mirage Cores (MICRO 2017) reproduction.

A from-scratch Python implementation of the Mirage Cores
heterogeneous-CMP design: an out-of-order core memoizes dynamic issue
schedules into per-application Schedule Caches, and clusters of
in-order cores replay them (the DynaMOS-style "OinO" mode) at
near-OoO performance; runtime arbitrators (SC-MPKI, maxSTP, fair
variants) orchestrate the shared OoO.

Public API tour:

* :mod:`repro.workloads` — the synthetic SPEC 2006-like suite.
* :mod:`repro.cores` — cycle-level OoO / InO / OinO core models.
* :mod:`repro.schedule` — trace detection, schedule recording, SC.
* :mod:`repro.memory` — caches, bus, prefetcher, coherence.
* :mod:`repro.arbiter` — the five runtime arbitrators.
* :mod:`repro.cmp` — interval-level CMP simulation.
* :mod:`repro.energy` — McPAT-like energy/area models.
* :mod:`repro.engine` — the phase pipeline driving the interval tier.
* :mod:`repro.telemetry` — typed counters, trace records, sinks.
* :mod:`repro.experiments` — one driver per paper table/figure.
* :mod:`repro.api` — the stable flat facade over all of the above.
* :mod:`repro.config` — every cache switch as one ``CacheConfig``.
"""

from repro.arbiter import (
    FairArbitrator,
    MaxSTPArbitrator,
    SCMPKIArbitrator,
    SCMPKIFairArbitrator,
    SCMPKIMaxSTPArbitrator,
)
from repro.characterize import AppModel, PhaseProfile, analytic_model
from repro.cmp import ClusterConfig, PAPER_SCALE, SIM_SCALE, TimeScale
from repro.cmp.system import CMPResult, CMPSystem, run_homo
from repro.cores import InOrderCore, OinOCore, OutOfOrderCore
from repro.energy import CoreEnergyModel, cmp_area
from repro.memory import MemoryHierarchy
from repro.schedule import Schedule, ScheduleCache, ScheduleRecorder, Trace
from repro.telemetry import JSONLSink, MemorySink, Telemetry
from repro.workloads import (
    ALL_BENCHMARKS,
    HPD_BENCHMARKS,
    LPD_BENCHMARKS,
    WorkloadMix,
    make_benchmark,
    standard_mixes,
)

__version__ = "1.10.0"

__all__ = [
    "__version__",
    # workloads
    "ALL_BENCHMARKS", "HPD_BENCHMARKS", "LPD_BENCHMARKS",
    "make_benchmark", "standard_mixes", "WorkloadMix",
    # cores + memory
    "OutOfOrderCore", "InOrderCore", "OinOCore", "MemoryHierarchy",
    # schedule memoization
    "Trace", "Schedule", "ScheduleCache", "ScheduleRecorder",
    # arbitration
    "SCMPKIArbitrator", "MaxSTPArbitrator", "SCMPKIMaxSTPArbitrator",
    "FairArbitrator", "SCMPKIFairArbitrator",
    # CMP + characterization
    "ClusterConfig", "CMPSystem", "CMPResult", "run_homo",
    "TimeScale", "PAPER_SCALE", "SIM_SCALE",
    "AppModel", "PhaseProfile", "analytic_model",
    # energy
    "CoreEnergyModel", "cmp_area",
    # telemetry
    "Telemetry", "MemorySink", "JSONLSink",
]
