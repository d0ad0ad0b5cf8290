"""Cluster-of-clusters: a global scheduler over N Mirage clusters.

One Mirage cluster multiplexes a handful of applications onto a
single producer OoO; a deployment is many such clusters behind a
global admission scheduler.  :mod:`repro.cluster.scheduler` places a
:class:`~repro.workloads.scenario.Scenario`'s arrivals across
clusters under a pluggable :class:`PlacementPolicy` (round-robin /
least-loaded / SC-MPKI-aware), and :mod:`repro.cluster.dynamic` runs
each placed sub-scenario on an independent
:class:`~repro.engine.loop.IntervalEngine` with the lifecycle phase
admitting and retiring tenants mid-run.  Placement is a pure function
of the schedule, so the per-cluster simulations parallelize and cache
through the sweep runner without changing a single bit of the
outcome.
"""

from repro.cluster.dynamic import (
    AppRunSummary,
    ClusterScenarioResult,
    DynamicCluster,
    SeriesPhase,
    cluster_specs,
    run_cluster_scenario,
    run_scenario,
    run_scenario_unit,
    summarize_scenario,
)
from repro.cluster.scheduler import (
    POLICIES,
    ClusterLoad,
    LeastLoadedPolicy,
    Placement,
    PlacementPolicy,
    RoundRobinPolicy,
    SCMPKIAwarePolicy,
    benchmark_pressure,
    place_scenario,
)

__all__ = [
    "POLICIES",
    "AppRunSummary",
    "ClusterLoad",
    "ClusterScenarioResult",
    "DynamicCluster",
    "LeastLoadedPolicy",
    "Placement",
    "PlacementPolicy",
    "RoundRobinPolicy",
    "SCMPKIAwarePolicy",
    "SeriesPhase",
    "benchmark_pressure",
    "cluster_specs",
    "place_scenario",
    "run_cluster_scenario",
    "run_scenario",
    "run_scenario_unit",
    "summarize_scenario",
]
