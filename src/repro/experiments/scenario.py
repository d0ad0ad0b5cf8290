"""Scenario study: dynamic traffic across a cluster-of-clusters.

Beyond the paper's fixed mixes: applications arrive and depart on a
seeded schedule (steady / bursty / diurnal / mixed traffic shapes,
:func:`repro.workloads.make_scenario`), a global scheduler places each
arrival onto one of N Mirage clusters, and every cluster runs the
dynamic interval engine with mid-run admission and retirement.  The
driver compares the placement policies on scenario-level metrics the
fixed-mix figures cannot express: tail latency to the first OoO grant
(p50/p95/p99), SLA attainment (fraction of tenants reaching a target
progress rate), fairness over per-tenant progress, and throughput
retention under arrival spikes.

Every ``(policy, cluster)`` simulation is an independent
:func:`repro.cluster.dynamic.run_scenario_unit` call fanned through
the sweep runner, so serial, ``--jobs N`` and cached runs are
bit-identical; placement itself is a pure function of the schedule
and runs inline.
"""

from __future__ import annotations

from repro.cluster.dynamic import (
    UNIT_TARGET,
    cluster_specs,
    summarize_scenario,
)
from repro.cluster.scheduler import POLICIES, place_scenario
from repro.experiments.common import format_table
from repro.runner import SweepRunner, call_unit
from repro.workloads import make_scenario

#: Placement policies the table compares, in print order.
POLICY_NAMES = tuple(POLICIES)


def run(*, shape: str = "bursty", n_apps: int = 24,
        duration: int = 400, n_clusters: int = 3, capacity: int = 8,
        policies=POLICY_NAMES, arbitrator: str = "SC-MPKI",
        seed: int = 2017, sla_target: float = 0.5,
        runner: SweepRunner | None = None) -> dict:
    """One scenario, every placement policy, one comparison table.

    The scenario is built once (same seed ⇒ same schedule for every
    policy) and placed once per policy; the resulting per-cluster
    simulations for *all* policies fan out through one ``runner.map``
    so a parallel run overlaps across policies too.
    """
    runner = runner or SweepRunner()
    scenario = make_scenario(shape, n_apps=n_apps, duration=duration,
                             seed=seed)
    placements = {
        policy: place_scenario(scenario, n_clusters=n_clusters,
                               capacity=capacity, policy=policy)
        for policy in policies
    }
    units = []
    spans = {}
    for policy in policies:
        specs = cluster_specs(placements[policy], capacity=capacity,
                              arbitrator=arbitrator)
        spans[policy] = (len(units), len(units) + len(specs))
        units.extend(call_unit(UNIT_TARGET, spec) for spec in specs)
    results = runner.map(units)
    rows = []
    for policy in policies:
        lo, hi = spans[policy]
        placement = placements[policy]
        metrics = summarize_scenario(
            results[lo:hi], len(placement.rejected),
            placement.queued_delays, sla_target=sla_target)
        rows.append({
            "policy": policy,
            "clusters": hi - lo,
            **metrics,
        })
    return {
        "scenario": {
            "name": scenario.name,
            "shape": scenario.shape,
            "n_apps": n_apps,
            "duration": duration,
            "seed": seed,
            "n_clusters": n_clusters,
            "capacity": capacity,
            "arbitrator": arbitrator,
            "sla_target": sla_target,
        },
        "rows": rows,
    }


def print_table(result: dict) -> None:
    info = result["scenario"]
    print(
        f"\nScenario study: {info['shape']} traffic, "
        f"{info['n_apps']} apps over {info['duration']} intervals, "
        f"{info['n_clusters']} clusters x {info['capacity']} slots "
        f"({info['arbitrator']}, SLA target {info['sla_target']:g}):")
    print(format_table(
        ["policy", "placed", "rej", "wait-p95", "lat-p50", "lat-p95",
         "lat-p99", "SLA", "fair", "progress", "spike", "migr"],
        [
            [
                r["policy"],
                r["apps"],
                r["rejected"],
                r["queue_delay"]["p95"],
                r["latency"]["p50"],
                r["latency"]["p95"],
                r["latency"]["p99"],
                r["sla"],
                r["fairness"],
                r["stp"],
                r["spike"]["ratio"],
                r["migrations"],
            ]
            for r in result["rows"]
        ],
    ))
    print(
        "\nwait-p95: admission queueing delay (intervals); lat-*: "
        "arrival to first OoO grant; SLA: fraction of tenants at >= "
        "target progress; progress: mean per-tenant progress vs "
        "alone-on-OoO; spike: throughput under population spikes vs "
        "overall.")
