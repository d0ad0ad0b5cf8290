"""Process-sharded detailed-tier cluster runs.

One :class:`~repro.cmp.detailed.DetailedMirageCluster` is a sealed
world: it owns its memory hierarchy, bus, cores and telemetry, and the
deferred-:class:`~repro.engine.backends.MigrationTicket` design keeps
even migration accounting inside the cluster.  A sweep that needs
several *independent* clusters (tier gates, multi-mix studies, bench
probes) is therefore embarrassingly parallel — but the detailed tier
is the slowest thing in the repo, so running those clusters serially
dominates wall-clock.

:class:`ShardedDetailedBackend` fans a list of :class:`ClusterSpec`
descriptions over the warm worker pool and merges the outcomes back in
**spec order**, so the combined result is deterministic regardless of
worker scheduling.  Each spec runs through the module-level
:func:`run_cluster_spec` (picklable by construction) without a slice
memo, so nothing couples one spec's run to another's and the serial
fallback is bit-identical to the sharded run.

Sharding is explicit: a caller passes ``jobs``, and ``jobs=None`` (or
1) runs the specs serially in-process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.cmp.detailed import DetailedResult


def fan_out(fn, items, jobs: int | None) -> list:
    """Map *fn* over *items* through a process pool, in input order.

    The one pool idiom every sharded runner in the repo shares
    (:class:`ShardedDetailedBackend` here, the multi-cluster scenario
    runs in :mod:`repro.cluster`): ``jobs=None``/``<=1`` or a single
    item runs serially in-process; otherwise the fan-out goes through
    the process-global :class:`~repro.runner.pool.WarmPool` —
    persistent workers shared with the sweep runner, so back-to-back
    fan-outs pay no respawn — and runs serially when the pool is
    unavailable (worker processes cannot be spawned here, or this is
    itself a pool worker).  *fn* must be module-level and *items*
    picklable; when each call is a pure function of its item, serial
    and pooled runs are bit-identical.
    """
    items = list(items)
    if jobs is None or jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from repro.runner.pool import PoolUnavailable, WarmPool

    try:
        # WarmPool.map preserves input order: downstream merges are
        # deterministic no matter which worker finishes first.  Task
        # errors propagate (PoolTaskError); only *pool* unavailability
        # degrades.
        return WarmPool.shared(jobs).map(fn, items)
    except PoolUnavailable:
        return [fn(item) for item in items]


@dataclass(frozen=True, slots=True)
class ClusterSpec:
    """Everything needed to rebuild one detailed cluster in a worker.

    Benchmarks travel as ``(name, seed, base_addr)`` triples and the
    arbitrator by registry name
    (:data:`repro.runner.units.ARBITRATORS`), so a spec is small,
    hashable and picklable; the worker re-derives the actual objects.
    """

    benchmarks: tuple                  #: of (name, seed, base_addr)
    arbitrator: str = "SC-MPKI"
    sc_capacity: int = 8 * 1024
    slice_instructions: int = 8_000
    n_slices: int = 16
    #: Telemetry event kinds to capture and ship back (e.g.
    #: ``("migration",)``); empty captures nothing.
    record_kinds: tuple = ()


@dataclass(slots=True)
class ShardOutcome:
    """What one :class:`ClusterSpec` run sends back from its worker."""

    result: "DetailedResult"
    counters: dict          #: the cluster's full telemetry counters
    records: list           #: captured events, in emission order


def run_cluster_spec(spec: ClusterSpec) -> ShardOutcome:
    """Build, run and summarize one cluster — in any process.

    Module-level and argument-picklable so the warm pool can ship it.
    The cluster runs without a slice memo, so outcomes do not depend
    on what else ran in the same process — serial and sharded
    execution are bit-identical.
    """
    from repro.cmp.detailed import DetailedMirageCluster
    from repro.runner.units import ARBITRATORS
    from repro.telemetry import MemorySink, Telemetry
    from repro.workloads import make_benchmark

    benches = [
        make_benchmark(name, seed=seed, base_addr=base_addr)
        for name, seed, base_addr in spec.benchmarks
    ]
    telemetry = Telemetry()
    sink = None
    if spec.record_kinds:
        sink = telemetry.attach(MemorySink(kinds=set(spec.record_kinds)))
    cluster = DetailedMirageCluster(
        benches, ARBITRATORS[spec.arbitrator](),
        sc_capacity=spec.sc_capacity,
        slice_instructions=spec.slice_instructions,
        telemetry=telemetry,
    )
    result = cluster.run(n_slices=spec.n_slices)
    return ShardOutcome(
        result=result,
        counters=dict(telemetry.counters),
        records=list(sink.events) if sink is not None else [],
    )


def merge_counters(outcomes: "list[ShardOutcome]") -> dict:
    """Sum every shard's counters, in spec order (deterministic)."""
    merged: dict = {}
    for outcome in outcomes:
        for name, value in outcome.counters.items():
            merged[name] = merged.get(name, 0) + value
    return merged


class ShardedDetailedBackend:
    """Runs independent cluster specs over the warm worker pool.

    ``jobs=None`` (the default) or 1 runs serially; a larger count
    fans the specs out over a pool of that size (see :func:`fan_out`),
    with bit-identical outcomes either way.
    """

    def __init__(self, specs: "list[ClusterSpec] | tuple", *,
                 jobs: int | None = None):
        self.specs = list(specs)
        self.jobs = jobs

    def run(self) -> "list[ShardOutcome]":
        """Every spec's outcome, in spec order."""
        return fan_out(run_cluster_spec, self.specs, self.jobs)
