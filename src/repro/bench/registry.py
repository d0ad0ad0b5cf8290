"""The microbenchmark registry: named, self-contained perf probes.

Each microbenchmark is one registered function exercising a hot path
of the simulator — a detailed-cluster slice step, OinO record/replay,
an interval-engine sweep, the memory-hierarchy access loop, a runner
cache round-trip — against fixed seeds, so wall-clock is the only
thing that varies between runs.  The function receives a
:class:`BenchContext` and reports through its
:class:`~repro.telemetry.collector.Telemetry` hub: counters must be
bit-deterministic (the regression tests assert this), phase timings
come from the hub's :class:`~repro.telemetry.profiler.PhaseProfiler`.

Registering a new microbenchmark is one decorator::

    @register("my-path", tier="detailed", description="...")
    def bench_my_path(ctx: BenchContext) -> None:
        with ctx.telemetry.profiler.time("setup"):
            ...
        ...

The harness in :mod:`repro.bench.harness` discovers everything in
:data:`BENCHMARKS` and times whole-function invocations around it.
"""

from __future__ import annotations

import json
import tempfile
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.telemetry import Telemetry

#: Benchmark tiers: which layer of the simulator a probe exercises.
TIERS = ("detailed", "interval", "infra")


@dataclass
class BenchContext:
    """What one microbenchmark invocation gets to work with.

    Attributes:
        quick: trimmed workload sizes for smoke runs (CI uses this).
        telemetry: fresh per-invocation hub; counters recorded here
            end up in the report and are asserted deterministic.
    """

    quick: bool = False
    telemetry: Telemetry = field(default_factory=Telemetry)

    def size(self, full: int, quick: int) -> int:
        """Pick the workload size for this invocation's mode."""
        return quick if self.quick else full


@dataclass(frozen=True)
class Benchmark:
    """One registered microbenchmark: metadata plus its probe function."""

    name: str
    tier: str                          #: "detailed" | "interval" | "infra"
    description: str
    fn: Callable[[BenchContext], None]

    def run(self, ctx: BenchContext) -> None:
        """Execute the probe once under *ctx* (timed by the harness)."""
        self.fn(ctx)


#: Registry of every microbenchmark, in registration order.
BENCHMARKS: dict[str, Benchmark] = {}


def register(name: str, *, tier: str, description: str):
    """Class the decorated function as the microbenchmark *name*."""
    if tier not in TIERS:
        raise ValueError(f"tier must be one of {TIERS}, got {tier!r}")

    def decorator(fn: Callable[[BenchContext], None]):
        if name in BENCHMARKS:
            raise ValueError(f"duplicate benchmark name {name!r}")
        BENCHMARKS[name] = Benchmark(
            name=name, tier=tier, description=description, fn=fn)
        return fn

    return decorator


def get(name: str) -> Benchmark:
    """Look up one microbenchmark; raises ``KeyError`` with the roster."""
    try:
        return BENCHMARKS[name]
    except KeyError:
        known = ", ".join(BENCHMARKS)
        raise KeyError(
            f"unknown benchmark {name!r} — choose from: {known}") from None


def names() -> list[str]:
    """Every registered microbenchmark name, in registration order."""
    return list(BENCHMARKS)


# ----------------------------------------------------------------------
# The standard probes
# ----------------------------------------------------------------------
@register(
    "detailed-slice", tier="detailed",
    description="IntervalEngine over DetailedBackend: cycle-level "
                "slices with arbitration, SC transfer, shared L2",
)
def bench_detailed_slice(ctx: BenchContext) -> None:
    """One small cycle-level Mirage cluster run, end to end."""
    from repro.arbiter import SCMPKIArbitrator
    from repro.cmp.detailed import DetailedMirageCluster
    from repro.workloads import make_benchmark

    with ctx.telemetry.profiler.time("setup"):
        cluster = DetailedMirageCluster(
            [make_benchmark("hmmer", seed=1),
             make_benchmark("gcc", seed=1),
             make_benchmark("mcf", seed=1)],
            SCMPKIArbitrator(),
            slice_instructions=ctx.size(6_000, 1_500),
            telemetry=ctx.telemetry,
        )
    with ctx.telemetry.profiler.time("slices"):
        result = cluster.run(n_slices=ctx.size(8, 3))
    ctx.telemetry.counters.bump(
        "bench.stp_milli", round(result.stp * 1000))


@register(
    "oino-replay", tier="detailed",
    description="OoO schedule recording then OinO replay of the same "
                "stream through one Schedule Cache",
)
def bench_oino_replay(ctx: BenchContext) -> None:
    """The producer/consumer memoization loop on one benchmark."""
    from repro.cores import OinOCore, OutOfOrderCore
    from repro.memory import MemoryHierarchy
    from repro.schedule import ScheduleCache, ScheduleRecorder
    from repro.workloads import make_benchmark

    n = ctx.size(30_000, 8_000)
    with ctx.telemetry.profiler.time("setup"):
        bench = make_benchmark("hmmer", seed=2)
        hier = MemoryHierarchy()
        sc = ScheduleCache(8 * 1024)
    with ctx.telemetry.profiler.time("record"):
        producer = OutOfOrderCore(
            hier.core_view(0), recorder=ScheduleRecorder(sc))
        recorded = producer.run(bench.stream(), n)
    with ctx.telemetry.profiler.time("replay"):
        consumer = OinOCore(hier.core_view(1), sc)
        replayed = consumer.run(bench.stream(), n)
    counters = ctx.telemetry.counters
    counters.merge(recorded.stats.counters(prefix="ooo."))
    counters.merge(replayed.stats.counters(prefix="oino."))
    counters.merge(sc.stats.counters(prefix="sc."))


@register(
    "sim-cache", tier="detailed",
    description="SliceMemo cold capture then all-hit replay of an "
                "identical detailed-tier cluster run",
)
def bench_sim_cache(ctx: BenchContext) -> None:
    """Slice-memoization capture/replay on a repeated cluster run.

    A private :class:`~repro.simcache.SliceMemo` is populated by the
    cold run, then an identical cluster is driven straight through the
    replay path; the probe asserts the replayed result matches before
    reporting, so a correctness regression fails loudly here too.
    """
    from repro import simcache
    from repro.arbiter import SCMPKIArbitrator
    from repro.cmp.detailed import DetailedMirageCluster
    from repro.workloads import make_benchmark

    memo = simcache.SliceMemo()
    slice_n = ctx.size(4_000, 1_000)
    n_slices = ctx.size(6, 3)

    def run():
        cluster = DetailedMirageCluster(
            [make_benchmark("hmmer", seed=3),
             make_benchmark("mcf", seed=3)],
            SCMPKIArbitrator(),
            slice_instructions=slice_n,
            sim_cache=memo,
        )
        return cluster.run(n_slices=n_slices)

    with ctx.telemetry.profiler.time("cold"):
        cold = run()
    with ctx.telemetry.profiler.time("replay"):
        warm = run()
    if (warm.ipcs, warm.migrations, warm.energy_pj) != (
            cold.ipcs, cold.migrations, cold.energy_pj):
        raise RuntimeError("sim-cache replay diverged from the cold run")
    counters = ctx.telemetry.counters
    counters.bump("simcache.lookups", memo.stats.lookups)
    counters.bump("simcache.hits", memo.stats.hits)
    counters.bump("simcache.stores", memo.stats.stores)
    counters.bump("simcache.entries", memo.num_entries)
    counters.bump("simcache.bytes", memo.approx_bytes)


@register(
    "cgooo-slice", tier="detailed",
    description="CGOoOCore block scheduling: cold schedule selection "
                "then SC-memoized replay of the same stream",
)
def bench_cgooo_slice(ctx: BenchContext) -> None:
    """The CG-OoO consumer's block-window loop, cold and memoized.

    The first run populates the Schedule Cache with block schedules
    (the bw-select path); the second run over an identical stream
    replays them (the sc-read path).  Timing is deterministic on both
    paths, so the probe asserts identical cycle counts before
    reporting — a divergence means the memo shortcut changed timing.
    """
    from repro.cores import CGOoOCore
    from repro.memory import MemoryHierarchy
    from repro.schedule import ScheduleCache
    from repro.workloads import make_benchmark

    n = ctx.size(30_000, 8_000)
    with ctx.telemetry.profiler.time("setup"):
        bench = make_benchmark("hmmer", seed=2)
        sc = ScheduleCache(32 * 1024)
    # Each leg gets a private hierarchy: only the Schedule Cache is
    # shared, so any cycle difference is the memo shortcut's fault.
    with ctx.telemetry.profiler.time("cold"):
        cold = CGOoOCore(MemoryHierarchy().core_view(0), sc).run(
            bench.stream(), n)
    bench = make_benchmark("hmmer", seed=2)
    with ctx.telemetry.profiler.time("memoized"):
        warm = CGOoOCore(MemoryHierarchy().core_view(0), sc).run(
            bench.stream(), n)
    if warm.cycles != cold.cycles:
        raise RuntimeError("memoized CG-OoO run diverged from cold")
    counters = ctx.telemetry.counters
    counters.merge(cold.stats.counters(prefix="cold."))
    counters.merge(warm.stats.counters(prefix="warm."))
    counters.merge(sc.stats.counters(prefix="sc."))


@register(
    "ldt-issue", tier="detailed",
    description="Load-delay-tracking InO issue policy against the "
                "stall baseline on one memory-bound stream",
)
def bench_ldt_issue(ctx: BenchContext) -> None:
    """Stall vs LDT issue over the same stream, same hierarchy shape."""
    from repro.cores import InOrderCore, LDT_PARAMS
    from repro.memory import MemoryHierarchy
    from repro.workloads import make_benchmark

    n = ctx.size(30_000, 8_000)
    with ctx.telemetry.profiler.time("setup"):
        bench = make_benchmark("mcf", seed=2)
    with ctx.telemetry.profiler.time("stall"):
        stall = InOrderCore(MemoryHierarchy().core_view(0)).run(
            bench.stream(), n)
    bench = make_benchmark("mcf", seed=2)
    with ctx.telemetry.profiler.time("ldt"):
        ldt = InOrderCore(MemoryHierarchy().core_view(0),
                          params=LDT_PARAMS).run(bench.stream(), n)
    counters = ctx.telemetry.counters
    counters.merge(stall.stats.counters(prefix="stall."))
    counters.merge(ldt.stats.counters(prefix="ldt."))
    counters.bump("bench.ldt_speedup_milli",
                  round(1000 * ldt.ipc / max(1e-9, stall.ipc)))


@register(
    "interval-engine", tier="interval",
    description="IntervalEngine over AnalyticBackend: one arbitrated "
                "8-app CMP run through the four-phase pipeline",
)
def bench_interval_engine(ctx: BenchContext) -> None:
    """One interval-tier CMP simulation over a standard mix."""
    from repro.arbiter import SCMPKIArbitrator
    from repro.characterize import analytic_model
    from repro.cmp import ClusterConfig
    from repro.cmp.system import CMPSystem
    from repro.workloads import standard_mixes

    with ctx.telemetry.profiler.time("setup"):
        mix = standard_mixes(8)[0]
        models = [analytic_model(name) for name in mix]
        config = ClusterConfig(n_consumers=8, n_producers=1, mirage=True)
    reps = ctx.size(6, 2)
    for _ in range(reps):
        system = CMPSystem(config, models, SCMPKIArbitrator(),
                           telemetry=ctx.telemetry)
        result = system.run()
    ctx.telemetry.counters.bump(
        "bench.stp_milli", round(result.stp * 1000))


@register(
    "memory-hierarchy", tier="detailed",
    description="CoreMemory access loop: L1/TLB hits, L2 refills, "
                "strided and pointer-chase address patterns",
)
def bench_memory_hierarchy(ctx: BenchContext) -> None:
    """A deterministic demand-access loop over two core views."""
    from repro.memory import MemoryHierarchy

    with ctx.telemetry.profiler.time("setup"):
        hier = MemoryHierarchy()
        mem0 = hier.core_view(0)
        mem1 = hier.core_view(1)
    n = ctx.size(120_000, 30_000)
    latency_sum = 0
    misses = 0
    with ctx.telemetry.profiler.time("accesses"):
        for i in range(n):
            pc = 0x1000_0000 + (i % 512) * 4
            # Mixed locality: a hot strided region, a cold sweep, and
            # cross-core L2 sharing every 16th access.
            addr = (0x4000_0000 + (i % 64) * 8 if i % 4
                    else 0x5000_0000 + i * 64)
            mem = mem1 if i % 16 == 0 else mem0
            if i % 8 == 7:
                res = mem.store(pc, addr, now=i)
            elif i % 3 == 0:
                res = mem.fetch(pc, now=i)
            else:
                res = mem.load(pc, addr, now=i)
            latency_sum += res.latency
            misses += not res.l1_hit
    counters = ctx.telemetry.counters
    counters.bump("mem.accesses", n)
    counters.bump("mem.latency_sum", latency_sum)
    counters.bump("mem.l1_misses", misses)
    counters.bump("mem.l2_accesses", hier.l2.stats.accesses)
    counters.bump("mem.l2_misses", hier.l2.stats.misses)


@register(
    "runner-cache", tier="infra",
    description="ResultCache round-trip: CMPResult encode, atomic "
                "publish, keyed read-back",
)
def bench_runner_cache(ctx: BenchContext) -> None:
    """Write-then-read one CMPResult payload through the on-disk cache."""
    from repro.runner import ResultCache, cmp_unit
    from repro.runner.cache import MISS
    from repro.runner.units import execute_unit

    with ctx.telemetry.profiler.time("setup"):
        unit = cmp_unit(("hmmer", "gcc"), "SC-MPKI", max_intervals=40,
                        record_history=True)
        payload = execute_unit(unit)
    rounds = ctx.size(150, 40)
    counters = ctx.telemetry.counters
    # One distinct unit per round, so every round publishes a new
    # entry; the payload is transport only and need not match it.
    units = [replace(unit, max_intervals=40 + i) for i in range(rounds)]
    with tempfile.TemporaryDirectory(prefix="mirage-bench-") as tmp:
        cache = ResultCache(Path(tmp))
        with ctx.telemetry.profiler.time("round-trips"):
            for each in units:
                cache.put(each, payload)
                back = cache.get(each)
                if back is MISS:
                    raise RuntimeError("cache round-trip lost the payload")
        counters.bump("cache.round_trips", rounds)
        counters.bump("cache.payload_bytes", len(json.dumps(
            back.speedups)))
        counters.bump("cache.stp_milli", round(back.stp * 1000))


@register(
    "service-roundtrip", tier="infra",
    description="Experiment service end to end: in-process server, "
                "one spawned worker, jobs submitted, streamed, then "
                "resubmitted as pure cache hits",
)
def bench_service_roundtrip(ctx: BenchContext) -> None:
    """Submission-to-result latency through the whole service stack.

    Spins up an :class:`~repro.service.server.ExperimentServer` (one
    worker process) against temp directories, pushes a batch of echo
    jobs through submit → dispatch → execute → stream, then resubmits
    the identical batch — which must come back entirely from the
    result cache.  The probe asserts both counts, so a dedup
    regression fails loudly here before it costs real compute.
    """
    from repro.config import CacheConfig, ServiceConfig
    from repro.service import ServerHandle, ServiceClient, SubmitRequest

    n_jobs = ctx.size(8, 3)
    with tempfile.TemporaryDirectory(prefix="mirage-bench-") as tmp:
        config = ServiceConfig(
            workers=1, service_dir=Path(tmp) / "svc",
            cache=CacheConfig(cache_dir=str(Path(tmp) / "cache"),
                              use_result_cache=True))
        with ctx.telemetry.profiler.time("serve"):
            handle = ServerHandle.start(config)
        try:
            client = ServiceClient(service_dir=config.service_dir)
            requests = [
                SubmitRequest(
                    target="repro.service.protocol:echo_unit",
                    kwargs=(("tag", f"bench-{i}"),))
                for i in range(n_jobs)
            ]
            with ctx.telemetry.profiler.time("submit-wait"):
                ids = [client.submit(r)["job"]["id"] for r in requests]
                for job_id in ids:
                    client.result(job_id, timeout=120)
            with ctx.telemetry.profiler.time("cached-resubmit"):
                for request in requests:
                    again = client.submit(request)["job"]
                    if again["state"] != "done":
                        client.result(again["id"], timeout=120)
            stats = client.health()["stats"]
        finally:
            handle.stop(drain=True)
    if stats["executions"] != n_jobs:
        raise RuntimeError(
            f"expected {n_jobs} executions, saw {stats['executions']}")
    if stats["cache_hits"] != n_jobs:
        raise RuntimeError(
            f"expected {n_jobs} cache hits, saw {stats['cache_hits']}")
    counters = ctx.telemetry.counters
    counters.bump("service.jobs", 2 * n_jobs)
    counters.bump("service.executions", stats["executions"])
    counters.bump("service.cache_hits", stats["cache_hits"])


@register(
    "sweep-makespan", tier="infra",
    description="LPT dispatch through the warm pool: a skewed unit "
                "batch longest-first vs submission order",
)
def bench_sweep_makespan(ctx: BenchContext) -> None:
    """FIFO vs longest-first dispatch of one deliberately skewed batch.

    The batch is several light units followed by one unit ~8x their
    cost — the worst case for submission-order dispatch, whose
    makespan ends on the late-starting heavy unit.  LPT starts the
    heavy unit first, so the light tail packs behind it.  The probe
    asserts the LPT permutation is the deterministic pure function
    of the cost hints it must be, and that both dispatch orders
    produce bit-identical (input-ordered) results.
    """
    from repro.runner.pool import PoolUnavailable, WarmPool, lpt_order
    from repro.runner.units import cmp_unit, execute_unit

    with ctx.telemetry.profiler.time("setup"):
        light_n = ctx.size(6, 4)
        base = ctx.size(60, 30)
        units = [cmp_unit(("bzip2", "astar"), "SC-MPKI",
                          max_intervals=base + i)
                 for i in range(light_n)]
        units.append(cmp_unit(("hmmer", "gcc", "mcf", "bzip2"),
                              "SC-MPKI", max_intervals=base * 8))
        costs = [float(unit.max_intervals * len(unit.benchmarks))
                 for unit in units]
    order = lpt_order(costs)
    if order[0] != len(units) - 1:
        raise RuntimeError("LPT did not dispatch the heavy unit first")
    if order != lpt_order(costs):
        raise RuntimeError("LPT ordering is nondeterministic")
    pool = None
    try:
        pool = WarmPool(2)
        with ctx.telemetry.profiler.time("fifo"):
            fifo = pool.map(execute_unit, units)
        with ctx.telemetry.profiler.time("lpt"):
            lpt = pool.map(execute_unit, units, costs=costs)
    except PoolUnavailable:
        with ctx.telemetry.profiler.time("fifo"):
            fifo = [execute_unit(unit) for unit in units]
        with ctx.telemetry.profiler.time("lpt"):
            lpt = [execute_unit(unit) for unit in units]
    finally:
        if pool is not None:
            pool.shutdown()
    if lpt != fifo:
        raise RuntimeError("LPT dispatch changed a sweep's results")
    counters = ctx.telemetry.counters
    counters.bump("pool.units", 2 * len(units))
    # The permutation itself, folded to one deterministic number.
    counters.bump("pool.lpt_order_key",
                  sum(i * position for i, position in enumerate(order)))
    for result in lpt:
        counters.bump("bench.stp_milli", round(result.stp * 1000))
