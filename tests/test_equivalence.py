"""Randomized equivalence of the simulator's fast paths.

:class:`~repro.engine.backends.AnalyticBackend` advances every
interval through a fused ``advance_all`` kernel, and SC-MPKI, maxSTP
and SC-MPKI+maxSTP arbitrate through ``pick_batch`` fast paths that
read the live ``AppState`` records.  All must be *bit-identical* to
the reference surfaces they accelerate: the per-application
``advance`` loop of
:meth:`~repro.engine.backends.ExecutionBackend.advance_all`, and
``pick`` over the materialized view list — whole runs against a
reference side that bypasses every fast path, and single picks over
random counter states with forced ties and threshold values.  The
detailed-core measurements (``table1``, ``fig1``, ``fig2`` and the
oracle trio they share) generate one instruction window and hand it
to every core; they must match giving each core its own freshly
generated stream.  The caches keep lines as int words in sets built
on first touch, and a benchmark builds each phase when a stream first
reaches it; each must behave, call by call, like a reference that
keeps one object per cache line, or builds every phase up front.  The
caches are compared on what they report (return values, stats,
residency of every line in the address pool), over random 400-call
sequences.  The warm worker pool must be a pure transport: random
work-unit batches (interval-tier runs, cycle-tier measurements, plain
call units) and random multi-cluster scenarios give the same results
pooled as serially.  These tests run whole
simulations both ways and compare every field of the results exactly
— no tolerances.
"""

import dataclasses
import random
import zlib
from itertools import islice
from types import MethodType

import pytest
from hypothesis import given, settings, strategies as st

from repro.arbiter import Arbitrator, SCMPKIArbitrator
from repro.arbiter.software import SoftwareArbitrator
from repro.characterize import analytic_model, run_core_trio
from repro.cluster.dynamic import run_scenario
from repro.cluster.scheduler import POLICIES as PLACEMENTS
from repro.cmp import ClusterConfig
from repro.cmp.system import CMPSystem
from repro.cores import InOrderCore, OinOCore, OutOfOrderCore
from repro.energy import CoreEnergyModel, core_area
from repro.engine import AnalyticBackend, AppState, ExecutionBackend
from repro.engine.views import AppViewBatch, interval_tier_views
from repro.experiments import fig1_core_characteristics as fig1
from repro.experiments import fig2_memoization as fig2
from repro.experiments import table1
from repro.memory import Cache, CacheConfig, CacheStats, MemoryHierarchy
from repro.runner import WarmPool
from repro.runner.units import ARBITRATORS, call_unit, cmp_unit, execute_unit
from repro.schedule import ScheduleCache, ScheduleRecorder
from repro.workloads import ALL_BENCHMARKS, get_profile, make_benchmark
from repro.workloads.generator import SyntheticBenchmark
from repro.workloads.scenario import SHAPES, make_scenario


class ReferenceBackend(AnalyticBackend):
    """The analytic tier advanced one ``advance`` call per app."""

    advance_all = ExecutionBackend.advance_all


#: Every arbitrator family, the software wrapper included.
POLICIES = {
    **ARBITRATORS,
    "software": lambda: SoftwareArbitrator(SCMPKIArbitrator(),
                                           reaction_intervals=4),
}


def reference_arbitrator(policy):
    """*policy*'s arbitrator picking through ``pick(views)``: its
    ``pick_batch`` is the base class's, so no fast path runs."""
    arbitrator = POLICIES[policy]()
    arbitrator.pick_batch = MethodType(Arbitrator.pick_batch, arbitrator)
    return arbitrator


def run_pair(names, *, policy="SC-MPKI", n_producers=1, mirage=True,
             max_intervals=200):
    """``(shipped, reference)`` results of one configuration."""
    models = [analytic_model(name) for name in names]
    config = ClusterConfig(n_consumers=len(names),
                           n_producers=n_producers, mirage=mirage)
    shipped = CMPSystem(config, models, POLICIES[policy]())
    reference = CMPSystem(config, models, reference_arbitrator(policy))
    reference.backend = reference.engine.backend = ReferenceBackend(
        reference.migration)
    return (dataclasses.asdict(shipped.run(max_intervals=max_intervals)),
            dataclasses.asdict(reference.run(max_intervals=max_intervals)))


@settings(max_examples=300, deadline=None)
@given(
    names=st.lists(st.sampled_from(ALL_BENCHMARKS), min_size=1,
                   max_size=48),
    n_producers=st.integers(1, 3),
    policy=st.sampled_from(sorted(POLICIES)),
    mirage=st.booleans(),
    max_intervals=st.integers(50, 600),
)
def test_shipped_paths_match_reference(names, n_producers, policy,
                                       mirage, max_intervals):
    shipped, reference = run_pair(
        names, policy=policy, n_producers=n_producers, mirage=mirage,
        max_intervals=max_intervals)
    assert shipped == reference


# -- arbitration: every pick_batch fast path against pick(views) -------
#: The arbitrators with their own ``pick_batch``.
FAST_PATHS = ("SC-MPKI", "maxSTP", "SC-MPKI+maxSTP")

#: Counter values drawn from a small pool (forcing ties) or at random.
COUNTER = (st.sampled_from([0.0, 0.05, 0.1, 0.5, 1.0, 2.0])
           | st.floats(0.0, 8.0))

APP_STATES = st.builds(
    AppState,
    model=st.just(analytic_model("bzip2")),
    on_ooo=st.booleans(),
    ipc_last=COUNTER,
    ipc_ooo_last=st.none() | st.just(0.0) | COUNTER,
    sc_mpki_ino_last=st.just(0.0) | COUNTER,
    sc_mpki_ooo_last=st.none() | COUNTER,
    # Either side of maxSTP's sample period (50) and SC-MPKI's
    # starvation limit (200), the never-sampled default, or random.
    intervals_since_ooo=st.sampled_from(
        [0, 1, 49, 50, 51, 199, 200, 201, 10**9]) | st.integers(0, 300),
    t_ooo=COUNTER,
    t_memoized=COUNTER,
    t_total=COUNTER,
)


@settings(max_examples=600, deadline=None)
@given(
    policy=st.sampled_from(FAST_PATHS),
    states=st.lists(APP_STATES, min_size=1, max_size=16),
    slots=st.integers(1, 3),
)
def test_pick_batch_matches_pick(policy, states, slots):
    arbitrator = ARBITRATORS[policy]()
    assert (arbitrator.pick_batch(AppViewBatch(states), interval_index=0,
                                  slots=slots)
            == arbitrator.pick(interval_tier_views(states),
                               interval_index=0, slots=slots))


class TestRandomizedEquivalence:
    """Seeded mixes that replay the same draw on every run."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_mix_bit_identical(self, seed):
        rng = random.Random(seed)
        width = rng.randint(2, 12)
        names = rng.choices(ALL_BENCHMARKS, k=width)
        n_producers = rng.randint(1, min(3, width))
        policy = rng.choice(["SC-MPKI", "maxSTP", "Fair"])
        shipped, reference = run_pair(names, policy=policy,
                                      n_producers=n_producers)
        assert shipped == reference


class TestFixedCases:
    """Named shapes the random draws may not reach."""

    def test_run_to_completion_bit_identical(self):
        # No interval cap: completions, restarts and the energy
        # stop-billing edge all behave identically.
        shipped, reference = run_pair(["bzip2", "astar", "hmmer", "namd"],
                                      max_intervals=50_000)
        assert shipped["intervals"] < 50_000
        assert shipped == reference

    def test_wide_cluster_bit_identical(self):
        names = [ALL_BENCHMARKS[i % len(ALL_BENCHMARKS)]
                 for i in range(48)]
        shipped, reference = run_pair(names, n_producers=3,
                                      max_intervals=120)
        assert shipped == reference


# -- detailed-core measurements: a fresh stream per core -----------------
def reference_ratio(name, *, instructions, seed):
    """``table1.measure_ratio`` with each core's own stream."""
    bench = make_benchmark(name, seed=seed)
    r_ooo = OutOfOrderCore(MemoryHierarchy().core_view(0)).run(
        bench.stream(), instructions)
    r_ino = InOrderCore(MemoryHierarchy().core_view(1)).run(
        bench.stream(), instructions)
    return r_ino.ipc / max(1e-9, r_ooo.ipc)


def reference_fig1(name, *, instructions, seed):
    """``fig1.measure`` with each core's own stream."""
    bench = make_benchmark(name, seed=seed)
    em = CoreEnergyModel()
    r_ooo = OutOfOrderCore(MemoryHierarchy().core_view(0)).run(
        bench.stream(), instructions)
    r_ino = InOrderCore(MemoryHierarchy().core_view(1)).run(
        bench.stream(), instructions)
    e_ooo = em.breakdown("ooo", r_ooo.energy_events, r_ooo.cycles)
    e_ino = em.breakdown("ino", r_ino.energy_events, r_ino.cycles)
    return {
        "benchmark": name,
        "category": get_profile(name).category,
        "performance": r_ino.ipc / max(1e-9, r_ooo.ipc),
        "power": (e_ino.power_pw_per_cycle(r_ino.cycles)
                  / max(1e-9, e_ooo.power_pw_per_cycle(r_ooo.cycles))),
        "energy": e_ino.total_pj / max(1e-9, e_ooo.total_pj),
        "area": core_area("ino") / core_area("ooo"),
    }


def reference_trio(name, *, instructions, seed):
    """``run_core_trio`` with each core's own stream: ``(OoO, InO,
    OinO, Schedule Cache)``."""
    bench = make_benchmark(name, seed=seed)
    sc = ScheduleCache(None)
    recorder = ScheduleRecorder(sc)
    r_ooo = OutOfOrderCore(
        MemoryHierarchy().core_view(0), recorder=recorder
    ).run(bench.stream(), instructions)
    r_ino = InOrderCore(MemoryHierarchy().core_view(1)).run(
        bench.stream(), instructions)
    r_oino = OinOCore(MemoryHierarchy().core_view(2), sc).run(
        bench.stream(), instructions)
    return r_ooo, r_ino, r_oino, sc


def reference_fig2(name, *, instructions, seed):
    """``fig2.measure`` with each core's own stream."""
    r_ooo, r_ino, r_oino, _sc = reference_trio(
        name, instructions=instructions, seed=seed)
    return {
        "benchmark": name,
        "category": get_profile(name).category,
        "memoized_fraction": r_oino.stats.memoized_fraction,
        "perf_plain_ino": r_ino.ipc / max(1e-9, r_ooo.ipc),
        "perf_with_memoization": r_oino.ipc / max(1e-9, r_ooo.ipc),
        "trace_aborts": r_oino.stats.trace_aborts,
        "traces": r_oino.stats.traces,
    }


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(ALL_BENCHMARKS),
    seed=st.integers(0, 2**16),
    instructions=st.integers(100, 4_000),
)
def test_shared_window_matches_fresh_streams(name, seed, instructions):
    # Sharing is sound only while no core reads back what another core
    # wrote into an Instruction; any such coupling shows up here.
    kwargs = {"instructions": instructions, "seed": seed}
    ratio = table1.measure_ratio(name, **kwargs)
    fig1_row = fig1.measure(name, **kwargs)
    assert ratio == reference_ratio(name, **kwargs)
    assert fig1_row == reference_fig1(name, **kwargs)
    assert fig2.measure(name, **kwargs) == reference_fig2(name, **kwargs)
    # Table 1 reads its ratios from Figure 1's units; the call target
    # it used to map must keep measuring the same number.
    assert ratio == fig1_row["performance"]
    # The trio itself, field by field: every core's stats, its energy
    # events in key order (the order is part of every energy float),
    # and what the OoO recorded for the OinO to replay.
    trio = run_core_trio(
        islice(make_benchmark(name, seed=seed).stream(), instructions))
    *fresh, fresh_sc = reference_trio(name, **kwargs)
    for shared, own in zip(trio[:3], fresh, strict=True):
        assert repr(shared.stats) == repr(own.stats)
        assert (list(shared.energy_events.items())
                == list(own.energy_events.items()))

    def schedules(sc):
        return sorted(sc.contents(),
                      key=lambda s: (s.start_pc, s.path_hash))

    assert schedules(trio.sc) == schedules(fresh_sc)


# -- memory and program state: compact against object-per-item ---------
@dataclasses.dataclass(slots=True)
class _RefLine:
    tag: int
    dirty: bool = False
    last_use: int = 0


class ReferenceCache:
    """Reference cache: one ``_RefLine`` per resident line, and every
    set's dict built up front."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self.stats = CacheStats()
        self._sets = [{} for _ in range(config.num_sets)]
        self._clock = 0
        self._set_shift = (config.line_bytes - 1).bit_length()
        self._set_mask = config.num_sets - 1

    def _locate(self, addr):
        block = addr >> self._set_shift
        return block & self._set_mask, block

    def access(self, addr, *, write=False):
        self._clock += 1
        self.stats.accesses += 1
        set_idx, tag = self._locate(addr)
        lines = self._sets[set_idx]
        line = lines.get(tag)
        if line is not None:
            line.last_use = self._clock
            if write:
                line.dirty = True
            return True
        self.stats.misses += 1
        self._fill(lines, tag, write)
        return False

    def probe(self, addr):
        set_idx, tag = self._locate(addr)
        return tag in self._sets[set_idx]

    def fill(self, addr):
        self._clock += 1
        set_idx, tag = self._locate(addr)
        lines = self._sets[set_idx]
        if tag not in lines:
            self._fill(lines, tag, write=False)

    def _fill(self, lines, tag, write):
        if len(lines) >= self.config.assoc:
            victim = min(lines.values(), key=lambda line: line.last_use)
            lines.pop(victim.tag)
            if victim.dirty:
                self.stats.writebacks += 1
        lines[tag] = _RefLine(tag=tag, dirty=write, last_use=self._clock)

    def invalidate(self, addr):
        set_idx, tag = self._locate(addr)
        line = self._sets[set_idx].pop(tag, None)
        return bool(line and line.dirty)

    def flush(self):
        dirty = 0
        for lines in self._sets:
            dirty += sum(1 for line in lines.values() if line.dirty)
            lines.clear()
        self.stats.writebacks += dirty
        return dirty

    @property
    def resident_lines(self):
        return sum(len(lines) for lines in self._sets)

    @property
    def capacity_lines(self):
        return self.config.num_sets * self.config.assoc


#: Cache calls, weighted so evictions happen between the rarer flushes.
CACHE_CALLS = (("read",) * 8 + ("write",) * 6 + ("fill",) * 4
               + ("probe",) * 2 + ("invalidate",) * 2 + ("flush",))
#: Calls per sequence: long enough that a line is filled, hit, evicted
#: and refilled many times over, so a wrong victim or a lost dirty bit
#: shows in what the cache reports, not only in its internals.
SEQUENCE = 400


@settings(max_examples=60, deadline=None)
@given(
    assoc=st.integers(1, 8),
    n_sets=st.sampled_from([1, 2, 4, 8, 16, 32]),
    seed=st.integers(0, 2**32 - 1),
)
def test_cache_matches_object_per_line_reference(assoc, n_sets, seed):
    config = CacheConfig(n_sets * assoc * 64, assoc, 64)
    shipped, reference = Cache(config), ReferenceCache(config)
    # Twice the capacity in distinct lines: sets conflict and evict.
    pool = 2 * n_sets * assoc + 1
    lines = range(0, pool * 64, 64)
    rng = random.Random(seed)
    for call in rng.choices(CACHE_CALLS, k=SEQUENCE):
        draw = rng.randrange(2**16)
        addr = (draw % pool) * 64 + draw % 64
        if call == "flush":
            assert shipped.flush() == reference.flush()
        elif call in ("read", "write"):
            write = call == "write"
            assert (shipped.access(addr, write=write)
                    == reference.access(addr, write=write))
        else:
            assert (getattr(shipped, call)(addr)
                    == getattr(reference, call)(addr))
        assert shipped.stats == reference.stats
        assert shipped.resident_lines == reference.resident_lines
        assert ([shipped.probe(line) for line in lines]
                == [reference.probe(line) for line in lines])
    assert shipped.capacity_lines == reference.capacity_lines


class EagerBenchmark(SyntheticBenchmark):
    """Reference program: every phase built at construction, in order
    from the build RNG, with the budgets summed over the built phases."""

    def __init__(self, profile, *, seed, pass_length):
        super().__init__(profile, seed=seed, pass_length=pass_length)
        rng = random.Random((seed << 16) ^ zlib.crc32(profile.name.encode()))
        self._stream_keys = 0
        self._phases = [self._build_phase(i, rng)
                        for i in range(profile.phase_count)]
        weights = [profile.phase_weights[p.index] for p in self._phases]
        total_w = sum(weights)
        self._phase_budgets = [max(1_000, int(pass_length * w / total_w))
                               for w in weights]


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(ALL_BENCHMARKS),
    seed=st.integers(0, 2**16),
    pass_length=st.integers(2_000, 8_000),
    chunks=st.lists(st.integers(1, 2_000), min_size=1, max_size=8),
)
def test_phases_built_on_first_use_match_eager_build(name, seed,
                                                     pass_length, chunks):
    # Short passes: the windows cross phases and whole passes.  Two
    # interleaved streams of one object, in turn, must see one program.
    profile = get_profile(name)
    n = sum(chunks)
    eager = EagerBenchmark(profile, seed=seed, pass_length=pass_length)
    expected = list(islice(eager.stream(), n))
    bench = SyntheticBenchmark(profile, seed=seed, pass_length=pass_length)
    assert bench.phase_budgets == eager.phase_budgets
    streams = (bench.stream(), bench.stream())
    seen = ([], [])
    for turn, size in enumerate(chunks):
        seen[turn % 2].extend(islice(streams[turn % 2], size))
    for stream, got in zip(streams, seen):
        got.extend(islice(stream, n - len(got)))
        assert got == expected


# -- the warm pool: pooled maps and scenarios match serial execution ----
@pytest.fixture(scope="module")
def pool():
    warm = WarmPool(2)
    yield warm
    warm.shutdown()


#: Cycle-tier measurements: detailed cores, memory and Schedule Cache.
CYCLE_TARGETS = ("repro.experiments.table1:measure_ratio",
                 "repro.experiments.fig2_memoization:measure")

#: Short arbitrated cluster runs, short cycle-tier measurements and
#: JSON-pure call units.
UNITS = st.one_of(
    st.builds(
        lambda names, policy, intervals, history: cmp_unit(
            names, policy, max_intervals=intervals,
            record_history=history),
        st.lists(st.sampled_from(ALL_BENCHMARKS), min_size=1, max_size=6),
        st.sampled_from(sorted(ARBITRATORS)),
        st.integers(5, 40),
        st.booleans()),
    st.builds(
        lambda target, name, instructions, seed: call_unit(
            target, name, instructions=instructions, seed=seed),
        st.sampled_from(CYCLE_TARGETS),
        st.sampled_from(ALL_BENCHMARKS),
        st.integers(500, 3_000),
        st.integers(0, 2**16)),
    st.builds(
        lambda value, tag: call_unit("repro.service.protocol:echo_unit",
                                     value=value, tag=tag),
        st.integers() | st.lists(st.integers(), max_size=4),
        st.text(max_size=6)),
)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pooled_map_matches_serial(pool, data):
    # Up to 40 units over 2 workers: wide draws chunk.
    units = data.draw(st.lists(UNITS, max_size=40), label="units")
    assert (pool.map(execute_unit, units)
            == [execute_unit(unit) for unit in units])


@settings(max_examples=25, deadline=None)
@given(
    shape=st.sampled_from(SHAPES),
    n_apps=st.integers(2, 16),
    duration=st.integers(4, 60),
    seed=st.integers(0, 2**16),
    n_clusters=st.integers(2, 4),
    capacity=st.integers(1, 6),
    placement=st.sampled_from(sorted(PLACEMENTS)),
    arbitrator=st.sampled_from(sorted(ARBITRATORS)),
)
def test_pooled_scenario_matches_serial(shape, n_apps, duration, seed,
                                        n_clusters, capacity, placement,
                                        arbitrator):
    scenario = make_scenario(shape, n_apps=n_apps, duration=duration,
                             seed=seed)
    kwargs = dict(n_clusters=n_clusters, capacity=capacity,
                  policy=placement, arbitrator=arbitrator)
    assert (run_scenario(scenario, jobs=2, **kwargs)
            == run_scenario(scenario, jobs=None, **kwargs))
