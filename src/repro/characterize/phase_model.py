"""Phase profiles and the two ways of obtaining them."""

from __future__ import annotations

import random
import zlib
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

from repro.cores import CoreResult, InOrderCore, OinOCore, OutOfOrderCore
from repro.isa import Instruction
from repro.memory import MemoryHierarchy
from repro.schedule import ScheduleCache, ScheduleRecorder
from repro.workloads.generator import SyntheticBenchmark
from repro.workloads.profiles import get_profile

#: Efficiency of replaying a memoized schedule on the OinO relative to
#: native OoO execution of the same trace (paper: "up to 90 %").
OINO_REPLAY_EFFICIENCY = 0.92

#: Average dynamic trace length (instructions); traces per kilo-instr
#: follows, which converts uncovered fractions into SC-MPKI.
MEAN_TRACE_LEN = 50.0
TRACES_PER_KILO_INSTR = 1000.0 / MEAN_TRACE_LEN


@dataclass(frozen=True, slots=True)
class PhaseProfile:
    """Interval-simulation inputs for one execution phase."""

    phase_id: int
    weight: float            #: fraction of the pass spent in this phase
    ipc_ooo: float
    ipc_ino: float
    memoizable: float        #: oracle memoizable instruction fraction
    volatility: float        #: per-interval SC staleness probability
    trace_kb: float          #: schedule working set (vs the 8 KB SC)

    @property
    def sc_mpki_ooo(self) -> float:
        """SC-MPKI the producer measures while memoizing this phase.

        Non-memoizable traces keep missing in the SC even on the OoO;
        this is the arbitrator's intrinsic-memoizability signal.
        """
        return (1.0 - self.memoizable) * TRACES_PER_KILO_INSTR

    def sc_mpki_ino(self, coverage: float) -> float:
        """SC-MPKI on the consumer given current SC coverage [0..1]."""
        covered = self.memoizable * coverage
        return (1.0 - covered) * TRACES_PER_KILO_INSTR

    def ipc_oino(self, coverage: float) -> float:
        """OinO-mode IPC given the fraction of memoizable traces that
        are present and fresh in the SC."""
        covered = self.memoizable * coverage
        return (
            covered * OINO_REPLAY_EFFICIENCY * self.ipc_ooo
            + (1.0 - covered) * self.ipc_ino
        )


@dataclass(frozen=True, slots=True)
class AppModel:
    """A benchmark as the interval-level CMP simulator sees it."""

    name: str
    category: str
    phases: tuple[PhaseProfile, ...]
    pass_instructions: int   #: dynamic instructions in one phase cycle

    def phase_at(self, instr_index: float) -> PhaseProfile:
        """Phase active at the given dynamic instruction index."""
        pos = instr_index % self.pass_instructions
        for phase in self.phases:
            span = phase.weight * self.pass_instructions
            if pos < span:
                return phase
            pos -= span
        return self.phases[-1]

    @property
    def mean_ipc_ooo(self) -> float:
        """Phase-weight-averaged IPC on the out-of-order core."""
        return sum(p.ipc_ooo * p.weight for p in self.phases)

    @property
    def mean_ipc_ino(self) -> float:
        """Phase-weight-averaged IPC on the in-order core."""
        return sum(p.ipc_ino * p.weight for p in self.phases)


def _jitter(name: str, phase: int, salt: str) -> float:
    """Deterministic uniform [0,1) noise per (benchmark, phase)."""
    seed = zlib.crc32(f"{name}/{phase}/{salt}".encode())
    return random.Random(seed).random()


def analytic_model(
    name: str,
    *,
    pass_instructions: int = 3_000_000,
) -> AppModel:
    """Derive an AppModel from the paper-calibrated profile targets.

    Per-phase values jitter deterministically around the benchmark
    targets so that phase changes are visible to the arbitrator (the
    bzip2 timeline of Figure 5 depends on this).
    """
    prof = get_profile(name)
    total_w = sum(prof.phase_weights)
    phases = []
    for i in range(prof.phase_count):
        u_ipc = _jitter(name, i, "ipc")
        u_ratio = _jitter(name, i, "ratio")
        u_memo = _jitter(name, i, "memo")
        u_ws = _jitter(name, i, "ws")
        ipc_ooo = prof.target_ipc_ooo * (0.80 + 0.40 * u_ipc)
        ratio = prof.target_ipc_ratio * (0.92 + 0.16 * u_ratio)
        memoizable = min(0.98, max(
            0.0, prof.target_memoizable * (0.85 + 0.30 * u_memo)))
        # Schedule working set: more variants and bigger bodies mean
        # more schedule bytes competing for the 8 KB SC.
        trace_kb = (
            prof.loops_per_phase * prof.variants
            * prof.body_len * 4.3 / 1024.0
        ) * (0.8 + 0.8 * u_ws)
        phases.append(PhaseProfile(
            phase_id=i,
            weight=prof.phase_weights[i] / total_w,
            ipc_ooo=ipc_ooo,
            ipc_ino=ipc_ooo * min(0.99, ratio),
            memoizable=memoizable,
            volatility=prof.schedule_volatility,
            trace_kb=trace_kb,
        ))
    return AppModel(
        name=name,
        category=prof.category,
        phases=tuple(phases),
        pass_instructions=pass_instructions,
    )


def run_core_pair(
        window: Iterable[Instruction]) -> tuple[CoreResult, CoreResult]:
    """(OoO, InO) results for one instruction window on the detailed
    cores, each on a fresh hierarchy (views 0 and 1).

    The InO:OoO IPC ratio of this pair is Table 1's classification
    and Figure 1's performance.
    """
    # The stream is deterministic: build the window once for both cores.
    window = list(window)
    n = len(window)
    return (
        OutOfOrderCore(MemoryHierarchy().core_view(0)).run(iter(window), n),
        InOrderCore(MemoryHierarchy().core_view(1)).run(iter(window), n),
    )


class CoreTrio(NamedTuple):
    """The oracle trio on one window (see :func:`run_core_trio`)."""

    ooo: CoreResult
    ino: CoreResult
    oino: CoreResult
    sc: ScheduleCache        #: what the OoO recorded, the OinO replayed


def run_core_trio(window: Iterable[Instruction]) -> CoreTrio:
    """The paper's oracle condition on one instruction window.

    The OoO runs first, recording into an infinite Schedule Cache,
    then the InO, then the OinO replaying that cache; each core runs
    on a fresh hierarchy (views 0, 1 and 2).
    """
    window = list(window)
    n = len(window)
    sc = ScheduleCache(None)
    ooo = OutOfOrderCore(MemoryHierarchy().core_view(0),
                         recorder=ScheduleRecorder(sc)).run(iter(window), n)
    ino = InOrderCore(MemoryHierarchy().core_view(1)).run(iter(window), n)
    oino = OinOCore(MemoryHierarchy().core_view(2), sc).run(iter(window), n)
    return CoreTrio(ooo, ino, oino, sc)


def measure_model(
    name: str,
    *,
    seed: int = 1,
    instructions_per_phase: int = 30_000,
) -> AppModel:
    """Derive an AppModel by running the detailed cores phase by phase.

    Slower but grounded in the cycle-level tier: the synthetic
    benchmark's first ``instructions_per_phase`` instructions of each
    phase run on the oracle trio (:func:`run_core_trio`), and the
    measured IPCs/memoized fractions become the phase profile.
    """
    prof = get_profile(name)
    bench = SyntheticBenchmark(prof, seed=seed)
    budgets = bench.phase_budgets
    total = sum(budgets)
    phases = []
    stream = bench.stream()
    for i, budget in enumerate(budgets):
        run_len = min(budget, instructions_per_phase)
        # Fresh hardware per phase: phase boundaries cool everything.
        trio = run_core_trio(islice(stream, run_len))
        for _ in range(budget - run_len):   # skip the phase remainder
            next(stream)
        trace_bytes = sum(s.storage_bytes for s in trio.sc.contents())
        phases.append(PhaseProfile(
            phase_id=i,
            weight=budget / total,
            ipc_ooo=trio.ooo.ipc,
            ipc_ino=min(trio.ino.ipc, trio.ooo.ipc * 0.99),
            memoizable=trio.oino.stats.memoized_fraction,
            volatility=prof.schedule_volatility,
            trace_kb=max(0.25, trace_bytes / 1024.0),
        ))
    return AppModel(
        name=name,
        category=prof.category,
        phases=tuple(phases),
        pass_instructions=total,
    )
