"""Synthetic benchmark generator.

Turns a :class:`~repro.workloads.profiles.BenchmarkProfile` into a
deterministic dynamic instruction stream with the loop/trace structure
schedule memoization feeds on:

* A benchmark is a cyclic sequence of **phases**; each phase owns its
  own loops, code region and data region, so a phase change both cools
  the caches and makes every memoized schedule stale (paper Figure 5).
* A **loop** has a fixed header at its base pc and ``variants`` distinct
  body shapes, each in its own pc range.  One iteration = header +
  chosen body + backward branch to the header, i.e. exactly one trace
  (~``body_len`` instructions, matching the paper's ~50).
* Iteration-to-iteration variability — body-variant switches, noisy
  internal branches, irregular memory latencies — is what makes a
  benchmark hard to memoize; the profile parameters control each knob.

Streams are infinite (loops restart; phases cycle), so callers decide
run length.  Two streams from the same benchmark object are identical:
all randomness derives from the benchmark seed.

A phase's loops are built the first time a stream reaches the phase,
always in phase order and from one build RNG kept on the object, so
the program is the same whichever stream, or how many, got there
first.  A window shorter than phase 0's budget builds phase 0 only.
"""

from __future__ import annotations

import random
import zlib
from collections.abc import Iterator
from dataclasses import dataclass

from repro.isa.instructions import FP_REG_BASE, Instruction, OpClass
from repro.workloads.profiles import BenchmarkProfile, get_profile

#: Integer registers reserved as loop-invariants / bases.
_INVARIANT_REGS = (1, 2, 3)
#: Destination registers cycle through this range (int ops).
_INT_DST = tuple(range(4, 24))
_FP_DST = tuple(range(FP_REG_BASE + 4, FP_REG_BASE + 28))
#: Registers holding loop-carried pointer-chase chains (linked lists).
_CHASE_REGS = (24, 25, 26, 27)
#: Registers carrying accumulator recurrences across loop iterations.
_INT_ACCUM = (28, 29, 30)
_FP_ACCUM = (FP_REG_BASE + 28, FP_REG_BASE + 29, FP_REG_BASE + 30)

#: Data-address regions are spaced this far apart per phase.
_PHASE_DATA_SPAN = 1 << 26
#: Default instructions in one full pass over all phases.
DEFAULT_PASS_LENGTH = 240_000


@dataclass(frozen=True, slots=True)
class _MemStream:
    """Address-stream descriptor; offsets live in the stream iterator.

    Keeping the descriptor immutable means every ``stream()`` call
    replays identical addresses (offset state is per-iteration, held in
    a dict local to the dynamic stream).
    """

    key: int             # unique id for per-stream offset bookkeeping
    base: int
    footprint: int
    stride: int          # 0 means random within the footprint

    def next_addr(self, rng: random.Random, offsets: dict[int, int]) -> int:
        if self.stride:
            offset = offsets.get(self.key, 0)
            offsets[self.key] = (offset + self.stride) % self.footprint
            return self.base + offset
        return self.base + rng.randrange(0, self.footprint, 8)


@dataclass(slots=True)
class _Template:
    """Static instruction template inside a loop body variant."""

    opclass: OpClass
    dst: int | None
    srcs: tuple[int, ...]
    stream_id: int | None = None      # memory ops: which _MemStream
    chase: bool = False               # load feeding from previous load
    base_taken: bool = False          # internal branches: sticky outcome
    skip: int = 0                     # instructions skipped when taken


@dataclass(slots=True)
class _Loop:
    base_pc: int
    header: list[_Template]
    variants: list[list[_Template]]
    variant_pcs: list[int]
    streams: list[_MemStream]
    mean_trip: int


@dataclass(slots=True)
class _Phase:
    index: int
    loops: list[_Loop]


class SyntheticBenchmark:
    """A deterministic synthetic program standing in for one SPEC run.

    Args:
        profile: benchmark profile (structure + calibration targets).
        seed: stream seed; same seed => identical stream.
        base_addr: start of this program's address space (lets several
            apps coexist in one shared L2 without aliasing).
        pass_length: dynamic instructions in one cycle through all
            phases; phase boundaries scale with ``phase_weights``.
    """

    def __init__(
        self,
        profile: BenchmarkProfile,
        *,
        seed: int = 0,
        base_addr: int | None = None,
        pass_length: int = DEFAULT_PASS_LENGTH,
    ):
        self.profile = profile
        self.seed = seed
        self.pass_length = pass_length
        name_hash = zlib.crc32(profile.name.encode())
        if base_addr is None:
            base_addr = (name_hash & 0xFF) << 30
        self.base_addr = base_addr
        self._stream_keys = 0
        #: Consumed phase by phase, in order, as :meth:`_phase` builds.
        self._build_rng = random.Random((seed << 16) ^ name_hash)
        self._phases: list[_Phase] = []
        total_w = sum(profile.phase_weights)
        self._phase_budgets = [
            max(1_000, int(pass_length * weight / total_w))
            for weight in profile.phase_weights
        ]

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.profile.name

    @property
    def phase_budgets(self) -> list[int]:
        """Instructions spent in each phase per pass."""
        return list(self._phase_budgets)

    def phase_at(self, instr_index: int) -> int:
        """Phase id active at dynamic instruction *instr_index*."""
        pos = instr_index % sum(self._phase_budgets)
        for i, budget in enumerate(self._phase_budgets):
            if pos < budget:
                return i
            pos -= budget
        return len(self._phase_budgets) - 1

    def _phase(self, index: int) -> _Phase:
        """Phase *index*, building it and every earlier phase if new."""
        phases = self._phases
        while len(phases) <= index:
            phases.append(self._build_phase(len(phases), self._build_rng))
        return phases[index]

    def _build_phase(self, index: int, rng: random.Random) -> _Phase:
        prof = self.profile
        code_base = 0x1000_0000 + index * (prof.code_kb * 1024 * 4)
        data_base = self.base_addr + index * _PHASE_DATA_SPAN
        loops = []
        for li in range(prof.loops_per_phase):
            loops.append(
                self._build_loop(
                    base_pc=code_base + li * 0x4000,
                    data_base=data_base + li * (_PHASE_DATA_SPAN // 8),
                    rng=rng,
                )
            )
        return _Phase(index=index, loops=loops)

    def _build_loop(self, base_pc: int, data_base: int,
                    rng: random.Random) -> _Loop:
        prof = self.profile
        streams: list[_MemStream] = []

        def new_stream() -> int:
            footprint = max(1024, prof.footprint_kb * 1024 // max(
                1, prof.loops_per_phase * 6))
            strided = rng.random() < prof.stride_frac
            self._stream_keys += 1
            streams.append(
                _MemStream(
                    key=self._stream_keys,
                    base=data_base + len(streams) * footprint,
                    footprint=footprint,
                    stride=(8 if rng.random() < 0.5 else 64) if strided else 0,
                )
            )
            return len(streams) - 1

        header = [
            _Template(OpClass.IALU, dst=_INVARIANT_REGS[0],
                      srcs=(_INVARIANT_REGS[0],)),           # induction
            _Template(OpClass.IALU, dst=None,
                      srcs=(_INVARIANT_REGS[0], _INVARIANT_REGS[1])),  # cmp
        ]
        variants = []
        for _ in range(max(1, prof.variants)):
            variants.append(self._build_body(rng, new_stream))
        variant_pcs = [
            base_pc + 0x400 * (v + 1) for v in range(len(variants))
        ]
        return _Loop(
            base_pc=base_pc,
            header=header,
            variants=variants,
            variant_pcs=variant_pcs,
            streams=streams,
            mean_trip=rng.randint(60, 400),
        )

    def _build_body(self, rng: random.Random, new_stream) -> list[_Template]:
        """One loop-body variant: a list of instruction templates."""
        prof = self.profile
        length = max(8, int(rng.gauss(prof.body_len, prof.body_len * 0.15)))
        body: list[_Template] = []
        load_streams: list[int] = []
        store_streams: list[int] = []
        branch_slots = set(
            rng.sample(range(2, max(3, length - 2)),
                       k=min(prof.internal_branches, max(1, length - 4)))
        )
        recent_dsts: list[int] = []
        last_load_dst: int | None = None
        dst_cursor = rng.randrange(len(_INT_DST))
        chase_cursor = 0
        for i in range(length):
            if i in branch_slots:
                body.append(
                    _Template(
                        OpClass.BRANCH, dst=None,
                        srcs=(self._pick_src(rng, recent_dsts),),
                        base_taken=rng.random() < 0.2,
                        skip=rng.randint(2, 4),
                    )
                )
                continue
            r = rng.random()
            if r < prof.mem_frac:
                is_store = rng.random() < prof.store_frac
                if is_store:
                    # Stores mostly write their own streams; a small
                    # crossover onto load streams keeps store->load
                    # aliasing (and OinO replay-LSQ aborts) alive.
                    if load_streams and rng.random() < 0.05:
                        sid = rng.choice(load_streams)
                    else:
                        sid = self._pool_stream(rng, store_streams,
                                                new_stream)
                    body.append(
                        _Template(
                            OpClass.STORE, dst=None,
                            srcs=(self._pick_src(rng, recent_dsts),),
                            stream_id=sid,
                        )
                    )
                elif rng.random() < prof.pointer_chase_frac:
                    # Loop-carried pointer chase: ptr = load(ptr).  The
                    # chain threads through every iteration; how many
                    # parallel chains exist bounds the MLP an OoO can
                    # extract (mcf has several, astar essentially one).
                    ptr = _CHASE_REGS[
                        chase_cursor % min(prof.chase_chains,
                                           len(_CHASE_REGS))
                    ]
                    chase_cursor += 1
                    body.append(
                        _Template(
                            OpClass.LOAD, dst=ptr, srcs=(ptr,),
                            stream_id=self._pool_stream(rng, load_streams,
                                                        new_stream),
                            chase=True,
                        )
                    )
                    recent_dsts.append(ptr)
                else:
                    dst = _INT_DST[dst_cursor % len(_INT_DST)]
                    dst_cursor += 1
                    body.append(
                        _Template(
                            OpClass.LOAD, dst=dst,
                            srcs=(self._pick_src(rng, recent_dsts),),
                            stream_id=self._pool_stream(rng, load_streams,
                                                        new_stream),
                        )
                    )
                    last_load_dst = dst
                    recent_dsts.append(dst)
            else:
                use_fp = rng.random() < prof.fp_frac
                if rng.random() < prof.longop_frac:
                    opclass = OpClass.FMUL if use_fp else OpClass.IMUL
                    if rng.random() < 0.15:
                        opclass = OpClass.FDIV if use_fp else OpClass.IDIV
                else:
                    opclass = OpClass.FALU if use_fp else OpClass.IALU
                if rng.random() < prof.loop_carried_frac:
                    # Accumulator update: a loop-carried recurrence that
                    # bounds cross-iteration overlap on the OoO.
                    accum_pool = _FP_ACCUM if use_fp else _INT_ACCUM
                    acc = accum_pool[
                        rng.randrange(min(prof.accum_chains,
                                          len(accum_pool)))
                    ]
                    body.append(_Template(
                        opclass, dst=acc,
                        srcs=(acc, self._pick_src(rng, recent_dsts)),
                    ))
                    continue
                pool = _FP_DST if use_fp else _INT_DST
                dst = pool[dst_cursor % len(pool)]
                dst_cursor += 1
                srcs = (
                    self._pick_src(rng, recent_dsts),
                    self._pick_src(rng, recent_dsts),
                )
                body.append(_Template(opclass, dst=dst, srcs=srcs))
                recent_dsts.append(dst)
            if len(recent_dsts) > 16:
                recent_dsts.pop(0)
        return body

    def _pick_src(self, rng: random.Random, recent: list[int]) -> int:
        """Chain to a recent destination with ``chain_frac`` probability.

        ``use_distance`` controls how far back the consumer reaches:
        distance 1-2 puts consumers right behind producers (an in-order
        core stalls on every latency), larger distances model code the
        compiler already scheduled (stalls hidden even in order).
        """
        if recent and rng.random() < self.profile.chain_frac:
            reach = int(rng.random() * self.profile.use_distance) + 1
            idx = max(0, len(recent) - reach)
            return recent[idx]
        return rng.choice(_INVARIANT_REGS)

    @staticmethod
    def _pool_stream(rng: random.Random, pool: list[int],
                     new_stream) -> int:
        """Reuse a stream from *pool* (60 %) or allocate a new one."""
        if pool and rng.random() < 0.6:
            return rng.choice(pool)
        sid = new_stream()
        pool.append(sid)
        return sid

    # ------------------------------------------------------------------
    # dynamic stream
    # ------------------------------------------------------------------
    def stream(self) -> Iterator[Instruction]:
        """Yield the dynamic instruction stream from the beginning."""
        rng = random.Random(self.seed ^ 0x5EED_CAFE)
        offsets: dict[int, int] = {}
        seq = 0
        while True:
            for index, budget in enumerate(self._phase_budgets):
                phase = self._phase(index)
                emitted = 0
                loop_idx = 0
                while emitted < budget:
                    loop = phase.loops[loop_idx % len(phase.loops)]
                    trip = max(8, int(rng.expovariate(1.0 / loop.mean_trip)))
                    for insn in self._run_loop(loop, rng, trip, seq, offsets):
                        yield insn
                        seq += 1
                        emitted += 1
                    loop_idx += 1

    def _run_loop(self, loop: _Loop, rng: random.Random, trips: int,
                  seq: int, offsets: dict[int, int]) -> Iterator[Instruction]:
        # Instructions are built positionally (seq, pc, opclass, dst,
        # srcs, mem_addr, is_branch, taken, target): one per dynamic
        # instruction, and a keyword call costs about twice as much.
        prof = self.profile
        variant = 0
        iteration = 0
        for trip in range(trips):
            if prof.variants > 1 and rng.random() < prof.variant_switch_prob:
                variant = rng.randrange(len(loop.variants))
            body = loop.variants[variant]
            body_pc = loop.variant_pcs[variant]
            # Header (at the loop base pc).
            pc = loop.base_pc
            for tmpl in loop.header:
                yield Instruction(seq, pc, tmpl.opclass, tmpl.dst, tmpl.srcs)
                seq += 1
                pc += 4
            # Variant-select branch: taken into the variant body.
            yield Instruction(seq, pc, OpClass.BRANCH, None, (), None,
                              True, True, body_pc)
            seq += 1
            # Body.
            pc = body_pc
            idx = 0
            while idx < len(body):
                tmpl = body[idx]
                if tmpl.opclass is OpClass.BRANCH:
                    taken = tmpl.base_taken
                    if rng.random() < prof.branch_noise:
                        taken = not taken
                    skip = min(tmpl.skip, len(body) - idx - 1)
                    yield Instruction(seq, pc, OpClass.BRANCH, None,
                                      tmpl.srcs, None, True, taken,
                                      pc + 4 * (skip + 1))
                    seq += 1
                    if taken:
                        # Skip the guarded instructions.
                        idx += skip + 1
                        pc += 4 * (skip + 1)
                        continue
                    idx += 1
                    pc += 4
                    continue
                addr = None
                if tmpl.stream_id is not None:
                    addr = loop.streams[tmpl.stream_id].next_addr(
                        rng, offsets)
                yield Instruction(seq, pc, tmpl.opclass, tmpl.dst,
                                  tmpl.srcs, addr)
                seq += 1
                pc += 4
                idx += 1
            # Backward branch to the loop header; falls through on exit.
            last = trip == trips - 1
            yield Instruction(seq, pc, OpClass.BRANCH, None, (), None,
                              True, not last, loop.base_pc)
            seq += 1
            iteration += 1


def make_benchmark(name: str, *, seed: int = 0,
                   pass_length: int = DEFAULT_PASS_LENGTH,
                   base_addr: int | None = None) -> SyntheticBenchmark:
    """Construct the synthetic stand-in for SPEC benchmark *name*."""
    return SyntheticBenchmark(
        get_profile(name), seed=seed, pass_length=pass_length,
        base_addr=base_addr,
    )
