"""Coarse-grain out-of-order (CG-OoO) block-level core model.

CG-OoO (Mohammadi et al., PAPERS.md) replaces the global reorder
buffer and monolithic scheduler with *block windows*: the dynamic
stream is cut into basic-block-like traces (here: the same
backward-branch trace segmentation the Schedule Cache uses), each
block occupies one small issue window, and instructions issue
dataflow-order *within* their block while a short ring of outstanding
blocks overlaps execution *across* blocks.  Wakeup/select is local to
one small window, so the scheduling energy is a fraction of a full
OoO scheduler's — the model's energy accounting charges the cheap
``bw_select``/``bw_window`` events instead of the OoO ``scheduler``/
``rob``/``rename`` events.

The Schedule Cache doubles as CG-OoO's block-schedule memo: the first
execution of a block pays the block-local select energy and records
its issue order; later executions of the same path read the recorded
order back (one ``sc_read`` per instruction, cheaper than select) —
the same storage substrate the OinO replay mode uses, reused at block
granularity.  Replay is an *energy* shortcut only: issue timing is
computed identically on both paths, so results are deterministic and
independent of SC occupancy.

Timing model, per block:

* a block cannot start issuing before the block
  :data:`~repro.cores.params.CGOOO_BLOCK_WINDOWS` positions older has
  drained (the block-ring floor);
* within a block there is **no** program-order issue floor — each
  instruction issues at its dataflow-ready cycle on the shared
  :class:`~repro.cores.functional_units.FUPool`, older-first on ties;
* a window holds :data:`~repro.cores.params.CGOOO_WINDOW_ENTRIES`
  instructions: instruction *j* also waits for instruction
  *j - entries* of its own block to complete;
* fetch, branch prediction, MSHRs, and store-to-load forwarding are
  exactly the in-order core's mechanisms.

This lands the core between the stall-on-use InO and the full OoO on
both IPC and energy per instruction, which is the point of the
comparison in the ``backend-matrix`` experiment.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.cores.base import CoreResult, CoreStats, EnergyEvents
from repro.cores.functional_units import FUPool, fu_type_for
from repro.cores.params import (
    CGOOO_BLOCK_WINDOWS,
    CGOOO_PARAMS,
    CGOOO_WINDOW_ENTRIES,
    CoreParams,
)
from repro.frontend.branch_predictor import (
    BranchPredictor,
    TournamentPredictor,
)
from repro.frontend.btb import BranchTargetBuffer
from repro.isa.instructions import Instruction
from repro.memory.hierarchy import CoreMemory
from repro.schedule.schedule_cache import Schedule, ScheduleCache
from repro.schedule.trace import Trace, TraceBuilder

_LINE_SHIFT = 6


class CGOoOCore:
    """3-wide block-level out-of-order core (CG-OoO)."""

    def __init__(
        self,
        memory: CoreMemory,
        sc: ScheduleCache,
        *,
        params: CoreParams = CGOOO_PARAMS,
        predictor: BranchPredictor | None = None,
        btb: BranchTargetBuffer | None = None,
    ):
        self.params = params
        self.memory = memory
        self.sc = sc
        self.predictor = predictor or TournamentPredictor()
        self.btb = btb or BranchTargetBuffer()

    # ------------------------------------------------------------------
    def run(
        self,
        stream: Iterable[Instruction],
        max_instructions: int,
        *,
        start_cycle: int = 0,
    ) -> CoreResult:
        """Execute up to *max_instructions* block by block."""
        self._stats = stats = CoreStats()
        self._energy = EnergyEvents()
        self._fus = FUPool(self.params.width)
        self._reg_ready: dict[int, int] = {}
        self._store_line_ready: dict[int, int] = {}
        self._miss_ring = [0] * self.params.mem_inflight
        self._misses = 0
        self._fetch_cycle = start_cycle
        self._fetched_in_cycle = 0
        self._redirect_at = start_cycle
        self._last_fetch_line = -1
        self._last_complete = start_cycle
        self._block_ring = [start_cycle] * CGOOO_BLOCK_WINDOWS
        self._blocks = 0

        builder = TraceBuilder()
        n = 0
        for insn in stream:
            if n >= max_instructions:
                break
            n += 1
            done = builder.feed(insn)
            if done is not None:
                self._run_block(done)
        tail = builder.flush()
        if tail is not None:
            self._run_block(tail)

        stats.instructions = n
        stats.cycles = max(1, self._last_complete + 1 - start_cycle)
        return CoreResult(
            core_name=self.params.name, stats=stats,
            energy_events=self._energy,
        )

    # ------------------------------------------------------------------
    def _run_block(self, trace: Trace) -> None:
        p = self.params
        stats = self._stats
        energy = self._energy
        stats.traces += 1

        schedule = self.sc.lookup(trace.start_pc, trace.path_hash)
        energy.bump("sc_read")
        insns = trace.instructions
        replayed = (
            schedule is not None
            and len(schedule.issue_order) == len(insns)
        )
        if replayed:
            # Recorded block schedule: skip the window select logic
            # and read the issue order back (energy-only shortcut —
            # the timing below is identical on both paths).
            stats.sc_trace_hits += 1
            stats.memoized_instructions += len(insns)
            energy.bump("sc_read", len(insns))
        else:
            stats.sc_trace_misses += 1
            energy.bump("bw_select", len(insns))

        block_floor = self._block_ring[self._blocks % CGOOO_BLOCK_WINDOWS]
        completes: list[int] = []
        issues: list[int] = []
        block_end = block_floor
        reg_ready = self._reg_ready
        for pos, insn in enumerate(insns):
            # ---------------- fetch ----------------
            if self._fetch_cycle < self._redirect_at:
                self._fetch_cycle = self._redirect_at
                self._fetched_in_cycle = 0
            line = insn.pc >> _LINE_SHIFT
            if line != self._last_fetch_line:
                res = self.memory.fetch(insn.pc, now=self._fetch_cycle)
                energy.bump("icache")
                if not res.l1_hit:
                    stats.l1i_misses += 1
                    if not res.l2_hit:
                        stats.l2_misses += 1
                    self._fetch_cycle += \
                        res.latency - self.memory.l1_latency
                    self._fetched_in_cycle = 0
                self._last_fetch_line = line
            if self._fetched_in_cycle >= p.width:
                self._fetch_cycle += 1
                self._fetched_in_cycle = 0
            self._fetched_in_cycle += 1
            energy.bump("fetch")
            energy.bump("decode")
            energy.bump("bw_window")

            # ---------------- block-window issue ----------------
            earliest = self._fetch_cycle + p.fetch_to_issue
            if earliest < block_floor:
                earliest = block_floor
            if pos >= CGOOO_WINDOW_ENTRIES:
                w = completes[pos - CGOOO_WINDOW_ENTRIES]
                if w > earliest:
                    earliest = w
            for src in insn.srcs:
                t = reg_ready.get(src, 0)
                if t > earliest:
                    earliest = t
            energy.bump("rf_read", len(insn.srcs))
            if insn.is_load:
                dep = self._store_line_ready.get(
                    insn.mem_addr >> _LINE_SHIFT, 0)
                if dep > earliest:
                    earliest = dep
            res = None
            if insn.is_mem:
                energy.bump("dcache")
                if insn.is_load:
                    res = self.memory.load(
                        insn.pc, insn.mem_addr, now=earliest)
                    stats.loads += 1
                else:
                    res = self.memory.store(
                        insn.pc, insn.mem_addr, now=earliest)
                    stats.stores += 1
                if not res.l1_hit:
                    stats.l1d_misses += 1
                    if not res.l2_hit:
                        stats.l2_misses += 1
                    energy.bump("l2")
                    slot = self._miss_ring[
                        self._misses % p.mem_inflight]
                    if slot > earliest:
                        earliest = slot

            issue = self._fus.issue_at(
                insn.opclass, earliest, insn.base_latency)
            energy.bump(fu_type_for(insn.opclass))

            # ---------------- complete ----------------
            complete = issue + insn.base_latency
            if res is not None:
                complete += res.latency - 1
                if insn.is_store:
                    self._store_line_ready[
                        insn.mem_addr >> _LINE_SHIFT] = complete
                if not res.l1_hit:
                    self._miss_ring[self._misses % p.mem_inflight] = \
                        complete
                    self._misses += 1
            if insn.dst is not None:
                reg_ready[insn.dst] = complete
                energy.bump("rf_write")
            if complete > self._last_complete:
                self._last_complete = complete
            if complete > block_end:
                block_end = complete

            # ---------------- branches ----------------
            if insn.is_branch:
                stats.branches += 1
                energy.bump("bpred")
                wrong = self.predictor.access(insn.pc, insn.taken)
                insn.mispredicted = wrong
                if insn.taken:
                    if self.btb.lookup(insn.pc) is None:
                        self._fetch_cycle += p.btb_miss_bubble
                        self._fetched_in_cycle = 0
                        self.btb.install(insn.pc, insn.target)
                if wrong:
                    stats.mispredicts += 1
                    self._redirect_at = complete + 1
                elif insn.taken:
                    self._fetch_cycle += 1
                    self._fetched_in_cycle = 0

            completes.append(complete)
            issues.append(issue)

        self._block_ring[self._blocks % CGOOO_BLOCK_WINDOWS] = block_end
        self._blocks += 1
        if not replayed and insns:
            order = tuple(sorted(range(len(issues)),
                                 key=issues.__getitem__))
            if self.sc.insert(Schedule(
                    trace.start_pc, trace.path_hash, order)):
                energy.bump("sc_write")
