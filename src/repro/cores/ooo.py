"""Out-of-order core model (dataflow-slot style).

One pass per instruction computes, in program order, when it fetches,
issues, completes and commits, subject to:

* fetch width and L1I-line access latency, branch-redirect bubbles
  (mispredicted branches restart fetch when they resolve), BTB misses;
* a ``rob_size``-entry window: an instruction cannot dispatch until the
  instruction ``rob_size`` older has committed;
* register dataflow (renaming removes WAR/WAW, so only RAW matters);
* issue width and functional-unit counts (divides are unpipelined);
* an ``lsq_size``-entry load/store queue and dcache access latencies,
  with same-line store->load ordering enforced;
* in-order commit at machine width.

When a :class:`~repro.schedule.recorder.ScheduleRecorder` is attached,
each completed trace is reported together with its issue permutation,
and a Schedule Cache lookup is performed per trace so that SC-MPKI is
measured on the producer side too (the arbitrator's memoizability
signal, paper section 3.2.1).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.cores.base import CoreResult, CoreStats, EnergyEvents
from repro.cores.functional_units import FUPool, SlotPool, fu_type_for
from repro.cores.params import OOO_PARAMS, CoreParams
from repro.frontend.branch_predictor import (
    BranchPredictor,
    TournamentPredictor,
)
from repro.frontend.btb import BranchTargetBuffer
from repro.isa.instructions import Instruction
from repro.memory.hierarchy import CoreMemory, MemoryHierarchy
from repro.schedule.recorder import ScheduleRecorder
from repro.schedule.trace import TraceBuilder

_LINE_SHIFT = 6


def standalone_memory(core_id: int = 0) -> CoreMemory:
    """A private memory hierarchy for single-core experiments."""
    return MemoryHierarchy().core_view(core_id)


class OutOfOrderCore:
    """3-wide out-of-order producer core."""

    def __init__(
        self,
        memory: CoreMemory,
        *,
        params: CoreParams = OOO_PARAMS,
        predictor: BranchPredictor | None = None,
        btb: BranchTargetBuffer | None = None,
        recorder: ScheduleRecorder | None = None,
    ):
        self.params = params
        self.memory = memory
        self.predictor = predictor or TournamentPredictor()
        self.btb = btb or BranchTargetBuffer()
        self.recorder = recorder

    def run(
        self,
        stream: Iterable[Instruction],
        max_instructions: int,
        *,
        start_cycle: int = 0,
    ) -> CoreResult:
        """Execute up to *max_instructions* from *stream*."""
        p = self.params
        stats = CoreStats()
        energy = EnergyEvents()
        fus = FUPool(p.width)
        commit_slots = SlotPool(p.width)

        reg_ready: dict[int, int] = {}
        store_line_ready: dict[int, int] = {}
        rob_ring: list[int] = [0] * p.rob_size
        lq_ring: list[int] = [0] * p.lq_size
        sq_ring: list[int] = [0] * p.sq_size

        fetch_cycle = start_cycle
        fetched_in_cycle = 0
        redirect_at = start_cycle
        last_fetch_line = -1
        last_commit = start_cycle

        trace_builder = TraceBuilder()
        trace_issues: list[int] = []
        trace_first_issue = -1
        trace_last_complete = 0
        recorder = self.recorder
        sc = recorder.sc if recorder is not None else None

        # Hot-loop locals: attribute loads and per-event Counter bumps
        # dominate the profile at ~10^5 instructions/s.  Constant-rate
        # energy events (fetch/decode/rename/rob/scheduler, per-class
        # FU counts...) are tallied in plain ints/dicts and folded into
        # the Counter once after the loop — same totals, no per-insn
        # Counter.__getitem__/__setitem__ churn.
        memory = self.memory
        mem_load = memory.load
        mem_store = memory.store
        mem_fetch = memory.fetch
        l1_latency = memory.l1_latency
        predictor_access = self.predictor.access
        btb = self.btb
        width = p.width
        fetch_to_issue = p.fetch_to_issue
        rob_size = p.rob_size
        lq_size = p.lq_size
        sq_size = p.sq_size
        btb_miss_bubble = p.btb_miss_bubble
        issue_at = fus.issue_at
        reg_ready_get = reg_ready.get
        store_line_ready_get = store_line_ready.get
        feed = trace_builder.feed
        icache_events = 0
        fu_events: dict[str, int] = {}
        prf_reads = 0
        prf_writes = 0
        mem_events = 0
        l2_fill_events = 0

        n = 0
        loads = 0
        stores = 0
        for insn in stream:
            if n >= max_instructions:
                break
            # ---------------- fetch ----------------
            if fetch_cycle < redirect_at:
                fetch_cycle = redirect_at
                fetched_in_cycle = 0
            line = insn.pc >> _LINE_SHIFT
            if line != last_fetch_line:
                res = mem_fetch(insn.pc, now=fetch_cycle)
                icache_events += 1
                if not res.l1_hit:
                    stats.l1i_misses += 1
                    if not res.l2_hit:
                        stats.l2_misses += 1
                    fetch_cycle += res.latency - l1_latency
                    fetched_in_cycle = 0
                last_fetch_line = line
            if fetched_in_cycle >= width:
                fetch_cycle += 1
                fetched_in_cycle = 0
            fetched_in_cycle += 1

            # ---------------- dispatch (ROB/LSQ occupancy) -------------
            dispatch = fetch_cycle + fetch_to_issue
            rob_slot = n % rob_size
            if dispatch <= rob_ring[rob_slot]:
                dispatch = rob_ring[rob_slot] + 1
            lsq_slot = -1
            if insn.is_load:
                lsq_slot = loads % lq_size
                if dispatch <= lq_ring[lsq_slot]:
                    dispatch = lq_ring[lsq_slot] + 1
            elif insn.is_store:
                lsq_slot = stores % sq_size
                if dispatch <= sq_ring[lsq_slot]:
                    dispatch = sq_ring[lsq_slot] + 1

            # ---------------- register/memory readiness ----------------
            earliest = dispatch
            for src in insn.srcs:
                t = reg_ready_get(src, 0)
                if t > earliest:
                    earliest = t
            prf_reads += len(insn.srcs)

            if insn.is_load:
                dep = store_line_ready_get(insn.mem_addr >> _LINE_SHIFT, 0)
                if dep > earliest:
                    earliest = dep

            # ---------------- issue ----------------
            base_latency = insn.base_latency
            issue = issue_at(insn.opclass, earliest, base_latency)
            fu = fu_type_for(insn.opclass)
            fu_events[fu] = fu_events.get(fu, 0) + 1

            # ---------------- complete ----------------
            complete = issue + base_latency
            if insn.is_mem:
                mem_events += 1
                if insn.is_load:
                    loads += 1
                    res = mem_load(insn.pc, insn.mem_addr, now=issue)
                    stats.loads += 1
                else:
                    stores += 1
                    res = mem_store(insn.pc, insn.mem_addr, now=issue)
                    stats.stores += 1
                if not res.l1_hit:
                    stats.l1d_misses += 1
                    if not res.l2_hit:
                        stats.l2_misses += 1
                    l2_fill_events += 1
                complete += res.latency - 1
                if insn.is_store:
                    store_line_ready[insn.mem_addr >> _LINE_SHIFT] = complete

            if insn.dst is not None:
                reg_ready[insn.dst] = complete
                prf_writes += 1

            # ---------------- branches ----------------
            if insn.is_branch:
                stats.branches += 1
                wrong = predictor_access(insn.pc, insn.taken)
                insn.mispredicted = wrong
                if insn.taken:
                    if btb.lookup(insn.pc) is None:
                        fetch_cycle += btb_miss_bubble
                        fetched_in_cycle = 0
                        btb.install(insn.pc, insn.target)
                if wrong:
                    stats.mispredicts += 1
                    redirect_at = complete + 1
                elif insn.taken:
                    # Taken branches end the fetch group.
                    fetch_cycle += 1
                    fetched_in_cycle = 0

            # ---------------- commit ----------------
            base = complete + 1
            if base < last_commit:
                base = last_commit
            commit = commit_slots.earliest_free(base)
            commit_slots.reserve(commit)
            last_commit = commit
            rob_ring[rob_slot] = commit
            if lsq_slot >= 0:
                if insn.is_load:
                    lq_ring[lsq_slot] = commit
                else:
                    sq_ring[lsq_slot] = commit

            # ---------------- trace recording ----------------
            if recorder is not None:
                trace_issues.append(issue)
                if trace_first_issue < 0 or issue < trace_first_issue:
                    trace_first_issue = issue
                if complete > trace_last_complete:
                    trace_last_complete = complete
                done = feed(insn)
                if done is not None:
                    stats.traces += 1
                    # Stable sort: ties already break by position, so
                    # the issue cycle alone reproduces (issue, k) order.
                    order = tuple(sorted(
                        range(len(trace_issues)),
                        key=trace_issues.__getitem__,
                    ))
                    if sc.lookup(done.start_pc, done.path_hash) is None:
                        stats.sc_trace_misses += 1
                    else:
                        stats.sc_trace_hits += 1
                        stats.memoized_instructions += len(done)
                    recorder.observe(
                        done, order,
                        trace_last_complete - trace_first_issue,
                    )
                    energy.bump("sc_write")
                    trace_issues.clear()
                    trace_first_issue = -1
                    trace_last_complete = 0

            n += 1

        # Fold the batched tallies in, skipping zero counts so the
        # Counter holds exactly the keys the per-event path created.
        for structure, count in (
            ("icache", icache_events),
            ("fetch", n),
            ("decode", n),
            ("rename", n),
            ("rob", n),
            ("scheduler", n),
            ("prf_read", prf_reads),
            ("prf_write", prf_writes),
            ("lsq", mem_events),
            ("dcache", mem_events),
            ("l2", l2_fill_events),
            ("bpred", stats.branches),
            *fu_events.items(),
        ):
            if count:
                energy.bump(structure, count)

        stats.instructions = n
        stats.cycles = max(1, last_commit - start_cycle)
        return CoreResult(
            core_name=self.params.name, stats=stats, energy_events=energy
        )
