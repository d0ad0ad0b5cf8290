"""In-order stall-on-use core model.

Same width and functional units as the OoO (paper section 4.2) but
instructions issue strictly in program order: instruction *i* cannot
issue before instruction *i-1*.  Loads do not block the pipeline until
a dependent instruction reads their destination (stall-on-use), which
the issue-when-sources-ready rule captures naturally.  There is no
register renaming and no reorder window, so a stalled instruction
head-of-line-blocks everything younger — this is where the InO loses
the paper's ~40 % against the OoO on ILP/MLP-rich code.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.cores.base import CoreResult, CoreStats, EnergyEvents
from repro.cores.functional_units import FUPool, fu_type_for
from repro.cores.params import INO_PARAMS, CoreParams
from repro.frontend.branch_predictor import (
    BranchPredictor,
    TournamentPredictor,
)
from repro.frontend.btb import BranchTargetBuffer
from repro.isa.instructions import Instruction
from repro.memory.hierarchy import CoreMemory

_LINE_SHIFT = 6


class InOrderCore:
    """3-wide in-order, stall-on-use consumer core."""

    def __init__(
        self,
        memory: CoreMemory,
        *,
        params: CoreParams = INO_PARAMS,
        predictor: BranchPredictor | None = None,
        btb: BranchTargetBuffer | None = None,
    ):
        self.params = params
        self.memory = memory
        self.predictor = predictor or TournamentPredictor()
        self.btb = btb or BranchTargetBuffer()

    def run(
        self,
        stream: Iterable[Instruction],
        max_instructions: int,
        *,
        start_cycle: int = 0,
    ) -> CoreResult:
        p = self.params
        stats = CoreStats()
        energy = EnergyEvents()
        fus = FUPool(p.width)

        reg_ready: dict[int, int] = {}
        store_line_ready: dict[int, int] = {}
        # MSHR limit: a missing access cannot issue until the miss
        # `mem_inflight` older has completed (hits are unconstrained).
        miss_ring: list[int] = [0] * p.mem_inflight
        misses = 0
        # Load-delay tracking (issue_policy="ldt"): registers produced
        # by loads still in flight, and the small queue of parked
        # load-dependents.  Empty structures under the default policy.
        ldt = p.issue_policy == "ldt"
        load_ready: dict[int, int] = {}
        ldt_ring: list[int] = [0] * p.ldt_queue
        parked = 0

        fetch_cycle = start_cycle
        fetched_in_cycle = 0
        redirect_at = start_cycle
        last_fetch_line = -1
        last_issue = start_cycle
        last_complete = start_cycle

        n = 0
        for insn in stream:
            if n >= max_instructions:
                break
            # ---------------- fetch ----------------
            if fetch_cycle < redirect_at:
                fetch_cycle = redirect_at
                fetched_in_cycle = 0
            line = insn.pc >> _LINE_SHIFT
            if line != last_fetch_line:
                res = self.memory.fetch(insn.pc, now=fetch_cycle)
                energy.bump("icache")
                if not res.l1_hit:
                    stats.l1i_misses += 1
                    if not res.l2_hit:
                        stats.l2_misses += 1
                    fetch_cycle += res.latency - self.memory.l1_latency
                    fetched_in_cycle = 0
                last_fetch_line = line
            if fetched_in_cycle >= p.width:
                fetch_cycle += 1
                fetched_in_cycle = 0
            fetched_in_cycle += 1
            energy.bump("fetch")
            energy.bump("decode")

            # ---------------- in-order issue ----------------
            earliest = fetch_cycle + p.fetch_to_issue
            if earliest < last_issue:
                earliest = last_issue
            dispatch = earliest
            load_wait = 0
            for src in insn.srcs:
                t = reg_ready.get(src, 0)
                if t > earliest:
                    earliest = t
                if ldt:
                    lt = load_ready.get(src, 0)
                    if lt > load_wait:
                        load_wait = lt
            energy.bump("rf_read", len(insn.srcs))
            if insn.is_load:
                dep = store_line_ready.get(insn.mem_addr >> _LINE_SHIFT, 0)
                if dep > earliest:
                    earliest = dep
            res = None
            if insn.is_mem:
                energy.bump("dcache")
                if insn.is_load:
                    res = self.memory.load(insn.pc, insn.mem_addr, now=earliest)
                    stats.loads += 1
                else:
                    res = self.memory.store(insn.pc, insn.mem_addr, now=earliest)
                    stats.stores += 1
                if not res.l1_hit:
                    stats.l1d_misses += 1
                    if not res.l2_hit:
                        stats.l2_misses += 1
                    energy.bump("l2")
                    slot = miss_ring[misses % p.mem_inflight]
                    if slot > earliest:
                        earliest = slot

            issue = fus.issue_at(insn.opclass, earliest, insn.base_latency)
            if ldt and issue > dispatch and load_wait > dispatch:
                # The binding stall is an outstanding load: park this
                # instruction in the delay queue and keep the in-order
                # issue floor at its dispatch point so independent
                # younger instructions continue to flow.  A full queue
                # degrades gracefully to stall-on-use (the ring slot
                # becomes the floor).
                slot = ldt_ring[parked % p.ldt_queue]
                last_issue = dispatch if slot <= dispatch else slot
                ldt_ring[parked % p.ldt_queue] = issue + insn.base_latency
                parked += 1
                energy.bump("lsq")
            else:
                last_issue = issue
            energy.bump(fu_type_for(insn.opclass))

            # ---------------- complete ----------------
            complete = issue + insn.base_latency
            if res is not None:
                complete += res.latency - 1
                if insn.is_store:
                    store_line_ready[insn.mem_addr >> _LINE_SHIFT] = complete
                if not res.l1_hit:
                    miss_ring[misses % p.mem_inflight] = complete
                    misses += 1
            if insn.dst is not None:
                reg_ready[insn.dst] = complete
                energy.bump("rf_write")
                if ldt:
                    if insn.is_load:
                        load_ready[insn.dst] = complete
                    else:
                        load_ready.pop(insn.dst, None)
            if complete > last_complete:
                last_complete = complete

            # ---------------- branches ----------------
            if insn.is_branch:
                stats.branches += 1
                energy.bump("bpred")
                wrong = self.predictor.access(insn.pc, insn.taken)
                insn.mispredicted = wrong
                if insn.taken:
                    if self.btb.lookup(insn.pc) is None:
                        fetch_cycle += p.btb_miss_bubble
                        fetched_in_cycle = 0
                        self.btb.install(insn.pc, insn.target)
                if wrong:
                    stats.mispredicts += 1
                    redirect_at = complete + 1
                elif insn.taken:
                    fetch_cycle += 1
                    fetched_in_cycle = 0

            n += 1

        stats.instructions = n
        stats.cycles = max(1, last_complete + 1 - start_cycle)
        return CoreResult(
            core_name=self.params.name, stats=stats, energy_events=energy
        )
