"""In-order stall-on-use core model: the one in-order pipeline.

Same width and functional units as the OoO (paper section 4.2) but
instructions issue strictly in program order: instruction *i* cannot
issue before instruction *i-1*.  Loads do not block the pipeline until
a dependent instruction reads their destination (stall-on-use), which
the issue-when-sources-ready rule captures naturally.  There is no
register renaming and no reorder window, so a stalled instruction
head-of-line-blocks everything younger — this is where the InO loses
the paper's ~40 % against the OoO on ILP/MLP-rich code.

The two other consumers built on in-order hardware run on this
pipeline: :class:`~repro.cores.oino.OinOCore` adds the memoized-schedule
replay mode and :class:`~repro.cores.cgooo.CGOoOCore` block-window
issue.  Both inherit the per-run state (:meth:`InOrderCore._begin`),
the program-order loop with its fetch and branch steps
(:meth:`InOrderCore._exec_program_order`) and the issue/execute step
with its MSHRs, store-to-load forwarding and load-delay tracking
(:meth:`InOrderCore._issue`).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from itertools import islice

from repro.cores.base import CoreResult, CoreStats, EnergyEvents
from repro.cores.functional_units import FU_TYPE_BY_OP, FUPool
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
        self._begin(start_cycle)
        n = self._exec_program_order(islice(stream, max_instructions))
        return self._result(n, start_cycle, self.params.name)

    # ------------------------------------------------------------------
    def _begin(self, start_cycle: int) -> None:
        """Reset the per-run state: counters, units, rings and clocks."""
        p = self.params
        self._stats = CoreStats()
        self._energy: dict[str, int] = {}
        self._fus = FUPool(p.width)
        self._reg_ready: dict[int, int] = {}
        self._store_line_ready: dict[int, int] = {}
        # MSHR limit: a missing access cannot issue until the miss
        # `mem_inflight` older has completed (hits are unconstrained).
        self._mshrs = deque([0] * p.mem_inflight, maxlen=p.mem_inflight)
        # Load-delay tracking (issue_policy="ldt"): registers produced
        # by loads still in flight, and the completion cycles of the
        # small queue of parked load-dependents.
        self._ldt = p.issue_policy == "ldt"
        self._load_ready: dict[int, int] = {}
        self._ldt_ring = deque([0] * p.ldt_queue, maxlen=p.ldt_queue)
        self._fetch_cycle = start_cycle
        self._fetched_in_cycle = 0
        self._redirect_at = start_cycle
        self._last_fetch_line = -1
        self._issue_floor = start_cycle
        self._last_complete = start_cycle

    def _result(
        self, n: int, start_cycle: int, core_name: str
    ) -> CoreResult:
        stats = self._stats
        stats.instructions = n
        stats.cycles = max(1, self._last_complete + 1 - start_cycle)
        return CoreResult(
            core_name=core_name, stats=stats,
            energy_events=EnergyEvents(self._energy),
        )

    def _exec_program_order(self, insns: Iterable[Instruction]) -> int:
        """Fetch, issue and resolve *insns* in program order.

        Returns how many instructions ran.  Only the fetch and branch
        steps below move the fetch clock, so it lives in locals for the
        loop and is written back at the end.
        """
        p = self.params
        width = p.width
        front_end = p.fetch_to_issue
        stats = self._stats
        energy = self._energy
        memory = self.memory
        issue = self._issue
        fetch_cycle = self._fetch_cycle
        fetched_in_cycle = self._fetched_in_cycle
        redirect_at = self._redirect_at
        last_fetch_line = self._last_fetch_line
        n = 0
        for insn in insns:
            # ---------------- fetch ----------------
            if fetch_cycle < redirect_at:
                fetch_cycle = redirect_at
                fetched_in_cycle = 0
            line = insn.pc >> _LINE_SHIFT
            if line != last_fetch_line:
                res = memory.fetch(insn.pc, now=fetch_cycle)
                energy["icache"] = energy.get("icache", 0) + 1
                if not res.l1_hit:
                    stats.l1i_misses += 1
                    if not res.l2_hit:
                        stats.l2_misses += 1
                    fetch_cycle += res.latency - memory.l1_latency
                    fetched_in_cycle = 0
                last_fetch_line = line
            if fetched_in_cycle >= width:
                fetch_cycle += 1
                fetched_in_cycle = 0
            fetched_in_cycle += 1
            energy["fetch"] = energy.get("fetch", 0) + 1
            energy["decode"] = energy.get("decode", 0) + 1

            complete = issue(insn, fetch_cycle + front_end)

            # ---------------- branches ----------------
            if insn.is_branch:
                stats.branches += 1
                energy["bpred"] = energy.get("bpred", 0) + 1
                wrong = self.predictor.access(insn.pc, insn.taken)
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
        self._fetch_cycle = fetch_cycle
        self._fetched_in_cycle = fetched_in_cycle
        self._redirect_at = redirect_at
        self._last_fetch_line = last_fetch_line
        return n

    def _issue(
        self,
        insn: Instruction,
        earliest: int,
        lsq: deque[int] | None = None,
    ) -> int:
        """Issue and execute *insn*; return its completion cycle.

        *earliest* is the front end's floor; the in-order issue floor
        (the last issue) applies on top.  Given the replay LSQ's miss
        ring *lsq* (OinO mode), a miss waits on that ring instead of
        the MSHRs, the access is charged to the replay LSQ, and
        load-delay tracking is off: a replayed trace already issues in
        its recorded out-of-order order.

        Runs once per dynamic instruction, so energy events are direct
        item updates of the run's plain dict.
        """
        stats = self._stats
        energy = self._energy
        if earliest < self._issue_floor:
            earliest = self._issue_floor
        dispatch = earliest
        load_wait = 0
        ldt = self._ldt and lsq is None
        reg_ready = self._reg_ready
        for src in insn.srcs:
            t = reg_ready.get(src, 0)
            if t > earliest:
                earliest = t
            if ldt:
                lt = self._load_ready.get(src, 0)
                if lt > load_wait:
                    load_wait = lt
        energy["rf_read"] = energy.get("rf_read", 0) + len(insn.srcs)
        if insn.is_load:
            dep = self._store_line_ready.get(insn.mem_addr >> _LINE_SHIFT, 0)
            if dep > earliest:
                earliest = dep
        res = None
        if insn.is_mem:
            energy["dcache"] = energy.get("dcache", 0) + 1
            if lsq is not None:
                energy["oino_lsq"] = energy.get("oino_lsq", 0) + 1
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
                energy["l2"] = energy.get("l2", 0) + 1
                misses = self._mshrs if lsq is None else lsq
                if misses[0] > earliest:
                    earliest = misses[0]

        base_latency = insn.base_latency
        opclass = insn.opclass
        issue = self._fus.issue_at(opclass, earliest, base_latency)
        if ldt and issue > dispatch and load_wait > dispatch:
            # The binding stall is an outstanding load: park this
            # instruction in the delay queue and keep the in-order
            # issue floor at its dispatch point so independent
            # younger instructions continue to flow.  A full queue
            # degrades gracefully to stall-on-use (the oldest parked
            # instruction's completion becomes the floor).
            parked = self._ldt_ring
            self._issue_floor = dispatch if parked[0] <= dispatch \
                else parked[0]
            parked.append(issue + base_latency)
            energy["lsq"] = energy.get("lsq", 0) + 1
        else:
            self._issue_floor = issue
        fu = FU_TYPE_BY_OP[opclass]
        energy[fu] = energy.get(fu, 0) + 1

        complete = issue + base_latency
        if res is not None:
            complete += res.latency - 1
            if insn.is_store:
                self._store_line_ready[insn.mem_addr >> _LINE_SHIFT] = complete
            if not res.l1_hit:
                misses.append(complete)
        if insn.dst is not None:
            reg_ready[insn.dst] = complete
            energy["rf_write"] = energy.get("rf_write", 0) + 1
            if ldt:
                if insn.is_load:
                    self._load_ready[insn.dst] = complete
                else:
                    self._load_ready.pop(insn.dst, None)
        if complete > self._last_complete:
            self._last_complete = complete
        return complete
