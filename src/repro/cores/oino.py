"""OinO-mode core: an in-order core that replays memoized schedules.

Execution proceeds trace by trace (paper section 3.3.2):

* **SC hit, matching path** — the trace's instructions issue in the
  *recorded OoO order* on the in-order hardware.  Fetch comes from the
  Schedule Cache (cheaper than L1I, no branch predictions needed since
  the schedule asserts the path).  The replay LSQ inserts memory ops in
  original program sequence; if this instance's addresses alias where
  the recorded instance's did not (a load scheduled ahead of an older
  same-line store), the trace **aborts**: squash penalty, then re-run
  in program order.
* **SC hit, path mismatch** — the core speculatively followed the
  memoized path, the actual outcome diverged: abort and re-run in
  program order.  Repeated aborts mark the trace unmemoizable.
* **SC miss** — plain in-order execution from the L1I.

Traces execute atomically: stores are buffered and only become visible
at trace commit, so a squash has no memory side effects to undo.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.cores.base import CoreResult, CoreStats, EnergyEvents
from repro.cores.functional_units import FUPool, fu_type_for
from repro.cores.params import (
    INO_PARAMS,
    OINO_ABORT_PENALTY,
    OINO_REPLAY_LSQ_ENTRIES,
    CoreParams,
)
from repro.frontend.branch_predictor import (
    BranchPredictor,
    TournamentPredictor,
)
from repro.frontend.btb import BranchTargetBuffer
from repro.isa.instructions import Instruction
from repro.memory.hierarchy import CoreMemory
from repro.schedule.schedule_cache import ScheduleCache
from repro.schedule.trace import Trace, TraceBuilder

_LINE_SHIFT = 6
#: Aborts out of executions after which a trace is locally blacklisted.
_ABORT_BIAS_THRESHOLD = 0.25


class OinOCore:
    """In-order core with the OinO memoized-schedule replay mode."""

    def __init__(
        self,
        memory: CoreMemory,
        sc: ScheduleCache,
        *,
        params: CoreParams = INO_PARAMS,
        predictor: BranchPredictor | None = None,
        btb: BranchTargetBuffer | None = None,
        abort_penalty: int = OINO_ABORT_PENALTY,
    ):
        self.params = params
        self.memory = memory
        self.sc = sc
        self.predictor = predictor or TournamentPredictor()
        self.btb = btb or BranchTargetBuffer()
        self.abort_penalty = abort_penalty
        self._abort_counts: dict[int, list[int]] = {}  # pc -> [aborts, runs]
        # Launch gate: per-pc [successful launches, launches].  Traces
        # whose stored schedules rarely match the dynamic path stop
        # being speculatively launched (the paper's trace selection is
        # "heavily biased against traces that mis-speculate", keeping
        # the abort penalty near 0.3 % of execution time).
        self._launch_stats: dict[int, list[int]] = {}

    # ------------------------------------------------------------------
    def run(
        self,
        stream: Iterable[Instruction],
        max_instructions: int,
        *,
        start_cycle: int = 0,
    ) -> CoreResult:
        p = self.params
        self._stats = stats = CoreStats()
        self._energy = EnergyEvents()
        self._fus = FUPool(p.width)
        self._reg_ready = {}
        self._store_line_ready = {}
        # MSHR limits on cache misses: the base core's MSHRs in program
        # order, the wider 32-entry replay LSQ in OinO mode.
        self._miss_ring = [0] * p.mem_inflight
        self._replay_ring = [0] * OINO_REPLAY_LSQ_ENTRIES
        self._misses = 0
        self._replay_misses = 0
        # Load-delay tracking (issue_policy="ldt"), program-order mode
        # only: replayed traces already issue in recorded OoO order.
        self._ldt = p.issue_policy == "ldt"
        self._load_ready = {}
        self._ldt_ring = [0] * p.ldt_queue
        self._parked = 0
        self._fetch_cycle = start_cycle
        self._fetched_in_cycle = 0
        self._redirect_at = start_cycle
        self._last_fetch_line = -1
        self._last_issue = start_cycle
        self._last_complete = start_cycle

        builder = TraceBuilder()
        pending: list[Instruction] = []
        n = 0
        for insn in stream:
            if n >= max_instructions:
                break
            pending.append(insn)
            n += 1
            done = builder.feed(insn)
            if done is not None:
                self._run_trace(done)
                pending.clear()
        if pending:
            tail = builder.flush()
            if tail is not None:
                self._exec_program_order(tail.instructions, from_sc=False)

        stats.instructions = n
        stats.cycles = max(1, self._last_complete + 1 - start_cycle)
        return CoreResult(
            core_name="OinO", stats=stats, energy_events=self._energy
        )

    # ------------------------------------------------------------------
    def _run_trace(self, trace: Trace) -> None:
        stats = self._stats
        stats.traces += 1
        schedule = self.sc.lookup(trace.start_pc, trace.path_hash)
        self._energy.bump("sc_read")

        if (
            schedule is not None
            and len(schedule.issue_order) == len(trace)
        ):
            stats.sc_trace_hits += 1
            self._note_launch(trace.start_pc, hit=True)
            if self._replay_aliases(trace, schedule.issue_order):
                # Alias misspeculation is the *schedule's* fault: it
                # counts toward blacklisting the trace.
                self._abort(trace, blame_trace=True)
            else:
                self._exec_replay(trace, schedule.issue_order)
                self._note_run(trace.start_pc, aborted=False)
        elif self.sc.has_pc(trace.start_pc):
            # Schedules exist for this pc but not this path.  If this
            # pc's schedules usually match, the trace predictor will
            # have launched one speculatively: pay the squash.  If they
            # rarely match, the launch gate suppressed speculation and
            # the trace simply misses.
            stats.sc_trace_misses += 1
            if self._should_launch(trace.start_pc):
                self._note_launch(trace.start_pc, hit=False)
                self._abort(trace, blame_trace=False)
            else:
                self._exec_program_order(trace.instructions, from_sc=False)
        else:
            stats.sc_trace_misses += 1
            self._exec_program_order(trace.instructions, from_sc=False)

    def _abort(self, trace: Trace, *, blame_trace: bool) -> None:
        """Squash the speculative trace and restart in program order."""
        stats = self._stats
        stats.trace_aborts += 1
        stats.abort_penalty_cycles += self.abort_penalty
        self._fetch_cycle += self.abort_penalty
        self._fetched_in_cycle = 0
        self._exec_program_order(trace.instructions, from_sc=False)
        if blame_trace:
            self._note_run(trace.start_pc, aborted=True)

    def _should_launch(self, start_pc: int) -> bool:
        counts = self._launch_stats.get(start_pc)
        if counts is None or counts[1] < 8:
            return True
        return counts[0] / counts[1] >= 0.5

    def _note_launch(self, start_pc: int, *, hit: bool) -> None:
        counts = self._launch_stats.setdefault(start_pc, [0, 0])
        counts[0] += int(hit)
        counts[1] += 1
        if counts[1] >= 64:
            # Age the counters so behaviour changes can re-enable
            # (or re-disable) speculation.
            counts[0] //= 2
            counts[1] //= 2

    def _note_run(self, start_pc: int, *, aborted: bool) -> None:
        counts = self._abort_counts.setdefault(start_pc, [0, 0])
        counts[0] += int(aborted)
        counts[1] += 1
        if (
            counts[1] >= 16
            and counts[0] / counts[1] > _ABORT_BIAS_THRESHOLD
        ):
            self.sc.mark_unmemoizable(start_pc)

    @staticmethod
    def _replay_aliases(trace: Trace, order: tuple[int, ...]) -> bool:
        """True if replaying *order* breaks a store->load dependence.

        The replay LSQ holds memory ops in program sequence; an alias
        exists when a load issues (in recorded order) before an older
        same-line store has issued.
        """
        insns = trace.instructions
        unissued_stores: dict[int, list[int]] = {}
        for pos, insn in enumerate(insns):
            if insn.is_store:
                unissued_stores.setdefault(
                    insn.mem_addr >> _LINE_SHIFT, []
                ).append(pos)
        if not unissued_stores:
            # No stores, no store->load order to break: most traces
            # take this exit and skip the replay scan entirely.
            return False
        for pos in order:
            insn = insns[pos]
            if insn.is_store:
                unissued_stores[insn.mem_addr >> _LINE_SHIFT].remove(pos)
            elif insn.is_load:
                older = unissued_stores.get(insn.mem_addr >> _LINE_SHIFT)
                if older and older[0] < pos:
                    return True
        return False

    # ------------------------------------------------------------------
    def _exec_replay(self, trace: Trace, order: tuple[int, ...]) -> None:
        """Issue the trace's instructions in their recorded OoO order."""
        stats = self._stats
        energy = self._energy
        insns = trace.instructions
        stats.memoized_instructions += len(insns)
        stats.branches += trace.num_branches
        # Fetch comes from the SC: one SC read per instruction, no L1I
        # pressure, no branch predictor lookups (path is asserted).
        energy.bump("sc_read", len(insns))
        energy.bump("decode", len(insns))
        energy.bump("oino_prf", len(insns))
        trace_end = self._last_complete
        for pos in order:
            insn = insns[pos]
            complete = self._issue_one(insn, energy, replay=True)
            if insn.is_store:
                # Stores are buffered until trace commit for squash
                # safety, but the store buffer forwards to younger
                # loads, so dependents wait only for the data.
                self._store_line_ready[insn.mem_addr >> _LINE_SHIFT] = \
                    complete
            if complete > trace_end:
                trace_end = complete
        if trace_end > self._last_complete:
            self._last_complete = trace_end

    def _exec_program_order(
        self, insns: list[Instruction], *, from_sc: bool
    ) -> None:
        """Plain InO execution (SC miss or post-abort replay)."""
        p = self.params
        stats = self._stats
        energy = self._energy
        for insn in insns:
            # ---------------- fetch ----------------
            if self._fetch_cycle < self._redirect_at:
                self._fetch_cycle = self._redirect_at
                self._fetched_in_cycle = 0
            line = insn.pc >> _LINE_SHIFT
            if line != self._last_fetch_line:
                res = self.memory.fetch(insn.pc, now=self._fetch_cycle)
                energy["icache"] += 1
                if not res.l1_hit:
                    stats.l1i_misses += 1
                    if not res.l2_hit:
                        stats.l2_misses += 1
                    self._fetch_cycle += res.latency - self.memory.l1_latency
                    self._fetched_in_cycle = 0
                self._last_fetch_line = line
            if self._fetched_in_cycle >= p.width:
                self._fetch_cycle += 1
                self._fetched_in_cycle = 0
            self._fetched_in_cycle += 1
            energy["fetch"] += 1
            energy["decode"] += 1

            complete = self._issue_one(insn, energy, replay=False)

            # ---------------- branches ----------------
            if insn.is_branch:
                stats.branches += 1
                energy["bpred"] += 1
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

    def _issue_one(
        self, insn: Instruction, energy: EnergyEvents, *, replay: bool
    ) -> int:
        """Common in-order issue/execute step; returns completion cycle.

        Called once per dynamic instruction from both execution modes,
        so energy events are recorded with direct ``Counter`` item
        updates (same keys, same totals as ``bump``, one call fewer).
        """
        p = self.params
        stats = self._stats
        if replay:
            earliest = self._last_issue
        else:
            earliest = self._fetch_cycle + p.fetch_to_issue
            if earliest < self._last_issue:
                earliest = self._last_issue
        dispatch = earliest
        load_wait = 0
        ldt = self._ldt and not replay
        reg_ready = self._reg_ready
        for src in insn.srcs:
            t = reg_ready.get(src, 0)
            if t > earliest:
                earliest = t
            if ldt:
                lt = self._load_ready.get(src, 0)
                if lt > load_wait:
                    load_wait = lt
        energy["rf_read"] += len(insn.srcs)
        if insn.is_load:
            dep = self._store_line_ready.get(insn.mem_addr >> _LINE_SHIFT, 0)
            if dep > earliest:
                earliest = dep
        res = None
        missed = False
        if insn.is_mem:
            energy["dcache"] += 1
            if replay:
                energy["oino_lsq"] += 1
            if insn.is_load:
                res = self.memory.load(insn.pc, insn.mem_addr, now=earliest)
                stats.loads += 1
            else:
                res = self.memory.store(insn.pc, insn.mem_addr, now=earliest)
                stats.stores += 1
            if not res.l1_hit:
                missed = True
                stats.l1d_misses += 1
                if not res.l2_hit:
                    stats.l2_misses += 1
                energy["l2"] += 1
                if replay:
                    slot = self._replay_ring[
                        self._replay_misses % OINO_REPLAY_LSQ_ENTRIES]
                else:
                    slot = self._miss_ring[self._misses % p.mem_inflight]
                if slot > earliest:
                    earliest = slot

        base_latency = insn.base_latency
        issue = self._fus.issue_at(insn.opclass, earliest, base_latency)
        if ldt and issue > dispatch and load_wait > dispatch:
            # Park the load-dependent: younger independents keep the
            # dispatch-point floor (see InOrderCore for the model).
            slot = self._ldt_ring[self._parked % p.ldt_queue]
            self._last_issue = dispatch if slot <= dispatch else slot
            self._ldt_ring[self._parked % p.ldt_queue] = \
                issue + base_latency
            self._parked += 1
            energy["lsq"] += 1
        else:
            self._last_issue = issue
        energy[fu_type_for(insn.opclass)] += 1

        complete = issue + base_latency
        if res is not None:
            complete += res.latency - 1
            if insn.is_store and not replay:
                self._store_line_ready[insn.mem_addr >> _LINE_SHIFT] = complete
            if missed:
                if replay:
                    self._replay_ring[
                        self._replay_misses % OINO_REPLAY_LSQ_ENTRIES] = \
                        complete
                    self._replay_misses += 1
                else:
                    self._miss_ring[self._misses % p.mem_inflight] = complete
                    self._misses += 1
        if insn.dst is not None:
            reg_ready[insn.dst] = complete
            energy["rf_write"] += 1
            if ldt:
                if insn.is_load:
                    self._load_ready[insn.dst] = complete
                else:
                    self._load_ready.pop(insn.dst, None)
        if complete > self._last_complete:
            self._last_complete = complete
        return complete
