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

The in-order hardware is :class:`~repro.cores.inorder.InOrderCore`
itself: program-order execution is its loop, and a replayed trace goes
through its issue step with the replay LSQ's miss ring.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from itertools import islice

from repro.cores.base import CoreResult
from repro.cores.inorder import InOrderCore
from repro.cores.params import (
    INO_PARAMS,
    OINO_ABORT_PENALTY,
    OINO_REPLAY_LSQ_ENTRIES,
    CoreParams,
)
from repro.frontend.branch_predictor import BranchPredictor
from repro.frontend.btb import BranchTargetBuffer
from repro.isa.instructions import Instruction
from repro.memory.hierarchy import CoreMemory
from repro.schedule.schedule_cache import ScheduleCache
from repro.schedule.trace import Trace, TraceBuilder

_LINE_SHIFT = 6
#: Aborts out of executions after which a trace is locally blacklisted.
_ABORT_BIAS_THRESHOLD = 0.25


class OinOCore(InOrderCore):
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
        super().__init__(memory, params=params, predictor=predictor, btb=btb)
        self.sc = sc
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
        self._begin(start_cycle)
        # Replayed traces take their misses against the wider 32-entry
        # replay LSQ instead of the base core's MSHRs.
        self._replay_lsq = deque([0] * OINO_REPLAY_LSQ_ENTRIES,
                                 maxlen=OINO_REPLAY_LSQ_ENTRIES)
        builder = TraceBuilder()
        n = 0
        for insn in islice(stream, max_instructions):
            n += 1
            done = builder.feed(insn)
            if done is not None:
                self._run_trace(done)
        tail = builder.flush()
        if tail is not None:
            self._exec_program_order(tail.instructions)
        return self._result(n, start_cycle, "OinO")

    # ------------------------------------------------------------------
    def _run_trace(self, trace: Trace) -> None:
        stats = self._stats
        stats.traces += 1
        schedule = self.sc.lookup(trace.start_pc, trace.path_hash)
        energy = self._energy
        energy["sc_read"] = energy.get("sc_read", 0) + 1

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
                self._exec_program_order(trace.instructions)
        else:
            stats.sc_trace_misses += 1
            self._exec_program_order(trace.instructions)

    def _abort(self, trace: Trace, *, blame_trace: bool) -> None:
        """Squash the speculative trace and restart in program order."""
        stats = self._stats
        stats.trace_aborts += 1
        stats.abort_penalty_cycles += self.abort_penalty
        self._fetch_cycle += self.abort_penalty
        self._fetched_in_cycle = 0
        self._exec_program_order(trace.instructions)
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
        """Issue the trace's instructions in their recorded OoO order.

        Stores are buffered until trace commit for squash safety, but
        the store buffer forwards to younger loads, so dependents wait
        only for the data, as in program order.
        """
        stats = self._stats
        energy = self._energy
        insns = trace.instructions
        n = len(insns)
        stats.memoized_instructions += n
        stats.branches += trace.num_branches
        # Fetch comes from the SC: one SC read per instruction, no L1I
        # pressure, no branch predictor lookups (path is asserted).
        energy["sc_read"] = energy.get("sc_read", 0) + n
        energy["decode"] = energy.get("decode", 0) + n
        energy["oino_prf"] = energy.get("oino_prf", 0) + n
        lsq = self._replay_lsq
        for pos in order:
            # No front-end floor: only the in-order issue floor.
            self._issue(insns[pos], 0, lsq)
