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
  the in-order core's own: :class:`CGOoOCore` subclasses
  :class:`~repro.cores.inorder.InOrderCore`, runs each block through
  its program-order loop, and overrides only the issue floor.

This lands the core between the stall-on-use InO and the full OoO on
both IPC and energy per instruction, which is the point of the
comparison in the ``backend-matrix`` experiment.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from itertools import islice

from repro.cores.base import CoreResult
from repro.cores.inorder import InOrderCore
from repro.cores.params import (
    CGOOO_BLOCK_WINDOWS,
    CGOOO_PARAMS,
    CGOOO_WINDOW_ENTRIES,
    CoreParams,
)
from repro.frontend.branch_predictor import BranchPredictor
from repro.frontend.btb import BranchTargetBuffer
from repro.isa.instructions import Instruction
from repro.memory.hierarchy import CoreMemory
from repro.schedule.schedule_cache import Schedule, ScheduleCache
from repro.schedule.trace import Trace, TraceBuilder


class CGOoOCore(InOrderCore):
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
        super().__init__(memory, params=params, predictor=predictor, btb=btb)
        self.sc = sc

    # ------------------------------------------------------------------
    def run(
        self,
        stream: Iterable[Instruction],
        max_instructions: int,
        *,
        start_cycle: int = 0,
    ) -> CoreResult:
        """Execute up to *max_instructions* block by block."""
        self._begin(start_cycle)
        # Blocks issue dataflow-order inside their windows: no delay
        # queue, whatever the issue policy.
        self._ldt = False
        # Drain cycles of the outstanding block windows, oldest first.
        self._block_ring = deque([start_cycle] * CGOOO_BLOCK_WINDOWS,
                                 maxlen=CGOOO_BLOCK_WINDOWS)

        builder = TraceBuilder()
        n = 0
        for insn in islice(stream, max_instructions):
            n += 1
            done = builder.feed(insn)
            if done is not None:
                self._run_block(done)
        tail = builder.flush()
        if tail is not None:
            self._run_block(tail)
        return self._result(n, start_cycle, self.params.name)

    # ------------------------------------------------------------------
    def _run_block(self, trace: Trace) -> None:
        stats = self._stats
        energy = self._energy
        stats.traces += 1

        schedule = self.sc.lookup(trace.start_pc, trace.path_hash)
        energy["sc_read"] = energy.get("sc_read", 0) + 1
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
            energy["sc_read"] = energy.get("sc_read", 0) + len(insns)
        else:
            stats.sc_trace_misses += 1
            energy["bw_select"] = energy.get("bw_select", 0) + len(insns)

        # The window's completion ring, seeded with the block-ring
        # floor: its oldest entry is the issue floor (see _issue).
        # Every instruction completes no earlier than the one a window
        # older, so the ring also holds the block's latest completion.
        self._window = deque([self._block_ring[0]] * CGOOO_WINDOW_ENTRIES,
                             maxlen=CGOOO_WINDOW_ENTRIES)
        self._issues: list[int] = []
        self._exec_program_order(insns)
        self._block_ring.append(max(self._window))
        if not replayed:
            issues = self._issues
            order = tuple(sorted(range(len(issues)),
                                 key=issues.__getitem__))
            if self.sc.insert(Schedule(
                    trace.start_pc, trace.path_hash, order)):
                energy["sc_write"] = energy.get("sc_write", 0) + 1

    def _issue(
        self,
        insn: Instruction,
        earliest: int,
        lsq: deque[int] | None = None,
    ) -> int:
        """Block-window issue: no program-order floor inside a block.

        Instruction *j* waits for the block ring's floor and, once the
        window is full, for instruction *j - CGOOO_WINDOW_ENTRIES* of
        its block to complete: the oldest entry of the window's ring.
        """
        window = self._window
        self._issue_floor = window[0]
        energy = self._energy
        energy["bw_window"] = energy.get("bw_window", 0) + 1
        complete = InOrderCore._issue(self, insn, earliest)
        # Without delay-queue parking the floor the step leaves behind
        # is this instruction's issue cycle.
        self._issues.append(self._issue_floor)
        window.append(complete)
        return complete
