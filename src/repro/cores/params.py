"""Core parameterization (paper Table 2)."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class CoreParams:
    """Microarchitectural parameters for one core model.

    Front-end depth is :attr:`fetch_to_issue`: a mispredicted branch
    redirects fetch the cycle after it completes, and the refetched
    path pays those stages again before it issues.
    """

    name: str
    width: int = 3                 #: superscalar width (fetch/issue/commit)
    rob_size: int = 128            #: OoO window (ignored by InO)
    lq_size: int = 32              #: load-queue entries (OoO)
    sq_size: int = 32              #: store-queue entries (OoO)
    mem_inflight: int = 8          #: in-flight memory ops (InO/OinO MSHRs)
    fetch_to_issue: int = 4        #: front-end stages before issue

    #: Bubble cycles when a taken branch misses in the BTB.
    btb_miss_bubble: int = 2

    #: In-order issue policy: ``"stall"`` is the classic stall-on-use
    #: pipeline (instruction *i* blocks everything younger); ``"ldt"``
    #: adds load-delay tracking (Diavastos & Carlson) — an instruction
    #: waiting only on an outstanding load parks in a small delay
    #: queue and independent younger instructions keep issuing.
    issue_policy: str = "stall"
    #: Load-delay-tracking queue entries (parked load-dependents).
    ldt_queue: int = 8


#: The producer OoO: deeply pipelined 3-wide with big windows.
OOO_PARAMS = CoreParams(
    name="OoO",
    width=3,
    rob_size=128,
    lq_size=32,
    sq_size=32,
    fetch_to_issue=5,
)

#: The consumer InO: same width/FUs, shallower pipeline, no windows.
INO_PARAMS = CoreParams(
    name="InO",
    width=3,
    rob_size=1,
    mem_inflight=8,
    fetch_to_issue=3,
)

#: The load-delay-tracking consumer: the InO pipeline with per-load
#: delay counters gating issue instead of a blanket stall-on-use.
LDT_PARAMS = dataclasses.replace(
    INO_PARAMS, name="InO-LDT", issue_policy="ldt"
)

#: The CG-OoO consumer: block-granularity scheduling windows (coarse-
#: grain out-of-order, Mohammadi et al.).  Instructions inside one
#: block window issue dataflow-order; blocks retire through a small
#: ring of outstanding block windows instead of a global ROB.
CGOOO_PARAMS = CoreParams(
    name="CG-OoO",
    width=3,
    rob_size=1,
    mem_inflight=8,
    fetch_to_issue=4,
)

#: Outstanding block windows in the CG-OoO block ring: block *b*
#: cannot start issuing until block *b - CGOOO_BLOCK_WINDOWS* drained.
CGOOO_BLOCK_WINDOWS = 4
#: Instructions one block window can hold; longer dynamic blocks spill
#: into the next window slot (counted as an extra block).
CGOOO_WINDOW_ENTRIES = 32

#: OinO-mode additions (paper section 3.3.2): every architectural
#: register may map to up to 4 physical registers (128-entry PRF) and a
#: 32-entry replay LSQ tracks memory order inside an atomic trace.
OINO_PRF_MAPPINGS_PER_ARCH_REG = 4
OINO_REPLAY_LSQ_ENTRIES = 32
#: Squash + program-order restart penalty when a memoized trace
#: misspeculates (cycles of pipeline refill before re-execution).
OINO_ABORT_PENALTY = 12
