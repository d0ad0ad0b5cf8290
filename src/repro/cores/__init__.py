"""Cycle-level core models.

Four machines, all 3-wide with identical functional units (the paper's
configuration, chosen so issue schedules transfer directly):

* :class:`~repro.cores.ooo.OutOfOrderCore` — 12-stage, 128-entry ROB,
  dataflow issue within the ROB window; optionally records trace issue
  schedules through a :class:`~repro.schedule.recorder.ScheduleRecorder`.
* :class:`~repro.cores.inorder.InOrderCore` — 8-stage, stall-on-use,
  program-order issue.  It is the one in-order pipeline: the next two
  subclass it and reuse its fetch, issue/execute and branch steps.
* :class:`~repro.cores.oino.OinOCore` — an InOrderCore augmented with
  the OinO mode: traces that hit in the Schedule Cache issue in their
  recorded OoO order (atomically, with a replay LSQ and expanded PRF);
  misses and misspeculations fall back to program order.
* :class:`~repro.cores.cgooo.CGOoOCore` — the coarse-grain OoO
  comparison point, an InOrderCore whose blocks issue dataflow-order
  inside block-granularity windows, with a short ring of outstanding
  blocks across.

The in-order machines additionally accept
``CoreParams(issue_policy="ldt")`` (see :data:`LDT_PARAMS`): per-load
delay tracking parks load-dependents in a small queue so independent
younger instructions keep issuing, instead of blanket stall-on-use.

The models are *dataflow-slot* simulators: one pass per instruction
computes fetch/issue/complete/commit cycles subject to machine width,
window occupancy, functional-unit counts, cache latencies and branch
redirects, rather than iterating cycle by cycle (see DESIGN.md §5).
"""

from repro.cores.base import CoreResult, CoreStats, EnergyEvents
from repro.cores.cgooo import CGOoOCore
from repro.cores.functional_units import FUPool, fu_type_for
from repro.cores.inorder import InOrderCore
from repro.cores.oino import OinOCore
from repro.cores.ooo import OutOfOrderCore
from repro.cores.params import (
    CGOOO_PARAMS,
    INO_PARAMS,
    LDT_PARAMS,
    OOO_PARAMS,
    CoreParams,
)

__all__ = [
    "CoreParams",
    "OOO_PARAMS",
    "INO_PARAMS",
    "LDT_PARAMS",
    "CGOOO_PARAMS",
    "CoreResult",
    "CoreStats",
    "EnergyEvents",
    "FUPool",
    "fu_type_for",
    "OutOfOrderCore",
    "InOrderCore",
    "OinOCore",
    "CGOoOCore",
]
