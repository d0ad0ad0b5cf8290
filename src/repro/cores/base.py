"""Common core infrastructure: stats, energy event counters, results."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields


class EnergyEvents(Counter):
    """Per-structure activity counts consumed by :mod:`repro.energy`.

    Keys are structure names (``"rob"``, ``"prf"``, ``"scheduler"`` ...)
    matching :data:`repro.energy.model.DYNAMIC_ENERGY_PJ`, in the order
    the run first touched them.  The cores tally into a plain dict
    while they run (an exact-dict item update costs about half a
    ``Counter`` one) and wrap it once per run.
    """


@dataclass(slots=True)
class CoreStats:
    """Aggregate outcome counters for one simulation window."""

    instructions: int = 0
    cycles: int = 0
    branches: int = 0
    mispredicts: int = 0
    loads: int = 0
    stores: int = 0
    l1i_misses: int = 0
    l1d_misses: int = 0
    l2_misses: int = 0
    traces: int = 0
    # OinO-mode specific:
    sc_trace_hits: int = 0
    sc_trace_misses: int = 0
    memoized_instructions: int = 0
    trace_aborts: int = 0
    abort_penalty_cycles: int = 0

    @property
    def ipc(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles

    def sc_mpki(self) -> float:
        """SC trace-lookup misses per kilo committed instructions."""
        if self.instructions == 0:
            return 0.0
        return 1000.0 * self.sc_trace_misses / self.instructions

    @property
    def memoized_fraction(self) -> float:
        if self.instructions == 0:
            return 0.0
        return self.memoized_instructions / self.instructions

    def counters(self, prefix: str = "") -> dict[str, int]:
        """Flatten every field into telemetry counter entries.

        Keys are ``prefix + field name`` so callers can namespace by
        core kind (``"ooo."``, ``"ino."``) or application.
        """
        return {
            prefix + f.name: getattr(self, f.name)
            for f in fields(self)
        }


@dataclass(slots=True)
class CoreResult:
    """What a core run returns: timing stats plus energy activity."""

    core_name: str
    stats: CoreStats
    energy_events: EnergyEvents

    @property
    def ipc(self) -> float:
        return self.stats.ipc

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def instructions(self) -> int:
        return self.stats.instructions
