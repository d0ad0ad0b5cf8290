"""Application migration between cores (paper sections 3.3.3, 5.5).

Migrating an application costs: draining the pipeline and moving
architectural state, re-warming the L1 caches on the destination, and
— in Mirage configurations — shipping the 8 KB Schedule Cache contents
over the shared coherent bus, where they contend with regular L1<->L2
traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cmp.config import ClusterConfig
from repro.memory.bus import SharedBus


@dataclass(slots=True)
class MigrationEvent:
    """Cost record for one migration, in cycles.

    Treated as immutable by convention (not ``frozen=True``: the
    frozen ``__init__`` routes every field through
    ``object.__setattr__``, several times the cost of a plain store,
    and these are built once per migration on the hot path).
    """

    app: str
    interval_index: int
    to_ooo: bool
    drain_cycles: int
    l1_warmup_cycles: int
    sc_transfer_cycles: int
    bus_contention_cycles: int

    @property
    def total_cycles(self) -> int:
        """Every component of the move's cost, summed."""
        return (
            self.drain_cycles
            + self.l1_warmup_cycles
            + self.sc_transfer_cycles
            + self.bus_contention_cycles
        )


class MigrationCostModel:
    """Computes migration costs and accounts bus traffic.

    Keeps a count and running totals, never a record per move, so its
    memory does not grow with the run: one interval-tier sweep prices
    over 100,000 moves.  Each move's :class:`MigrationEvent` goes back
    to the caller, and reaches a trace as a
    :class:`~repro.telemetry.events.MigrationRecord`.
    """

    def __init__(self, config: ClusterConfig, bus: SharedBus | None = None):
        self.config = config
        self.bus = bus or SharedBus()
        # ClusterConfig and TimeScale are frozen: read the constants
        # every move needs once.
        scale = config.scale
        self._mirage = config.mirage
        self._sc_capacity = config.sc_capacity_bytes
        self._sc_transfer = scale.sc_transfer_cycles
        self._drain = scale.drain_cycles
        self._l1_warmup = scale.l1_warmup_cycles
        self._count = 0
        # Running per-component totals, so cost_summary() stays O(1)
        # on hot sweep paths.
        self._totals = {
            "drain": 0.0, "l1_warmup": 0.0,
            "sc_transfer": 0.0, "bus_contention": 0.0,
        }

    def migrate(
        self,
        app: str,
        now_cycles: int,
        interval_index: int,
        to_ooo: bool,
        sc_bytes: int,
    ) -> MigrationEvent:
        """Price one migration; returns its cost breakdown.

        ``sc_bytes`` is how much Schedule Cache content actually moves:
        zero for traditional Het-CMPs, up to the SC capacity for
        Mirage.  Consumer->producer transfers also ship the SC so the
        producer knows what is already memoized.
        """
        bus = self.bus
        sc_cycles = 0
        contention = 0
        if self._mirage and sc_bytes > 0:
            # The paper approximates 1000 cycles for the full 8 KB;
            # partial contents scale proportionally.
            sc_cycles = max(1, int(self._sc_transfer * min(
                1.0, sc_bytes / self._sc_capacity)))
            start, _finish = bus.transfer(now_cycles, sc_bytes)
            contention = start - now_cycles
        # Architectural state + dirty L1 lines also cross the bus.
        bus.transfer(now_cycles, 2048)
        drain = self._drain
        l1_warmup = self._l1_warmup
        self._count += 1
        totals = self._totals
        totals["drain"] += drain
        totals["l1_warmup"] += l1_warmup
        totals["sc_transfer"] += sc_cycles
        totals["bus_contention"] += contention
        return MigrationEvent(app, interval_index, to_ooo, drain,
                              l1_warmup, sc_cycles, contention)

    # ------------------------------------------------------------------
    @property
    def total_migrations(self) -> int:
        """How many moves this model has priced so far."""
        return self._count

    def cost_summary(self) -> dict[str, float]:
        """Aggregate cycles by component (Figure 15's stacking)."""
        return dict(self._totals)
