"""CMP configuration: cluster shape and time scaling.

The paper's intervals (1 M cycles), sampling periods (50 M) and run
lengths (1 B instructions) are impractical for a pure-Python simulator,
so every time quantity scales through one :class:`TimeScale`.  All the
arbitration dynamics are ratios between these quantities, so scaling
them together preserves the trade-offs established in Figure 3b.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class TimeScale:
    """All time constants of the system, scaled consistently."""

    #: Arbitration/memoize-phase interval (paper: 1_000_000 cycles).
    interval_cycles: int
    #: Forced OoO sampling period for maxSTP (paper: 50 M cycles).
    sample_period_cycles: int
    #: Per-application instruction budget (paper: 1 B instructions).
    app_instruction_budget: int
    #: Pipeline drain + register state transfer on migration.
    drain_cycles: int
    #: L1 cache warm-up penalty after migration (paper: ~4 us ≈ 8000
    #: cycles at 2 GHz, dominating migration cost).
    l1_warmup_cycles: int
    #: Transfer of the 8 KB SC over the 32 B bus (paper: ~1000 cycles).
    sc_transfer_cycles: int

    def scaled(self, factor: float) -> "TimeScale":
        """Uniformly rescale every constant by *factor*."""
        return TimeScale(
            interval_cycles=max(1, int(self.interval_cycles * factor)),
            sample_period_cycles=max(
                1, int(self.sample_period_cycles * factor)),
            app_instruction_budget=max(
                1, int(self.app_instruction_budget * factor)),
            drain_cycles=max(1, int(self.drain_cycles * factor)),
            l1_warmup_cycles=max(1, int(self.l1_warmup_cycles * factor)),
            sc_transfer_cycles=max(1, int(self.sc_transfer_cycles * factor)),
        )


#: The paper's native time constants (2 GHz clock).
PAPER_SCALE = TimeScale(
    interval_cycles=1_000_000,
    sample_period_cycles=50_000_000,
    app_instruction_budget=1_000_000_000,
    drain_cycles=500,
    l1_warmup_cycles=8_000,
    sc_transfer_cycles=1_000,
)

#: Default simulation scale: 1/50 of the paper's constants.  The
#: migration-cost:interval and sampling:interval ratios are identical
#: to the paper's, so arbitration behaviour is preserved.
SIM_SCALE = PAPER_SCALE.scaled(1 / 50).scaled(1.0)


@dataclass(frozen=True, slots=True)
class ClusterConfig:
    """One Mirage cluster (or traditional Het-CMP cluster)."""

    n_consumers: int             #: InO/OinO cores (= apps per mix)
    n_producers: int = 1         #: OoO cores
    mirage: bool = True          #: consumers have the OinO mode + SC
    sc_capacity_bytes: int = 8 * 1024
    scale: TimeScale = SIM_SCALE

    def __post_init__(self) -> None:
        if self.n_consumers < 0 or self.n_producers < 0:
            raise ValueError("core counts must be non-negative")
        if self.n_consumers + self.n_producers == 0:
            raise ValueError("empty CMP")

    @property
    def name(self) -> str:
        """The cluster's display name, e.g. ``8:1-Mirage``."""
        kind = "Mirage" if self.mirage else "HetCMP"
        return f"{self.n_consumers}:{self.n_producers}-{kind}"
