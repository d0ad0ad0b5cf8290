"""Arbitrator interface and the performance-counter view it polls."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.metrics import delta_sc_mpki, speedup

if TYPE_CHECKING:
    from repro.engine.views import AppViewBatch


@dataclass(slots=True)
class AppView:
    """One application's performance counters as the arbitrator sees
    them at an interval boundary (paper section 3.2)."""

    index: int
    name: str
    ipc_current: float          #: IPC over the last interval
    ipc_ooo_last: float | None  #: IPC last time this app ran on the OoO
    sc_mpki_ino: float          #: SC-MPKI over the last InO interval
    sc_mpki_ooo: float | None   #: SC-MPKI measured while memoizing
    intervals_since_ooo: int    #: intervals since last OoO residence
    util: float                 #: Equation-3 effective OoO timeshare
    on_ooo: bool

    @property
    def speedup(self) -> float:
        """Equation 2 estimate using the stale OoO IPC."""
        if self.ipc_ooo_last is None:
            return 0.0  # never sampled: assume maximal slowdown
        return speedup(self.ipc_current, self.ipc_ooo_last)

    @property
    def delta_sc_mpki(self) -> float:
        """Equation 1; conservative when the app was never memoized."""
        if self.sc_mpki_ooo is None:
            # Never on the OoO: everything misses, treat as strongly
            # stale so the app gets a first memoize phase.
            return float("inf") if self.sc_mpki_ino > 0 else 0.0
        return delta_sc_mpki(self.sc_mpki_ino, self.sc_mpki_ooo)


def fill_slots(order: list[int], slots: int) -> list[int]:
    """The first *slots* distinct indices of *order*.

    The selection loop every ``pick`` runs over its ranked views,
    spelled over bare indices for the ``pick_batch`` fast paths (same
    loop, so the same result for any *slots*, including < 1).
    """
    picked: list[int] = []
    for i in order:
        if i not in picked:
            picked.append(i)
        if len(picked) >= slots:
            break
    return picked


class Arbitrator(ABC):
    """Decides OoO occupancy for the next interval."""

    #: Display name used by the experiments/figures.
    name: str = "base"

    @abstractmethod
    def pick(self, views: list[AppView], *, interval_index: int,
             slots: int = 1) -> list[int]:
        """Return the app indices to run on the producer core(s).

        Up to *slots* indices (one per OoO).  An empty list powers the
        OoO(s) down for the interval.
        """

    def pick_batch(self, batch: "AppViewBatch", *, interval_index: int,
                   slots: int = 1) -> list[int]:
        """The entry point the engine's arbitration phase calls.

        The default materializes the historical view list from the
        batch and defers to :meth:`pick`, so subclassing ``pick``
        alone is enough.  SC-MPKI, maxSTP and SC-MPKI+maxSTP override
        this with a fast path that reads the live ``AppState`` records
        in ``batch.apps``; an override must return the indices
        :meth:`pick` would, and must fall back to :meth:`pick` when a
        subclass overrides it.
        """
        return self.pick(batch.views(), interval_index=interval_index,
                         slots=slots)

    def reset(self) -> None:
        """Clear internal state between runs (default: stateless)."""
