"""Software (OS-level) arbitration (paper section 3.2.4).

The hardware arbitrator reacts at 1 M-cycle interval boundaries; an
arbitrator in the OS is restricted to scheduler-timeslice granularity
(~10 ms ≈ 20 M cycles at 2 GHz), i.e. it can only *re-decide* every
``reaction_intervals`` hardware intervals and holds its last decision
in between.  The paper predicts its effectiveness is lower because
memoizability decays sharply at coarser reaction times (Figure 3b);
:mod:`repro.experiments.software_arbiter` quantifies exactly that.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.arbiter.base import AppView, Arbitrator

if TYPE_CHECKING:
    from repro.engine.views import AppViewBatch

#: 10 ms OS timeslice over the paper's 1 M-cycle hardware interval.
OS_TIMESLICE_INTERVALS = 20


class SoftwareArbitrator(Arbitrator):
    """Wraps any arbitrator, limiting it to OS reaction granularity."""

    def __init__(self, inner: Arbitrator,
                 reaction_intervals: int = OS_TIMESLICE_INTERVALS):
        if reaction_intervals < 1:
            raise ValueError("reaction_intervals must be >= 1")
        self.inner = inner
        self.reaction_intervals = reaction_intervals
        self.name = f"software-{inner.name}"
        self._held: list[int] = []
        self._decided_at: int | None = None

    def _due(self, interval_index: int) -> bool:
        """True when a timeslice has passed since the last decision."""
        return (
            self._decided_at is None
            or interval_index - self._decided_at >= self.reaction_intervals
        )

    def pick(self, views: list[AppView], *, interval_index: int,
             slots: int = 1) -> list[int]:
        if self._due(interval_index):
            self._held = self.inner.pick(
                views, interval_index=interval_index, slots=slots)
            self._decided_at = interval_index
        return list(self._held)

    def pick_batch(self, batch: "AppViewBatch", *, interval_index: int,
                   slots: int = 1) -> list[int]:
        """:meth:`pick` that polls the counters only when it decides.

        A due interval decides through the inner policy's own
        ``pick_batch`` (equal to its ``pick`` by contract); the
        intervals in between return the held decision and build no
        views.  Subclasses that override :meth:`pick` fall back to it.
        """
        if type(self).pick is not SoftwareArbitrator.pick:
            return self.pick(batch.views(), interval_index=interval_index,
                             slots=slots)
        if self._due(interval_index):
            self._held = self.inner.pick_batch(
                batch, interval_index=interval_index, slots=slots)
            self._decided_at = interval_index
        return list(self._held)

    def reset(self) -> None:
        self.inner.reset()
        self._held = []
        self._decided_at = None
