"""Throughput-oriented arbitration for traditional Het-CMPs
(paper section 3.2.2, modelling prior work such as Becchi & Crowley)."""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING

from repro.arbiter.base import AppView, Arbitrator, fill_slots

if TYPE_CHECKING:
    from repro.engine.views import AppViewBatch

_key = itemgetter(0)


class MaxSTPArbitrator(Arbitrator):
    """Give the OoO to the application with the lowest speedup.

    ``speedup`` compares the current InO IPC to the IPC last observed
    on the OoO; every application is forcibly sampled on the OoO at
    least once per ``sample_every`` intervals (paper: 50 M cycles) to
    keep those estimates from going stale.  The OoO is never gated.
    """

    name = "maxSTP"

    def __init__(self, *, sample_every: int = 50):
        self.sample_every = sample_every

    def pick(self, views: list[AppView], *, interval_index: int,
             slots: int = 1) -> list[int]:
        """Stale estimates first, then the lowest-speedup apps."""
        stale = sorted(
            (v for v in views
             if v.ipc_ooo_last is None
             or v.intervals_since_ooo >= self.sample_every),
            key=lambda v: -v.intervals_since_ooo,
        )
        slowest = sorted(views, key=lambda v: v.speedup)
        picked: list[int] = []
        for v in stale + slowest:
            if v.index not in picked:
                picked.append(v.index)
            if len(picked) >= slots:
                break
        return picked

    def pick_batch(self, batch: "AppViewBatch", *, interval_index: int,
                   slots: int = 1) -> list[int]:
        """Fast path over the batch, identical to :meth:`pick`.

        Reads the three counters maxSTP ranks by straight off the live
        ``AppState`` records instead of building an ``AppView`` (and
        its Equation-3 term, which maxSTP never reads) per app.  Both
        rankings sort ``(key, index)`` pairs on the key alone, so ties
        keep application order exactly as ``sorted`` over the views
        does.  Subclasses that override :meth:`pick` fall back to it.
        """
        if type(self).pick is not MaxSTPArbitrator.pick:
            return self.pick(batch.views(), interval_index=interval_index,
                             slots=slots)
        sample_every = self.sample_every
        stale: list[tuple[int, int]] = []
        speedups: list[tuple[float, int]] = []
        for i, app in enumerate(batch.apps):
            ooo = app.ipc_ooo_last
            iso = app.intervals_since_ooo
            if ooo is None:
                # AppView.speedup: never sampled is maximal slowdown.
                speedups.append((0.0, i))
                stale.append((-iso, i))
                continue
            # metrics.speedup, inlined: a non-positive OoO IPC reads 1.
            speedups.append((1.0 if ooo <= 0 else app.ipc_last / ooo, i))
            if iso >= sample_every:
                stale.append((-iso, i))
        stale.sort(key=_key)
        speedups.sort(key=_key)
        return fill_slots([i for _, i in stale + speedups], slots)
