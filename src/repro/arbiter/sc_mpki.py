"""Energy-efficiency-oriented arbitration (paper section 3.2.1)."""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING

from repro.arbiter.base import AppView, Arbitrator, fill_slots

if TYPE_CHECKING:
    from repro.engine.views import AppViewBatch

_INF = float("inf")
_key = itemgetter(0)


class SCMPKIArbitrator(Arbitrator):
    """Pick the application with the highest ΔSC-MPKI above a threshold.

    ΔSC-MPKI spikes when an application's Schedule Cache goes stale —
    the prime moment to refresh it on the producer.  Applications that
    recently held the OoO are damped by a decay factor so that
    volatile-schedule codes (gcc) do not ping-pong.  When no candidate
    clears the threshold the OoO is powered down for the interval.
    """

    name = "SC-MPKI"

    def __init__(self, *, threshold: float = 0.8, decay_strength: float = 8.0,
                 starvation_intervals: int = 200):
        self.threshold = threshold
        self.decay_strength = decay_strength
        #: Safety valve: every app is sampled on the OoO at least once
        #: per this many intervals so IPC/SC-MPKI estimates stay fresh.
        self.starvation_intervals = starvation_intervals

    def _score(self, view: AppView) -> float:
        delta = view.delta_sc_mpki
        if delta == float("inf"):
            return float("inf")
        decay = 1.0 + self.decay_strength / max(1, view.intervals_since_ooo)
        return delta / decay

    def pick(self, views: list[AppView], *, interval_index: int,
             slots: int = 1) -> list[int]:
        """Starving apps first, then the highest decayed ΔSC-MPKI."""
        starving = [
            v for v in views
            if v.intervals_since_ooo >= self.starvation_intervals
        ]
        # Score each view exactly once (delta_sc_mpki is a computed
        # property); the stable sort on the precomputed score keeps
        # ties in view order, same as sorting with _score as the key.
        scored = [(self._score(v), v) for v in views]
        candidates = [
            v for _, v in sorted(
                (pair for pair in scored if pair[0] > self.threshold),
                key=lambda pair: pair[0], reverse=True,
            )
        ]
        picked: list[int] = []
        for v in starving + candidates:
            if v.index not in picked:
                picked.append(v.index)
            if len(picked) >= slots:
                break
        return picked

    # ------------------------------------------------------------------
    def pick_batch(self, batch: "AppViewBatch", *, interval_index: int,
                   slots: int = 1) -> list[int]:
        """Fast path over the batch, identical to :meth:`pick`.

        ΔSC-MPKI, decay and the stable candidate ordering read the
        three counters they need straight off the live ``AppState``
        records instead of materializing ``AppView`` objects.
        Subclasses that override :meth:`pick` fall back to it so their
        policy is never silently bypassed.
        """
        if type(self).pick is not SCMPKIArbitrator.pick:
            return self.pick(batch.views(), interval_index=interval_index,
                             slots=slots)
        return self._pick_states(batch.apps, slots)

    def _pick_states(self, apps, slots: int) -> list[int]:
        threshold = self.threshold
        ds = self.decay_strength
        starvation = self.starvation_intervals
        starving: list[int] = []
        ordered: list[tuple[float, int]] = []
        for i, app in enumerate(apps):
            iso = app.intervals_since_ooo
            if iso >= starvation:
                starving.append(i)
            ooo = app.sc_mpki_ooo_last
            if ooo is None:
                score = _INF if app.sc_mpki_ino_last > 0 else 0.0
            else:
                # Conditionals spell out max(ooo, 0.1) / max(1, iso):
                # identical values, no builtin call on the hot loop.
                delta = (app.sc_mpki_ino_last - ooo) / (
                    ooo if ooo > 0.1 else 0.1)
                if delta == _INF:
                    score = _INF
                else:
                    score = delta / (1.0 + ds / (iso if iso > 1 else 1))
            if score > threshold:
                ordered.append((score, i))
        ordered.sort(key=_key, reverse=True)
        return fill_slots(starving + [i for _, i in ordered], slots)


class SCMPKIMaxSTPArbitrator(Arbitrator):
    """Throughput-oriented arbitration on the Mirage architecture.

    Prefers memoization opportunities weighted by the slowdown they
    would repair; when nothing is memoizable it still engages the OoO
    for the slowest application (never powers down), mirroring the
    always-on behaviour of maxSTP.
    """

    name = "SC-MPKI+maxSTP"

    def __init__(self, *, threshold: float = 1.0):
        self.threshold = threshold

    def pick(self, views: list[AppView], *, interval_index: int,
             slots: int = 1) -> list[int]:
        """Highest memoization-gain apps; lowest speedup as fallback."""
        def gain(view: AppView) -> float:
            slowdown = 1.0 - min(1.0, view.speedup)
            delta = view.delta_sc_mpki
            if delta == float("inf"):
                return float("inf")
            return delta * max(slowdown, 0.05)

        memoizable = sorted(
            (v for v in views if v.delta_sc_mpki > self.threshold),
            key=gain, reverse=True,
        )
        fallback = sorted(views, key=lambda v: v.speedup)
        picked: list[int] = []
        for v in list(memoizable) + fallback:
            if v.index not in picked:
                picked.append(v.index)
            if len(picked) >= slots:
                break
        return picked

    def pick_batch(self, batch: "AppViewBatch", *, interval_index: int,
                   slots: int = 1) -> list[int]:
        """Fast path over the batch, identical to :meth:`pick`.

        Speedup, ΔSC-MPKI and the memoization gain read the four
        counters they need straight off the live ``AppState`` records
        instead of building an ``AppView`` per app.  Both rankings
        sort ``(key, index)`` pairs on the key alone (the gain ranking
        with ``reverse=True``), so ties keep application order exactly
        as ``sorted`` over the views does.  Subclasses that override
        :meth:`pick` fall back to it.
        """
        if type(self).pick is not SCMPKIMaxSTPArbitrator.pick:
            return self.pick(batch.views(), interval_index=interval_index,
                             slots=slots)
        threshold = self.threshold
        memoizable: list[tuple[float, int]] = []
        speedups: list[tuple[float, int]] = []
        for i, app in enumerate(batch.apps):
            # AppView.speedup: never sampled reads 0, and
            # metrics.speedup reads 1 for a non-positive OoO IPC.
            ipc_ooo = app.ipc_ooo_last
            if ipc_ooo is None:
                speedup = 0.0
            elif ipc_ooo <= 0:
                speedup = 1.0
            else:
                speedup = app.ipc_last / ipc_ooo
            speedups.append((speedup, i))
            # AppView.delta_sc_mpki (Equation 1, floor 0.1).
            ooo = app.sc_mpki_ooo_last
            if ooo is None:
                delta = _INF if app.sc_mpki_ino_last > 0 else 0.0
            else:
                delta = (app.sc_mpki_ino_last - ooo) / (
                    ooo if ooo > 0.1 else 0.1)
            if delta > threshold:
                if delta == _INF:
                    gain = _INF
                else:
                    # delta * max(1 - min(1, speedup), 0.05), as
                    # conditionals: identical values.
                    slowdown = 1.0 - (speedup if speedup < 1.0 else 1.0)
                    gain = delta * (slowdown if slowdown >= 0.05
                                    else 0.05)
                memoizable.append((gain, i))
        memoizable.sort(key=_key, reverse=True)
        speedups.sort(key=_key)
        return fill_slots([i for _, i in memoizable + speedups], slots)
