"""The one :class:`AppView` builder both simulator tiers share.

Historically ``cmp/system.py`` and ``cmp/detailed.py`` each assembled
the arbitrator's performance-counter view by hand with subtly different
``util`` definitions; this module is now the single place the view —
and in particular its Equation-3 utilization term — is defined.  Both
backends mirror their counters into
:class:`~repro.engine.state.AppState`, so the view list an
arbitrator materializes is literally :func:`interval_tier_views` for
everyone.

The arbitration path
(:meth:`~repro.engine.backends.ExecutionBackend.views_batch`) hands
arbitrators an :class:`AppViewBatch` instead of a list of
freshly-built :class:`~repro.arbiter.base.AppView` objects.  A batch
wraps the live ``AppState`` records: SC-MPKI, maxSTP and
SC-MPKI+maxSTP have ``pick_batch`` fast paths that read the counters
they rank by straight off them (none reads the Equation-3 ``util``
term), and everyone else — Fair, SC-MPKI-fair, plug-ins — gets the
exact historical view list from :meth:`AppViewBatch.views`, built by
the same code, bit for bit.  This module stays the one place
Equation 3 is computed.

Equation 3 (paper section 3.2)::

    util = (T_OoO + T_memoized * S) / T_total

and how each tier instantiates its terms:

* **interval tier** (:func:`interval_tier_views`):
  ``T_OoO`` = :attr:`AppState.t_ooo` (cycles resident on a producer),
  ``T_memoized`` = :attr:`AppState.t_memoized` (consumer cycles spent
  replaying memoized schedules), ``S`` = the Equation-2 speedup
  ``min(1, IPC_last / IPC_OoO_last)`` crediting memoized InO time at
  the rate it actually achieves, and ``T_total`` =
  ``max(1, AppState.t_total)``.

* **detailed tier** (:class:`~repro.cmp.detailed.DetailedBackend`):
  ``T_OoO`` = measured producer-resident cycles mirrored into
  ``t_ooo``, ``T_memoized`` stays 0 — replayed instructions are
  already folded into the *measured* consumer IPC, so crediting them
  again would double-count — and ``T_total`` = measured total cycles
  mirrored into ``t_total``.
"""

from __future__ import annotations

from repro.arbiter.base import AppView
from repro.metrics import util_share


def build_app_view(
    *,
    index: int,
    name: str,
    ipc_last: float,
    ipc_ooo_last: float | None,
    sc_mpki_ino: float,
    sc_mpki_ooo: float | None,
    intervals_since_ooo: int,
    on_ooo: bool,
    t_ooo: float,
    t_total: float,
    t_memoized: float = 0.0,
) -> AppView:
    """Assemble the arbitrator's view of one application.

    ``t_ooo`` / ``t_memoized`` / ``t_total`` are the Equation-3 terms
    (see the module docstring for what each tier passes); the
    Equation-2 memoization-speedup factor is derived here from the
    IPC counters, never supplied by the caller.
    """
    memo_speedup = (
        min(1.0, ipc_last / max(1e-9, ipc_ooo_last))
        if ipc_ooo_last else 0.0
    )
    return AppView(
        index=index,
        name=name,
        ipc_current=ipc_last,
        ipc_ooo_last=ipc_ooo_last,
        sc_mpki_ino=sc_mpki_ino,
        sc_mpki_ooo=sc_mpki_ooo,
        intervals_since_ooo=intervals_since_ooo,
        util=util_share(t_ooo, t_memoized, memo_speedup,
                        max(1.0, t_total)),
        on_ooo=on_ooo,
    )


def interval_tier_views(apps) -> list[AppView]:
    """Views over interval-tier :class:`~repro.engine.state.AppState`
    records, exactly as the arbitration phase polls them."""
    return [
        build_app_view(
            index=i,
            name=app.uid or app.model.name,
            ipc_last=app.ipc_last,
            ipc_ooo_last=app.ipc_ooo_last,
            sc_mpki_ino=app.sc_mpki_ino_last,
            sc_mpki_ooo=app.sc_mpki_ooo_last,
            intervals_since_ooo=app.intervals_since_ooo,
            on_ooo=app.on_ooo,
            t_ooo=app.t_ooo,
            t_memoized=app.t_memoized,
            t_total=app.t_total,
        )
        for i, app in enumerate(apps)
    ]


class AppViewBatch:
    """Every application's counters, handed to the arbitrator at once.

    ``apps`` holds the live :class:`~repro.engine.state.AppState`
    records; fast-path arbitrators (SC-MPKI, maxSTP, SC-MPKI+maxSTP)
    iterate them directly with plain attribute reads and pay nothing
    for the counters they ignore.
    :meth:`views` materializes the historical list of :class:`AppView`
    objects through :func:`build_app_view`, so arbitrators without a
    batch fast path observe bit-identical inputs.
    """

    __slots__ = ("apps",)

    def __init__(self, apps):
        self.apps = apps

    @classmethod
    def from_states(cls, apps) -> "AppViewBatch":
        """Wrap the live ``AppState`` records without copying them."""
        return cls(list(apps))

    def __len__(self) -> int:
        return len(self.apps)

    def views(self) -> list[AppView]:
        """Materialize the historical :class:`AppView` list."""
        return interval_tier_views(self.apps)
