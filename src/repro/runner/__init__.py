"""Parallel sweep execution with deterministic result caching.

The experiment drivers describe their per-mix simulations as picklable
:class:`~repro.runner.units.WorkUnit` values; a
:class:`~repro.runner.executor.SweepRunner` executes a batch —
serially, or fanned out over worker processes — consulting the
content-addressed on-disk :class:`~repro.runner.cache.ResultCache`
first, so each distinct unit runs once per cache.  Unit order is
preserved, and every execution path (serial, parallel, cached) yields
bit-identical results because the simulator is deterministic per seed.

>>> from repro.runner import SweepRunner, ResultCache, cmp_unit
>>> runner = SweepRunner(jobs=4, cache=ResultCache(), experiment="fig7")
>>> results = runner.map([cmp_unit(mix, "SC-MPKI") for mix in mixes])
>>> runner.stats.summary()
"""

from repro.runner.cache import (
    MISS,
    ResultCache,
    default_cache_dir,
    unit_digest,
)
from repro.runner.executor import RunnerStats, SweepRunner, run_units
from repro.runner.pool import (
    PoolTaskError,
    PoolUnavailable,
    WarmPool,
    lpt_order,
    set_warm_pool_enabled,
    warm_pool_enabled,
)
from repro.runner.units import (
    ARBITRATORS,
    TRADITIONAL,
    WorkUnit,
    call_unit,
    cmp_unit,
    execute_unit,
    homo_unit,
    unit_label,
)

__all__ = [
    "ARBITRATORS",
    "TRADITIONAL",
    "MISS",
    "PoolTaskError",
    "PoolUnavailable",
    "ResultCache",
    "RunnerStats",
    "SweepRunner",
    "WarmPool",
    "WorkUnit",
    "call_unit",
    "cmp_unit",
    "default_cache_dir",
    "execute_unit",
    "homo_unit",
    "lpt_order",
    "run_units",
    "set_warm_pool_enabled",
    "unit_digest",
    "unit_label",
    "warm_pool_enabled",
]
