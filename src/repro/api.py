"""The stable public surface, in one import.

Everything a script, notebook, or downstream test should need lives
here under one flat namespace::

    from repro.api import CMPSystem, SCMPKIArbitrator, run_experiment

The deep module paths (``repro.cmp.system``, ``repro.engine.backends``,
...) keep working — they are where the code lives — but this module is
the *supported* spelling: names listed in ``__all__`` follow the
package version's compatibility promise, internal layouts do not.

The facade groups six surfaces:

* **building blocks** — workloads, app models, cluster configs;
* **simulation** — :class:`CMPSystem` (interval tier),
  :class:`DetailedMirageCluster` (cycle tier), the batch-first
  :class:`ExecutionBackend` protocol and its backends, the backend
  registry (:func:`register_backend` / :func:`get_backend` /
  :func:`list_backends` over every flavour: analytic, detailed,
  CG-OoO, load-delay tracking), and the one migration price
  (:class:`MigrationCostModel`: pipeline drain, L1 warm-up and the
  Schedule Cache transfer);
* **arbitration** — the five paper arbitrators;
* **infrastructure** — telemetry, the sweep runner and the result
  cache (selected by a :class:`CacheConfig`); :class:`SliceMemo`
  stays exported only for the benchmark, which still reads it;
* **service** — the :mod:`repro.service` job server's client side
  (:class:`ServiceClient`, :class:`ServiceConfig`,
  :class:`SubmitRequest`);
* **entry points** — :func:`run_experiment` over the named experiment
  registry, and the bench harness.
"""

from __future__ import annotations

from typing import Any

from repro.arbiter import (
    FairArbitrator,
    MaxSTPArbitrator,
    SCMPKIArbitrator,
    SCMPKIFairArbitrator,
    SCMPKIMaxSTPArbitrator,
)
from repro.bench import compare_reports, run_benchmarks
from repro.characterize import AppModel, analytic_model
from repro.cmp import ClusterConfig, MigrationCostModel
from repro.cmp.detailed import (
    CGOoOBackend,
    DetailedBackend,
    DetailedMirageCluster,
    DetailedResult,
    LoadDelayBackend,
)
from repro.cores import CGOoOCore
from repro.cmp.system import CMPResult, CMPSystem, run_homo
from repro.config import CacheConfig, ServiceConfig, default_cache_dir
from repro.engine import (
    AnalyticBackend,
    AppViewBatch,
    BackendBundle,
    BackendInfo,
    BackendSpec,
    ExecutionBackend,
    IntervalEngine,
    backend_names,
    get_backend,
    list_backends,
    register_backend,
)
from repro.experiments import EXPERIMENTS, ExperimentParams
from repro.runner import ResultCache, SweepRunner, call_unit, cmp_unit
from repro.service import ServiceClient, SubmitRequest
from repro.simcache import SliceMemo
from repro.telemetry import (
    IntervalRecord,
    JSONLSink,
    MemorySink,
    Telemetry,
)
from repro.workloads import (
    ALL_BENCHMARKS,
    WorkloadMix,
    make_benchmark,
    standard_mixes,
)

__all__ = [
    # building blocks
    "ALL_BENCHMARKS", "AppModel", "ClusterConfig", "WorkloadMix",
    "analytic_model", "make_benchmark", "standard_mixes",
    # simulation
    "AnalyticBackend", "AppViewBatch", "BackendBundle", "BackendInfo",
    "BackendSpec", "CGOoOBackend", "CGOoOCore", "CMPResult",
    "CMPSystem", "DetailedBackend", "DetailedMirageCluster",
    "DetailedResult", "ExecutionBackend", "IntervalEngine",
    "LoadDelayBackend", "MigrationCostModel", "backend_names",
    "get_backend", "list_backends", "register_backend", "run_homo",
    # arbitration
    "FairArbitrator", "MaxSTPArbitrator", "SCMPKIArbitrator",
    "SCMPKIFairArbitrator", "SCMPKIMaxSTPArbitrator",
    # infrastructure
    "CacheConfig", "IntervalRecord", "JSONLSink", "MemorySink",
    "ResultCache", "SliceMemo", "SweepRunner",
    "Telemetry", "call_unit", "cmp_unit", "default_cache_dir",
    # service
    "ServiceClient", "ServiceConfig", "SubmitRequest",
    # entry points
    "EXPERIMENTS", "ExperimentParams", "compare_reports",
    "run_benchmarks", "run_experiment",
]


def run_experiment(name: str, *, quick: bool = False,
                   jobs: int = 1,
                   cache: CacheConfig | None = None,
                   **overrides: Any) -> dict:
    """Run one named experiment and return its result dict.

    The programmatic equivalent of ``mirage <name>``: resolves *name*
    in :data:`EXPERIMENTS`, threads the cache configuration to the
    sweep runner (it changes nothing process-wide), and forwards
    *overrides* to the experiment's ``run()``.

    Args:
        name: an experiment name (see ``mirage list``).
        quick: trimmed workload sizes, as ``--quick``.
        jobs: worker processes for sweep drivers.
        cache: the result-cache selection; ``None`` runs without
            the result cache.
        overrides: driver-specific keywords, e.g. ``n_mixes=4``.
    """
    if name not in EXPERIMENTS:
        known = ", ".join(EXPERIMENTS)
        raise KeyError(f"unknown experiment {name!r} — one of: {known}")
    params = ExperimentParams(quick=quick, jobs=jobs, cache=cache)
    return EXPERIMENTS[name].run(params, **overrides)
