"""The layered interval engine behind both simulator tiers.

:class:`IntervalEngine` drives an ordered pipeline of
:class:`EnginePhase` steps — arbitration, migration, execution, energy
— over shared :class:`AppState` records, emitting structured events
into :mod:`repro.telemetry`.  The execution *substrate* is pluggable
through the :class:`ExecutionBackend` protocol: the analytic tier
(:class:`AnalyticBackend`, closed-form phase tables) and the detailed
tier (:class:`~repro.cmp.detailed.DetailedBackend`, real instruction
streams) run the same loop, phases, and telemetry paths.
:class:`~repro.cmp.system.CMPSystem` and
:class:`~repro.cmp.detailed.DetailedMirageCluster` are thin shells
that assemble the standard pipeline; custom phases and backends slot
in alongside the standard ones (see ``docs/api.md``).

Backends are enumerable through :mod:`repro.engine.registry`: every
flavour — analytic, detailed, CG-OoO, load-delay tracking — registers
a factory under a name, and :func:`get_backend`/:func:`list_backends`
resolve names where one is accepted (the CLI and the experiments).
"""

from repro.engine.backends import (
    ENGINE_CACHE_TAG,
    AnalyticBackend,
    ExecutionBackend,
    MigrationTicket,
)
from repro.engine.lifecycle import LifecyclePhase
from repro.engine.loop import IntervalEngine
from repro.engine.phases import (
    ArbitrationPhase,
    EngineContext,
    EnginePhase,
    EnergyPhase,
    ExecutionPhase,
    MigrationPhase,
    account_migration,
)
from repro.engine.registry import (
    BackendBundle,
    BackendInfo,
    BackendSpec,
    backend_names,
    get_backend,
    list_backends,
    register_backend,
)
from repro.engine.state import AppState, ExecOutcome
from repro.engine.views import (
    AppViewBatch,
    build_app_view,
    interval_tier_views,
)

__all__ = [
    "ENGINE_CACHE_TAG",
    "AnalyticBackend",
    "AppState",
    "AppViewBatch",
    "ArbitrationPhase",
    "BackendBundle",
    "BackendInfo",
    "BackendSpec",
    "EngineContext",
    "EnginePhase",
    "EnergyPhase",
    "ExecOutcome",
    "ExecutionBackend",
    "ExecutionPhase",
    "IntervalEngine",
    "LifecyclePhase",
    "MigrationPhase",
    "MigrationTicket",
    "account_migration",
    "backend_names",
    "build_app_view",
    "get_backend",
    "interval_tier_views",
    "list_backends",
    "register_backend",
]
