"""The execution-backend registry: an enumerable N-way backend family.

PR 4 made the two tiers "same engine, two backends"; this module turns
the hardwired pair into a registered, discoverable matrix.  Each entry
names one :class:`~repro.engine.backends.ExecutionBackend` flavour and
knows how to assemble a complete, runnable bundle of it — backend,
apps, cluster config, migration cost model — from one declarative
:class:`BackendSpec`.  Everything that selects a backend by name (the
CLI's ``--backends``, the ``backend-matrix`` experiment) resolves
through :func:`get_backend`, so an unknown name is always a clear
``ValueError`` listing the roster, never a stray ``KeyError``.

Built-in roster:

* ``analytic`` — the interval tier:
  :class:`~repro.engine.backends.AnalyticBackend` over per-benchmark
  phase models.
* ``detailed`` — the cycle tier:
  :class:`~repro.cmp.detailed.DetailedBackend` with OinO consumers.
* ``cgooo`` — cycle tier with
  :class:`~repro.cores.cgooo.CGOoOCore` block-level consumers.
* ``ldt`` — cycle tier with load-delay-tracking OinO consumers.

Third-party code adds entries with :func:`register_backend`; see
docs/api.md for a worked example.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.cmp.config import ClusterConfig
    from repro.cmp.migration import MigrationCostModel
    from repro.engine.backends import ExecutionBackend
    from repro.engine.state import AppState


@dataclass(frozen=True, slots=True)
class BackendSpec:
    """Everything a registry factory needs to assemble one bundle.

    One declarative record, shared by every backend flavour so the
    ``backend-matrix`` experiment can hand the *same* spec to each
    registered factory and compare like with like.
    """

    #: Benchmark names, one consumer core each.
    benchmarks: tuple[str, ...] = ("bzip2", "astar")
    #: Workload generator seed (cycle tiers).
    seed: int = 5
    #: Instructions per engine interval/slice (cycle tiers).
    slice_instructions: int = 8_000
    #: Schedule Cache capacity in bytes.
    sc_capacity: int = 8 * 1024


@dataclass(slots=True)
class BackendBundle:
    """A ready-to-run backend with its apps and cluster plumbing.

    Hand ``(config, apps, phases, backend=backend)`` to
    :class:`~repro.engine.loop.IntervalEngine` and run — the standard
    four-phase pipeline works unchanged for every registered flavour.
    """

    name: str                        #: registry name this came from
    tier: str                        #: "interval" or "cycle"
    backend: "ExecutionBackend"
    apps: "list[AppState]"
    config: "ClusterConfig"
    migration: "MigrationCostModel"


@dataclass(frozen=True, slots=True)
class BackendInfo:
    """One registry entry: a named, described backend factory."""

    name: str
    tier: str                        #: "interval" or "cycle"
    description: str
    factory: Callable[[BackendSpec], BackendBundle] = field(repr=False)

    def build(self, spec: BackendSpec | None = None) -> BackendBundle:
        """Assemble a runnable bundle (default spec when omitted)."""
        return self.factory(spec if spec is not None else BackendSpec())


_REGISTRY: dict[str, BackendInfo] = {}


def register_backend(
    name: str,
    factory: Callable[[BackendSpec], BackendBundle],
    *,
    tier: str = "cycle",
    description: str = "",
) -> BackendInfo:
    """Register (or replace) a backend factory under *name*.

    Returns the :class:`BackendInfo` now stored.  Re-registration
    overwrites — last writer wins, so tests can shadow a built-in
    with an instrumented variant and restore it after.
    """
    if tier not in ("interval", "cycle"):
        raise ValueError(
            f"tier must be 'interval' or 'cycle', got {tier!r}")
    info = BackendInfo(name=name, tier=tier, description=description,
                       factory=factory)
    _REGISTRY[name] = info
    return info


def get_backend(name: str) -> BackendInfo:
    """Resolve a backend name; raise a roster-listing ``ValueError``."""
    info = _REGISTRY.get(name)
    if info is None:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(
            f"unknown backend {name!r} — one of: {known} "
            f"(see 'mirage list --backends')")
    return info


def list_backends() -> list[BackendInfo]:
    """Every registered backend, sorted by name."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def backend_names() -> tuple[str, ...]:
    """The sorted roster of registered backend names."""
    return tuple(sorted(_REGISTRY))


# ---------------------------------------------------------------------
# Built-in factories.  Imports stay inside the factory bodies: the
# registry lives in repro.engine, which repro.cmp imports — the
# reverse edges must be lazy.
# ---------------------------------------------------------------------

def _analytic_factory(spec: BackendSpec) -> BackendBundle:
    """The interval tier: AnalyticBackend over phase models."""
    from repro.characterize import analytic_model
    from repro.cmp.config import ClusterConfig
    from repro.cmp.migration import MigrationCostModel
    from repro.engine.backends import AnalyticBackend
    from repro.engine.state import AppState

    config = ClusterConfig(
        n_consumers=len(spec.benchmarks),
        n_producers=1,
        mirage=True,
        sc_capacity_bytes=spec.sc_capacity,
    )
    migration = MigrationCostModel(config)
    apps = [AppState(model=analytic_model(name))
            for name in spec.benchmarks]
    return BackendBundle(
        name="analytic", tier="interval",
        backend=AnalyticBackend(migration),
        apps=apps, config=config, migration=migration,
    )


def _cycle_factory(backend_name: str) -> Callable[
        [BackendSpec], BackendBundle]:
    """A factory closure for one cycle-tier backend class."""
    def build(spec: BackendSpec) -> BackendBundle:
        from repro.cmp.config import ClusterConfig
        from repro.cmp.detailed import CYCLE_BACKENDS
        from repro.workloads import make_benchmark

        benchmarks = [
            make_benchmark(name, seed=spec.seed, base_addr=(i + 1) << 34)
            for i, name in enumerate(spec.benchmarks)
        ]
        config = ClusterConfig(
            n_consumers=len(benchmarks),
            n_producers=1,
            mirage=True,
            sc_capacity_bytes=spec.sc_capacity,
        )
        backend = CYCLE_BACKENDS[backend_name](
            benchmarks, config=config, sc_capacity=spec.sc_capacity,
            slice_instructions=spec.slice_instructions,
        )
        return BackendBundle(
            name=backend_name, tier="cycle", backend=backend,
            apps=backend.apps, config=config,
            migration=backend.migration,
        )
    return build


register_backend(
    "analytic", _analytic_factory, tier="interval",
    description="interval tier: analytic phase models, fused kernel",
)
register_backend(
    "detailed", _cycle_factory("detailed"), tier="cycle",
    description="cycle tier: OinO consumers replaying SC schedules",
)
register_backend(
    "cgooo", _cycle_factory("cgooo"), tier="cycle",
    description="cycle tier: CG-OoO block-window consumers",
)
register_backend(
    "ldt", _cycle_factory("ldt"), tier="cycle",
    description="cycle tier: load-delay-tracking OinO consumers",
)
