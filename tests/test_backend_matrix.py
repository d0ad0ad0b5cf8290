"""Conformance suite: every registered backend under one contract.

The registry promises that any :class:`~repro.engine.registry
.BackendInfo` builds a bundle the *unchanged* four-phase
:class:`~repro.engine.loop.IntervalEngine` can drive.  These tests run
that contract against the whole roster parametrically — a newly
registered backend gets the full battery for free — plus the
matrix-experiment pieces that ride on it (pairwise divergence, the
fig8-style core-model energy ordering, the load-delay-tracking issue
policy).
"""

import pytest

from repro.arbiter import SCMPKIArbitrator
from repro.energy import CoreEnergyModel
from repro.engine import (
    ArbitrationPhase,
    EnergyPhase,
    ExecutionPhase,
    IntervalEngine,
    MigrationPhase,
    MigrationTicket,
    backend_names,
    get_backend,
    list_backends,
    register_backend,
)
from repro.engine.registry import BackendSpec
from repro.telemetry import Telemetry

#: Small spec shared by every conformance run: big enough for real
#: dynamics, small enough to keep the parametric battery fast.
SPEC = BackendSpec(benchmarks=("bzip2", "astar"),
                   slice_instructions=1_500, sc_capacity=4 * 1024)


def build_engine(name, spec=SPEC, telemetry=None):
    bundle = get_backend(name).build(spec)
    engine = IntervalEngine(
        bundle.config, bundle.apps,
        [
            ArbitrationPhase(SCMPKIArbitrator()),
            MigrationPhase(),
            ExecutionPhase(),
            EnergyPhase(CoreEnergyModel()),
        ],
        backend=bundle.backend, telemetry=telemetry or Telemetry(),
    )
    return bundle, engine


def run_leg(name, intervals=6):
    bundle, engine = build_engine(name)
    budget = 200 if bundle.tier == "interval" else intervals
    ctx = engine.run(max_intervals=budget)
    return bundle, ctx


def state_fingerprint(apps):
    """The externally observable per-app outcome of a run."""
    return [
        (a.model.name, a.on_ooo, a.t_ooo, a.t_total,
         round(a.energy_pj, 6),
         getattr(a, "instructions", a.instr_done))
        for a in apps
    ]


class TestRegistry:
    def test_roster_contains_builtins(self):
        names = backend_names()
        for expected in ("analytic", "detailed", "cgooo", "ldt"):
            assert expected in names

    def test_unknown_name_is_roster_valueerror(self):
        with pytest.raises(ValueError, match="analytic.*detailed"):
            get_backend("no-such-backend")

    def test_list_backends_sorted_and_described(self):
        infos = list_backends()
        assert [i.name for i in infos] == sorted(i.name for i in infos)
        assert all(i.description for i in infos)
        assert all(i.tier in ("interval", "cycle") for i in infos)

    def test_register_replaces_and_restores(self):
        original = get_backend("detailed")
        marker = lambda spec: original.factory(spec)  # noqa: E731
        try:
            info = register_backend("detailed", marker, tier="cycle",
                                    description="shadowed")
            assert get_backend("detailed") is info
            assert get_backend("detailed").description == "shadowed"
        finally:
            register_backend("detailed", original.factory,
                             tier=original.tier,
                             description=original.description)
        assert get_backend("detailed").description == original.description

    def test_bad_tier_rejected(self):
        with pytest.raises(ValueError, match="tier"):
            register_backend("broken", lambda spec: None, tier="nope")


class TestBackendConformance:
    @pytest.mark.parametrize("name", backend_names())
    def test_bundle_shape(self, name):
        bundle = get_backend(name).build(SPEC)
        assert bundle.name == name
        assert bundle.tier in ("interval", "cycle")
        assert len(bundle.apps) == len(SPEC.benchmarks)
        assert [a.model.name for a in bundle.apps] == list(SPEC.benchmarks)
        assert bundle.config.n_consumers == len(SPEC.benchmarks)
        # Fresh apps start on consumer cores.
        assert not any(a.on_ooo for a in bundle.apps)

    @pytest.mark.parametrize("name", backend_names())
    def test_views_contract(self, name):
        bundle, engine = build_engine(name)
        ctx = engine.run(max_intervals=2)
        batch = bundle.backend.views_batch(ctx)
        views = batch.views()
        assert len(batch) == len(bundle.apps)
        assert len(views) == len(bundle.apps)
        for view, app in zip(views, bundle.apps):
            assert view.name == app.model.name

    @pytest.mark.parametrize("name", backend_names())
    def test_engine_runs_and_advances(self, name):
        bundle, ctx = run_leg(name)
        assert ctx.intervals >= 1
        assert all(o is not None for o in ctx.outcomes)
        for app in bundle.apps:
            assert app.t_total > 0
            assert app.energy_pj > 0
        # Residency accounting never exceeds total time.
        for app in bundle.apps:
            assert 0 <= app.t_ooo <= app.t_total

    @pytest.mark.parametrize("name", backend_names())
    def test_migration_ticket_semantics(self, name):
        """Interval tier charges now; cycle tiers defer to advance."""
        bundle, engine = build_engine(name)
        ctx = engine.run(max_intervals=2)
        app = bundle.apps[0]
        before = bundle.migration.total_migrations
        ticket = bundle.backend.migrate(ctx, 0, to_ooo=not app.on_ooo)
        if bundle.tier == "interval":
            assert isinstance(ticket, MigrationTicket)
            assert ticket.charged <= ctx.interval * 0.9
            assert bundle.migration.total_migrations == before + 1
        else:
            # Deferred: the decision is noted, the physical move (and
            # its accounting) happens when advance reaches the app.
            assert ticket is None
            assert bundle.migration.total_migrations == before
            ctx.mig_cost = [0.0] * len(bundle.apps)
            ctx.outcomes = [None] * len(bundle.apps)
            bundle.backend.advance(ctx, 0)
            assert bundle.migration.total_migrations == before + 1

    @pytest.mark.parametrize("name", backend_names())
    def test_repopulate_keeps_engine_runnable(self, name):
        bundle, engine = build_engine(name)
        ctx = engine.run(max_intervals=2)
        bundle.backend.repopulate(ctx)
        ctx2 = engine.run(max_intervals=1, stop_when_complete=False)
        assert ctx2.intervals == 1

    @pytest.mark.parametrize("name", backend_names())
    def test_deterministic_under_fixed_spec(self, name):
        _, ctx_a = run_leg(name)
        bundle_b, ctx_b = run_leg(name)
        assert state_fingerprint(ctx_a.apps) == state_fingerprint(
            bundle_b.apps)
        assert ctx_a.intervals == ctx_b.intervals

    @pytest.mark.parametrize("name", backend_names())
    def test_finalize_ran_through_engine(self, name):
        """engine.run calls finalize; SC counters must be folded."""
        tele = Telemetry()
        bundle, engine = build_engine(name, telemetry=tele)
        engine.run(max_intervals=4 if bundle.tier == "cycle" else 200)
        if bundle.tier == "cycle":
            counts = dict(tele.counters)
            assert any(key.startswith("sc.") for key in counts), counts


class TestBackendMatrixExperiment:
    def test_divergence_rows(self):
        from repro.experiments.backend_matrix import _divergence

        a = {"backend": "x", "stp": 0.5,
             "ooo_share": {"bzip2": 0.6, "astar": 0.1}}
        b = {"backend": "y", "stp": 0.4,
             "ooo_share": {"bzip2": 0.2, "astar": 0.3}}
        row = _divergence(a, b)
        assert row["pair"] == ("x", "y")
        assert row["d_stp"] == pytest.approx(0.1)
        assert row["d_share_memo"] == pytest.approx(0.4)
        assert row["agree_preference"] is False

    def test_run_validates_backend_names(self):
        from repro.experiments import backend_matrix

        with pytest.raises(ValueError, match="unknown backend"):
            backend_matrix.run(backends=("analytic", "typo"))

    def test_matrix_over_two_backends(self):
        from repro.experiments import backend_matrix

        result = backend_matrix.run(
            backends=("analytic", "detailed"), intervals=10,
            slice_instructions=1_500, max_intervals=200,
            energy_instructions=3_000)
        assert result["backends"] == ["analytic", "detailed"]
        assert len(result["legs"]) == 2
        assert len(result["pairwise"]) == 1
        tiers = {leg["backend"]: leg["tier"] for leg in result["legs"]}
        assert tiers == {"analytic": "interval", "detailed": "cycle"}
        assert {row["model"] for row in result["energy"]} == {
            "ino", "ldt", "cgooo", "ooo"}


class TestEnergyOrdering:
    def test_cgooo_lands_between_ino_and_ooo(self):
        """The fig8-style acceptance check: InO < CG-OoO < OoO EPI."""
        from repro.experiments.backend_matrix import energy_table

        rows = {row["model"]: row for row in energy_table(6_000)}
        assert (rows["ino"]["epi_pj"] < rows["cgooo"]["epi_pj"]
                < rows["ooo"]["epi_pj"])
        # And the performance side of the story: CG-OoO recovers a
        # chunk of the OoO's IPC advantage over the InO.
        assert (rows["ino"]["ipc"] < rows["cgooo"]["ipc"]
                < rows["ooo"]["ipc"])


class TestLoadDelayTracking:
    def test_ldt_beats_stall_on_memory_bound_stream(self):
        from repro.cores import InOrderCore, LDT_PARAMS
        from repro.memory import MemoryHierarchy
        from repro.workloads import make_benchmark

        n = 12_000
        stall = InOrderCore(MemoryHierarchy().core_view(0)).run(
            make_benchmark("mcf", seed=2).stream(), n)
        ldt = InOrderCore(MemoryHierarchy().core_view(0),
                          params=LDT_PARAMS).run(
            make_benchmark("mcf", seed=2).stream(), n)
        assert ldt.ipc > stall.ipc

    def test_default_stall_policy_unchanged(self):
        """issue_policy='stall' must be the byte-identical old path."""
        import dataclasses

        from repro.cores import INO_PARAMS, InOrderCore
        from repro.memory import MemoryHierarchy
        from repro.workloads import make_benchmark

        explicit = dataclasses.replace(INO_PARAMS, issue_policy="stall")
        n = 8_000
        a = InOrderCore(MemoryHierarchy().core_view(0)).run(
            make_benchmark("bzip2", seed=3).stream(), n)
        b = InOrderCore(MemoryHierarchy().core_view(0),
                        params=explicit).run(
            make_benchmark("bzip2", seed=3).stream(), n)
        assert a.cycles == b.cycles
        assert a.energy_events == b.energy_events
