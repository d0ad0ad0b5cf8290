"""Tests for the engine phase pipeline behind the interval tier."""

import pytest

from repro.engine import (
    AnalyticBackend,
    ArbitrationPhase,
    EnginePhase,
    EnergyPhase,
    ExecutionPhase,
    IntervalEngine,
    MigrationPhase,
    interval_tier_views,
)
from repro.experiments.common import make_system
from repro.telemetry import MemorySink, Telemetry
from repro.workloads import WorkloadMix

MIX = WorkloadMix(name="engine", category="Random",
                  benchmarks=("bzip2", "astar", "hmmer", "namd"))


class TestPipelineAssembly:
    def test_standard_phase_order(self):
        system = make_system(MIX, "SC-MPKI")
        assert [p.name for p in system.phases] == [
            "arbitration", "migration", "execution", "energy"]

    def test_duplicate_phase_names_rejected(self):
        system = make_system(MIX, "SC-MPKI")
        with pytest.raises(ValueError, match="duplicate"):
            IntervalEngine(system.config, system.apps,
                           [ExecutionPhase(), ExecutionPhase()])


class TestCustomPhase:
    def test_insertion_order_is_execution_order(self):
        # Phases run exactly in list order, every interval — a custom
        # phase slotted between standard ones sees mid-pipeline state.
        order = []

        def tap(name, probe=None):
            class Tap(EnginePhase):
                def run(self, ctx):
                    order.append(name)
                    if probe is not None:
                        probe(ctx)
            Tap.name = name
            return Tap()

        seen_mid = {}

        def mid_probe(ctx):
            # After migration, before execution: outcomes still empty.
            seen_mid.setdefault("outcomes", list(ctx.outcomes))

        base = make_system(MIX, "SC-MPKI")
        engine = IntervalEngine(
            base.config, base.apps,
            [tap("pre"), *base.phases, tap("post")],
            backend=AnalyticBackend(base.migration))
        engine.phases.insert(3, tap("mid", mid_probe))
        ctx = engine.run(max_intervals=2)
        assert ctx.intervals == 2
        assert order == ["pre", "mid", "post"] * 2
        assert seen_mid["outcomes"] == [None] * len(base.apps)
        assert [p.name for p in engine.phases] == [
            "pre", "arbitration", "migration", "mid", "execution",
            "energy", "post"]

    def test_custom_phase_runs_every_interval(self):
        class CountingPhase(EnginePhase):
            name = "counting"

            def __init__(self):
                self.calls = 0

            def run(self, ctx):
                self.calls += 1
                ctx.telemetry.counters.bump("counting.calls")

        base = make_system(MIX, "SC-MPKI")
        counting = CountingPhase()
        telemetry = Telemetry()
        engine = IntervalEngine(
            base.config, base.apps,
            [*base.phases, counting], telemetry=telemetry)
        ctx = engine.run(max_intervals=25)
        assert counting.calls == ctx.intervals == 25
        assert telemetry.counters["counting.calls"] == 25
        assert "counting" in telemetry.profiler.seconds


class TestProfiler:
    def test_all_phases_profiled(self):
        system = make_system(MIX, "SC-MPKI")
        system.run(max_intervals=30)
        profiler = system.telemetry.profiler
        assert set(profiler.seconds) == {
            "arbitration", "migration", "execution", "energy"}
        assert all(calls == 30 for calls in profiler.calls.values())
        assert profiler.total_seconds > 0


class TestViews:
    def test_views_match_shared_builder(self):
        # What the arbitrator is handed is the shared Equation-3 view.
        system = make_system(MIX, "SC-MPKI")
        ctx = system.engine.run(max_intervals=40)
        assert (system.backend.views_batch(ctx).views()
                == interval_tier_views(system.apps))

    def test_views_reflect_state(self):
        system = make_system(MIX, "SC-MPKI")
        system.run(max_intervals=40)
        views = interval_tier_views(system.apps)
        assert [v.name for v in views] == list(MIX)
        assert sum(v.on_ooo for v in views) <= system.config.n_producers
        assert all(0.0 <= v.util <= 1.0 for v in views)


class TestTelemetryNeutrality:
    def test_observed_run_matches_unobserved(self):
        # Attaching every sink must not perturb the simulation: the
        # wants() gating only skips record construction, never state.
        plain = make_system(MIX, "SC-MPKI")
        observed = make_system(MIX, "SC-MPKI",
                               telemetry=Telemetry(sinks=[MemorySink()]))
        r_plain = plain.run(max_intervals=200)
        r_observed = observed.run(max_intervals=200)
        assert r_plain.speedups == r_observed.speedups
        assert r_plain.energy_pj == r_observed.energy_pj
        assert r_plain.intervals == r_observed.intervals
        assert (r_plain.ooo_share_per_app
                == r_observed.ooo_share_per_app)
        assert r_plain.migrations == r_observed.migrations

    def test_engine_reuse_across_runs(self):
        # App state persists between run() calls; the interval index
        # restarts (the white-box multi-run convention).
        system = make_system(MIX, "SC-MPKI")
        first = system.run(max_intervals=10)
        done = [a.instr_done for a in system.apps]
        second = system.run(max_intervals=10)
        assert first.intervals == second.intervals == 10
        assert all(after >= before for before, after in
                   zip(done, (a.instr_done for a in system.apps)))


class TestExecutionBackends:
    """The pluggable-substrate seam under the shared phase pipeline."""

    def test_default_backend_is_analytic(self):
        base = make_system(MIX, "SC-MPKI")
        engine = IntervalEngine(base.config, base.apps, base.phases)
        assert isinstance(engine.backend, AnalyticBackend)
        assert engine.backend.name == "analytic"

    def test_cmp_system_shares_cost_model_with_backend(self):
        system = make_system(MIX, "SC-MPKI")
        assert system.engine.backend is system.backend
        assert system.backend.migration is system.migration

    def test_detailed_cluster_uses_detailed_backend(self):
        from repro.cmp.detailed import DetailedBackend, \
            DetailedMirageCluster
        from repro.arbiter import SCMPKIArbitrator
        from repro.workloads import make_benchmark

        cluster = DetailedMirageCluster(
            [make_benchmark("hmmer", seed=3),
             make_benchmark("gcc", seed=3, base_addr=2 << 34)],
            SCMPKIArbitrator(), slice_instructions=2_000)
        assert isinstance(cluster.engine.backend, DetailedBackend)
        assert cluster.engine.backend.name == "detailed"
        # Same four phases as the interval tier: one policy, two
        # substrates.
        assert [p.name for p in cluster.phases] == [
            "arbitration", "migration", "execution", "energy"]
        cluster.run(n_slices=4)
        profiler = cluster.telemetry.profiler
        assert set(profiler.seconds) == {
            "arbitration", "migration", "execution", "energy"}

    def test_custom_backend_drives_the_pipeline(self):
        from repro.engine import ExecutionBackend, ExecOutcome

        class ConstantBackend(ExecutionBackend):
            """Every app advances at a fixed IPC; no migrations."""
            name = "constant"

            def migrate(self, ctx, index, *, to_ooo):
                ctx.apps[index].on_ooo = to_ooo
                return None

            def advance(self, ctx, index):
                app = ctx.apps[index]
                app.instr_done += 0.5 * ctx.interval
                app.ipc_last = 0.5
                app.t_total += ctx.interval
                return ExecOutcome(kind="ino", ipc=0.5, memo_frac=0.0,
                                   effective=ctx.interval)

        base = make_system(MIX, "SC-MPKI")
        engine = IntervalEngine(base.config, base.apps, base.phases,
                                backend=ConstantBackend())
        ctx = engine.run(max_intervals=5)
        assert ctx.intervals == 5
        assert all(a.instr_done == 2.5 * ctx.interval for a in base.apps)

    def test_deferred_migration_ticket_accounting(self):
        # A backend returning None from migrate() owes the accounting
        # from its advance(); account_migration is the shared path.
        from repro.engine import (
            ExecutionBackend, ExecOutcome, MigrationTicket,
            account_migration,
        )

        class DeferringBackend(ExecutionBackend):
            """Analytic-free stub that defers every move."""
            name = "deferring"

            def __init__(self, cost_model):
                self.cost_model = cost_model
                self.pending = {}

            def migrate(self, ctx, index, *, to_ooo):
                self.pending[index] = to_ooo
                return None

            def advance(self, ctx, index):
                app = ctx.apps[index]
                to_ooo = self.pending.pop(index, None)
                if to_ooo is not None:
                    app.on_ooo = to_ooo
                    event = self.cost_model.migrate(
                        app.model.name, now_cycles=ctx.now,
                        interval_index=ctx.index, to_ooo=to_ooo,
                        sc_bytes=128)
                    account_migration(ctx, app.model.name, MigrationTicket(
                        to_ooo=to_ooo, sc_bytes=128, event=event,
                        charged=float(event.total_cycles)))
                app.ipc_last = 1.0
                app.sc_mpki_ino_last = 0.0 if app.on_ooo else 5.0
                app.t_total += ctx.interval
                return ExecOutcome(kind="ino", ipc=1.0, memo_frac=0.0,
                                   effective=ctx.interval)

        base = make_system(MIX, "SC-MPKI")
        backend = DeferringBackend(base.migration)
        telemetry, trace = Telemetry.recording(kinds={"migration"})
        engine = IntervalEngine(base.config, base.apps, base.phases,
                                backend=backend, telemetry=telemetry)
        engine.run(max_intervals=10)
        records = trace.records("migration")
        assert len(records) == base.migration.total_migrations > 0
        assert telemetry.counters["migration.count"] == len(records)
        assert all(r.sc_bytes == 128 for r in records)


class TestPhaseConstruction:
    def test_phases_are_reusable_components(self):
        # A pipeline can be assembled from scratch without CMPSystem.
        base = make_system(MIX, "maxSTP")
        phases = [
            ArbitrationPhase(base.arbitrator),
            MigrationPhase(),
            ExecutionPhase(),
            EnergyPhase(base.energy_model),
        ]
        engine = IntervalEngine(base.config, base.apps, phases,
                                backend=AnalyticBackend(base.migration))
        ctx = engine.run(max_intervals=15)
        assert ctx.intervals == 15
        assert sum(ctx.ooo_share) == ctx.ooo_active_intervals
