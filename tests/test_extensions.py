"""Tests for the extension features: software arbitration and
multithreaded schedule broadcast (paper sections 3.2.4 and 6)."""

import dataclasses

import pytest

from repro.arbiter import Arbitrator, FairArbitrator, SCMPKIArbitrator
from repro.arbiter.base import AppView
from repro.arbiter.software import SoftwareArbitrator
from repro.characterize import analytic_model
from repro.cmp import ClusterConfig
from repro.cmp.multithreaded import MultithreadedMirage
from repro.cmp.system import CMPSystem
from repro.engine import views as engine_views
from repro.experiments import multithreaded, software_arbiter
from repro.workloads import standard_mixes


def view(index, mpki_ino=2.0):
    return AppView(index=index, name=f"a{index}", ipc_current=0.5,
                   ipc_ooo_last=1.0, sc_mpki_ino=mpki_ino,
                   sc_mpki_ooo=2.0, intervals_since_ooo=50, util=0.1,
                   on_ooo=False)


class TestSoftwareArbitrator:
    def test_holds_decision_between_reactions(self):
        sw = SoftwareArbitrator(SCMPKIArbitrator(), reaction_intervals=5)
        stale = [view(0, mpki_ino=20.0), view(1)]
        first = sw.pick(stale, interval_index=0)
        # Change the world: the inner arbitrator would now pick 1.
        changed = [view(0), view(1, mpki_ino=20.0)]
        held = sw.pick(changed, interval_index=2)
        assert held == first
        # After the reaction period, the decision updates.
        updated = sw.pick(changed, interval_index=5)
        assert updated == [1]

    def test_granularity_one_is_transparent(self):
        inner = SCMPKIArbitrator()
        sw = SoftwareArbitrator(SCMPKIArbitrator(), reaction_intervals=1)
        views = [view(0, mpki_ino=20.0), view(1)]
        assert sw.pick(views, interval_index=0) == \
            inner.pick(views, interval_index=0)
        assert sw.pick(views, interval_index=1) == \
            inner.pick(views, interval_index=1)

    def test_rejects_bad_granularity(self):
        with pytest.raises(ValueError):
            SoftwareArbitrator(SCMPKIArbitrator(), reaction_intervals=0)

    def test_reset(self):
        sw = SoftwareArbitrator(SCMPKIArbitrator(), reaction_intervals=9)
        sw.pick([view(0, mpki_ino=20.0)], interval_index=0)
        sw.reset()
        assert sw._decided_at is None

    @pytest.mark.parametrize("inner, views_built", [
        (SCMPKIArbitrator, 0),   # SC-MPKI decides on its fast path
        (FairArbitrator, 20 * 8),  # one view list per decision
    ])
    def test_builds_views_only_when_it_decides(self, monkeypatch, inner,
                                                views_built):
        # 400 intervals at a 20-interval timeslice is 20 decisions over
        # 8 apps; the held intervals in between must poll nothing.
        built = []
        build = engine_views.build_app_view

        def counting_build(**kwargs):
            built.append(kwargs["index"])
            return build(**kwargs)

        class ViewsEveryInterval(SoftwareArbitrator):
            pick_batch = Arbitrator.pick_batch

        def run(arbitrator_cls):
            models = [analytic_model(name) for name
                      in standard_mixes(8, seed=2017)[0].benchmarks]
            config = ClusterConfig(n_consumers=8, n_producers=1,
                                   mirage=True)
            system = CMPSystem(config, models, arbitrator_cls(
                inner(), reaction_intervals=20))
            return dataclasses.asdict(system.run(max_intervals=400))

        monkeypatch.setattr(engine_views, "build_app_view", counting_build)
        shipped = run(SoftwareArbitrator)
        assert len(built) == views_built
        assert shipped == run(ViewsEveryInterval)

    def test_coarser_reaction_loses_throughput(self):
        result = software_arbiter.run(n_mixes=2)
        stps = [r["stp"] for r in result["rows"]]
        assert stps[0] > stps[-1]


class TestMultithreadedMirage:
    def _run(self, broadcast, name="hmmer", n=4):
        config = ClusterConfig(n_consumers=n, n_producers=1, mirage=True)
        return MultithreadedMirage(
            config, analytic_model(name), broadcast=broadcast).run()

    def test_requires_mirage_consumers(self):
        config = ClusterConfig(n_consumers=4, n_producers=1,
                               mirage=False)
        with pytest.raises(ValueError):
            MultithreadedMirage(config, analytic_model("hmmer"))

    def test_all_threads_complete(self):
        result = self._run(broadcast=True)
        assert result.n_threads == 4
        assert all(0 < s <= 1.0 for s in result.thread_speedups)

    def test_broadcast_reduces_ooo_time(self):
        with_bc = self._run(broadcast=True)
        without = self._run(broadcast=False)
        assert with_bc.ooo_active_fraction < without.ooo_active_fraction

    def test_broadcast_keeps_throughput(self):
        with_bc = self._run(broadcast=True)
        without = self._run(broadcast=False)
        assert with_bc.stp >= without.stp - 0.03

    def test_experiment_driver(self):
        result = multithreaded.run(n_threads=4)
        for row in result["rows"]:
            assert row["ooo_broadcast"] <= row["ooo_private"] + 0.02
            assert row["stp_broadcast"] >= row["stp_private"] - 0.05


class TestMultithreadedEnginePath:
    """The multithreaded cluster is now the standard engine pipeline
    plus a custom BroadcastPhase — exercise that seam directly."""

    def _cluster(self, broadcast=True, n=4):
        config = ClusterConfig(n_consumers=n, n_producers=1, mirage=True)
        return MultithreadedMirage(
            config, analytic_model("hmmer"), broadcast=broadcast)

    def test_pipeline_shape(self):
        with_bc = self._cluster(broadcast=True)
        assert [p.name for p in with_bc.phases] == [
            "arbitration", "migration", "execution", "energy",
            "broadcast"]
        without = self._cluster(broadcast=False)
        assert [p.name for p in without.phases] == [
            "arbitration", "migration", "execution", "energy"]

    def test_runs_on_analytic_backend(self):
        from repro.engine import AnalyticBackend

        cluster = self._cluster()
        assert isinstance(cluster.engine.backend, AnalyticBackend)
        assert cluster.engine.backend.migration is cluster.migration

    def test_broadcast_phase_profiled_and_counted(self):
        cluster = self._cluster(broadcast=True)
        result = cluster.run()
        profiler = cluster.telemetry.profiler
        assert "broadcast" in profiler.seconds
        assert profiler.calls["broadcast"] == result.intervals
        # The broadcasts actually happened and moved bus bytes.
        assert cluster.telemetry.counters["broadcast.transfers"] > 0

    def test_engine_counters_cover_migrations(self):
        cluster = self._cluster()
        cluster.run()
        counters = cluster.telemetry.counters
        assert counters["migration.count"] \
            == cluster.migration.total_migrations > 0
        assert counters["arbitration.granted"] > 0

    def test_memoize_phases_match_engine_bookkeeping(self):
        cluster = self._cluster()
        result = cluster.run()
        assert result.memoize_phases == round(
            result.ooo_active_fraction * result.intervals)
