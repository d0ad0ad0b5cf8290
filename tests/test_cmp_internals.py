"""White-box tests for CMPSystem's interval mechanics."""

import pytest

from repro.arbiter import SCMPKIArbitrator
from repro.arbiter.base import Arbitrator
from repro.characterize import analytic_model
from repro.characterize.phase_model import AppModel, PhaseProfile
from repro.cmp import ClusterConfig, PAPER_SCALE
from repro.cmp.system import CMPSystem
from repro.engine import interval_tier_views


class PinnedArbitrator(Arbitrator):
    """Always assigns (or never assigns) fixed app indices."""

    name = "pinned"

    def __init__(self, picks):
        self.picks = list(picks)

    def pick(self, views, *, interval_index, slots=1):
        return self.picks[:slots]


def flat_model(name="flat", *, ipc_ooo=2.0, ratio=0.5, memo=0.9,
               vol=0.0, trace_kb=2.0):
    """Single-phase AppModel with fully controlled numbers."""
    return AppModel(
        name=name, category="HPD",
        phases=(PhaseProfile(
            phase_id=0, weight=1.0, ipc_ooo=ipc_ooo,
            ipc_ino=ipc_ooo * ratio, memoizable=memo,
            volatility=vol, trace_kb=trace_kb,
        ),),
        pass_instructions=10**9,
    )


def two_app_system(arbitrator, models=None, **cfg_kw):
    models = models or [flat_model("a"), flat_model("b")]
    config = ClusterConfig(n_consumers=2, n_producers=1, mirage=True,
                           **cfg_kw)
    return CMPSystem(config, models, arbitrator)


class TestCoverageDynamics:
    def test_producer_visit_fills_coverage(self):
        system = two_app_system(PinnedArbitrator([0]))
        system.run(max_intervals=3)
        app = system.apps[0]
        # trace_kb=2 fits the 8 KB SC entirely.
        assert app.sc_coverage == pytest.approx(1.0)
        assert app.sc_phase_id == 0

    def test_big_working_set_caps_coverage(self):
        model = flat_model(trace_kb=16.0)   # 2x the SC capacity
        system = two_app_system(PinnedArbitrator([0]),
                                models=[model, flat_model("b")])
        system.run(max_intervals=3)
        assert system.apps[0].sc_coverage == pytest.approx(0.5)

    def test_volatility_decays_coverage(self):
        model = flat_model(vol=0.2)
        system = two_app_system(PinnedArbitrator([0]),
                                models=[model, flat_model("b")])
        # One producer interval, then pin the OoO to app 1.
        system.run(max_intervals=1)
        system.arbitrator.picks = [1]
        system.run(max_intervals=4)
        cov = system.apps[0].sc_coverage
        assert cov < 1.0
        assert cov == pytest.approx(0.8 ** 4, rel=0.2)

    def test_zero_volatility_retains_coverage(self):
        system = two_app_system(PinnedArbitrator([0]))
        system.run(max_intervals=1)
        system.arbitrator.picks = [1]
        system.run(max_intervals=5)
        assert system.apps[0].sc_coverage == pytest.approx(1.0)


class TestPerformanceAccounting:
    def test_ooo_resident_runs_at_ooo_ipc(self):
        system = two_app_system(PinnedArbitrator([0]))
        system.run(max_intervals=2)
        assert system.apps[0].ipc_last == pytest.approx(2.0)

    def test_consumer_with_full_coverage_near_ooo(self):
        system = two_app_system(PinnedArbitrator([0]))
        system.run(max_intervals=1)
        system.arbitrator.picks = [1]
        system.run(max_intervals=2)
        ipc = system.apps[0].ipc_last
        # memo 0.9 x replay-efficiency 0.92 of 2.0 + 0.1 x 1.0
        assert ipc == pytest.approx(0.9 * 0.92 * 2.0 + 0.1 * 1.0,
                                    rel=0.02)

    def test_cold_consumer_runs_at_ino_ipc(self):
        system = two_app_system(PinnedArbitrator([1]))
        system.run(max_intervals=2)
        assert system.apps[0].ipc_last == pytest.approx(1.0)


class TestCounters:
    def test_util_counts_memoized_time(self):
        system = two_app_system(PinnedArbitrator([0]))
        system.run(max_intervals=1)
        system.arbitrator.picks = [1]
        system.run(max_intervals=10)
        app = system.apps[0]
        assert app.t_memoized > 0
        views = interval_tier_views(system.apps)
        assert views[0].util > views[1].util * 0.5

    def test_intervals_since_ooo_resets(self):
        system = two_app_system(PinnedArbitrator([0]))
        system.run(max_intervals=1)
        assert system.apps[0].intervals_since_ooo == 0
        system.arbitrator.picks = [1]
        system.run(max_intervals=3)
        assert system.apps[0].intervals_since_ooo == 3

    def test_completion_time_interpolated(self):
        # ipc 2.0, interval 20k cycles -> budget 20M instr completes
        # at exactly 500 intervals of pure OoO execution.
        model = flat_model(ipc_ooo=2.0)
        system = two_app_system(PinnedArbitrator([0]),
                                models=[model, flat_model("b")])
        budget = system.config.scale.app_instruction_budget
        intervals_needed = budget / (2.0 * 20_000)
        system.run(max_intervals=int(intervals_needed) + 10)
        done_at = system.apps[0].first_completion_cycles
        assert done_at == pytest.approx(
            intervals_needed * 20_000, rel=0.02)


class TestPaperScale:
    def test_interval_tier_runs_at_paper_scale(self):
        """The simulator works with the unscaled 1 M-cycle constants."""
        models = [analytic_model("hmmer"), analytic_model("bzip2")]
        config = ClusterConfig(n_consumers=2, n_producers=1,
                               mirage=True, scale=PAPER_SCALE)
        system = CMPSystem(config, models, SCMPKIArbitrator())
        result = system.run(max_intervals=100)
        assert result.intervals == 100
        assert result.total_cycles == 100 * 1_000_000
        # Migration cost ratios survive the scale change.
        overhead = sum(result.migration_cost_cycles.values())
        assert overhead < result.total_cycles * 0.1
