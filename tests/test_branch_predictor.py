"""Unit tests for branch predictors and the BTB."""

import pytest

from repro.frontend import (
    BimodalPredictor,
    BranchTargetBuffer,
    GSharePredictor,
    TournamentPredictor,
)


class TestBimodal:
    def test_learns_always_taken(self):
        pred = BimodalPredictor(64)
        for _ in range(4):
            pred.access(0x1000, True)
        assert pred.predict(0x1000) is True

    def test_learns_always_not_taken(self):
        pred = BimodalPredictor(64)
        for _ in range(4):
            pred.access(0x1000, False)
        assert pred.predict(0x1000) is False

    def test_hysteresis_survives_single_flip(self):
        pred = BimodalPredictor(64)
        for _ in range(8):
            pred.access(0x1000, True)
        pred.access(0x1000, False)  # one anomaly
        assert pred.predict(0x1000) is True

    def test_mispredict_counting(self):
        pred = BimodalPredictor(64)
        for _ in range(10):
            pred.access(0x1000, True)
        assert pred.mispredicts < 10
        assert pred.lookups == 10

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            BimodalPredictor(100)

    def test_distinct_pcs_use_distinct_counters(self):
        pred = BimodalPredictor(64)
        for _ in range(4):
            pred.access(0x1000, True)
            pred.access(0x1004, False)
        assert pred.predict(0x1000) is True
        assert pred.predict(0x1004) is False


class TestGShare:
    def test_learns_global_pattern(self):
        """gshare learns an alternating T/N pattern via history."""
        pred = GSharePredictor(1024, history_bits=8)
        outcome = True
        mispredicts_late = 0
        for i in range(400):
            wrong = pred.access(0x2000, outcome)
            if i >= 300:
                mispredicts_late += wrong
            outcome = not outcome
        assert mispredicts_late <= 5

    def test_bimodal_cannot_learn_alternation(self):
        pred = BimodalPredictor(1024)
        outcome = True
        wrong_late = 0
        for i in range(400):
            wrong = pred.access(0x2000, outcome)
            if i >= 300:
                wrong_late += wrong
            outcome = not outcome
        assert wrong_late >= 40  # ~50 % of 100


class TestTournament:
    def test_beats_or_matches_components_on_mixture(self):
        """Tournament should track the better component per branch."""
        biased_pc, pattern_pc = 0x1000, 0x2000
        tour = TournamentPredictor(1024)
        bim = BimodalPredictor(1024)
        outcome = True
        for i in range(600):
            tour.access(biased_pc, True)
            bim.access(biased_pc, True)
            tour.access(pattern_pc, outcome)
            bim.access(pattern_pc, outcome)
            outcome = not outcome
        assert tour.mispredicts <= bim.mispredicts

    def test_learns_biased_branch_quickly(self):
        tour = TournamentPredictor(256)
        for _ in range(8):
            tour.access(0x3000, True)
        assert tour.predict(0x3000) is True


class TestBTB:
    def test_miss_then_hit(self):
        btb = BranchTargetBuffer(64)
        assert btb.lookup(0x1000) is None
        btb.install(0x1000, 0x2000)
        assert btb.lookup(0x1000) == 0x2000

    def test_conflict_eviction(self):
        btb = BranchTargetBuffer(64)
        btb.install(0x1000, 0x2000)
        conflicting = 0x1000 + 64 * 4   # same index, different tag
        btb.install(conflicting, 0x3000)
        assert btb.lookup(0x1000) is None

    def test_miss_rate(self):
        btb = BranchTargetBuffer(64)
        btb.lookup(0x1000)
        btb.install(0x1000, 0x2000)
        btb.lookup(0x1000)
        assert btb.miss_rate == pytest.approx(0.5)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            BranchTargetBuffer(100)
