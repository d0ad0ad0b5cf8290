"""Bench: Figure 15 — migration cost breakdown and frequency."""

from repro.experiments import fig15_migration


def test_fig15_migration_cost(once):
    result = once(fig15_migration.run, n_mixes=12)
    # Paper: transfer overheads are insignificant (~0.15 % of cycles).
    assert result["overall_transfer_frac"] < 0.01
    # Per migration, L1 refill dominates over the SC transfer.
    for row in result["rows"]:
        if row["migration_frequency"] > 0:
            assert row["l1_transfer_frac"] >= row["sc_transfer_frac"]
    # HPD mixes migrate more often than LPD mixes (schedule
    # production pays off for them).
    by_cat = result["by_category"]
    if "HPD" in by_cat and "LPD" in by_cat:
        assert (by_cat["HPD"]["migration_frequency"]
                >= by_cat["LPD"]["migration_frequency"])

    # Bands sit a few percent around the values 12 mixes measure.
    # Overall transfer overhead: 0.110 % of cycles.  The paper's
    # 0.15 % lies outside the band: EXPERIMENTS.md's Figure 15 line
    # (0.110 % vs 0.15 %).  An L1 warm-up of 16,000 cycles instead of
    # 8,000 reads 0.205 %, and an SC transfer of 4,000 cycles instead
    # of 1,000 reads 0.137 %: both fail here and pass `< 0.01`.
    assert 0.00100 <= result["overall_transfer_frac"] <= 0.00120
    # Transfer overhead per category: 0.155 % HPD, 0.063 % LPD,
    # 0.113 % Random.
    assert 0.00145 <= by_cat["HPD"]["transfer_frac"] <= 0.00165
    assert 0.00057 <= by_cat["LPD"]["transfer_frac"] <= 0.00069
    assert 0.00103 <= by_cat["Random"]["transfer_frac"] <= 0.00123
    # Migrations per interval: 1.338 HPD, 0.550 LPD, 0.979 Random
    # (EXPERIMENTS.md: HPD mixes migrate ~2x as often as LPD).
    assert 1.28 <= by_cat["HPD"]["migration_frequency"] <= 1.40
    assert 0.52 <= by_cat["LPD"]["migration_frequency"] <= 0.58
    assert 0.93 <= by_cat["Random"]["migration_frequency"] <= 1.03
