"""Bench: Figure 8 — energy vs cluster size per arbitrator."""

from repro.experiments import fig8_energy


def test_fig8_energy(once):
    result = once(fig8_energy.run, n_values=(4, 8, 12, 16), n_mixes=6)
    by_n = {r["n"]: r["energy"] for r in result["rows"]}
    # All small-core designs sit far below the all-OoO baseline.
    for energy in by_n.values():
        assert energy["SC-MPKI"] < 0.75
        assert energy["Homo-InO"] < energy["SC-MPKI"]
    # 8:1 SC-MPKI: the paper's ~54 % saving (46 % relative energy).
    # EXPERIMENTS.md documents 0.43 and this model measures 0.452;
    # the band is a few points either side of it.
    assert 0.42 <= by_n[8]["SC-MPKI"] <= 0.48
    # Relative energy falls as one OoO is amortized over more InOs.
    series = [by_n[n]["SC-MPKI"] for n in (4, 8, 12, 16)]
    assert series[-1] < series[0]
