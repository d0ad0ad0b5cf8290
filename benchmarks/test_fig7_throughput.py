"""Bench: Figure 7 — STP vs cluster size per arbitrator."""

from repro.experiments import fig7_throughput


def test_fig7_throughput(once):
    result = once(fig7_throughput.run, n_values=(4, 8, 12, 16),
                  n_mixes=6)
    by_n = {r["n"]: r["stp"] for r in result["rows"]}
    for stp in by_n.values():
        # Mirage arbitrators beat the traditional runtime, which
        # beats homogeneous InO (paper's Figure 7 ordering).
        assert stp["SC-MPKI"] > stp["maxSTP"] > stp["Homo-InO"]
        # SC-MPKI+maxSTP is essentially as good as SC-MPKI.
        assert abs(stp["SC-MPKI+maxSTP"] - stp["SC-MPKI"]) < 0.08
    # At 8:1 the paper reports ~84 % of Homo-OoO for SC-MPKI and a
    # large gain over Homo-InO; require the gain to be substantial.
    assert by_n[8]["SC-MPKI"] - by_n[8]["Homo-InO"] > 0.10
    # EXPERIMENTS.md documents 0.77 at 8:1 (our InO:OoO ratios sit
    # ~0.2 below the paper's); this model measures 0.774.  A few
    # points either side, so a model change fails here: OinO replay
    # efficiency 0.92 -> 0.80 reads 0.710.
    assert 0.75 <= by_n[8]["SC-MPKI"] <= 0.80
    # Gains taper as the lone OoO saturates.
    gains = [by_n[n]["SC-MPKI"] - by_n[n]["Homo-InO"]
             for n in (4, 8, 12, 16)]
    assert gains[-1] < gains[0]
