"""Bench: Figure 1 — InO vs OoO performance/power/energy/area."""

from repro.experiments import fig1_core_characteristics


def test_fig1_core_characteristics(once):
    result = once(fig1_core_characteristics.run, instructions=20_000)
    overall = result["groups"]["overall"]
    # Paper: InO keeps ~0.60 of the OoO's performance.  Fidelity limit
    # 1 in EXPERIMENTS.md (InO:OoO ratios ~0.2 below the paper's) puts
    # this model at 0.397, so the band cannot hold 0.60.  An OoO ROB
    # of 96 instead of 128 reads 0.442, and an InO with 4 in-flight
    # memory ops instead of 8 reads 0.331; both fail.
    assert 0.37 <= overall["performance"] <= 0.42
    # ~1/5 the power: measured 0.197, the paper's value inside.
    assert 0.18 <= overall["power"] <= 0.22
    # Paper ~0.33 of the energy; the longer InO runtime of limit 1
    # keeps this model at 0.536.  The 4-in-flight InO reads 0.596.
    assert 0.51 <= overall["energy"] <= 0.56
    # <1/2 the area: the calibrated core areas give 0.4545.
    assert 0.44 <= overall["area"] <= 0.47
    # HPD loses more performance on the InO than LPD does: 0.293 vs
    # 0.501, the same ratios Table 1's band means read.
    hpd = result["groups"]["HPD"]["performance"]
    lpd = result["groups"]["LPD"]["performance"]
    assert hpd < lpd
    assert 0.27 <= hpd <= 0.32
    assert 0.47 <= lpd <= 0.53
