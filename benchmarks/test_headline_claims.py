"""Bench: the abstract's headline claims at 8:1."""

import pytest

from repro.experiments import headline


def test_headline_claims(once):
    r = once(headline.run, n_mixes=8)
    # The bands sit a few points around what this model measures
    # (0.775 / +24.7 % / 0.428), so a model change fails them: e.g.
    # OinO replay efficiency 0.92 -> 0.80 reads 0.719 and +15.7 %.
    # Paper: ~84 % of an 8-OoO homogeneous CMP's performance.
    # EXPERIMENTS.md documents 77 %: our InO model sits ~0.2 below
    # gem5's on the InO:OoO ratio, so the whole scale shifts down.
    assert 0.75 <= r["performance_vs_homo_ooo"] <= 0.80
    # Paper: +28 % over the traditional Het-CMP runtime (maxSTP);
    # EXPERIMENTS.md documents +19-25 %, mix-dependent.
    assert 0.20 <= r["gain_vs_traditional"] <= 0.30
    # Paper: ~55 % energy saving (45 % relative energy);
    # EXPERIMENTS.md documents 42 %.
    assert 0.40 <= r["energy_vs_homo_ooo"] <= 0.46
    # ~25 % area saving.
    assert r["area_vs_homo_ooo"] == pytest.approx(0.74, abs=0.02)
    # The design scales to about 12 consumers per producer before the
    # OoO saturates.
    util = r["ooo_utilization_by_n"]
    assert util[8] < 0.95
    assert util[12] > 0.9 or util[16] > 0.95
