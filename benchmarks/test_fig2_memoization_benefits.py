"""Bench: Figure 2 — oracle memoizability and the OinO boost."""

from repro.experiments import fig2_memoization


def test_fig2_memoization_benefits(once):
    result = once(fig2_memoization.run, instructions=25_000)
    overall = result["groups"]["overall"]
    hpd = result["groups"]["HPD"]
    lpd = result["groups"]["LPD"]
    # A substantial fraction of execution memoizes under the oracle.
    assert overall["memoized_fraction"] > 0.5
    # HPD memoizes more than LPD (paper's Figure 2).
    assert hpd["memoized_fraction"] > lpd["memoized_fraction"]
    # Paper: HPD also gains the larger boost.  Our synthetic LPD
    # stand-ins replay unusually well (their serialization is
    # loop-carried, which recorded schedules preserve perfectly), so
    # the two categories sit near parity here — documented in
    # EXPERIMENTS.md.  Require near-parity or better, not strict order.
    boost_hpd = hpd["perf_with_memoization"] - hpd["perf_plain_ino"]
    boost_lpd = lpd["perf_with_memoization"] - lpd["perf_plain_ino"]
    assert boost_hpd > boost_lpd - 0.05
    # Memoization always helps overall.
    assert (overall["perf_with_memoization"]
            > overall["perf_plain_ino"])

    # Bands sit a few points around the values this 25k window
    # measures (EXPERIMENTS.md's Figure 2 table), so a change to the
    # recorder, the Schedule Cache or the OinO replay moves one out.
    # Memoized fraction: 0.777 overall, 0.947 HPD, 0.608 LPD.  The
    # paper reads ~0.8 overall and ~0.9 HPD off its figure.
    assert 0.75 <= overall["memoized_fraction"] <= 0.80
    assert 0.93 <= hpd["memoized_fraction"] <= 0.96
    assert 0.58 <= lpd["memoized_fraction"] <= 0.63
    # OinO over OoO: 0.571 overall, 0.455 HPD, 0.687 LPD.  The paper's
    # ~0.85-0.9 lies outside every band: EXPERIMENTS.md's first Figure 2
    # deviation (per-trace in-order replay recovers less of the OoO's
    # overlap here).  An 8-entry replay LSQ instead of 32 reads
    # 0.480 / 0.409 / 0.551 and fails all three.  A 40-cycle abort
    # penalty instead of 12 moves overall only to 0.570: aborts are
    # too rare at this window for any band to see the penalty.
    assert 0.55 <= overall["perf_with_memoization"] <= 0.59
    assert 0.43 <= hpd["perf_with_memoization"] <= 0.48
    assert 0.66 <= lpd["perf_with_memoization"] <= 0.71
    # Plain InO over OoO: 0.397 overall, 0.289 HPD, 0.506 LPD, the
    # Figure 1 ratios at this window; fidelity limit 1 in
    # EXPERIMENTS.md puts them ~0.2 below the paper's.
    assert 0.38 <= overall["perf_plain_ino"] <= 0.42
    assert 0.27 <= hpd["perf_plain_ino"] <= 0.31
    assert 0.48 <= lpd["perf_plain_ino"] <= 0.53
