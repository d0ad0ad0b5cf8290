"""Bench: Figure 9 — per-structure power and OoO utilization."""

from repro.experiments import fig9_power


def test_fig9_power_breakdown(once):
    result = once(fig9_power.run, instructions=20_000, n_mixes=4)
    power = result["breakdown"]["avg_power"]
    fractions = result["breakdown"]["fractions"]
    # Bands sit a few points around the values these arguments measure
    # (1.618 / 3.570 / 0.289 / 0.0144 / 0.0021 / 0.048 / 0.0147;
    # EXPERIMENTS.md's Figure 9a lines are the 30,000-instruction run),
    # so a change to what a core charges per event moves at least one
    # of them out.
    # OinO over InO, total power: the replay PRF, replay LSQ and SC
    # reads cost ~1.6x (EXPERIMENTS.md: 1.63x).  Documented deviation:
    # the paper's ~2.4x is a dynamic-power ratio (the model's dynamic
    # ratio is 2.1x) and lies outside this total-power band.
    assert 1.59 < power["oino"] / power["ino"] < 1.65
    # The OinO additions themselves: the expanded PRF is read on every
    # replayed instruction (~4.8 % of the OinO's power), the replay LSQ
    # on every replayed memory op (~1.5 %).
    oino_parts = fractions["oino"]
    assert 0.043 < oino_parts.get("oino_prf", 0) < 0.053
    assert 0.012 < oino_parts.get("oino_lsq", 0) < 0.018
    # OoO over OinO: ~3.6x (EXPERIMENTS.md: ~3.7x).  Documented
    # deviation: the paper's ~2.1x lies outside the band.
    assert 3.45 < power["ooo"] / power["oino"] < 3.70
    # The OoO's big reorder structures dominate its budget: scheduler,
    # ROB and rename together take ~29 % of its power.
    ooo_parts = fractions["ooo"]
    reorder = (ooo_parts.get("scheduler", 0) + ooo_parts.get("rob", 0)
               + ooo_parts.get("rename", 0))
    assert 0.27 < reorder < 0.31
    # The I-cache is read once per fetched line change: ~1.4 % of the
    # InO's power.  The OinO fetches memoized traces from the small SC,
    # so its I-cache share falls to ~0.2 %.
    ino_icache = fractions["ino"].get("icache", 0)
    oino_icache = oino_parts.get("icache", 0)
    assert 0.012 < ino_icache < 0.017
    assert 0.0015 < oino_icache < 0.0030
    assert oino_icache < ino_icache

    # Figure 9b: SC-MPKI gates the OoO at small n, saturates by 12:1;
    # the throughput arbitrators never gate.
    util = {r["n"]: r["active"] for r in result["utilization"]}
    assert util[4]["SC-MPKI"] < util[16]["SC-MPKI"]
    # Bands sit a few points around the values these arguments measure
    # (0.336 / 0.664 / 0.914 / 0.998; EXPERIMENTS.md's Figure 9b table
    # is the 6-mix run), so a change to SC-MPKI's threshold or decay
    # moves at least one of them out.
    # 4:1: few consumers produce stale schedules, so the OoO rests
    # about two thirds of the time.
    assert 0.30 <= util[4]["SC-MPKI"] <= 0.37
    # 8:1: the paper reports ~60 % utilization at the evaluated size.
    assert 0.62 <= util[8]["SC-MPKI"] <= 0.70
    # 12:1: close to saturation ("saturating past 12:1").
    assert 0.88 <= util[12]["SC-MPKI"] <= 0.95
    # 16:1: saturated; some consumer always needs a schedule.
    assert util[16]["SC-MPKI"] >= 0.98
    # maxSTP and SC-MPKI+maxSTP never power the OoO down, at any n.
    for n in (4, 8, 12, 16):
        assert util[n]["maxSTP"] > 0.99
        assert util[n]["SC-MPKI+maxSTP"] > 0.99
