"""Bench: Figure 9 — per-structure power and OoO utilization."""

from repro.experiments import fig9_power


def test_fig9_power_breakdown(once):
    result = once(fig9_power.run, instructions=20_000, n_mixes=4)
    power = result["breakdown"]["avg_power"]
    # Paper Figure 9a ratios: OinO ~2.4x InO dynamic power; OoO ~2.1x
    # OinO.  Require the right ordering with generous bands.
    assert 1.3 < power["oino"] / power["ino"] < 4.0
    assert 1.4 < power["ooo"] / power["oino"] < 4.5
    # The OoO's big reorder structures dominate its budget.
    ooo_parts = result["breakdown"]["fractions"]["ooo"]
    reorder = (ooo_parts.get("scheduler", 0) + ooo_parts.get("rob", 0)
               + ooo_parts.get("rename", 0))
    assert reorder > 0.2
    # OinO replays fetch from the SC: it spends a smaller fraction on
    # the I-cache than the plain InO does.
    ino_icache = result["breakdown"]["fractions"]["ino"].get("icache", 0)
    oino_icache = result["breakdown"]["fractions"]["oino"].get(
        "icache", 0)
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
