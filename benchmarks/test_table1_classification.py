"""Bench: Table 1 — benchmark classification by InO:OoO IPC ratio."""

from repro.experiments import table1


def test_table1_classification(once):
    result = once(table1.run, instructions=20_000)
    # Two-band structure with strong agreement to the paper's labels.
    # EXPERIMENTS.md: hmmer and wrf sit on the boundary; this model
    # agrees on 23 of 26 (0.885).  One label either side, so a model
    # change that reshuffles the bands fails here.
    assert 22 / 26 <= result["agreement"] <= 24 / 26
    hpd = [r["ratio"] for r in result["rows"]
           if r["paper_category"] == "HPD"]
    lpd = [r["ratio"] for r in result["rows"]
           if r["paper_category"] == "LPD"]
    hpd_mean = sum(hpd) / len(hpd)
    lpd_mean = sum(lpd) / len(lpd)
    # HPD benchmarks sit below the split, LPD above, on average.
    assert hpd_mean < lpd_mean
    # The paper splits at 0.60; fidelity limit 1 in EXPERIMENTS.md
    # (InO:OoO ratios ~0.2 below the paper's) puts this model's
    # empirical boundary at 0.387, so the band cannot hold 0.60.  An
    # OoO ROB of 96 instead of 128 reads 0.436 and fails.
    assert 0.36 <= result["boundary"] <= 0.41
    # Band means, measured 0.293 (HPD) and 0.501 (LPD), under the same
    # limit.  The ROB-96 mutation reads an LPD mean of 0.559.
    assert 0.27 <= hpd_mean <= 0.32
    assert 0.47 <= lpd_mean <= 0.53
