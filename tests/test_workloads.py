"""Unit tests for the synthetic workload suite."""

import itertools

import pytest

from repro.isa import OpClass
from repro.workloads import (
    HPD_BENCHMARKS,
    LPD_BENCHMARKS,
    SPEC_PROFILES,
    get_profile,
    make_benchmark,
    standard_mixes,
)
from repro.workloads.mixes import MIX_HPD, MIX_LPD, MIX_RANDOM, WorkloadMix
from repro.workloads.profiles import BenchmarkProfile


def take(name, n, seed=1):
    return list(itertools.islice(make_benchmark(name, seed=seed).stream(), n))


class TestProfiles:
    def test_suite_has_26_benchmarks(self):
        assert len(SPEC_PROFILES) == 26
        assert len(HPD_BENCHMARKS) == 13
        assert len(LPD_BENCHMARKS) == 13

    def test_paper_table1_members(self):
        assert "hmmer" in HPD_BENCHMARKS
        assert "mcf" in HPD_BENCHMARKS
        assert "astar" in LPD_BENCHMARKS
        assert "bzip2" in LPD_BENCHMARKS

    def test_get_profile_unknown_raises(self):
        with pytest.raises(KeyError):
            get_profile("quake3")

    def test_targets_consistent_with_category(self):
        for prof in SPEC_PROFILES.values():
            if prof.category == "HPD":
                assert prof.target_ipc_ratio < 0.6
            else:
                assert prof.target_ipc_ratio >= 0.6

    def test_category_ratio_validation(self):
        with pytest.raises(ValueError):
            BenchmarkProfile(
                name="bad", category="HPD", chain_frac=0.5, use_distance=2,
                loop_carried_frac=0.1, accum_chains=2, mem_frac=0.3,
                store_frac=0.3, fp_frac=0.0, longop_frac=0.05,
                footprint_kb=64, stride_frac=0.8, pointer_chase_frac=0.0,
                chase_chains=1, branch_noise=0.02, internal_branches=2,
                body_len=48, variants=1, variant_switch_prob=0.0,
                code_kb=16, phase_count=1, phase_weights=(1.0,),
                loops_per_phase=1, target_ipc_ooo=1.0,
                target_ipc_ratio=0.8,   # inconsistent with HPD
                target_memoizable=0.5, schedule_volatility=0.1,
            )

    def test_phase_weights_length_checked(self):
        prof = get_profile("bzip2")
        assert len(prof.phase_weights) == prof.phase_count


class TestGenerator:
    def test_stream_determinism(self):
        a = take("gcc", 3000)
        b = take("gcc", 3000)
        assert all(
            x.pc == y.pc and x.opclass == y.opclass
            and x.mem_addr == y.mem_addr and x.taken == y.taken
            for x, y in zip(a, b)
        )

    def test_different_seeds_differ(self):
        a = take("gcc", 2000, seed=1)
        b = take("gcc", 2000, seed=2)
        assert any(x.mem_addr != y.mem_addr or x.taken != y.taken
                   for x, y in zip(a, b))

    def test_sequence_numbers_monotonic(self):
        insns = take("hmmer", 2000)
        assert [i.seq for i in insns] == list(range(2000))

    def test_trace_lengths_near_body_len(self):
        insns = take("hmmer", 20_000)
        backs = sum(1 for i in insns if i.is_backward_branch)
        mean_len = len(insns) / max(1, backs)
        assert 30 < mean_len < 110   # paper: ~50-instruction traces

    def test_memory_ops_have_addresses(self):
        for insn in take("mcf", 3000):
            if insn.is_mem:
                assert insn.mem_addr is not None

    def test_mem_fraction_tracks_profile(self):
        prof = get_profile("mcf")
        insns = take("mcf", 20_000)
        frac = sum(1 for i in insns if i.is_mem) / len(insns)
        assert abs(frac - prof.mem_frac) < 0.18

    def test_fp_benchmark_uses_fp_units(self):
        insns = take("bwaves", 5000)
        assert any(i.opclass in (OpClass.FALU, OpClass.FMUL, OpClass.FDIV)
                   for i in insns)

    def test_int_benchmark_avoids_fp(self):
        insns = take("gobmk", 5000)
        fp = sum(1 for i in insns
                 if i.opclass in (OpClass.FALU, OpClass.FMUL, OpClass.FDIV))
        assert fp == 0

    def test_phase_at_cycles(self):
        bench = make_benchmark("bzip2")
        budgets = bench.phase_budgets
        assert len(budgets) == get_profile("bzip2").phase_count
        assert bench.phase_at(0) == 0
        assert bench.phase_at(budgets[0]) == 1
        total = sum(budgets)
        assert bench.phase_at(total) == 0   # wraps to a new pass

    def test_phases_are_built_when_the_stream_reaches_them(self):
        bench = make_benchmark("bzip2")
        assert len(bench._phases) == 0
        window = list(itertools.islice(bench.stream(), 500))
        assert len(bench._phases) == 1       # 500 < phase 0's budget
        assert window == take("bzip2", 500, seed=0)

    def test_phase_changes_move_code_region(self):
        # Loop bursts overshoot phase budgets, so exact boundaries are
        # fuzzy; over a full pass the stream must still visit several
        # distinct per-phase code regions.
        bench = make_benchmark("bzip2")
        pass_len = sum(bench.phase_budgets)
        regions = {i.pc >> 16 for i in
                   itertools.islice(bench.stream(), pass_len)}
        assert len(regions) >= 3

    def test_address_spaces_disjoint_between_benchmarks(self):
        a = make_benchmark("hmmer", base_addr=0x1 << 32)
        b = make_benchmark("gcc", base_addr=0x2 << 32)
        addrs_a = {i.mem_addr for i in
                   itertools.islice(a.stream(), 3000) if i.is_mem}
        addrs_b = {i.mem_addr for i in
                   itertools.islice(b.stream(), 3000) if i.is_mem}
        assert addrs_a.isdisjoint(addrs_b)

    def test_taken_forward_branches_skip_instructions(self):
        insns = take("gobmk", 30_000)
        skips = [
            (a, b) for a, b in zip(insns, insns[1:])
            if a.is_branch and a.taken and not a.is_backward_branch
        ]
        assert skips, "expected taken forward branches"
        assert all(b.pc == a.target for a, b in skips)


class TestMixes:
    def test_standard_mix_count(self):
        mixes = standard_mixes(8)
        assert len(mixes) == 32

    def test_mix_sizes(self):
        for mix in standard_mixes(4):
            assert len(mix) == 4

    def test_category_composition(self):
        mixes = standard_mixes(8)
        hpd = [m for m in mixes if m.category == MIX_HPD]
        lpd = [m for m in mixes if m.category == MIX_LPD]
        rnd = [m for m in mixes if m.category == MIX_RANDOM]
        assert (len(hpd), len(lpd), len(rnd)) == (5, 5, 22)
        for m in hpd:
            assert all(b in HPD_BENCHMARKS for b in m)
        for m in lpd:
            assert all(b in LPD_BENCHMARKS for b in m)

    def test_mix_determinism(self):
        assert standard_mixes(8, seed=5) == standard_mixes(8, seed=5)
        assert standard_mixes(8, seed=5) != standard_mixes(8, seed=6)

    def test_oversized_mixes_reuse_pool(self):
        mixes = standard_mixes(16)
        assert all(len(m) == 16 for m in mixes)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            standard_mixes(0)
        with pytest.raises(ValueError):
            WorkloadMix(name="x", category=MIX_HPD, benchmarks=())

    def test_rejects_bad_category(self):
        with pytest.raises(ValueError):
            WorkloadMix(name="x", category="weird", benchmarks=("gcc",))
