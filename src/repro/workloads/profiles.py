"""Per-benchmark generator profiles for the synthetic SPEC 2006 suite.

Each :class:`BenchmarkProfile` has two groups of fields:

* **Structural parameters** consumed by :mod:`repro.workloads.generator`
  to synthesise the instruction stream (dependency-chain density,
  memory mix and footprint, branch noise, loop-body shape variants,
  phase structure).  These determine what the detailed cycle-level
  cores in :mod:`repro.cores` actually measure.

* **Calibration targets** distilled from the paper's description of
  each benchmark (Table 1 category, section 2/5 prose): the OoO IPC
  level, the InO:OoO IPC ratio that places it in the HPD (< 0.6) or
  LPD (>= 0.6) category, the oracle memoizable fraction, and the
  schedule volatility that drives Schedule-Cache staleness.  The
  analytic phase profiles used by the interval-level CMP simulator
  (:mod:`repro.characterize`) are derived from these targets, and the
  detailed simulators are validated against the *category* boundaries
  in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

HPD = "HPD"
LPD = "LPD"


@dataclass(frozen=True, slots=True)
class BenchmarkProfile:
    """Generator parameters plus paper-derived calibration targets."""

    name: str
    category: str

    # --- structural: dependencies and instruction mix -----------------
    chain_frac: float        #: prob. a source reads a recent dst (serialises)
    use_distance: int        #: producer->consumer distance of chained deps.
    #: Small (1-2) models tightly-scheduled code whose stalls only an OoO
    #: can hide (HPD); large (6-8) models code the compiler already
    #: scheduled well, which an in-order core runs near-OoO speed (LPD).
    mem_frac: float          #: fraction of body instrs that touch memory
    store_frac: float        #: of memory ops, fraction that are stores
    fp_frac: float           #: of arithmetic ops, fraction on FP units
    longop_frac: float       #: of arithmetic ops, fraction mul/div

    # --- structural: loop-carried recurrences ---------------------------
    loop_carried_frac: float  #: arithmetic ops that update an accumulator
    accum_chains: int        #: independent accumulator chains per body

    # --- structural: memory behaviour ---------------------------------
    footprint_kb: int        #: per-phase data working set
    stride_frac: float       #: strided (prefetchable) fraction of accesses
    pointer_chase_frac: float  #: loads on loop-carried pointer chains
    chase_chains: int        #: parallel pointer chains (MLP available)

    # --- structural: control flow --------------------------------------
    branch_noise: float      #: prob. an internal branch direction is random
    internal_branches: int   #: forward branches inside a loop body
    body_len: int            #: mean loop-body length (instructions)
    variants: int            #: distinct body shapes per static loop
    variant_switch_prob: float  #: per-iteration prob. of changing shape
    code_kb: int             #: static code footprint (L1I pressure)

    # --- structural: phases ---------------------------------------------
    phase_count: int
    phase_weights: tuple[float, ...]
    loops_per_phase: int

    # --- calibration targets (paper-derived) ----------------------------
    target_ipc_ooo: float    #: absolute IPC on the 3-wide OoO
    target_ipc_ratio: float  #: InO IPC / OoO IPC (Table 1 split at 0.6)
    target_memoizable: float  #: oracle fraction of instrs memoizable (Fig 2)
    schedule_volatility: float  #: per-interval SC staleness probability

    def __post_init__(self) -> None:
        if self.category not in (HPD, LPD):
            raise ValueError(f"bad category {self.category!r}")
        if len(self.phase_weights) != self.phase_count:
            raise ValueError("phase_weights must have phase_count entries")
        boundary = 0.6
        in_hpd = self.target_ipc_ratio < boundary
        if in_hpd != (self.category == HPD):
            raise ValueError(
                f"{self.name}: target_ipc_ratio {self.target_ipc_ratio} "
                f"inconsistent with category {self.category}"
            )


def _p(name, category, *, chain, mem, store=0.30, fp=0.0, longop=0.05,
       usedist=2, lc=0.10, accums=3,
       footprint_kb=64, stride=0.85, chase=0.0, chains=4, bnoise=0.02,
       ibranch=2,
       body=48, variants=2, vswitch=0.01, code_kb=16, phases=3,
       weights=None, loops=2, ipc_ooo=1.5, ratio=0.55, memo=0.85,
       vol=0.02) -> BenchmarkProfile:
    """Compact profile constructor with suite-wide defaults."""
    if weights is None:
        weights = tuple(1.0 for _ in range(phases))
    return BenchmarkProfile(
        name=name,
        category=category,
        chain_frac=chain,
        use_distance=usedist,
        loop_carried_frac=lc,
        accum_chains=accums,
        mem_frac=mem,
        store_frac=store,
        fp_frac=fp,
        longop_frac=longop,
        footprint_kb=footprint_kb,
        stride_frac=stride,
        pointer_chase_frac=chase,
        chase_chains=chains,
        branch_noise=bnoise,
        internal_branches=ibranch,
        body_len=body,
        variants=variants,
        variant_switch_prob=vswitch,
        code_kb=code_kb,
        phase_count=phases,
        phase_weights=tuple(weights),
        loops_per_phase=loops,
        target_ipc_ooo=ipc_ooo,
        target_ipc_ratio=ratio,
        target_memoizable=memo,
        schedule_volatility=vol,
    )


#: The 26 benchmarks of the paper's Table 1, HPD first.
#:
#: Recipe notes (derived from calibration sweeps of the detailed cores):
#: * ``chain`` + memory latency *lower* the InO:OoO ratio (program-order
#:   adjacency stalls the InO; the OoO reorders around it) -> HPD knob.
#: * ``lc`` (loop-carried accumulators) and ``bnoise`` (mispredicts hurt
#:   the deep OoO more) *raise* the ratio -> LPD knobs.
#: * ``bnoise``/``variants``/``vswitch`` destroy path repeatability ->
#:   memoizability knobs.
SPEC_PROFILES: dict[str, BenchmarkProfile] = {
    p.name: p
    for p in [
        # ----- High Performance Difference (InO:OoO IPC ratio < 0.6) ---
        _p("cactusADM", HPD, chain=0.52, usedist=1, mem=0.40, fp=0.80, lc=0.30,
           accums=1, footprint_kb=512, stride=0.90, bnoise=0.01,
           ipc_ooo=1.2, ratio=0.50, memo=0.86, vol=0.02),
        _p("bwaves", HPD, chain=0.35, mem=0.45, fp=0.85, lc=0.30, accums=1,
           footprint_kb=1024, stride=0.95, bnoise=0.005, variants=1,
           vswitch=0.0, ipc_ooo=1.4, ratio=0.45, memo=0.88, vol=0.015),
        _p("gamess", HPD, chain=0.50, usedist=1, mem=0.30, fp=0.70, lc=0.30, accums=2,
           footprint_kb=48, bnoise=0.01, ipc_ooo=2.0, ratio=0.55,
           memo=0.90, vol=0.01),
        _p("gromacs", HPD, chain=0.62, usedist=1, mem=0.32, fp=0.70, lc=0.35, accums=2,
           footprint_kb=96, bnoise=0.015, ipc_ooo=1.8, ratio=0.55,
           memo=0.88, vol=0.02),
        _p("h264ref", HPD, chain=0.62, usedist=1, mem=0.32, fp=0.05, lc=0.40, accums=1,
           footprint_kb=96, body=56, bnoise=0.03, ibranch=3, ipc_ooo=2.1,
           ratio=0.50, memo=0.90, vol=0.03),
        _p("hmmer", HPD, chain=0.50, usedist=1, mem=0.30, fp=0.02, lc=0.45, accums=1,
           footprint_kb=16, body=64, variants=1, vswitch=0.0, bnoise=0.005,
           ibranch=1, ipc_ooo=2.4, ratio=0.38, memo=0.95, vol=0.008),
        _p("leslie3d", HPD, chain=0.40, mem=0.42, fp=0.80, lc=0.30,
           accums=1, footprint_kb=768, stride=0.92, bnoise=0.01,
           ipc_ooo=1.3, ratio=0.50, memo=0.86, vol=0.02),
        _p("libquantum", HPD, chain=0.30, mem=0.45, fp=0.10, lc=0.30,
           accums=1, footprint_kb=2048, stride=0.98, variants=1,
           vswitch=0.0, bnoise=0.003, ipc_ooo=1.6, ratio=0.45, memo=0.96,
           vol=0.005),
        _p("mcf", HPD, chain=0.35, mem=0.50, fp=0.0, lc=0.10, accums=1,
           footprint_kb=4096, stride=0.15, chase=0.45, bnoise=0.06,
           variants=4, vswitch=0.20, ipc_ooo=0.45, ratio=0.40, memo=0.30,
           vol=0.15),
        _p("milc", HPD, chain=0.40, mem=0.45, fp=0.80, lc=0.30, accums=1,
           footprint_kb=1024, stride=0.90, bnoise=0.02, ipc_ooo=1.1,
           ratio=0.50, memo=0.82, vol=0.03),
        _p("povray", HPD, chain=0.50, mem=0.30, fp=0.50, lc=0.30, accums=2,
           bnoise=0.06, ibranch=4, ipc_ooo=1.9, ratio=0.58, memo=0.80,
           vol=0.04),
        _p("tonto", HPD, chain=0.50, mem=0.33, fp=0.75, lc=0.35, accums=2,
           footprint_kb=128, bnoise=0.015, ipc_ooo=1.7, ratio=0.55,
           memo=0.85, vol=0.02),
        _p("zeusmp", HPD, chain=0.40, mem=0.40, fp=0.80, lc=0.30, accums=1,
           footprint_kb=512, stride=0.92, bnoise=0.01, ipc_ooo=1.5,
           ratio=0.50, memo=0.86, vol=0.02),
        # ----- Low Performance Difference (ratio >= 0.6) ----------------
        _p("GemsFDTD", LPD, chain=0.35, usedist=12, mem=0.35, fp=0.80,
           lc=0.25, accums=2, longop=0.08, footprint_kb=512, stride=0.90,
           chase=0.20, chains=1, bnoise=0.05, ibranch=3, ipc_ooo=1.0,
           ratio=0.65, memo=0.72, vol=0.03),
        _p("astar", LPD, chain=0.35, usedist=12, mem=0.40, fp=0.0,
           lc=0.20, accums=1, footprint_kb=64, stride=0.30, chase=0.30,
           chains=1, bnoise=0.22, ibranch=5, variants=6, vswitch=0.35,
           ipc_ooo=0.8, ratio=0.80, memo=0.10, vol=0.25),
        _p("bzip2", LPD, chain=0.22, usedist=14, mem=0.35, fp=0.0,
           lc=0.38, accums=2, longop=0.15, footprint_kb=256, stride=0.70,
           bnoise=0.04, ibranch=3, phases=6, weights=(2, 1, 2, 1, 2, 1),
           ipc_ooo=1.3, ratio=0.68, memo=0.85, vol=0.02),
        _p("calculix", LPD, chain=0.30, usedist=14, mem=0.30, fp=0.60,
           lc=0.25, accums=2, longop=0.10, footprint_kb=128, bnoise=0.04,
           ipc_ooo=1.4, ratio=0.62, memo=0.76, vol=0.03),
        _p("dealII", LPD, chain=0.30, usedist=14, mem=0.35, fp=0.40,
           lc=0.25, accums=2, longop=0.10, chase=0.10, chains=2,
           bnoise=0.10, ibranch=4, code_kb=64, variants=3, vswitch=0.05,
           ipc_ooo=1.2, ratio=0.70, memo=0.60, vol=0.05),
        _p("gcc", LPD, chain=0.30, usedist=13, mem=0.35, fp=0.0, lc=0.25,
           accums=2, longop=0.10, footprint_kb=128, stride=0.60,
           chase=0.10, chains=2, bnoise=0.10, ibranch=5, code_kb=128,
           variants=5, vswitch=0.10, phases=5, weights=(1, 1, 1, 1, 1),
           ipc_ooo=1.0, ratio=0.72, memo=0.55, vol=0.30),
        _p("gobmk", LPD, chain=0.30, usedist=14, mem=0.30, fp=0.0,
           lc=0.25, accums=2, longop=0.12, bnoise=0.18, ibranch=6,
           code_kb=96, variants=5, vswitch=0.25, ipc_ooo=0.9, ratio=0.75,
           memo=0.30, vol=0.10),
        _p("namd", LPD, chain=0.35, usedist=10, mem=0.30, fp=0.80,
           lc=0.35, accums=1, footprint_kb=64, variants=1, vswitch=0.0,
           bnoise=0.02, ipc_ooo=1.6, ratio=0.64, memo=0.82, vol=0.015),
        _p("omnetpp", LPD, chain=0.35, usedist=12, mem=0.45, fp=0.0,
           lc=0.20, accums=1, footprint_kb=512, stride=0.30, chase=0.30,
           chains=1, bnoise=0.10, ibranch=4, ipc_ooo=0.7, ratio=0.72,
           memo=0.40, vol=0.10),
        _p("perlbench", LPD, chain=0.30, usedist=14, mem=0.35, fp=0.0,
           lc=0.25, accums=2, longop=0.12, bnoise=0.08, ibranch=5,
           code_kb=96, variants=4, vswitch=0.08, ipc_ooo=1.2, ratio=0.70,
           memo=0.50, vol=0.08),
        _p("sjeng", LPD, chain=0.30, usedist=14, mem=0.28, fp=0.0,
           lc=0.25, accums=2, longop=0.12, bnoise=0.14, ibranch=5,
           variants=4, vswitch=0.15, ipc_ooo=1.0, ratio=0.73, memo=0.35,
           vol=0.08),
        _p("wrf", LPD, chain=0.22, usedist=14, mem=0.38, fp=0.70,
           lc=0.34, accums=2, longop=0.08, footprint_kb=256, stride=0.90,
           chase=0.10, chains=2, bnoise=0.04, ipc_ooo=1.2, ratio=0.66,
           memo=0.76, vol=0.03),
        _p("xalancbmk", LPD, chain=0.25, usedist=14, mem=0.40, fp=0.0,
           lc=0.32, accums=1, footprint_kb=256, stride=0.40, chase=0.20,
           chains=2, bnoise=0.10, ibranch=4, code_kb=128, ipc_ooo=0.9,
           ratio=0.70, memo=0.45, vol=0.08),
    ]
}

ALL_BENCHMARKS: tuple[str, ...] = tuple(SPEC_PROFILES)
HPD_BENCHMARKS: tuple[str, ...] = tuple(
    n for n, p in SPEC_PROFILES.items() if p.category == HPD
)
LPD_BENCHMARKS: tuple[str, ...] = tuple(
    n for n, p in SPEC_PROFILES.items() if p.category == LPD
)


def get_profile(name: str) -> BenchmarkProfile:
    """Look up a benchmark profile by SPEC name (KeyError if unknown)."""
    try:
        return SPEC_PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; choose from {ALL_BENCHMARKS}"
        ) from None
