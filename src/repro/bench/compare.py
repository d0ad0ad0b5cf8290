"""Noise-aware regression comparison between two bench reports.

``mirage bench --compare OLD NEW`` diffs two ``BENCH_*.json`` files
benchmark by benchmark on their wall-sample *distributions*: the
headline ratio is mean-vs-mean, and a slowdown only counts as a
regression when it clears both the relative threshold and a noise
floor of :data:`NOISE_SIGMAS` pooled standard deviations — one lucky
or unlucky sample on a shared CI box no longer flips the verdict.
Reports recorded with ``repeats=1`` carry a single sample (zero
spread), so the comparison degenerates to the historical pure
threshold on their means.  Symmetric speedups are reported as
improvements, and benchmarks present on only one side are listed
rather than silently dropped.  This is the gate CI runs against the
committed baseline, and the evidence format perf PRs quote (see
``docs/performance.md`` for the baseline rules).

On top of the threshold and the sigma floor, every delta carries a
**Welch t-test** p-value computed from the two sides' summary
statistics (:func:`welch_t` + the regularized incomplete beta — no
scipy needed): ``regressed``/``improved`` additionally require
``p < ALPHA``, so one unlucky sample can never clear the gate, and
mean shifts that are *statistically significant but below the
threshold* are surfaced as ``slower (significant)`` /
``faster (significant)`` rows instead of vanishing into ``ok`` — a
reproducible 10 % slip is exactly the early warning a perf-focused
repo wants.  Resampled identical runs produce ``p ≈ 1`` and stay
silent.

Counter totals are held exactly: every probe's counters are
deterministic, so any total that differs between the two reports is a
behaviour change, not noise, and is listed in
:attr:`Comparison.counter_mismatches` (``docs/performance.md``
baseline rule 1).  The CLI fails on one even under ``--warn-only``,
which relaxes the timing gate only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

#: Default tolerated slowdown before a benchmark counts as regressed.
DEFAULT_THRESHOLD = 0.20

#: How many pooled standard deviations a mean shift must exceed before
#: it is believed: 2 sigma keeps the false-positive rate of a noisy
#: shared runner low without hiding real multi-sample regressions.
NOISE_SIGMAS = 2.0

#: Two-sided significance level for the Welch t-test gate.
ALPHA = 0.05


# ----------------------------------------------------------------------
# Welch's t-test from summary statistics (no scipy in the container)
# ----------------------------------------------------------------------
def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (Lentz's method)."""
    max_iterations, eps, tiny = 200, 3e-12, 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iterations + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            break
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """:math:`I_x(a, b)` — the Student-t CDF lives inside this."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log(1.0 - x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_two_sided_p(t: float, df: float) -> float:
    """Two-sided p-value of Student's t with *df* degrees of freedom."""
    if df <= 0:
        return 1.0
    return regularized_incomplete_beta(
        df / 2.0, 0.5, df / (df + t * t))


def welch_t(old_mean: float, old_std: float, old_n: int,
            new_mean: float, new_std: float,
            new_n: int) -> tuple[float, float]:
    """Welch's t statistic and Welch–Satterthwaite df from summaries.

    *old_std*/*new_std* are **population** standard deviations (what
    the reports store); Bessel's correction is applied here.  Returns
    ``(0.0, 0.0)`` when neither side carries usable spread — the
    caller decides what zero-variance means.
    """
    var_old = (old_std ** 2 * old_n / (old_n - 1)
               if old_n > 1 else 0.0)
    var_new = (new_std ** 2 * new_n / (new_n - 1)
               if new_n > 1 else 0.0)
    se_old = var_old / max(1, old_n)
    se_new = var_new / max(1, new_n)
    se_sq = se_old + se_new
    if se_sq <= 0.0:
        return 0.0, 0.0
    t = (new_mean - old_mean) / math.sqrt(se_sq)
    df_denominator = 0.0
    if old_n > 1:
        df_denominator += se_old ** 2 / (old_n - 1)
    if new_n > 1:
        df_denominator += se_new ** 2 / (new_n - 1)
    df = se_sq ** 2 / df_denominator if df_denominator > 0 else 0.0
    return t, df


def _mean(samples: Sequence[float]) -> float:
    return sum(samples) / len(samples) if samples else 0.0


def _std(samples: Sequence[float]) -> float:
    """Population standard deviation (0.0 for a single sample)."""
    if len(samples) < 2:
        return 0.0
    mean = _mean(samples)
    return math.sqrt(_mean([(s - mean) ** 2 for s in samples]))


def _samples(entry: dict) -> list[float]:
    """An entry's wall samples; pre-noise reports carry only best."""
    samples = entry.get("wall_seconds") or [entry["best"]]
    return [float(s) for s in samples]


@dataclass(frozen=True)
class BenchDelta:
    """Old-vs-new outcome for one benchmark present in both reports."""

    name: str
    tier: str
    old_best: float
    new_best: float
    old_mean: float
    new_mean: float
    old_std: float
    new_std: float
    threshold: float
    old_n: int = 1
    new_n: int = 1

    @property
    def ratio(self) -> float:
        """``new / old`` mean wall time; > 1 means new is slower."""
        return self.new_mean / max(1e-12, self.old_mean)

    @property
    def speedup(self) -> float:
        """``old / new`` mean wall time; > 1 means new is faster."""
        return self.old_mean / max(1e-12, self.new_mean)

    @property
    def noise_floor(self) -> float:
        """The mean shift (seconds) explainable by sample noise.

        :data:`NOISE_SIGMAS` times the pooled standard deviation of
        the two sides; 0.0 when both reports carry single samples, so
        single-sample comparisons reduce to the pure threshold.
        """
        return NOISE_SIGMAS * math.sqrt(
            self.old_std ** 2 + self.new_std ** 2)

    @property
    def p_value(self) -> float:
        """Welch two-sided p for "the mean wall times differ".

        Degenerate spreads keep the historical semantics: when
        neither side carries usable variance (single samples, or
        deterministic timers), equal means give ``p = 1`` and
        different means ``p = 0`` — so ``repeats=1`` reports reduce
        to the pure threshold gate exactly as before.
        """
        t, df = welch_t(self.old_mean, self.old_std, self.old_n,
                        self.new_mean, self.new_std, self.new_n)
        if df <= 0.0:
            identical = math.isclose(self.old_mean, self.new_mean,
                                     rel_tol=1e-12, abs_tol=1e-15)
            return 1.0 if identical else 0.0
        return t_two_sided_p(t, df)

    @property
    def significant(self) -> bool:
        """The mean shift clears the Welch gate (``p < ALPHA``)."""
        return self.p_value < ALPHA

    @property
    def regressed(self) -> bool:
        """Slower beyond the threshold, sample noise, *and* the
        Welch significance gate."""
        return (self.ratio > 1.0 + self.threshold
                and self.new_mean - self.old_mean > self.noise_floor
                and self.significant)

    @property
    def improved(self) -> bool:
        """Faster beyond the threshold, sample noise, *and* the
        Welch significance gate."""
        return (self.speedup > 1.0 + self.threshold
                and self.old_mean - self.new_mean > self.noise_floor
                and self.significant)


@dataclass(frozen=True)
class CounterMismatch:
    """One counter whose total differs between the two reports."""

    probe: str
    counter: str
    old: float | None   #: ``None`` when only the new report has it
    new: float | None   #: ``None`` when only the old report has it


@dataclass
class Comparison:
    """The full old-vs-new verdict ``compare_reports`` produces."""

    old_label: str
    new_label: str
    threshold: float
    deltas: list[BenchDelta]
    only_old: list[str]
    only_new: list[str]
    #: Counter totals that differ, for every probe in both reports.
    counter_mismatches: list[CounterMismatch]

    @property
    def regressions(self) -> list[BenchDelta]:
        """Deltas where the new side is slower beyond the threshold."""
        return [d for d in self.deltas if d.regressed]

    @property
    def improvements(self) -> list[BenchDelta]:
        """Deltas where the new side is faster beyond the threshold."""
        return [d for d in self.deltas if d.improved]

    @property
    def significant_shifts(self) -> list[BenchDelta]:
        """Deltas whose means differ significantly (Welch) but stay
        inside the threshold — real, reproducible sub-threshold
        drift worth a look before it compounds."""
        return [d for d in self.deltas
                if d.significant and not d.regressed and not d.improved]

    @property
    def ok(self) -> bool:
        """True when no benchmark regressed beyond the threshold."""
        return not self.regressions

    def summary(self) -> str:
        """The ``mirage bench --compare`` report text."""
        lines = [
            f"comparing {self.old_label!r} -> {self.new_label!r} "
            f"(threshold {self.threshold:.0%} slowdown beyond "
            f"{NOISE_SIGMAS:g} sigma noise, Welch alpha {ALPHA:g})",
        ]
        if not self.deltas:
            lines.append("no benchmarks in common")
        else:
            width = max(len(d.name) for d in self.deltas)
            # Worst regression first: the row CI should look at leads
            # the table instead of hiding in report order.
            for d in sorted(self.deltas, key=lambda d: d.ratio,
                            reverse=True):
                verdict = ("REGRESSED" if d.regressed
                           else "improved" if d.improved
                           else "slower (significant)"
                           if d.significant and d.ratio > 1.0
                           else "faster (significant)"
                           if d.significant else "ok")
                lines.append(
                    f"{d.name:<{width}}  "
                    f"{d.old_mean:8.4f}s±{d.old_std:.4f} -> "
                    f"{d.new_mean:8.4f}s±{d.new_std:.4f}  "
                    f"x{d.speedup:5.2f}  p={d.p_value:.3f}  {verdict}")
        for m in self.counter_mismatches:
            lines.append(f"{m.probe}: COUNTER MISMATCH {m.counter} "
                         f"{m.old} -> {m.new}")
        for name in self.only_old:
            lines.append(f"{name}: only in {self.old_label!r} (removed?)")
        for name in self.only_new:
            lines.append(f"{name}: only in {self.new_label!r} (new)")
        n_reg = len(self.regressions)
        n_imp = len(self.improvements)
        n_sig = len(self.significant_shifts)
        tail = (f"{len(self.deltas)} compared: {n_reg} regressed, "
                f"{n_imp} improved, {len(self.deltas) - n_reg - n_imp} "
                f"within threshold")
        if n_sig:
            tail += f" ({n_sig} significant sub-threshold)"
        if self.counter_mismatches:
            tail += (f"; {len(self.counter_mismatches)} counter totals "
                     f"differ")
        lines.append(tail)
        return "\n".join(lines)


def compare_reports(old: dict, new: dict, *,
                    threshold: float = DEFAULT_THRESHOLD) -> Comparison:
    """Diff two report dicts (see :mod:`repro.bench.harness`).

    Args:
        old: the reference report (committed baseline, usually).
        new: the candidate report.
        threshold: tolerated fractional slowdown of the mean, e.g.
            ``0.2`` flags anything more than 20 % slower than *old* —
            provided the shift also exceeds the reports'
            :data:`NOISE_SIGMAS`-sigma noise floor.

    Returns:
        A :class:`Comparison`; callers decide whether ``not ok`` is
        fatal (CI's warn-only mode prints and moves on).  Its
        ``counter_mismatches`` list, for each probe in both reports,
        every counter whose total differs or exists on one side only.

    Raises:
        ValueError: on a negative *threshold*, or when one report ran
            at ``--quick`` size and the other at full size — their
            probes did different amounts of work.
    """
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    old_quick, new_quick = (bool(r.get("quick")) for r in (old, new))
    if old_quick != new_quick:
        raise ValueError(
            f"cannot compare a quick={old_quick} report with a "
            f"quick={new_quick} one: the probes ran at different sizes")
    old_rows = old.get("benchmarks", {})
    new_rows = new.get("benchmarks", {})
    deltas = []
    mismatches = []
    for name in old_rows:
        if name not in new_rows:
            continue
        old_counters = old_rows[name].get("counters", {})
        new_counters = new_rows[name].get("counters", {})
        for counter in old_counters | new_counters:
            old_total = old_counters.get(counter)
            new_total = new_counters.get(counter)
            if old_total != new_total:
                mismatches.append(CounterMismatch(
                    name, counter, old_total, new_total))
        old_samples = _samples(old_rows[name])
        new_samples = _samples(new_rows[name])
        deltas.append(BenchDelta(
            name=name,
            tier=new_rows[name].get("tier", "unknown"),
            old_best=old_rows[name]["best"],
            new_best=new_rows[name]["best"],
            old_mean=_mean(old_samples),
            new_mean=_mean(new_samples),
            old_std=_std(old_samples),
            new_std=_std(new_samples),
            threshold=threshold,
            old_n=len(old_samples),
            new_n=len(new_samples),
        ))
    return Comparison(
        old_label=old.get("label", "old"),
        new_label=new.get("label", "new"),
        threshold=threshold,
        deltas=deltas,
        only_old=[n for n in old_rows if n not in new_rows],
        only_new=[n for n in new_rows if n not in old_rows],
        counter_mismatches=mismatches,
    )
