"""Shared plumbing for the experiment drivers."""

from __future__ import annotations

from repro.characterize import AppModel
from repro.cmp import ClusterConfig, TimeScale, SIM_SCALE
from repro.cmp.system import CMPResult, CMPSystem
# The arbitrator tables and the memoized per-benchmark model live with
# the work-unit executor so drivers and pool workers share one source.
from repro.runner.units import ARBITRATORS, TRADITIONAL, app_model
from repro.telemetry import Telemetry
from repro.workloads.mixes import WorkloadMix


def models_for(mix: WorkloadMix) -> list[AppModel]:
    return [app_model(name) for name in mix]


def make_system(
    mix: WorkloadMix,
    arbitrator_name: str,
    *,
    n_producers: int = 1,
    scale: TimeScale | None = None,
    record_history: bool = False,
    telemetry: Telemetry | None = None,
) -> CMPSystem:
    """Build a CMP for *mix* under the named arbitrator."""
    mirage = arbitrator_name not in TRADITIONAL
    config = ClusterConfig(
        n_consumers=len(mix),
        n_producers=n_producers,
        mirage=mirage,
        scale=scale or SIM_SCALE,
    )
    return CMPSystem(
        config, models_for(mix), ARBITRATORS[arbitrator_name](),
        record_history=record_history,
        telemetry=telemetry,
    )


def run_mix(mix: WorkloadMix, arbitrator_name: str, **kwargs) -> CMPResult:
    return make_system(mix, arbitrator_name, **kwargs).run()


def mean(values) -> float:
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


#: Two-sided 97.5 % Student-t critical values by degrees of freedom —
#: enough for the seed counts headline runs use; beyond the table the
#: normal approximation is within a percent.
_T95 = {1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
        6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
        15: 2.131, 20: 2.086, 30: 2.042}


def t_critical_95(df: int) -> float:
    """The two-sided 95 % t critical value for *df* (>=1)."""
    if df in _T95:
        return _T95[df]
    for bound in (10, 15, 20, 30):
        if df <= bound:
            return _T95[bound]
    return 1.96


def mean_ci95(values) -> tuple[float, float]:
    """``(mean, half_width)`` of a 95 % confidence interval.

    The half-width is 0.0 for fewer than two values — a single seed
    carries no spread information, so the point estimate prints bare.
    """
    values = list(values)
    center = mean(values)
    n = len(values)
    if n < 2:
        return center, 0.0
    variance = sum((v - center) ** 2 for v in values) / (n - 1)
    return center, t_critical_95(n - 1) * (variance / n) ** 0.5


def format_table(headers: list[str], rows: list[list]) -> str:
    """Plain-text table for the drivers' main() output."""
    widths = [
        max(len(str(h)), *(len(_fmt(r[i])) for r in rows)) if rows
        else len(str(h))
        for i, h in enumerate(headers)
    ]
    def line(cells):
        return "  ".join(_fmt(c).rjust(w) for c, w in zip(cells, widths))
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(r) for r in rows)
    return "\n".join(out)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
