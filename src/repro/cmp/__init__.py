"""Interval-driven chip-multiprocessor simulation.

One Mirage cluster is ``n`` consumer cores (OinO-capable InO, or plain
InO for traditional Het-CMP baselines) plus one producer OoO.  The
simulator advances all applications one arbitration interval at a time
(paper: 1 M cycles; scaled here — see :class:`~repro.cmp.config.TimeScale`),
resolving arbitration, migration costs over the shared bus, Schedule
Cache coverage evolution, per-interval progress and energy.
"""

from repro.cmp.config import (
    PAPER_SCALE,
    SIM_SCALE,
    ClusterConfig,
    TimeScale,
)
from repro.cmp.migration import MigrationCostModel, MigrationEvent
from repro.cmp.system import AppState, CMPResult, CMPSystem

__all__ = [
    "TimeScale",
    "PAPER_SCALE",
    "SIM_SCALE",
    "ClusterConfig",
    "MigrationCostModel",
    "MigrationEvent",
    "CMPSystem",
    "CMPResult",
    "AppState",
]
