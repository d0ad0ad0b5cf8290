"""Schedule recording on the OoO core.

The OoO cannot afford to compare cycle-by-cycle schedules directly, so
the paper tracks per-trace metrics and treats matching metrics as
matching schedules.  Our deterministic equivalent hashes the issue
permutation: small hardware tables (paper: 0.3 kB) remember, per trace
path, the last schedule signature and how many consecutive executions
produced it.  Once the streak reaches ``confidence_threshold`` the
schedule is considered stable and written into the Schedule Cache.

The recorder keeps no abort bookkeeping: the OinO owns blacklisting.
It marks a trace whose replays abort too often unmemoizable in the
Schedule Cache (:meth:`~repro.schedule.ScheduleCache.mark_unmemoizable`),
which stops replaying it and evicts it first (paper keeps the abort
penalty to ~0.3 % of execution time this way).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.schedule.schedule_cache import Schedule, ScheduleCache
from repro.schedule.trace import Trace

#: Traces shorter than this are not worth a Schedule Cache entry.
MIN_TRACE_LEN = 8
#: Traces longer than this exceed a sensible SC line budget.
MAX_TRACE_LEN = 256


@dataclass(slots=True)
class _TableEntry:
    signature: int
    streak: int = 1
    last_use: int = 0


@dataclass(slots=True)
class RecorderTables:
    """Bounded repeatability-tracking tables (LRU replacement)."""

    size: int = 256
    entries: dict[tuple[int, int], _TableEntry] = field(default_factory=dict)
    clock: int = 0

    def get(self, key: tuple[int, int]) -> _TableEntry | None:
        entry = self.entries.get(key)
        if entry is not None:
            self.clock += 1
            entry.last_use = self.clock
        return entry

    def put(self, key: tuple[int, int], signature: int) -> _TableEntry:
        self.clock += 1
        if len(self.entries) >= self.size:
            victim = min(self.entries, key=lambda k: self.entries[k].last_use)
            del self.entries[victim]
        entry = _TableEntry(signature=signature, last_use=self.clock)
        self.entries[key] = entry
        return entry


class ScheduleRecorder:
    """Observes OoO trace executions and memoizes stable schedules."""

    def __init__(
        self,
        sc: ScheduleCache,
        *,
        confidence_threshold: int = 2,
        table_size: int = 256,
    ):
        self.sc = sc
        self.confidence_threshold = confidence_threshold
        self.tables = RecorderTables(size=table_size)
        self.memoized_writes = 0
        self.instructions_seen = 0

    # ------------------------------------------------------------------
    @staticmethod
    def signature_of(trace: Trace, issue_order: tuple[int, ...],
                     duration: int) -> int:
        """Approximate schedule signature from per-trace metrics.

        Matching the exact cycle-by-cycle schedule is expensive and
        fragile (issue phase jitters between iterations of the same
        loop), so — like the paper — we approximate: two executions
        whose path, bucketed execution time and bucketed amount of
        reordering agree are considered to have the same schedule.
        """
        # Execution time is deliberately *not* part of the signature:
        # cache-miss jitter perturbs it between otherwise identical
        # schedules, and replay correctness is independently guarded by
        # the path check and the replay-LSQ alias check.
        del duration
        reordered = sum(1 for k, pos in enumerate(issue_order) if pos != k)
        return hash((trace.path_hash, len(issue_order), reordered // 8))

    def observe(
        self,
        trace: Trace,
        issue_order: tuple[int, ...],
        duration: int = 0,
    ) -> None:
        """Record one trace execution with its OoO issue permutation.

        ``duration`` is the trace's issue-to-complete span in cycles,
        one of the metrics used to judge schedule repeatability.
        """
        self.instructions_seen += len(trace)
        if not MIN_TRACE_LEN <= len(trace) <= MAX_TRACE_LEN:
            return
        key = trace.key
        signature = self.signature_of(trace, issue_order, duration)
        entry = self.tables.get(key)
        if entry is None:
            self.tables.put(key, signature)
            return
        if entry.signature == signature:
            entry.streak += 1
        else:
            entry.signature = signature
            entry.streak = 1
            return
        if entry.streak == self.confidence_threshold:
            schedule = Schedule(
                start_pc=trace.start_pc,
                path_hash=trace.path_hash,
                issue_order=issue_order,
            )
            if self.sc.insert(schedule):
                self.memoized_writes += 1
