"""The Schedule Cache (SC).

An 8 KB specialized cache holding memoized issue schedules, organized
like a trace cache: indexed by trace start pc with limited *path
associativity* (up to :data:`PATHS_PER_PC` control paths stored per
start pc, mirroring a trace cache's path-associative sets).  Entries
are compacted variable-length schedule records (4 B per instruction +
a 20 B memory-order metadata block).  Eviction removes entries marked
unmemoizable first, then falls back to LRU (paper section 3.3.2).

The SC also measures the statistic the arbitrator runs on: SC-MPKI,
the number of SC lookup misses per kilo committed instructions.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Maximum distinct control paths stored per trace start pc.
PATHS_PER_PC = 4


@dataclass(frozen=True, slots=True)
class Schedule:
    """A memoized issue schedule for one trace path.

    ``issue_order`` holds program-order positions in the order the OoO
    issued them; replaying the trace means issuing position
    ``issue_order[0]`` first, and so on.  The memory-order metadata the
    OinO LSQ needs is recoverable from the program-order positions, so
    it is represented only as a storage cost.
    """

    start_pc: int
    path_hash: int
    issue_order: tuple[int, ...]
    metadata_bytes: int = 20

    @property
    def num_instructions(self) -> int:
        return len(self.issue_order)

    @property
    def storage_bytes(self) -> int:
        return 4 * len(self.issue_order) + self.metadata_bytes


@dataclass(slots=True)
class SCStats:
    lookups: int = 0
    misses: int = 0
    writes: int = 0
    evictions: int = 0

    @property
    def hits(self) -> int:
        return self.lookups - self.misses

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def mpki(self, instructions: int) -> float:
        """SC misses per kilo-instruction (the arbitrator's raw input)."""
        if instructions == 0:
            return 0.0
        return 1000.0 * self.misses / instructions

    def reset(self) -> None:
        self.lookups = 0
        self.misses = 0
        self.writes = 0
        self.evictions = 0

    def counters(self, prefix: str = "") -> dict[str, int]:
        """Flatten the stats into telemetry counter entries."""
        return {
            prefix + "lookups": self.lookups,
            prefix + "misses": self.misses,
            prefix + "writes": self.writes,
            prefix + "evictions": self.evictions,
        }


@dataclass(slots=True)
class _Entry:
    schedule: Schedule
    last_use: int
    unmemoizable: bool = False


class ScheduleCache:
    """Byte-budgeted schedule store, path-associative per start pc.

    ``capacity_bytes=None`` models the infinite SC used by the paper's
    oracle experiments (Figures 2 and 3b).
    """

    def __init__(self, capacity_bytes: int | None = 8 * 1024,
                 paths_per_pc: int = PATHS_PER_PC):
        self.capacity_bytes = capacity_bytes
        self.paths_per_pc = paths_per_pc
        self.stats = SCStats()
        self._entries: dict[tuple[int, int], _Entry] = {}
        self._by_pc: dict[int, set[int]] = {}
        # Count of launchable (not unmemoizable) paths per start pc,
        # kept in lockstep with _entries so has_pc — called by the
        # replay core for every trace head — is a dict probe instead
        # of a scan over the pc's path set.
        self._launchable: dict[int, int] = {}
        self._bytes = 0
        self._clock = 0

    # ------------------------------------------------------------------
    def lookup(self, start_pc: int, path_hash: int) -> Schedule | None:
        """Fetch the schedule memoized for this exact trace path.

        Counts one SC access; a miss means the InO falls back to
        fetching program-order instructions from its L1I (or, if a
        different path for the same pc is stored, that the replayed
        schedule will misspeculate — the caller distinguishes via
        :meth:`has_pc`).
        """
        self._clock += 1
        self.stats.lookups += 1
        entry = self._entries.get((start_pc, path_hash))
        if entry is None or entry.unmemoizable:
            self.stats.misses += 1
            return None
        entry.last_use = self._clock
        return entry.schedule

    def has_pc(self, start_pc: int) -> bool:
        """True if any *launchable* path for this pc is stored (no stats).

        Unmemoizable-marked entries are excluded: the trace predictor
        will not speculatively launch a schedule known to misbehave.
        """
        return self._launchable.get(start_pc, 0) > 0

    def probe(self, start_pc: int, path_hash: int) -> Schedule | None:
        """Inspect an exact path without touching stats or recency."""
        entry = self._entries.get((start_pc, path_hash))
        if entry is None or entry.unmemoizable:
            return None
        return entry.schedule

    # ------------------------------------------------------------------
    def insert(self, schedule: Schedule) -> bool:
        """Write a schedule; returns False if it can never fit."""
        self._clock += 1
        size = schedule.storage_bytes
        if self.capacity_bytes is not None and size > self.capacity_bytes:
            return False
        key = (schedule.start_pc, schedule.path_hash)
        self._remove(key)
        # Path associativity: cap the number of paths per start pc.
        paths = self._by_pc.get(schedule.start_pc)
        while paths and len(paths) >= self.paths_per_pc:
            victim_path = min(
                paths,
                key=lambda ph: self._entries[
                    (schedule.start_pc, ph)].last_use,
            )
            self._remove((schedule.start_pc, victim_path))
            self.stats.evictions += 1
            paths = self._by_pc.get(schedule.start_pc)
        self._make_room(size)
        self._entries[key] = _Entry(schedule=schedule, last_use=self._clock)
        self._by_pc.setdefault(schedule.start_pc, set()).add(
            schedule.path_hash)
        self._launchable[schedule.start_pc] = self._launchable.get(
            schedule.start_pc, 0) + 1
        self._bytes += size
        self.stats.writes += 1
        return True

    def _remove(self, key: tuple[int, int]) -> None:
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        self._bytes -= entry.schedule.storage_bytes
        if not entry.unmemoizable:
            left = self._launchable[key[0]] - 1
            if left:
                self._launchable[key[0]] = left
            else:
                del self._launchable[key[0]]
        paths = self._by_pc.get(key[0])
        if paths is not None:
            paths.discard(key[1])
            if not paths:
                del self._by_pc[key[0]]

    def _make_room(self, size: int) -> None:
        if self.capacity_bytes is None:
            return
        while self._bytes + size > self.capacity_bytes and self._entries:
            victim = self._pick_victim()
            self._remove(victim)
            self.stats.evictions += 1

    def _pick_victim(self) -> tuple[int, int]:
        # Unmemoizable-marked entries go first, then true LRU.
        unmemo = [k for k, e in self._entries.items() if e.unmemoizable]
        pool = unmemo if unmemo else self._entries
        return min(pool, key=lambda k: self._entries[k].last_use)

    def mark_unmemoizable(self, start_pc: int) -> None:
        """Bias future eviction against a misbehaving trace (all paths)."""
        for path in self._by_pc.get(start_pc, ()):
            entry = self._entries[(start_pc, path)]
            if not entry.unmemoizable:
                entry.unmemoizable = True
                left = self._launchable[start_pc] - 1
                if left:
                    self._launchable[start_pc] = left
                else:
                    del self._launchable[start_pc]

    def invalidate_all(self) -> None:
        """Drop all contents (e.g. SC handed to a different program)."""
        self._entries.clear()
        self._by_pc.clear()
        self._launchable.clear()
        self._bytes = 0

    # ------------------------------------------------------------------
    @property
    def used_bytes(self) -> int:
        return self._bytes

    @property
    def num_entries(self) -> int:
        return len(self._entries)

    def contents(self) -> list[Schedule]:
        """Snapshot of stored schedules (for migration transfer)."""
        return [e.schedule for e in self._entries.values()]

    def load_contents(self, schedules: list[Schedule]) -> None:
        """Bulk-install schedules (migration: SC contents transfer)."""
        for schedule in schedules:
            self.insert(schedule)
        # Bulk install is a transfer, not demand writes.
        self.stats.writes -= len(schedules)
