"""MESI-lite coherence directory for the shared L2.

The evaluated workloads are multi-programmed (no data sharing), so
coherence activity in the paper's system comes from migration: after an
application moves cores, its lines are resident in the old core's L1
and must be invalidated/fetched across the bus.  The directory tracks,
per line, which core holds it and in what state, and yields the
invalidation traffic migration produces.

Each tracked line is one int, ``(holders << 2) | state code``: bit *c*
of ``holders`` is set while core *c* (a non-negative id) holds the
line, and the two low bits encode its :class:`CoherenceState`.
"""

from __future__ import annotations

import enum


class CoherenceState(enum.Enum):
    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"


#: State codes, the two low bits of a directory word, in
#: :class:`CoherenceState` order.
_M, _E, _S = 0, 1, 2


class CoherenceDirectory:
    """Directory keyed by line address (already line-aligned)."""

    def __init__(self, line_bytes: int = 64):
        self.line_bytes = line_bytes
        self._entries: dict[int, int] = {}
        self.invalidations = 0
        self.interventions = 0

    def _line(self, addr: int) -> int:
        return addr // self.line_bytes

    def on_read(self, core_id: int, addr: int) -> int:
        """Record a read; return the number of remote interventions."""
        line = self._line(addr)
        bit = 1 << core_id
        entry = self._entries.get(line)
        if entry is None:
            self._entries[line] = bit << 2 | _E
            return 0
        interventions = 0
        holders = entry >> 2
        state = entry & 3
        if state == _M and not holders & bit:
            interventions = 1  # dirty line supplied by the remote owner
            self.interventions += 1
        holders |= bit
        if holders & (holders - 1):  # more than one holder
            state = _S
        self._entries[line] = holders << 2 | state
        return interventions

    def on_write(self, core_id: int, addr: int) -> int:
        """Record a write; return the number of invalidations sent."""
        line = self._line(addr)
        bit = 1 << core_id
        entry = self._entries.get(line)
        self._entries[line] = bit << 2 | _M
        if entry is None:
            return 0
        victims = (entry >> 2 & ~bit).bit_count()
        self.invalidations += victims
        return victims

    def evict(self, core_id: int, addr: int) -> None:
        line = self._line(addr)
        entry = self._entries.get(line)
        if entry is None:
            return
        entry &= ~(1 << core_id << 2)
        if entry >> 2:
            self._entries[line] = entry
        else:
            del self._entries[line]

    def flush_core(self, core_id: int) -> int:
        """Remove *core_id* from every entry (migration); return count."""
        mask = 1 << core_id << 2
        entries = self._entries
        held = [line for line, entry in entries.items() if entry & mask]
        for line in held:
            entry = entries[line] & ~mask
            if entry >> 2:
                entries[line] = entry
            else:
                del entries[line]
        self.invalidations += len(held)
        return len(held)

    @property
    def tracked_lines(self) -> int:
        return len(self._entries)
