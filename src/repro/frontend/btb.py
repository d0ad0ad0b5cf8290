"""Branch target buffer.

A small direct-mapped tagged table of branch targets.  A BTB miss on a
taken branch costs a fetch bubble even when the direction prediction
was correct, which matters for the large-footprint irregular-fetch
behaviour the paper attributes to some LPD benchmarks.
"""

from __future__ import annotations


class BranchTargetBuffer:
    """Direct-mapped BTB keyed by pc, storing (tag, target)."""

    def __init__(self, entries: int = 1024):
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self._mask = entries - 1
        self._tags: list[int | None] = [None] * entries
        self._targets: list[int] = [0] * entries
        self.lookups = 0
        self.misses = 0

    def _index(self, pc: int) -> int:
        return (pc >> 2) & self._mask

    def lookup(self, pc: int) -> int | None:
        """Return the cached target for *pc*, or None on a BTB miss."""
        self.lookups += 1
        idx = self._index(pc)
        if self._tags[idx] == pc:
            return self._targets[idx]
        self.misses += 1
        return None

    def install(self, pc: int, target: int) -> None:
        idx = self._index(pc)
        self._tags[idx] = pc
        self._targets[idx] = target

    @property
    def miss_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.misses / self.lookups

    def reset_stats(self) -> None:
        self.lookups = 0
        self.misses = 0
