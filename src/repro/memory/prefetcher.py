"""Stride prefetcher for the shared L2 (paper Table 2).

A classic reference-prediction table: per-PC entries track the last
address and stride; after two confirmations the prefetcher issues
fills ``degree`` strides ahead.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class _Entry:
    last_addr: int
    stride: int = 0
    confidence: int = 0


class StridePrefetcher:
    """Per-PC stride detector driving L2 prefetch fills."""

    def __init__(self, entries: int = 256, degree: int = 2,
                 confirm_threshold: int = 2):
        self.entries = entries
        self.degree = degree
        self.confirm_threshold = confirm_threshold
        self._table: dict[int, _Entry] = {}
        self.issued = 0

    def observe(self, pc: int, addr: int) -> list[int]:
        """Train on a demand access; return addresses to prefetch."""
        entry = self._table.get(pc)
        if entry is None:
            if len(self._table) >= self.entries:
                # FIFO-ish eviction: drop the oldest inserted entry.
                self._table.pop(next(iter(self._table)))
            self._table[pc] = _Entry(last_addr=addr)
            return []
        stride = addr - entry.last_addr
        if stride != 0 and stride == entry.stride:
            entry.confidence = min(entry.confidence + 1, 4)
        else:
            entry.confidence = 0
            entry.stride = stride
        entry.last_addr = addr
        if entry.confidence >= self.confirm_threshold and entry.stride:
            prefetches = [
                addr + entry.stride * k for k in range(1, self.degree + 1)
            ]
            self.issued += len(prefetches)
            return prefetches
        return []

    def reset_stats(self) -> None:
        self.issued = 0
