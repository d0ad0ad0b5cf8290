"""Translation lookaside buffers (paper Table 2: per-core I/D TLBs).

Fully-associative, LRU, 4 KB pages.  A miss triggers a page-table walk
that reads from the shared L2 (walk latency charged to the access);
large-footprint benchmarks (mcf's 4 MB working set spans ~1 k pages)
feel this on both core types.
"""

from __future__ import annotations

from dataclasses import dataclass

PAGE_SHIFT = 12  # 4 KB pages


@dataclass(slots=True)
class TLBStats:
    accesses: int = 0
    misses: int = 0

    @property
    def miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses


class TLB:
    """Fully-associative, LRU translation buffer."""

    def __init__(self, entries: int = 64, walk_latency: int = 20,
                 name: str = "tlb"):
        if entries < 1:
            raise ValueError("entries must be >= 1")
        self.entries = entries
        self.walk_latency = walk_latency
        self.name = name
        self.stats = TLBStats()
        self._pages: dict[int, int] = {}   # page -> last-use stamp
        self._clock = 0

    def access(self, addr: int) -> int:
        """Translate *addr*; returns added latency (0 on a hit)."""
        self._clock += 1
        self.stats.accesses += 1
        page = addr >> PAGE_SHIFT
        if page in self._pages:
            self._pages[page] = self._clock
            return 0
        self.stats.misses += 1
        if len(self._pages) >= self.entries:
            victim = min(self._pages, key=self._pages.get)
            del self._pages[victim]
        self._pages[page] = self._clock
        return self.walk_latency

    def flush(self) -> int:
        """Drop all translations (context/application switch)."""
        dropped = len(self._pages)
        self._pages.clear()
        return dropped

    @property
    def resident(self) -> int:
        return len(self._pages)
