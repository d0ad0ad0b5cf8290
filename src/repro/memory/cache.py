"""Set-associative cache with true-LRU replacement.

The model is access-accurate rather than port-accurate: each access
classifies as hit or miss and the caller charges the corresponding
latency.  Dirty-line writebacks are surfaced so the bus model can
account for their traffic.

State is kept per touched line, not per modelled line: a set's dict is
created the first time an access or fill reaches it, and each resident
line is one int word, ``(last_use << 1) | dirty``, keyed by its tag.
A run that touches a few hundred of the L2's 2,048 sets therefore
allocates a few hundred dicts and no per-line objects.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class CacheConfig:
    """Geometry and timing of one cache."""

    size_bytes: int
    assoc: int
    line_bytes: int = 64
    hit_latency: int = 2

    def __post_init__(self) -> None:
        if self.size_bytes % (self.assoc * self.line_bytes):
            raise ValueError("size must be a multiple of assoc * line size")
        sets = self.num_sets
        if sets & (sets - 1):
            raise ValueError("number of sets must be a power of two")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.line_bytes)


@dataclass(slots=True)
class CacheStats:
    accesses: int = 0
    misses: int = 0
    writebacks: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def mpki(self, instructions: int) -> float:
        """Misses per kilo-instruction over *instructions* committed."""
        if instructions == 0:
            return 0.0
        return 1000.0 * self.misses / instructions


class Cache:
    """Set-associative, write-back, write-allocate cache.

    ``_sets[i]`` is ``None`` until set *i* is first touched, then a
    ``{tag: (last_use << 1) | dirty}`` dict in insertion order: a hit
    rewrites its word in place, a fill appends and an eviction pops.
    ``_clock`` ticks on every :meth:`access` and :meth:`fill`, so no
    two resident lines share a stamp and the least word in a set is
    its least recently used line.
    """

    def __init__(self, config: CacheConfig, name: str = "cache"):
        self.config = config
        self.name = name
        self.stats = CacheStats()
        self._sets: list[dict[int, int] | None] = [None] * config.num_sets
        self._clock = 0
        self._set_shift = (config.line_bytes - 1).bit_length()
        self._set_mask = config.num_sets - 1

    def _locate(self, addr: int) -> tuple[int, int]:
        block = addr >> self._set_shift
        return block & self._set_mask, block

    def access(self, addr: int, *, write: bool = False) -> bool:
        """Access *addr*; returns True on hit.

        On a miss the line is allocated (write-allocate); a dirty
        eviction increments ``stats.writebacks``.

        ``_locate`` is inlined here: this is the single hottest call in
        the detailed tier (every fetch/load/store lands here twice, L1
        then L2).
        """
        clock = self._clock + 1
        self._clock = clock
        self.stats.accesses += 1
        tag = addr >> self._set_shift
        set_idx = tag & self._set_mask
        lines = self._sets[set_idx]
        if lines is None:
            lines = self._sets[set_idx] = {}
        else:
            word = lines.get(tag)
            if word is not None:
                lines[tag] = clock << 1 | word & 1 | write
                return True
        self.stats.misses += 1
        self._fill(lines, tag, write)
        return False

    def probe(self, addr: int) -> bool:
        """Check residency without updating state or stats."""
        set_idx, tag = self._locate(addr)
        lines = self._sets[set_idx]
        return lines is not None and tag in lines

    def fill(self, addr: int) -> None:
        """Install a line without counting an access (prefetch fill)."""
        self._clock += 1
        set_idx, tag = self._locate(addr)
        lines = self._sets[set_idx]
        if lines is None:
            lines = self._sets[set_idx] = {}
        elif tag in lines:
            return
        self._fill(lines, tag, write=False)

    def _fill(self, lines: dict[int, int], tag: int, write: bool) -> None:
        if len(lines) >= self.config.assoc:
            victim = min(lines, key=lines.__getitem__)
            if lines.pop(victim) & 1:
                self.stats.writebacks += 1
        lines[tag] = self._clock << 1 | write

    def invalidate(self, addr: int) -> bool:
        """Drop the line holding *addr* if present; True if it was dirty."""
        set_idx, tag = self._locate(addr)
        lines = self._sets[set_idx]
        if lines is None:
            return False
        word = lines.pop(tag, None)
        return word is not None and bool(word & 1)

    def flush(self) -> int:
        """Empty the cache; return the number of dirty lines written back."""
        dirty = sum(
            word & 1
            for lines in self._sets if lines
            for word in lines.values()
        )
        self._sets = [None] * self.config.num_sets
        self.stats.writebacks += dirty
        return dirty

    @property
    def resident_lines(self) -> int:
        return sum(len(lines) for lines in self._sets if lines)

    @property
    def capacity_lines(self) -> int:
        return self.config.num_sets * self.config.assoc
