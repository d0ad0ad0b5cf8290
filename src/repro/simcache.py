"""The retired slice memo's LRU class, kept for the benchmark alone.

- Nothing in ``src`` calls :class:`SliceMemo`: the detailed tier runs
  every slice on its core models.
- ``perf/`` reads ``SliceMemo.shared()`` and wraps its ``lookup`` and
  ``store`` methods.
- The benchmark revision (ROADMAP item 1) removes those reads, and
  then this module.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Default bound on memoized slices (LRU beyond this).
DEFAULT_CAPACITY = 64

# ----------------------------------------------------------------------
# The memo itself
# ----------------------------------------------------------------------
@dataclass(slots=True)
class SliceDelta:
    """Everything one recorded slice changed, ready to replay.
    """

    kind: str                 #: "ooo" | "oino"
    instructions: int         #: retired by the slice
    cycles: int               #: measured slice cycles
    ipc: float
    memo_frac: float          #: OinO: fraction replayed from the SC
    sc_mpki: float            #: the per-kind SC-MPKI reading produced
    counters: dict            #: prefixed CoreStats counter deltas
    exit_state: tuple         #: structure snapshots after the slice
    approx_bytes: int = 0     #: rough in-memory footprint estimate


@dataclass(slots=True)
class MemoStats:
    """Running totals for one :class:`SliceMemo`."""

    lookups: int = 0
    hits: int = 0
    stores: int = 0
    invalidations: int = 0    #: entries dropped to stay within capacity

    @property
    def misses(self) -> int:
        return self.lookups - self.hits

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


def approx_state_bytes(obj) -> int:
    """Cheap recursive size estimate for snapshot tuples (bytes)."""
    if isinstance(obj, tuple):
        return 16 + sum(approx_state_bytes(item) for item in obj)
    if isinstance(obj, dict):
        return 32 + sum(
            approx_state_bytes(k) + approx_state_bytes(v)
            for k, v in obj.items())
    return 16


class _HashedKey:
    """An entry-state key with its hash computed exactly once.

    Keys are large nested snapshot tuples and tuples do not cache
    their hash, so every dict probe would otherwise re-traverse the
    whole state (and an LRU refresh probes up to three times).
    Equality still compares the full tuples — element comparisons
    shortcut on identity, so re-probing a key built from the same
    cached snapshot objects is near O(1).
    """

    __slots__ = ("key", "_hash")

    def __init__(self, key: tuple):
        self.key = key
        self._hash = hash(key)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return self.key == other.key


class SliceMemo:
    """Bounded LRU map from entry-state keys to :class:`SliceDelta`.

    Keys are full state snapshots (nested tuples of immutables), so
    lookups compare by equality — a hit is a proof of identical entry
    state, not a probabilistic digest match.
    """

    _shared: "SliceMemo | None" = None

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.stats = MemoStats()
        self._entries: dict[_HashedKey, SliceDelta] = {}
        self._bytes = 0

    @classmethod
    def shared(cls) -> "SliceMemo":
        if cls._shared is None:
            cls._shared = cls()
        return cls._shared

    # ------------------------------------------------------------------
    def lookup(self, key: tuple) -> SliceDelta | None:
        """Fetch the recorded delta for *key*, refreshing its recency."""
        self.stats.lookups += 1
        wrapped = _HashedKey(key)
        delta = self._entries.pop(wrapped, None)
        if delta is None:
            return None
        self.stats.hits += 1
        self._entries[wrapped] = delta  # re-insert: LRU order is dict order
        return delta

    def store(self, key: tuple, delta: SliceDelta) -> None:
        """Record one executed slice, evicting LRU slices as needed."""
        wrapped = _HashedKey(key)
        old = self._entries.pop(wrapped, None)
        if old is not None:
            self._bytes -= old.approx_bytes
        delta.approx_bytes = (
            approx_state_bytes(key) + approx_state_bytes(delta.exit_state))
        while len(self._entries) >= self.capacity:
            victim = next(iter(self._entries))
            self._bytes -= self._entries.pop(victim).approx_bytes
            self.stats.invalidations += 1
        self._entries[wrapped] = delta
        self._bytes += delta.approx_bytes
        self.stats.stores += 1

    def clear(self) -> None:
        """Drop every memoized slice (counts as invalidations)."""
        self.stats.invalidations += len(self._entries)
        self._entries.clear()
        self._bytes = 0

    # ------------------------------------------------------------------
    @property
    def num_entries(self) -> int:
        """How many slices the memo currently holds."""
        return len(self._entries)

    @property
    def approx_bytes(self) -> int:
        """Rough total footprint of the stored keys and deltas."""
        return self._bytes

