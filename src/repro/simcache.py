"""Slice memoization: a simulator-level Schedule Cache.

The Mirage hardware avoids re-deriving issue schedules for repeating
traces by memoizing them in the Schedule Cache; this module applies
the same trick one level up, to the *simulator itself*.  When a whole
cluster run repeats inside one process, the detailed tier would
re-simulate slices whose entry state it has seen before.
:class:`SliceMemo` caches the full outcome of one
:meth:`~repro.cmp.detailed.DetailedBackend.advance` slice — cycle and
counter deltas, Schedule-Cache mutations, cache/TLB/predictor/BTB
residue — keyed on a complete snapshot of the entry state, so a hit
replays the deltas instead of re-running
``OinOCore.run``/``OutOfOrderCore.run`` instruction by instruction.
The backend keeps a logical-state snapshot cache on top, so a chain
of hits neither re-snapshots nor restores the big tables per slice —
replay cost is O(1) until live simulation resumes.

Correctness model
-----------------
The key is not a hash but the *entire entry state*, compared by
equality: the instruction window identity (benchmark fingerprint +
stream position + length), the core kind, and full state snapshots of
every structure the slice reads or writes (L1s, TLBs, the shared
L2/prefetcher/bus/directory, branch predictor and BTB tables, the
Schedule Cache including its entry-generation stamp, the recorder
tables, and the OinO core's launch/abort history).  Because the slice
is a deterministic function of exactly that state, an equal key
implies a bit-identical outcome; replay restores the recorded exit
snapshots and re-applies the recorded counter deltas.  There is no
collision risk to reason about — a key that matches *is* the same
simulation.  The price is that keys are conservative: any state drift
at all (one extra cache access anywhere) misses and re-simulates,
which is exactly the over-invalidation the design allows.

A memo is bounded: least-recently-used slices are dropped once
``capacity`` entries are held, and an approximate byte estimate is
reported through the ``simcache.bytes`` telemetry counter.

Selection
---------
:class:`~repro.cmp.detailed.DetailedBackend` and
:class:`~repro.cmp.detailed.DetailedMirageCluster` take ``sim_cache=``
(:func:`resolve`): ``False``, the default, runs without a memo, which
is the reference ``tests/test_equivalence.py`` holds the memo to;
``True`` uses the process-global memo (:meth:`SliceMemo.shared`); a
:class:`SliceMemo` instance is used as a private memo.  The memo is
opt-in because the key holds the stream position: only a repeat of an
identical cluster run in the same process can hit, and no experiment
repeats one (the result cache already serves repeated work units), so
by default it would only pay for snapshots and stores.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, TYPE_CHECKING

if TYPE_CHECKING:
    from repro.isa.instructions import Instruction
    from repro.workloads.generator import SyntheticBenchmark

#: Default bound on memoized slices (LRU beyond this).
DEFAULT_CAPACITY = 64

# ----------------------------------------------------------------------
# Stream identity
# ----------------------------------------------------------------------
class StreamCursor:
    """A benchmark's instruction stream with a *logical* position.

    Streams are deterministic per benchmark identity (see
    :class:`~repro.workloads.generator.SyntheticBenchmark`), so the
    window ``[pos, pos + n)`` is fully identified by
    ``(fingerprint, pos, n)`` — the memo key never needs the
    instructions themselves.  A memoized slice advances the cursor
    without generating anything (:meth:`skip`); the underlying
    generator lazily catches up only when a miss actually needs the
    next window (:meth:`take`), so an all-hit run never pays
    generation cost at all.
    """

    __slots__ = ("fingerprint", "pos", "_iter", "_phys")

    def __init__(self, benchmark: "SyntheticBenchmark"):
        profile = benchmark.profile
        #: Everything that determines the stream's contents.
        self.fingerprint = (
            profile.name, benchmark.seed, benchmark.base_addr,
            benchmark.pass_length,
        )
        self.pos = 0
        self._iter: Iterator["Instruction"] = benchmark.stream()
        self._phys = 0

    def take(self, n: int) -> "list[Instruction]":
        """Materialize the next *n* instructions (a miss runs these)."""
        lag = self.pos - self._phys
        if lag:
            # Catch up past memoized windows; the discarded
            # instructions are exactly the ones replay skipped.
            next(itertools.islice(self._iter, lag - 1, lag), None)
        window = list(itertools.islice(self._iter, n))
        self._phys = self.pos = self.pos + len(window)
        return window

    def skip(self, n: int) -> None:
        """Advance past *n* memoized instructions without generating."""
        self.pos += n


# ----------------------------------------------------------------------
# The memo itself
# ----------------------------------------------------------------------
@dataclass(slots=True)
class SliceDelta:
    """Everything one recorded slice changed, ready to replay.

    ``exit_state`` holds the same structure snapshots the key captured
    at entry, taken after the slice ran; replaying writes them back
    with each structure's ``state_restore`` so the simulation continues
    bit-identically.  The scalars mirror the live bookkeeping in
    :meth:`~repro.cmp.detailed.DetailedBackend.advance`.
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
        """The process-global memo every ``sim_cache=True`` backend uses."""
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


def resolve(sim_cache: "bool | SliceMemo") -> SliceMemo | None:
    """Map a backend's ``sim_cache`` argument to the memo to use.

    ``True`` selects the process-global memo (:meth:`SliceMemo.shared`),
    ``False`` none, and a :class:`SliceMemo` instance is used as-is
    (a private memo).
    """
    if isinstance(sim_cache, SliceMemo):
        return sim_cache
    return SliceMemo.shared() if sim_cache else None
