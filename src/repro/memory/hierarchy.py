"""Per-core memory hierarchy: L1 I/D + shared L2 + main memory.

``MemoryHierarchy`` owns the shared pieces (L2, stride prefetcher,
bus); ``CoreMemory`` is the per-core view (L1I, L1D) that the core
models call into.  Access latency is returned in cycles and already
includes the levels traversed (paper Table 2: L1 2 cycles, L2 15,
memory 120).

An L1 hit allocates nothing: each ``CoreMemory`` prebuilds its hit
``AccessResult`` for each TLB outcome (hit, or a walk) and returns the
same instance on every hit.  ``AccessResult`` is frozen, so sharing is
safe.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.bus import SharedBus
from repro.memory.cache import Cache, CacheConfig
from repro.memory.prefetcher import StridePrefetcher
from repro.memory.tlb import TLB


@dataclass(frozen=True, slots=True)
class AccessResult:
    """Outcome of one demand access.

    Frozen, and it must stay so: :class:`CoreMemory` returns one shared
    instance per TLB outcome for every L1 hit.
    """

    latency: int
    l1_hit: bool
    l2_hit: bool

    @property
    def went_to_memory(self) -> bool:
        return not (self.l1_hit or self.l2_hit)


#: Default latencies (cycles), paper Table 2.
L1_LATENCY = 2
L2_LATENCY = 15
MEM_LATENCY = 120


class MemoryHierarchy:
    """Shared L2 + prefetcher + bus."""

    def __init__(
        self,
        *,
        l2_size: int = 2 * 1024 * 1024,
        l2_assoc: int = 16,
        line_bytes: int = 64,
        l2_latency: int = L2_LATENCY,
        mem_latency: int = MEM_LATENCY,
        prefetcher: StridePrefetcher | None = None,
        bus: SharedBus | None = None,
    ):
        self.l2 = Cache(
            CacheConfig(l2_size, l2_assoc, line_bytes, l2_latency), name="L2"
        )
        self.l2_latency = l2_latency
        self.mem_latency = mem_latency
        self.line_bytes = line_bytes
        self.prefetcher = prefetcher or StridePrefetcher()
        self.bus = bus or SharedBus()
        self._cores: dict[int, CoreMemory] = {}

    def core_view(self, core_id: int, **l1_kwargs) -> "CoreMemory":
        """Create (or return) the private-L1 view for *core_id*."""
        if core_id not in self._cores:
            self._cores[core_id] = CoreMemory(self, **l1_kwargs)
        return self._cores[core_id]

    #: Ceiling on per-request bus queueing: issue timestamps from the
    #: dataflow-slot cores are only locally ordered, so unbounded
    #: serialization would amplify timestamp noise into phantom queues.
    MAX_BUS_CONTENTION = 8

    def l2_access(self, pc: int, addr: int, *, write: bool, now: int = 0,
                  timed: bool = True) -> tuple[int, bool]:
        """Access the shared L2; return (added latency, l2_hit).

        The refill crosses the shared L1<->L2 bus.  ``timed=True``
        serializes it against other data refills at timestamp *now*
        (concurrent cores queue behind each other); instruction-side
        refills pass ``timed=False`` — their fetch-clock timestamps
        are not comparable with data-issue timestamps, so they count
        as bandwidth only.
        """
        hit = self.l2.access(addr, write=write)
        for pf_addr in self.prefetcher.observe(pc, addr):
            self.l2.fill(pf_addr)
        contention = 0
        if timed:
            start, _finish = self.bus.transfer(now, self.line_bytes)
            contention = min(start - now, self.MAX_BUS_CONTENTION)
        else:
            self.bus.record(self.line_bytes)
        if hit:
            return self.l2_latency + contention, True
        return self.l2_latency + self.mem_latency + contention, False


class CoreMemory:
    """One core's private L1 caches over the shared hierarchy."""

    def __init__(
        self,
        shared: MemoryHierarchy,
        *,
        l1i_size: int = 32 * 1024,
        l1d_size: int = 32 * 1024,
        l1_assoc: int = 4,
        l1_latency: int = L1_LATENCY,
        itlb_entries: int = 48,
        dtlb_entries: int = 64,
        tlb_walk_latency: int = 20,
    ):
        line = shared.line_bytes
        self.shared = shared
        self.l1i = Cache(
            CacheConfig(l1i_size, l1_assoc, line, l1_latency), name="L1I"
        )
        self.l1d = Cache(
            CacheConfig(l1d_size, l1_assoc, line, l1_latency), name="L1D"
        )
        self.itlb = TLB(itlb_entries, tlb_walk_latency, name="ITLB")
        self.dtlb = TLB(dtlb_entries, tlb_walk_latency, name="DTLB")
        self.l1_latency = l1_latency
        #: Shared L1-hit results, keyed by the TLB walk latency added.
        self._l1_hits = {
            walk: AccessResult(l1_latency + walk, True, True)
            for walk in (0, self.itlb.walk_latency, self.dtlb.walk_latency)
        }

    def fetch(self, pc: int, *, now: int = 0) -> AccessResult:
        """Instruction fetch at *pc* (at core cycle *now*)."""
        walk = self.itlb.access(pc)
        if self.l1i.access(pc):
            return self._l1_hits[walk]
        added, l2_hit = self.shared.l2_access(
            pc, pc, write=False, now=now, timed=False)
        return AccessResult(self.l1_latency + walk + added, False, l2_hit)

    def load(self, pc: int, addr: int, *, now: int = 0) -> AccessResult:
        walk = self.dtlb.access(addr)
        if self.l1d.access(addr):
            return self._l1_hits[walk]
        added, l2_hit = self.shared.l2_access(pc, addr, write=False,
                                              now=now)
        return AccessResult(self.l1_latency + walk + added, False, l2_hit)

    def store(self, pc: int, addr: int, *, now: int = 0) -> AccessResult:
        walk = self.dtlb.access(addr)
        if self.l1d.access(addr, write=True):
            return self._l1_hits[walk]
        added, l2_hit = self.shared.l2_access(pc, addr, write=True,
                                              now=now)
        return AccessResult(self.l1_latency + walk + added, False, l2_hit)

    def flush_for_migration(self) -> tuple[int, int]:
        """Drain L1s and TLBs (application migrating away).

        Returns (dirty lines written back, total lines dropped); the
        caller converts these to bus traffic and warm-up cost.
        """
        resident = self.l1i.resident_lines + self.l1d.resident_lines
        dirty = self.l1d.flush()
        self.l1i.flush()
        self.itlb.flush()
        self.dtlb.flush()
        return dirty, resident
