"""Memory hierarchy substrate.

Each core owns private 32 KB L1 instruction and data caches plus an
8 KB Schedule Cache; all cores in a cluster share a 2 MB L2 with a
stride prefetcher over a 32 B-wide shared bus (paper Table 2).  The
bus is a contention point: application migration re-uses it to move
Schedule Cache contents between cores.
"""

from repro.memory.bus import SharedBus
from repro.memory.cache import Cache, CacheConfig, CacheStats
from repro.memory.hierarchy import AccessResult, CoreMemory, MemoryHierarchy
from repro.memory.prefetcher import StridePrefetcher
from repro.memory.tlb import TLB, TLBStats

__all__ = [
    "TLB",
    "TLBStats",
    "Cache",
    "CacheConfig",
    "CacheStats",
    "SharedBus",
    "StridePrefetcher",
    "MemoryHierarchy",
    "CoreMemory",
    "AccessResult",
]
