"""Shared bus model.

All L1<->L2 traffic and migration transfers (SC and register state)
serialize over one 32 B-wide bus (paper Table 2, section 3.3.3).  The model tracks occupancy in bus cycles so that
concurrent transfers queue behind each other; migration cost
experiments (Figure 15) read contention delay from here.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class BusStats:
    transfers: int = 0
    bytes_moved: int = 0
    busy_cycles: int = 0
    contention_cycles: int = 0


class SharedBus:
    """A single split-transaction bus with first-come service.

    Time is externally supplied (the callers' cycle counts); the bus
    remembers when it becomes free and makes later requests queue.
    """

    def __init__(self, width_bytes: int = 32, cycles_per_beat: int = 1):
        self.width_bytes = width_bytes
        self.cycles_per_beat = cycles_per_beat
        self.stats = BusStats()
        self._free_at = 0

    def beats_for(self, num_bytes: int) -> int:
        """Bus beats needed to move *num_bytes*."""
        return -(-num_bytes // self.width_bytes)  # ceil division

    def record(self, num_bytes: int) -> None:
        """Account traffic without serializing it.

        Used for requests whose timestamps live on a different model
        clock (instruction-fetch refills): they contribute to bandwidth
        statistics but must not create phantom queueing against
        data-side timestamps.
        """
        if num_bytes <= 0:
            return
        self.stats.transfers += 1
        self.stats.bytes_moved += num_bytes
        self.stats.busy_cycles += self.beats_for(num_bytes) * \
            self.cycles_per_beat

    def transfer(self, now: int, num_bytes: int) -> tuple[int, int]:
        """Request a transfer of *num_bytes* starting no earlier than *now*.

        Returns ``(start_cycle, finish_cycle)``.  Contention (waiting for
        the bus to free up) is recorded in the stats.
        """
        if num_bytes <= 0:
            return now, now
        free_at = self._free_at
        start = now if now >= free_at else free_at
        duration = -(-num_bytes // self.width_bytes) * self.cycles_per_beat
        finish = start + duration
        stats = self.stats
        stats.transfers += 1
        stats.bytes_moved += num_bytes
        stats.busy_cycles += duration
        stats.contention_cycles += start - now
        self._free_at = finish
        return start, finish

    def occupancy(self, elapsed_cycles: int) -> float:
        """Fraction of *elapsed_cycles* the bus spent busy."""
        if elapsed_cycles <= 0:
            return 0.0
        return min(1.0, self.stats.busy_cycles / elapsed_cycles)
