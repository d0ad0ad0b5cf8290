"""Trace detection.

Traces are delimited by *backward* branches: a taken branch whose
target is at or before its own pc ends the current trace (the branch is
included).  The trace's identity is its start pc plus the outcome path
of every branch inside it — the same loop body traversed along a
different internal path is a different trace, and a memoized schedule
only replays when the dynamic path matches.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.instructions import Instruction

_HASH_MASK = (1 << 61) - 1


def _mix(h: int, value: int) -> int:
    """One step of a simple deterministic polynomial hash chain."""
    return ((h * 1_000_003) ^ value) & _HASH_MASK


@dataclass(slots=True)
class Trace:
    """One dynamic trace instance."""

    start_pc: int
    path_hash: int
    instructions: list[Instruction]

    @property
    def key(self) -> tuple[int, int]:
        """Identity used for schedule matching: (start pc, path)."""
        return (self.start_pc, self.path_hash)

    def __len__(self) -> int:
        return len(self.instructions)

    @property
    def num_mem_ops(self) -> int:
        return sum(1 for i in self.instructions if i.is_mem)

    @property
    def num_branches(self) -> int:
        return sum(1 for i in self.instructions if i.is_branch)

    def storage_bytes(self, metadata_bytes: int = 20) -> int:
        """Schedule Cache footprint: instructions + memory-order block.

        The paper charges 20 B of metadata per recorded schedule for
        the program-sequence ordering of memory operations.
        """
        return 4 * len(self.instructions) + metadata_bytes


class TraceBuilder:
    """Incremental trace segmentation over an instruction stream."""

    def __init__(self) -> None:
        self._pending: list[Instruction] = []
        self._path = 0
        self.completed = 0

    def feed(self, insn: Instruction) -> Trace | None:
        """Add one instruction; return a finished Trace on a boundary."""
        self._pending.append(insn)
        if insn.is_branch:
            self._path = _mix(self._path, (insn.pc << 1) | int(insn.taken))
            if insn.is_backward_branch:
                return self._finish()
        return None

    def _finish(self) -> Trace:
        trace = Trace(
            start_pc=self._pending[0].pc,
            path_hash=self._path,
            instructions=self._pending,
        )
        self._pending = []
        self._path = 0
        self.completed += 1
        return trace

    def flush(self) -> Trace | None:
        """Emit whatever is buffered (end of simulation window)."""
        if not self._pending:
            return None
        return self._finish()
