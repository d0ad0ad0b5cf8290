"""Instruction and operation-class definitions.

The model is deliberately small: the cycle-level cores in
:mod:`repro.cores` only need to know an instruction's operation class
(which functional unit it occupies and for how long), its register
dependencies, whether it touches memory (and at what address), and its
branch behaviour.  That is exactly the information an issue schedule is
built from, and therefore all that schedule memoization needs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

#: Number of architectural integer registers (ARM-like: r0-r31 modelled).
NUM_ARCH_REGS = 32

#: Architectural register ids >= FP_REG_BASE denote floating-point registers.
FP_REG_BASE = 32

#: Total architectural register namespace (32 int + 32 fp).
TOTAL_ARCH_REGS = 64


class OpClass(enum.IntEnum):
    """Operation classes, each mapping to a functional-unit type."""

    IALU = 0       #: single-cycle integer ALU op
    IMUL = 1       #: integer multiply (3 cycles)
    IDIV = 2       #: integer divide (12 cycles, unpipelined)
    FALU = 3       #: floating-point add/sub (3 cycles)
    FMUL = 4       #: floating-point multiply (4 cycles)
    FDIV = 5       #: floating-point divide (16 cycles, unpipelined)
    LOAD = 6       #: memory load (latency from the cache hierarchy)
    STORE = 7      #: memory store
    BRANCH = 8     #: conditional/unconditional control transfer
    NOP = 9        #: no-op (pipeline filler)


#: Base execution latency per op class, excluding memory-hierarchy time.
BASE_LATENCY: dict[OpClass, int] = {
    OpClass.IALU: 1,
    OpClass.IMUL: 3,
    OpClass.IDIV: 12,
    OpClass.FALU: 3,
    OpClass.FMUL: 4,
    OpClass.FDIV: 16,
    OpClass.LOAD: 1,   # address generation; cache adds access latency
    OpClass.STORE: 1,
    OpClass.BRANCH: 1,
    OpClass.NOP: 1,
}

_MEM_CLASSES = frozenset({OpClass.LOAD, OpClass.STORE})
_FP_CLASSES = frozenset({OpClass.FALU, OpClass.FMUL, OpClass.FDIV})


def is_mem_class(opclass: OpClass) -> bool:
    """Return True if *opclass* accesses data memory."""
    return opclass in _MEM_CLASSES


def is_fp_class(opclass: OpClass) -> bool:
    """Return True if *opclass* executes on a floating-point unit."""
    return opclass in _FP_CLASSES


#: Per-opclass lookup rows indexed by the IntEnum value.  The hot core
#: loops read ``is_load``/``is_mem``/``base_latency`` several times per
#: dynamic instruction; materializing them once at construction (plain
#: slot attributes, filled from these tuples in ``__init__``) removes a
#: Python property call plus an enum hash from every read.
_IS_LOAD_BY_OP = tuple(op is OpClass.LOAD for op in OpClass)
_IS_STORE_BY_OP = tuple(op is OpClass.STORE for op in OpClass)
_IS_MEM_BY_OP = tuple(op in _MEM_CLASSES for op in OpClass)
_BASE_LATENCY_BY_OP = tuple(BASE_LATENCY[op] for op in OpClass)


@dataclass(slots=True, init=False)
class Instruction:
    """One dynamic instruction.

    Attributes:
        seq: Global dynamic sequence number (program order).
        pc: Program counter of the static instruction.
        opclass: Operation class (functional unit + base latency).
        dst: Destination architectural register, or ``None``.
        srcs: Source architectural registers (may be empty).
        mem_addr: Effective address for loads/stores, else ``None``.
        is_branch: True for control transfers.
        taken: Branch outcome (meaningful only when ``is_branch``).
        target: Branch target pc (meaningful only when ``is_branch``).
        is_load: Derived: ``opclass is OpClass.LOAD``.
        is_store: Derived: ``opclass is OpClass.STORE``.
        is_mem: Derived: the instruction accesses data memory.
        base_latency: Derived: execution latency excluding
            memory-hierarchy time (:data:`BASE_LATENCY`).
    """

    seq: int
    pc: int
    opclass: OpClass
    dst: int | None = None
    srcs: tuple[int, ...] = ()
    mem_addr: int | None = None
    is_branch: bool = False
    taken: bool = False
    target: int = 0
    is_load: bool = field(init=False, compare=False, repr=False)
    is_store: bool = field(init=False, compare=False, repr=False)
    is_mem: bool = field(init=False, compare=False, repr=False)
    base_latency: int = field(init=False, compare=False, repr=False)

    def __init__(
        self,
        seq: int,
        pc: int,
        opclass: OpClass,
        dst: int | None = None,
        srcs: tuple[int, ...] = (),
        mem_addr: int | None = None,
        is_branch: bool = False,
        taken: bool = False,
        target: int = 0,
    ) -> None:
        # Written out rather than generated so that one call also sets
        # the derived fields: the workload generator builds one
        # instance per dynamic instruction.
        self.seq = seq
        self.pc = pc
        self.opclass = opclass
        self.dst = dst
        self.srcs = srcs
        self.mem_addr = mem_addr
        self.is_branch = is_branch
        self.taken = taken
        self.target = target
        self.is_load = _IS_LOAD_BY_OP[opclass]
        self.is_store = _IS_STORE_BY_OP[opclass]
        self.is_mem = _IS_MEM_BY_OP[opclass]
        self.base_latency = _BASE_LATENCY_BY_OP[opclass]

    @property
    def is_backward_branch(self) -> bool:
        """Backward branches delimit traces (paper section 3.3)."""
        return self.is_branch and self.taken and self.target <= self.pc

    def encoding_bytes(self) -> int:
        """Size of the instruction in the Schedule Cache (fixed 4 B ISA)."""
        return 4

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"#{self.seq}", f"pc={self.pc:#x}", self.opclass.name]
        if self.dst is not None:
            parts.append(f"d=r{self.dst}")
        if self.srcs:
            parts.append("s=" + ",".join(f"r{s}" for s in self.srcs))
        if self.mem_addr is not None:
            parts.append(f"@{self.mem_addr:#x}")
        if self.is_branch:
            parts.append(f"->{self.target:#x}" + ("T" if self.taken else "N"))
        return "<Insn " + " ".join(parts) + ">"
