"""Instruction set model for the Mirage Cores reproduction.

The simulator works on a compact, ARM-flavoured RISC instruction model:
each :class:`~repro.isa.instructions.Instruction` carries an operation
class, architectural source/destination registers, an optional memory
address, and branch metadata.  Programs are produced lazily by the
workload generators in :mod:`repro.workloads` as deterministic streams
of instructions annotated with program counters so that traces (the
unit of schedule memoization) can be delimited by backward branches.
"""

from repro.isa.instructions import (
    NUM_ARCH_REGS,
    FP_REG_BASE,
    Instruction,
    OpClass,
    is_fp_class,
    is_mem_class,
)

__all__ = [
    "NUM_ARCH_REGS",
    "FP_REG_BASE",
    "Instruction",
    "OpClass",
    "is_fp_class",
    "is_mem_class",
]
