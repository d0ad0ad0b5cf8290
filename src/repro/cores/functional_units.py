"""Issue-slot and functional-unit occupancy accounting.

The dataflow-slot core models need to answer one question efficiently:
*given an earliest-ready cycle, when can this instruction actually
issue?*  :class:`FUPool` combines the global issue width with
per-FU-type unit counts and (for divides) non-pipelined initiation
intervals in one per-cycle table.
"""

from __future__ import annotations

from repro.isa.instructions import OpClass

#: Functional-unit types.
FU_INT = "int_alu"
FU_MUL = "int_mul"
FU_FP = "fp_alu"
FU_FDIV = "fp_div"
FU_MEM = "mem_port"
FU_BR = "branch"

#: Functional-unit type per op class, indexed by the OpClass int value.
FU_TYPE_BY_OP: tuple[str, ...] = (
    FU_INT,    # IALU
    FU_MUL,    # IMUL
    FU_MUL,    # IDIV
    FU_FP,     # FALU
    FU_FP,     # FMUL
    FU_FDIV,   # FDIV
    FU_MEM,    # LOAD
    FU_MEM,    # STORE
    FU_BR,     # BRANCH
    FU_INT,    # NOP
)

#: Unit counts for the 3-wide machine (same for OoO and InO, paper §4.2).
DEFAULT_FU_COUNTS = {
    FU_INT: 3,
    FU_MUL: 1,
    FU_FP: 2,
    FU_FDIV: 1,
    FU_MEM: 2,
    FU_BR: 1,
}

#: Op classes that occupy their unit for the full latency (unpipelined).
_UNPIPELINED = frozenset({OpClass.IDIV, OpClass.FDIV})

#: Bits per resource in a packed per-cycle word.
_FIELD_BITS = 8
_FIELD_MAX = (1 << _FIELD_BITS) - 1


def fu_type_for(opclass: OpClass) -> str:
    """Functional-unit type an instruction of *opclass* executes on."""
    return FU_TYPE_BY_OP[opclass]


class FUPool:
    """Joint issue-width + functional-unit availability.

    One dict maps each cycle to a packed word, 8 bits per resource:
    the low field counts issue slots used in that cycle, and each unit
    type has its own field above it.  A pipelined issue reads one word
    per probed cycle and stores one; an unpipelined divide also holds
    its unit's field for ``latency`` cycles.

    Cycles only grow over a run.  Once the table holds more than
    *prune_window* cycles, those more than ``prune_window // 2``
    behind the latest issue are dropped, so a request must not reach
    further back than that.
    """

    __slots__ = ("width", "_used", "_rows", "_prune_at")

    def __init__(self, width: int, counts: dict[str, int] | None = None,
                 prune_window: int = 50_000):
        counts = DEFAULT_FU_COUNTS if counts is None else counts
        for name, n in (("width", width), *counts.items()):
            if not 1 <= n <= _FIELD_MAX:
                raise ValueError(
                    f"{name} must be in 1..{_FIELD_MAX}, got {n}")
        self.width = width
        self._used: dict[int, int] = {}
        self._prune_at = prune_window
        shift = {fu: _FIELD_BITS * (i + 1) for i, fu in enumerate(counts)}
        # Per-op row, indexed by the OpClass int value: the unit field's
        # mask, the masked value at which it is full, its unit increment,
        # and whether the op holds the unit for its whole latency.
        self._rows = tuple(
            (_FIELD_MAX << shift[fu], counts[fu] << shift[fu],
             1 << shift[fu], op in _UNPIPELINED)
            for op, fu in zip(OpClass, FU_TYPE_BY_OP))

    def issue_at(self, opclass: OpClass, earliest: int, latency: int) -> int:
        """Find and reserve the first cycle >= *earliest* that has a free
        issue slot and a free unit (for unpipelined ops, over the whole
        *latency* span); returns the issue cycle."""
        umask, ufull, unit, unpipelined = self._rows[opclass]
        width = self.width
        used = self._used
        get = used.get
        c = earliest
        if unpipelined:
            while True:
                if (get(c, 0) & _FIELD_MAX) >= width:
                    c += 1
                    continue
                for k in range(c, c + latency):
                    if (get(k, 0) & umask) >= ufull:
                        c = k + 1
                        break
                else:
                    break
            for k in range(c, c + latency):
                used[k] = get(k, 0) + unit
            used[c] = get(c, 0) + 1
        else:
            w = get(c, 0)
            while (w & _FIELD_MAX) >= width or (w & umask) >= ufull:
                c += 1
                w = get(c, 0)
            used[c] = w + 1 + unit
        if len(used) > self._prune_at:
            self._prune()
        return c

    def _prune(self) -> None:
        # The latest issue is the latest cycle with an issue slot used
        # (an unpipelined unit's later cycles may not have one).
        used = self._used
        floor = max(k for k, w in used.items() if w & _FIELD_MAX) \
            - self._prune_at // 2
        self._used = {k: w for k, w in used.items() if k >= floor}
