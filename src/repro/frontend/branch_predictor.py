"""Dynamic branch predictors.

Three classic designs are provided: a bimodal (per-PC 2-bit counter)
table, a gshare (global-history XOR PC) table, and a tournament
predictor that chooses between them with a per-PC meta table.  The
cores use a :class:`TournamentPredictor` by default, matching the
"sophisticated modern core" the paper models in gem5.
"""

from __future__ import annotations

from abc import ABC, abstractmethod


def _saturate(counter: int, taken: bool, bits: int = 2) -> int:
    """Update a saturating counter toward *taken*."""
    top = (1 << bits) - 1
    if taken:
        return min(top, counter + 1)
    return max(0, counter - 1)


class BranchPredictor(ABC):
    """Interface: predict then update with the true outcome."""

    def __init__(self) -> None:
        self.lookups = 0
        self.mispredicts = 0

    @abstractmethod
    def predict(self, pc: int) -> bool:
        """Return the predicted direction for the branch at *pc*."""

    @abstractmethod
    def update(self, pc: int, taken: bool) -> None:
        """Train the predictor with the resolved outcome."""

    def access(self, pc: int, taken: bool) -> bool:
        """Predict, train, and return whether the prediction was wrong."""
        self.lookups += 1
        predicted = self.predict(pc)
        self.update(pc, taken)
        wrong = predicted != taken
        if wrong:
            self.mispredicts += 1
        return wrong

    @property
    def misprediction_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.mispredicts / self.lookups

    def reset_stats(self) -> None:
        self.lookups = 0
        self.mispredicts = 0


class BimodalPredictor(BranchPredictor):
    """Per-PC 2-bit saturating counter table."""

    def __init__(self, entries: int = 2048):
        super().__init__()
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self._mask = entries - 1
        self._table = [1] * entries  # weakly not-taken

    def _index(self, pc: int) -> int:
        return (pc >> 2) & self._mask

    def predict(self, pc: int) -> bool:
        return self._table[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        idx = self._index(pc)
        self._table[idx] = _saturate(self._table[idx], taken)


class GSharePredictor(BranchPredictor):
    """Global-history predictor: index = hash(PC) XOR history."""

    def __init__(self, entries: int = 4096, history_bits: int = 12):
        super().__init__()
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self._mask = entries - 1
        self._table = [1] * entries
        self._history = 0
        self._history_mask = (1 << history_bits) - 1

    def _index(self, pc: int) -> int:
        return ((pc >> 2) ^ self._history) & self._mask

    def predict(self, pc: int) -> bool:
        return self._table[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        idx = self._index(pc)
        self._table[idx] = _saturate(self._table[idx], taken)
        self._history = ((self._history << 1) | int(taken)) & self._history_mask


class TournamentPredictor(BranchPredictor):
    """Meta-predictor choosing per-PC between bimodal and gshare."""

    def __init__(self, entries: int = 4096, history_bits: int = 12):
        super().__init__()
        self.bimodal = BimodalPredictor(entries)
        self.gshare = GSharePredictor(entries, history_bits)
        self._meta = [1] * entries  # < 2: prefer bimodal, >= 2: gshare
        self._mask = entries - 1

    def _meta_index(self, pc: int) -> int:
        return (pc >> 2) & self._mask

    def predict(self, pc: int) -> bool:
        if self._meta[self._meta_index(pc)] >= 2:
            return self.gshare.predict(pc)
        return self.bimodal.predict(pc)

    def update(self, pc: int, taken: bool) -> None:
        bim_correct = self.bimodal.predict(pc) == taken
        gsh_correct = self.gshare.predict(pc) == taken
        if bim_correct != gsh_correct:
            idx = self._meta_index(pc)
            self._meta[idx] = _saturate(self._meta[idx], gsh_correct)
        self.bimodal.update(pc, taken)
        self.gshare.update(pc, taken)

    def access(self, pc: int, taken: bool) -> bool:
        """Fused predict+update: one table read per component.

        The generic :meth:`BranchPredictor.access` costs up to four
        sub-predictions per branch (meta choice, then both components
        re-read during training).  Every dynamic branch in the detailed
        tier funnels through here, so the indices and counter reads are
        computed once and reused; the state transitions are exactly the
        ones the unfused path performs, in the same order.
        """
        self.lookups += 1
        bim = self.bimodal
        gsh = self.gshare
        slot = (pc >> 2) & self._mask
        bim_idx = (pc >> 2) & bim._mask
        gsh_idx = ((pc >> 2) ^ gsh._history) & gsh._mask
        bim_counter = bim._table[bim_idx]
        gsh_counter = gsh._table[gsh_idx]
        bim_taken = bim_counter >= 2
        gsh_taken = gsh_counter >= 2
        predicted = gsh_taken if self._meta[slot] >= 2 else bim_taken
        # Meta trains only when the components disagree.
        if bim_taken != gsh_taken:
            self._meta[slot] = _saturate(self._meta[slot], gsh_taken == taken)
        bim._table[bim_idx] = _saturate(bim_counter, taken)
        gsh._table[gsh_idx] = _saturate(gsh_counter, taken)
        gsh._history = ((gsh._history << 1) | int(taken)) & gsh._history_mask
        wrong = predicted != taken
        if wrong:
            self.mispredicts += 1
        return wrong
