"""The branch predictor: gshare over 2-bit saturating counters.

The predictor charges nothing itself; the core model adds the
misprediction penalty when a prediction disagrees with the architectural
outcome.
"""

from __future__ import annotations

from typing import List

#: log2 of the number of counters
TABLE_BITS = 12
#: bits of global branch history XORed into the index
HISTORY_BITS = 12
_TABLE_MASK = (1 << TABLE_BITS) - 1
_HISTORY_MASK = (1 << HISTORY_BITS) - 1


class BranchPredictor:
    """Global-history-XOR-PC indexed 2-bit counters (gshare).

    The compiled hot blocks (:mod:`repro.timing.blocks`) inline
    :meth:`predict_and_update`; ``tests/timing/test_blocks.py`` keeps the
    two equal.
    """

    def __init__(self) -> None:
        self.lookups = 0
        self.mispredicts = 0
        self._history = 0
        # counters start weakly taken (2): loops predict taken early
        self._counters: List[int] = [2] * (1 << TABLE_BITS)

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Predict the branch at ``pc``, then train on its architectural
        outcome ``taken``.  Returns True if the prediction was correct."""
        self.lookups += 1
        index = (pc ^ self._history) & _TABLE_MASK
        counter = self._counters[index]
        correct = (counter >= 2) == taken
        if not correct:
            self.mispredicts += 1
        if taken:
            if counter < 3:
                self._counters[index] = counter + 1
            self._history = ((self._history << 1) | 1) & _HISTORY_MASK
        else:
            if counter > 0:
                self._counters[index] = counter - 1
            self._history = (self._history << 1) & _HISTORY_MASK
        return correct

    @property
    def accuracy(self) -> float:
        return 1.0 - self.mispredicts / self.lookups if self.lookups else 1.0
