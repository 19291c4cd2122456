"""Branch predictors.

The bad-speculation fraction of the top-down breakdown is driven by
branch mispredictions, so the machine model replays each benchmark's
conditional-branch outcome stream through a real predictor.  Two
classical predictors are provided:

* :class:`BimodalPredictor` — a table of 2-bit saturating counters
  indexed by branch PC;
* :class:`GsharePredictor` — 2-bit counters indexed by PC xor global
  history, the default for the i7-like machine configuration.

Both keep their 2-bit counters in a flat ``bytearray`` table (one byte
per counter, initialized weakly-not-taken) and predict one branch per
:meth:`predict_and_update` call.  They are the per-event reference
for the replay kernel, which runs the same counters over a whole
outcome stream as a segmented prefix scan
(:func:`~repro.machine.kernel.counter_scan_batched`; saturating-counter
updates are clamp functions, which compose associatively).
Predictions are identical to the historical dict-backed tables: a
missing dict entry defaulted to counter state 1, which is exactly the
``bytearray`` initial fill.
"""

from __future__ import annotations

__all__ = ["BimodalPredictor", "GsharePredictor", "PredictorStats"]


class PredictorStats:
    """Counts of predicted/mispredicted branches."""

    __slots__ = ("branches", "mispredicts")

    def __init__(self) -> None:
        self.branches = 0
        self.mispredicts = 0

    def misprediction_rate(self) -> float:
        return self.mispredicts / self.branches if self.branches else 0.0


class BimodalPredictor:
    """2-bit saturating counter per branch site.

    Counter states: 0, 1 predict not-taken; 2, 3 predict taken.
    Counters start weakly not-taken (1).
    """

    __slots__ = ("table_bits", "_mask", "_table", "stats")

    def __init__(self, table_bits: int = 12):
        if not 1 <= table_bits <= 24:
            raise ValueError("table_bits must be in [1, 24]")
        self.table_bits = table_bits
        self._mask = (1 << table_bits) - 1
        self._table = bytearray(b"\x01" * (1 << table_bits))
        self.stats = PredictorStats()

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Predict the branch at ``pc``, update state; returns correctness."""
        table = self._table
        idx = pc & self._mask
        counter = table[idx]
        prediction = counter >= 2
        correct = prediction == taken
        self.stats.branches += 1
        if not correct:
            self.stats.mispredicts += 1
        if taken:
            if counter < 3:
                table[idx] = counter + 1
        else:
            if counter > 0:
                table[idx] = counter - 1
        return correct



class GsharePredictor:
    """Gshare: 2-bit counters indexed by PC xor global branch history."""

    __slots__ = ("table_bits", "history_bits", "_mask", "_history", "_table", "stats")

    def __init__(self, table_bits: int = 14, history_bits: int = 12):
        if not 1 <= table_bits <= 24:
            raise ValueError("table_bits must be in [1, 24]")
        if not 0 <= history_bits <= table_bits:
            raise ValueError("history_bits must be in [0, table_bits]")
        self.table_bits = table_bits
        self.history_bits = history_bits
        self._mask = (1 << table_bits) - 1
        self._history = 0
        self._table = bytearray(b"\x01" * (1 << table_bits))
        self.stats = PredictorStats()

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        table = self._table
        idx = (pc ^ self._history) & self._mask
        counter = table[idx]
        prediction = counter >= 2
        correct = prediction == taken
        self.stats.branches += 1
        if not correct:
            self.stats.mispredicts += 1
        if taken:
            if counter < 3:
                table[idx] = counter + 1
        else:
            if counter > 0:
                table[idx] = counter - 1
        self._history = ((self._history << 1) | (1 if taken else 0)) & (
            (1 << self.history_bits) - 1
        )
        return correct

