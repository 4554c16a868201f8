"""Scalar evaluation metrics for word-, sentence- and document-level QE.

BAD is the positive class throughout. F1 of a class that is neither predicted
nor present in the gold is defined as 1 (and 0 whenever a precision/recall
denominator vanishes otherwise); this keeps F1-MULT stable on degenerate
folds during k-fold estimation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DegenerateInput, EmptyInput, LengthMismatch, RangeError

__all__ = ["ContingencyTable", "F1Mult", "threshold", "f1_mult", "mcc", "pearson"]


@dataclass(frozen=True)
class ContingencyTable:
    """Binary confusion counts with BAD as the positive class."""

    tp: int
    fp: int
    tn: int
    fn: int

    @classmethod
    def from_bool(cls, gold_bad, pred_bad) -> "ContingencyTable":
        """Counts over BAD indicators, anything ``np.asarray(x, dtype=bool)``
        reads (``Tag`` lists too); every metric counts here."""
        gold_bad = np.asarray(gold_bad, dtype=bool)
        pred_bad = np.asarray(pred_bad, dtype=bool)
        if gold_bad.shape != pred_bad.shape:
            raise LengthMismatch(f"gold has {gold_bad.size} tags, prediction has {pred_bad.size}")
        if not gold_bad.size:
            raise EmptyInput("cannot score zero tags")
        tp = int(np.count_nonzero(gold_bad & pred_bad))
        fp = int(np.count_nonzero(pred_bad)) - tp
        fn = int(np.count_nonzero(gold_bad)) - tp
        return cls(tp=tp, fp=fp, tn=gold_bad.size - tp - fp - fn, fn=fn)

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    def f1_scores(self) -> "F1Mult":
        f1_ok, f1_bad = _class_f1_array(
            np.array([self.tn, self.tp]),
            np.array([self.tn + self.fn, self.tp + self.fp]),
            np.array([self.tn + self.fp, self.tp + self.fn]),
        ).tolist()
        return F1Mult(f1_ok=f1_ok, f1_bad=f1_bad, f1_mult=f1_ok * f1_bad)


class F1Mult(NamedTuple):
    f1_ok: float
    f1_bad: float
    f1_mult: float


def threshold(probs: Sequence[float], t: float) -> np.ndarray:
    """BAD indicators of P(BAD) values, ``probs >= t`` as a bool array."""
    _check_threshold(t)
    return np.asarray(probs, dtype=np.float64) >= t


def _check_threshold(t: float):
    if not 0.0 <= t <= 1.0:
        raise RangeError(f"threshold {t} outside [0, 1]")


def _class_f1_array(tp: np.ndarray, pred_count: np.ndarray, gold_count) -> np.ndarray:
    """A class's F1 for each prediction, from its true positives and its
    count of predictions of the class against ``gold_count`` (a count, or
    one per prediction) in the gold: ``2 * precision * recall / (precision +
    recall)``, 0 without a true positive, and 1 where the class is neither
    predicted nor in the gold."""
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = tp / pred_count
        recall = tp / gold_count
        f1 = 2.0 * precision * recall / (precision + recall)
    f1[tp == 0] = 0.0
    f1[(pred_count == 0) & (gold_count == 0)] = 1.0
    return f1


def _f1_mult_counts(tp: np.ndarray, pred_bad: np.ndarray, gold_bad: int, total: int) -> np.ndarray:
    """F1-MULT of many predictions against one gold of ``gold_bad`` BAD tags
    among ``total``, from each prediction's true positives and BAD count.
    Every F1 is :func:`_class_f1_array`'s, so each value equals the
    ``f1_mult`` of :func:`f1_mult` of that prediction bit for bit."""
    f1_bad = _class_f1_array(tp, pred_bad, gold_bad)
    f1_ok = _class_f1_array(tp - pred_bad + (total - gold_bad), total - pred_bad, total - gold_bad)
    return f1_ok * f1_bad


def f1_mult(gold, pred) -> F1Mult:
    """F1 of each class plus their product, the word-level task metric."""
    return ContingencyTable.from_bool(gold, pred).f1_scores()


def mcc(gold, pred) -> float:
    """Matthews correlation over the confusion matrix of BAD indicators; 0
    whenever any marginal is empty."""
    t = ContingencyTable.from_bool(gold, pred)
    denom_sq = (t.tp + t.fp) * (t.tp + t.fn) * (t.tn + t.fp) * (t.tn + t.fn)
    if denom_sq == 0:
        return 0.0
    return (t.tp * t.tn - t.fp * t.fn) / math.sqrt(denom_sq)


def pearson(x: Sequence[float], y: Sequence[float], *, files=(None, None)) -> float:
    """Sample Pearson correlation; a constant ``x`` or ``y`` (tested by its
    range: a mean that rounds hides it from the variance) is a
    DegenerateInput naming its entry of ``files``.

    Each vector is first scaled by the power of two that brings its largest
    magnitude into [0.5, 1): the correlation keeps its bits while no entry
    leaves the normal range, and no sum or product can overflow or underflow."""
    if len(x) != len(y):
        raise DegenerateInput(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise DegenerateInput("need at least two points")
    for values, file in zip((x, y), files):
        if min(values) == max(values):
            raise DegenerateInput("correlation with a constant vector is undefined", file=file)
    n = len(x)
    x, y = _unit_scaled(x), _unit_scaled(y)
    mean_x = math.fsum(x) / n
    mean_y = math.fsum(y) / n
    dx = [v - mean_x for v in x]
    dy = [v - mean_y for v in y]
    var_x = math.fsum(d * d for d in dx)
    var_y = math.fsum(d * d for d in dy)
    cov = math.fsum(a * b for a, b in zip(dx, dy))
    return cov / math.sqrt(var_x * var_y)


def _unit_scaled(values: Sequence[float]) -> list[float]:
    _, exponent = math.frexp(max(map(abs, values)))
    return [math.ldexp(v, -exponent) for v in values]
