"""System ensembling: convex combinations tuned with Powell's direction-set
search directly on F1-MULT, the k-fold unbiased estimation protocol, and
sentence-level ridge stacking.

The word-level objective (F1-MULT of thresholded tags) is piecewise constant
in the weights, so a derivative-based line search would stall on its flat
regions. Along a Powell line each token's tag changes only where it crosses
the threshold, so the line search is exact instead, after Och's minimum error
rate training (ACL 2003): it sorts the crossings inside the box segment and
scores every interval between them from cumulative counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .corpus import PredictionSet, Ragged, Stream, _read_table, _write_table, check_lengths
from .errors import (
    DegenerateInput,
    EmptyInput,
    FoldError,
    InvalidInput,
    LengthMismatch,
    MissingStream,
    ParseError,
    RangeError,
    SingularSystem,
    ZeroWeights,
)
from .metrics import _check_threshold, _f1_mult_counts, f1_mult

__all__ = [
    "WeightVector",
    "fold_bounds",
    "RidgeModel",
    "WordEnsembleFit",
    "combine_word",
    "powell_optimize",
    "fit_word_ensemble",
    "kfold_estimate",
    "sentence_features",
    "ridge_fit",
    "ridge_cv",
    "save_weights",
    "load_weights",
    "save_ridge_model",
    "load_ridge_model",
]


@dataclass(frozen=True)
class WeightVector:
    """Nonnegative ensemble weights, one per system; combination always uses
    ``weights / sum(weights)`` so any positive scaling is equivalent."""

    weights: tuple[float, ...]
    stream: Stream

    def __post_init__(self):
        for w in self.weights:
            _check_weight(w)


def _check_weight(w, *, file=None, line=None):
    if not 0.0 <= w <= 1.0:
        raise RangeError(f"weight {w} outside [0, 1]", file=file, line=line)


def fold_bounds(n: int, k: int) -> list[tuple[int, int]]:
    """The ``(lo, hi)`` index range of each of ``k`` contiguous folds over
    ``n`` items, in fold order; fold sizes differ by at most one."""
    if n < k:
        raise FoldError(f"cannot split {n} sentences into {k} folds")
    if k < 2:
        raise FoldError("k must be >= 2")
    return [(f * n // k, (f + 1) * n // k) for f in range(k)]


@dataclass
class RidgeModel:
    coefficients: np.ndarray
    intercept: float
    lam: float
    feature_names: list[str]

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        with np.errstate(over="ignore", invalid="ignore"):  # a prediction that is not finite is the caller's to refuse
            return X @ self.coefficients + self.intercept


class WordEnsembleFit(NamedTuple):
    weights: WeightVector
    threshold: float
    f1: float


# ---------------------------------------------------------------------------
# Convex combination
# ---------------------------------------------------------------------------


def _stacked_matrix(preds: Sequence[PredictionSet], stream: Stream) -> np.ndarray:
    """One row per system, one column per token of the stream; every
    system's rows hold as many tokens as the first system's."""
    if not preds:
        raise MissingStream("no systems to ensemble")
    for pred in preds:
        if pred.stream(stream) is None:
            raise MissingStream(f"system {pred.system_id!r} provides no {stream.value} stream")
    lengths = np.diff(preds[0].stream(stream).offsets)
    for pred in preds[1:]:
        check_lengths(pred.stream(stream), lengths, f"system {pred.system_id!r} {stream.value} stream")
    return np.vstack([pred.stream(stream).values for pred in preds])


def _stacked_with_gold(preds: Sequence[PredictionSet], gold, stream: Stream) -> tuple[np.ndarray, Ragged]:
    """The stacked matrix of ``preds`` and ``gold`` as a bool Ragged, its
    rows holding as many tags as the systems' rows."""
    matrix = _stacked_matrix(preds, stream)
    gold = Ragged.from_rows(gold, dtype=bool)
    check_lengths(gold, np.diff(preds[0].stream(stream).offsets), "gold")
    return matrix, gold


def _combine(weights: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """``(w / sum(w)) @ M``. The fit objective, :func:`combine_word` and the
    k-fold estimate all combine here, so applying fitted weights reproduces
    the F1 the fit reported to the last bit."""
    total = weights.sum()
    if total <= 0.0:
        raise ZeroWeights("ensemble weights sum to zero")
    return (weights / total) @ matrix


def combine_word(
    preds: Sequence[PredictionSet], w: WeightVector, stream: Stream | None = None
) -> Ragged:
    """Normalized convex combination of per-token probabilities, one row per
    sentence, at most 1.0 (the normalized weights may sum to just above 1)."""
    stream = stream or w.stream
    if len(w.weights) != len(preds):
        raise LengthMismatch(f"{len(w.weights)} weights for {len(preds)} systems")
    flat = _combine(np.array(w.weights, dtype=float), _stacked_matrix(preds, stream))
    return Ragged(np.minimum(flat, 1.0), preds[0].stream(stream).offsets)


# ---------------------------------------------------------------------------
# Powell's conjugate direction search on the unit box
# ---------------------------------------------------------------------------


class _Recorder:
    """Wraps the objective so the best visited point is always returned."""

    def __init__(self, objective):
        self.objective = objective
        self.best_x = None
        self.best_f = np.inf

    def __call__(self, x):
        value = self.objective(x)
        if value < self.best_f:
            self.best_f = value
            self.best_x = x.copy()
        return value


def _box_bounds(x, direction):
    """The step range ``(lo, hi)`` that keeps ``x + alpha * direction`` inside
    [0,1]^n, widened to hold 0; None when the direction leaves no room."""
    lo, hi = -np.inf, np.inf
    for xi, di in zip(x, direction):
        if di > 1e-12:
            lo = max(lo, -xi / di)
            hi = min(hi, (1.0 - xi) / di)
        elif di < -1e-12:
            lo = max(lo, (1.0 - xi) / di)
            hi = min(hi, -xi / di)
    if not np.isfinite(lo) or not np.isfinite(hi) or hi - lo <= 0.0:
        return None
    return min(lo, 0.0), max(hi, 0.0)


def _line_step(func, x, fx, direction, line):
    """One line search: ``line`` picks a step inside the box, the objective
    is evaluated once there, and the point replaces ``x`` only if it is
    strictly better."""
    bounds = _box_bounds(x, direction)
    if bounds is None:
        return x, fx
    point = np.clip(x + line(x, direction, *bounds) * direction, 0.0, 1.0)
    value = func(point)
    if value < fx:
        return point, value
    return x, fx


def powell_optimize(
    objective: Callable[[np.ndarray], float],
    init: Sequence[float],
    line: Callable[[np.ndarray, np.ndarray, float, float], float],
    *,
    tol: float = 1e-6,
    max_cycles: int = 20,
) -> tuple[np.ndarray, float]:
    """Minimize a total function on [0,1]^n without derivatives.

    ``line(x, d, lo, hi)`` returns the step ``alpha`` in ``[lo, hi]`` to take
    along ``d`` from ``x``; the objective is evaluated once at the clipped
    point, which is kept only if it improves. The direction set starts as
    the coordinate basis; each cycle searches along every direction, then
    applies the classic replacement heuristic: when the acceptance test on
    the extrapolated point passes, the direction of largest single-search
    decrease is swapped for the net cycle displacement. Terminates when a
    cycle improves by less than ``tol`` or after ``max_cycles``. Always
    returns the best visited point.
    """
    x = np.clip(np.asarray(init, dtype=float), 0.0, 1.0)
    n = x.size
    if n < 1:
        raise DegenerateInput("need at least one coordinate")
    func = _Recorder(objective)
    fx = func(x)
    basis = [np.eye(n)[i] for i in range(n)]
    directions = [d.copy() for d in basis]
    mutated = False

    for _ in range(max_cycles):
        f_start = fx
        x_start = x.copy()
        biggest_drop = 0.0
        big_idx = 0
        for idx, direction in enumerate(directions):
            f_before = fx
            x, fx = _line_step(func, x, fx, direction, line)
            if f_before - fx > biggest_drop:
                biggest_drop = f_before - fx
                big_idx = idx

        if f_start - fx < tol:
            if not mutated:
                break
            # a stalled, replacement-mutated direction set may have collapsed;
            # restore the coordinate basis and give the search one more chance
            directions = [d.copy() for d in basis]
            mutated = False
            continue

        displacement = x - x_start
        if np.any(displacement != 0.0):
            extrapolated = np.clip(2.0 * x - x_start, 0.0, 1.0)
            if not np.array_equal(extrapolated, x):
                f_ext = func(extrapolated)
                if f_start > f_ext:
                    t = 2.0 * (f_start + f_ext - 2.0 * fx) * (f_start - fx - biggest_drop) ** 2
                    t -= biggest_drop * (f_start - f_ext) ** 2
                    if t < 0.0:
                        x, fx = _line_step(func, x, fx, displacement, line)
                        directions[big_idx] = directions[-1]
                        directions[-1] = displacement
                        mutated = True

    return func.best_x, func.best_f


# ---------------------------------------------------------------------------
# Word-level ensemble fitting
# ---------------------------------------------------------------------------


# Intervals narrower than this share of the segment lie within rounding of
# their crossings (a sweep toward zero weights puts a sliver of spurious
# ones at the segment's end), so the line search never stops in one.
_MIN_WIDTH = 1e-9


def _line_sweep(matrix, gold_bad, x, d, lo, hi, threshold=None):
    """Exact F1-MULT line search along ``x + alpha * d`` for ``alpha`` in
    ``[lo, hi]``, after Och's minimum error rate line optimisation (ACL
    2003). Returns the middle of the widest interval with the best F1-MULT,
    that F1-MULT and the interval's width.

    With weights ``w + alpha * dw`` summing to ``S + alpha * D > 0`` and the
    threshold ``tau + alpha * dtau`` (the last coordinate when ``threshold``
    is None, else fixed), token ``t`` is BAD iff
    ``a_t + b_t * alpha + q * alpha**2 >= 0`` where ``a = w @ M - tau * S``,
    ``b = dw @ M - tau * D - dtau * S`` and ``q = -dtau * D``. Its tag only
    changes at a root of that polynomial, so one sort of the roots inside
    the segment and cumulative counts give the confusion counts, and so the
    F1-MULT, of every interval between them. Where all weights are zero the
    score is 0, as in the objective.
    """
    n = matrix.shape[0]
    w, dw = x[:n], d[:n]
    S, D = w.sum(), dw.sum()
    tau, dtau = (x[n], d[n]) if threshold is None else (threshold, 0.0)
    a = w @ matrix
    a -= tau * S
    b = dw @ matrix
    b -= tau * D + dtau * S
    q = -dtau * D

    # tags in the middle of the segment hold for tokens without a root inside
    mid = 0.5 * (lo + hi)
    bad = b * mid
    bad += a
    if q:
        bad += q * mid * mid
    bad = bad >= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        if not q:
            roots = np.divide(a, b, out=a)
            np.negative(roots, out=roots)
            tokens = np.flatnonzero((roots > lo) & (roots < hi))
            rising = b[tokens] > 0.0
            roots = roots[tokens]
            # a token with one root is BAD below it iff b < 0 (falling)
            bad[tokens] = ~rising
        else:
            # stable roots t / q and a / t with t = -(b + sign(b) sqrt(disc)) / 2;
            # NaN where the discriminant is negative
            first = b * b
            first -= (4.0 * q) * a
            np.sqrt(first, out=first)
            np.copysign(first, b, out=first)
            first += b
            first *= -0.5
            second = np.divide(a, first, out=a)
            np.divide(first, q, out=first)
            swap = first > second
            first[swap], second[swap] = second[swap], first[swap]
            low = np.flatnonzero((first > lo) & (first < hi))
            high = np.flatnonzero((second > lo) & (second < hi))
            # BAD outside the roots iff q > 0; the tag just above lo is the
            # one on the near side of the first root inside
            bad[high] = q < 0.0
            bad[low] = q > 0.0
            roots = np.concatenate((first[low], second[high]))
            tokens = np.concatenate((low, high))
            rising = np.concatenate((np.full(low.size, q < 0.0), np.full(high.size, q > 0.0)))
    del a, b

    order = np.argsort(roots)
    edges = np.empty(roots.size + 2)
    edges[0], edges[-1] = lo, hi
    np.take(roots, order, out=edges[1:-1])
    # each root moves the BAD count by +1 or -1, and the true positives too
    # when its token is gold BAD
    pred = np.empty(roots.size + 1, dtype=np.int64)
    pred[0] = np.count_nonzero(bad)
    pred[1:] = rising[order]
    pred[1:] *= 2
    pred[1:] -= 1
    tp = np.empty_like(pred)
    tp[0] = np.count_nonzero(bad & gold_bad)
    np.multiply(pred[1:], gold_bad[tokens[order]], out=tp[1:])
    np.cumsum(pred, out=pred)
    np.cumsum(tp, out=tp)

    f1 = _f1_mult_counts(tp, pred, int(np.count_nonzero(gold_bad)), gold_bad.size)
    widths = np.diff(edges)
    if min(S + lo * D, S + hi * D) <= 0.0:
        f1[S + 0.5 * (edges[:-1] + edges[1:]) * D <= 0.0] = 0.0
    f1[widths <= _MIN_WIDTH * (hi - lo)] = -1.0
    best = np.flatnonzero(f1 == f1.max())
    pick = best[np.argmax(widths[best])]
    return 0.5 * (edges[pick] + edges[pick + 1]), float(f1[pick]), float(widths[pick])


def _fit(
    matrix: np.ndarray,
    gold_bad: np.ndarray,
    *,
    threshold: float = 0.5,
    optimize_threshold: bool = False,
    tol: float = 1e-6,
    max_cycles: int = 20,
) -> tuple[np.ndarray, float, float]:
    """:func:`fit_word_ensemble` on a stacked matrix and its flat gold:
    returns the weights, the threshold and the dev F1-MULT."""
    _check_threshold(threshold)
    if not gold_bad.size:
        raise EmptyInput("cannot score zero tags")
    n = matrix.shape[0]

    # every single system scored in one batch from its confusion counts, bit
    # for bit f1_mult's; one row is thresholded at a time
    counts = np.array(
        [[np.count_nonzero(bad & gold_bad), np.count_nonzero(bad)] for bad in (row >= threshold for row in matrix)]
    )
    singles = _f1_mult_counts(counts[:, 0], counts[:, 1], int(np.count_nonzero(gold_bad)), gold_bad.size).tolist()
    best_single = max(range(n), key=lambda s: (singles[s], -s))

    def objective(z):
        try:
            combined = _combine(z[:n], matrix)
        except ZeroWeights:
            return 0.0
        return -f1_mult(gold_bad, combined >= (z[n] if optimize_threshold else threshold)).f1_mult

    fixed = None if optimize_threshold else threshold

    def line(x, d, lo, hi):
        return _line_sweep(matrix, gold_bad, x, d, lo, hi, fixed)[0]

    init = np.zeros(n + 1 if optimize_threshold else n)
    init[best_single] = 1.0
    if optimize_threshold:
        init[n] = threshold

    point, value = powell_optimize(objective, init, line, tol=tol, max_cycles=max_cycles)
    if optimize_threshold:
        weights, fitted_threshold = point[:n], float(point[n])
    else:
        weights, fitted_threshold = point, threshold
    if weights.sum() <= 0.0:
        weights = init[:n]
    return weights, fitted_threshold, -value


def fit_word_ensemble(
    dev_preds: Sequence[PredictionSet],
    dev_gold: Ragged | Sequence[Sequence[bool]],
    stream: Stream,
    *,
    threshold: float = 0.5,
    optimize_threshold: bool = False,
    tol: float = 1e-6,
    max_cycles: int = 20,
) -> WordEnsembleFit:
    """Maximize dev F1-MULT of the thresholded convex combination.

    ``dev_gold`` holds BAD indicators per sentence (``Tag`` rows too).
    Powell starts from a one-hot vector on the best single system, so the
    fitted ensemble never scores below it on the dev set. With
    ``optimize_threshold`` the decision threshold joins the search as an
    extra coordinate; otherwise it stays fixed. Each line search is exact
    (:func:`_line_sweep`).
    """
    matrix, gold = _stacked_with_gold(dev_preds, dev_gold, stream)
    weights, fitted_threshold, f1 = _fit(
        matrix,
        gold.values,
        threshold=threshold,
        optimize_threshold=optimize_threshold,
        tol=tol,
        max_cycles=max_cycles,
    )
    return WordEnsembleFit(
        weights=WeightVector(weights=tuple(float(w) for w in weights), stream=stream),
        threshold=fitted_threshold,
        f1=f1,
    )


def kfold_estimate(
    dev_preds: Sequence[PredictionSet],
    dev_gold: Ragged | Sequence[Sequence[bool]],
    k: int,
    stream: Stream,
    **fit_kwargs,
) -> float:
    """Approximately unbiased dev-set estimate over ``k`` contiguous folds:
    fit weights with one fold held out, predict that fold, and score F1-MULT
    over the concatenation of all held-out predictions. The systems are
    stacked once; each fold fits on the columns of the other folds."""
    bounds = fold_bounds(len(dev_gold), k)
    matrix, dev_gold = _stacked_with_gold(dev_preds, dev_gold, stream)
    gold = dev_gold.values
    pred_bad = []
    for lo, hi in bounds:
        a, b = dev_gold.offsets[lo], dev_gold.offsets[hi]
        weights, threshold, _ = _fit(
            np.concatenate((matrix[:, :a], matrix[:, b:]), axis=1),
            np.concatenate((gold[:a], gold[b:])),
            **fit_kwargs,
        )
        pred_bad.append(_combine(weights, matrix[:, a:b]) >= threshold)
    return f1_mult(gold, np.concatenate(pred_bad)).f1_mult


# ---------------------------------------------------------------------------
# Sentence-level stacking
# ---------------------------------------------------------------------------


def sentence_features(preds: Sequence[PredictionSet]) -> tuple[np.ndarray, list[str]]:
    """Per-sentence feature matrix: each system contributes its sentence
    score when it has one, plus the mean BAD probability of every stream it
    provides. A stream missing from a system is omitted globally, never
    imputed per sentence."""
    if not preds:
        raise MissingStream("no systems given")
    for p in preds[1:]:
        check_lengths(p.word_probs, len(preds[0]), f"system {p.system_id!r} word_probs")

    columns: list[np.ndarray] = []
    names: list[str] = []
    for p in preds:
        if p.sentence_scores is not None:
            columns.append(np.asarray(p.sentence_scores, dtype=float))
            names.append(f"{p.system_id}:score")
        for stream in Stream:
            rows = p.stream(stream)
            if rows is not None:
                columns.append(_row_means(rows))
                names.append(f"{p.system_id}:{stream.value}_mean")
    return np.column_stack(columns), names


def _row_means(rows: Ragged) -> np.ndarray:
    """Each row's mean, its values added left to right from 0.0 whatever
    the Python version's ``sum()`` does (np.add.reduceat rounds otherwise):
    the rows zero-padded into a matrix behind a 0.0 column, so that a row of
    -0.0 adds up to 0.0, and summed by ``np.cumsum``."""
    lengths = np.diff(rows.offsets)
    if not lengths.all():
        raise InvalidInput("cannot average an empty probability row")
    padded = np.zeros((lengths.size, int(lengths.max(initial=0)) + 1))
    padded[:, 1:][np.arange(padded.shape[1] - 1) < lengths[:, None]] = rows.values
    return np.cumsum(padded, axis=1)[:, -1] / lengths


def ridge_fit(
    X,
    y,
    lam: float,
    *,
    feature_names: Sequence[str] | None = None,
) -> RidgeModel:
    """Solve the penalized normal equations with an unpenalized intercept.
    Equations or a solution that are not finite (features or targets too
    large, or not finite themselves) are a RangeError."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise LengthMismatch("X rows must match y")
    if X.shape[0] < 2:
        raise DegenerateInput("need at least two rows")
    if not lam >= 0.0:
        raise RangeError(f"lambda {lam} must be nonnegative")

    n_features = X.shape[1]
    design = np.hstack([X, np.ones((X.shape[0], 1))])
    penalty = lam * np.eye(design.shape[1])
    penalty[-1, -1] = 0.0
    overflow = RangeError("normal equations are not finite; rescale the features or the targets")
    with np.errstate(all="ignore"):  # refused below instead of warned about
        gram, moment = design.T @ design + penalty, design.T @ y
        if not (np.isfinite(gram).all() and np.isfinite(moment).all()):
            raise overflow
        try:
            beta = np.linalg.solve(gram, moment)
        except np.linalg.LinAlgError:
            raise SingularSystem(
                "normal equations are singular; add regularization or drop collinear features"
            ) from None
    if not np.isfinite(beta).all():
        raise overflow

    names = list(feature_names) if feature_names is not None else [f"f{i}" for i in range(n_features)]
    if len(names) != n_features:
        raise LengthMismatch("feature_names length must match X columns")
    return RidgeModel(coefficients=beta[:-1], intercept=float(beta[-1]), lam=lam, feature_names=names)


def ridge_cv(
    X,
    y,
    lambda_grid: Sequence[float],
    k: int,
    seed: int = 1,
    *,
    feature_names: Sequence[str] | None = None,
) -> tuple[float, RidgeModel]:
    """Pick the lambda with the smallest mean held-out squared error (ties
    go to the larger lambda) and refit on every row."""
    if not lambda_grid:
        raise DegenerateInput("lambda grid is empty")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    # each row is held out once, so one that is not finite leaves no error finite
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise DegenerateInput("no lambda gives a finite cross-validation error")
    n = X.shape[0]
    order = list(range(n))
    random.Random(seed).shuffle(order)
    bounds = fold_bounds(n, k)

    best_lam = None
    best_mse = np.inf
    for lam in sorted(lambda_grid):
        squared = 0.0
        for lo, hi in bounds:
            held = order[lo:hi]
            rest = order[:lo] + order[hi:]
            model = ridge_fit(X[rest], y[rest], lam)
            residual = model.predict(X[held]) - y[held]
            with np.errstate(over="ignore"):  # an error that is not finite is refused below
                squared += float(residual @ residual)
        mse = squared / n
        if mse <= best_mse:
            best_mse = mse
            best_lam = lam
    if not np.isfinite(best_mse):  # every error is NaN or +inf
        raise DegenerateInput("no lambda gives a finite cross-validation error")
    return best_lam, ridge_fit(X, y, best_lam, feature_names=feature_names)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def save_weights(system_ids: Sequence[str], w: WeightVector, path):
    if len(system_ids) != len(w.weights):
        raise LengthMismatch("one system id per weight required")
    _write_table(path, system_ids, w.weights)


def load_weights(path, stream: Stream) -> tuple[list[str], WeightVector]:
    """The ids and weights ``save_weights`` writes: each in [0, 1], not all 0."""
    ids, [weights] = _read_table(path, 1)
    for line, weight in enumerate(weights, 1):
        _check_weight(weight, file=str(path), line=line)
    if not any(weights):
        raise ZeroWeights("ensemble weights sum to zero", file=str(path))
    return ids, WeightVector(weights=tuple(weights), stream=stream)


def save_ridge_model(model: RidgeModel, path):
    names = ["intercept", "lambda", *(f"coef:{name}" for name in model.feature_names)]
    _write_table(path, names, [model.intercept, model.lam, *model.coefficients])


def load_ridge_model(path) -> RidgeModel:
    """The ``intercept``, ``lambda`` and ``coef:NAME`` lines ``save_ridge_model`` writes."""
    names, [values] = _read_table(path, 1)
    for line, name in enumerate(names, 1):
        if name not in ("intercept", "lambda") and not name.startswith("coef:"):
            raise ParseError(f"unknown model field {name!r}", file=str(path), line=line)
    fields = dict(zip(names, values))
    if "intercept" not in fields or "lambda" not in fields:
        raise ParseError("missing intercept or lambda", file=str(path))
    intercept, lam = fields.pop("intercept"), fields.pop("lambda")
    coefficients = np.array(list(fields.values()), dtype=float)
    return RidgeModel(coefficients, intercept, lam, [name[len("coef:"):] for name in fields])
