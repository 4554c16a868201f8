"""System ensembling: convex combinations tuned with Powell's direction-set
search directly on F1-MULT, the k-fold unbiased estimation protocol, and
sentence-level ridge stacking.

The word-level objective (F1-MULT of thresholded tags) is piecewise constant
in the weights, so the line search is a bounded grid scan followed by one
refinement pass at 10x resolution instead of a derivative-based bracketing
that would stall on flat regions.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .corpus import PredictionSet, Stream, Tag, _parse_float
from .errors import FoldError, MissingStream, ParseError, RangeError, SingularSystem, ZeroWeights
from .metrics import f1_mult_bool

__all__ = [
    "WeightVector",
    "FoldPlan",
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


@dataclass(frozen=True)
class FoldPlan:
    """Contiguous fold assignment with fold sizes differing by at most one."""

    k: int
    assignment: tuple[int, ...]

    def __post_init__(self):
        if self.k < 2:
            raise FoldError("k must be >= 2")
        counts = [0] * self.k
        previous = 0
        for fold in self.assignment:
            if fold < previous or fold >= self.k:
                raise FoldError("fold assignment must be contiguous and in range")
            previous = fold
            counts[fold] += 1
        if min(counts) == 0:
            raise FoldError("every fold must be non-empty")
        if max(counts) - min(counts) > 1:
            raise FoldError("fold sizes may differ by at most one")

    @classmethod
    def contiguous(cls, n: int, k: int) -> "FoldPlan":
        if n < k:
            raise FoldError(f"cannot split {n} sentences into {k} folds")
        assignment = []
        for fold in range(k):
            assignment.extend([fold] * ((fold + 1) * n // k - fold * n // k))
        return cls(k=k, assignment=tuple(assignment))

    def bounds(self) -> list[tuple[int, int]]:
        """The ``(lo, hi)`` index range of every fold, in fold order."""
        edges = [bisect_left(self.assignment, fold) for fold in range(self.k)]
        return list(zip(edges, edges[1:] + [len(self.assignment)]))


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
        return X @ self.coefficients + self.intercept


class WordEnsembleFit(NamedTuple):
    weights: WeightVector
    threshold: float
    f1: float


# ---------------------------------------------------------------------------
# Convex combination
# ---------------------------------------------------------------------------


def _stacked_matrix(preds: Sequence[PredictionSet], stream: Stream) -> np.ndarray:
    """One row per system, one column per token of the stream."""
    rows = []
    for pred in preds:
        sentences = pred.stream(stream)
        if sentences is None:
            raise MissingStream(f"system {pred.system_id!r} provides no {stream.value} stream")
        rows.append(np.fromiter((p for sentence in sentences for p in sentence), dtype=float))
    return np.vstack(rows)


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
) -> list[list[float]]:
    """Normalized convex combination of per-token probabilities."""
    stream = stream or w.stream
    if len(w.weights) != len(preds):
        raise ValueError(f"{len(w.weights)} weights for {len(preds)} systems")
    flat = _combine(np.array(w.weights, dtype=float), _stacked_matrix(preds, stream)).tolist()
    combined = []
    lo = 0
    for row in preds[0].stream(stream):
        combined.append(flat[lo:lo + len(row)])
        lo += len(row)
    return combined


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


def _plateau_middle(alphas, values):
    """Index of the middle of the longest run of consecutive minimal samples.

    Thresholded-F1 objectives are piecewise constant; stopping in the middle
    of the widest optimal plateau (rather than at its edge) keeps later
    directions from starting on a cliff. Smooth objectives have a unique
    minimal sample, where this reduces to the plain argmin.
    """
    vmin = min(values)
    best_start = best_len = 0
    start = None
    for j, value in enumerate(values + [None]):
        if value == vmin:
            if start is None:
                start = j
        elif start is not None:
            if j - start > best_len:
                best_start, best_len = start, j - start
            start = None
    return best_start + (best_len - 1) // 2


def _line_search(func, x, fx, direction, line_samples):
    """Bounded grid scan along ``direction`` inside [0,1]^n, then one
    refinement pass at 10x resolution around the best coarse sample."""
    lo, hi = -np.inf, np.inf
    for xi, di in zip(x, direction):
        if di > 1e-12:
            lo = max(lo, -xi / di)
            hi = min(hi, (1.0 - xi) / di)
        elif di < -1e-12:
            lo = max(lo, (1.0 - xi) / di)
            hi = min(hi, -xi / di)
    if not np.isfinite(lo) or not np.isfinite(hi) or hi - lo <= 0.0:
        return x, fx
    lo, hi = min(lo, 0.0), max(hi, 0.0)

    step = (hi - lo) / (line_samples - 1)
    alphas = [lo + j * step for j in range(line_samples)]
    values = [func(np.clip(x + a * direction, 0.0, 1.0)) for a in alphas]
    pick = _plateau_middle(alphas, values)
    best_alpha, best_f = alphas[pick], values[pick]

    fine = step / 10.0
    fine_lo = max(lo, best_alpha - step)
    fine_hi = min(hi, best_alpha + step)
    count = int(round((fine_hi - fine_lo) / fine)) + 1
    alphas = [min(fine_lo + j * fine, fine_hi) for j in range(count)]
    values = [func(np.clip(x + a * direction, 0.0, 1.0)) for a in alphas]
    pick = _plateau_middle(alphas, values)
    if values[pick] < best_f:
        best_alpha, best_f = alphas[pick], values[pick]

    if best_f >= fx:
        return x, fx
    return np.clip(x + best_alpha * direction, 0.0, 1.0), best_f


def powell_optimize(
    objective: Callable[[np.ndarray], float],
    init: Sequence[float],
    *,
    tol: float = 1e-6,
    max_cycles: int = 20,
    line_samples: int = 51,
) -> tuple[np.ndarray, float]:
    """Minimize a total function on [0,1]^n without derivatives.

    The direction set starts as the coordinate basis; each cycle runs the
    grid-then-refine line search along every direction, then applies the
    classic replacement heuristic: when the acceptance test on the
    extrapolated point passes, the direction of largest single-search
    decrease is swapped for the net cycle displacement. Terminates when a
    cycle improves by less than ``tol`` or after ``max_cycles``. Always
    returns the best visited point.
    """
    x = np.clip(np.asarray(init, dtype=float), 0.0, 1.0)
    n = x.size
    if n < 1:
        raise ValueError("need at least one coordinate")
    if line_samples < 3:
        raise ValueError("line_samples must be >= 3")
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
            x, fx = _line_search(func, x, fx, direction, line_samples)
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
                        x, fx = _line_search(func, x, fx, displacement, line_samples)
                        directions[big_idx] = directions[-1]
                        directions[-1] = displacement
                        mutated = True

    return func.best_x, func.best_f


# ---------------------------------------------------------------------------
# Word-level ensemble fitting
# ---------------------------------------------------------------------------


def _flatten_bad(tags: Sequence[Sequence[Tag]]) -> np.ndarray:
    return np.fromiter(
        (tag is Tag.BAD for sentence in tags for tag in sentence), dtype=bool
    )


def fit_word_ensemble(
    dev_preds: Sequence[PredictionSet],
    dev_gold: Sequence[Sequence[Tag]],
    stream: Stream,
    *,
    threshold: float = 0.5,
    optimize_threshold: bool = False,
    tol: float = 1e-6,
    max_cycles: int = 20,
    line_samples: int = 51,
) -> WordEnsembleFit:
    """Maximize dev F1-MULT of the thresholded convex combination.

    Powell starts from a one-hot vector on the best single system, so the
    fitted ensemble never scores below it on the dev set. With
    ``optimize_threshold`` the decision threshold joins the search as an
    extra coordinate; otherwise it stays fixed.
    """
    if not dev_preds:
        raise MissingStream("no systems to ensemble")
    matrix = _stacked_matrix(dev_preds, stream)
    gold = _flatten_bad(dev_gold)
    if gold.size != matrix.shape[1]:
        raise ValueError(
            f"gold holds {gold.size} tags but predictions hold {matrix.shape[1]}"
        )
    n = len(dev_preds)

    singles = [f1_mult_bool(gold, matrix[s] >= threshold) for s in range(n)]
    best_single = max(range(n), key=lambda s: (singles[s], -s))

    def objective(z):
        try:
            combined = _combine(z[:n], matrix)
        except ZeroWeights:
            return 0.0
        return -f1_mult_bool(gold, combined >= (z[n] if optimize_threshold else threshold))

    init = np.zeros(n + 1 if optimize_threshold else n)
    init[best_single] = 1.0
    if optimize_threshold:
        init[n] = threshold

    point, value = powell_optimize(
        objective, init, tol=tol, max_cycles=max_cycles, line_samples=line_samples
    )
    if optimize_threshold:
        weights, fitted_threshold = point[:n], float(point[n])
    else:
        weights, fitted_threshold = point, threshold
    if weights.sum() <= 0.0:
        weights = init[:n]
    return WordEnsembleFit(
        weights=WeightVector(weights=tuple(float(w) for w in weights), stream=stream),
        threshold=fitted_threshold,
        f1=-value,
    )


def _slice_preds(preds: Sequence[PredictionSet], pick) -> list[PredictionSet]:
    """Every stream of every system cut down to the sentences ``pick`` keeps."""
    return [
        PredictionSet(
            p.system_id,
            *(
                None if rows is None else pick(rows)
                for rows in (p.word_probs, p.gap_probs, p.source_probs, p.sentence_scores)
            ),
        )
        for p in preds
    ]


def kfold_estimate(
    dev_preds: Sequence[PredictionSet],
    dev_gold: Sequence[Sequence[Tag]],
    plan: FoldPlan,
    stream: Stream,
    **fit_kwargs,
) -> float:
    """Approximately unbiased dev-set estimate: fit weights with one fold
    held out, predict that fold, and score F1-MULT over the concatenation of
    all held-out predictions."""
    if len(plan.assignment) != len(dev_gold):
        raise ValueError("fold plan does not cover the dev set")
    gold_bad = []
    pred_bad = []
    for lo, hi in plan.bounds():
        fit = fit_word_ensemble(
            _slice_preds(dev_preds, lambda rows: rows[:lo] + rows[hi:]),
            [*dev_gold[:lo], *dev_gold[hi:]],
            stream,
            **fit_kwargs,
        )
        held = _stacked_matrix(_slice_preds(dev_preds, lambda rows: rows[lo:hi]), stream)
        weights = np.array(fit.weights.weights, dtype=float)
        pred_bad.append(_combine(weights, held) >= fit.threshold)
        gold_bad.append(_flatten_bad(dev_gold[lo:hi]))
    return f1_mult_bool(np.concatenate(gold_bad), np.concatenate(pred_bad))


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
    n = len(preds[0])
    for p in preds:
        if len(p) != n:
            raise ValueError("prediction sets disagree on sentence count")

    columns: list[np.ndarray] = []
    names: list[str] = []
    for p in preds:
        if p.sentence_scores is not None:
            columns.append(np.asarray(p.sentence_scores, dtype=float))
            names.append(f"{p.system_id}:score")
        for stream in Stream:
            rows = p.stream(stream)
            if rows is not None:
                columns.append(
                    np.array([sum(row) / len(row) for row in rows], dtype=float)
                )
                names.append(f"{p.system_id}:{stream.value}_mean")
    return np.column_stack(columns), names


def ridge_fit(
    X,
    y,
    lam: float,
    *,
    intercept: bool = True,
    feature_names: Sequence[str] | None = None,
) -> RidgeModel:
    """Solve the penalized normal equations with an unpenalized intercept."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("X rows must match y")
    if X.shape[0] < 2:
        raise ValueError("need at least two rows")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")

    n_features = X.shape[1]
    if intercept:
        design = np.hstack([X, np.ones((X.shape[0], 1))])
    else:
        design = X
    penalty = lam * np.eye(design.shape[1])
    if intercept:
        penalty[-1, -1] = 0.0
    try:
        beta = np.linalg.solve(design.T @ design + penalty, design.T @ y)
    except np.linalg.LinAlgError:
        raise SingularSystem(
            "normal equations are singular; add regularization or drop collinear features"
        ) from None

    names = list(feature_names) if feature_names is not None else [f"f{i}" for i in range(n_features)]
    if len(names) != n_features:
        raise ValueError("feature_names length must match X columns")
    if intercept:
        return RidgeModel(coefficients=beta[:-1], intercept=float(beta[-1]), lam=lam, feature_names=names)
    return RidgeModel(coefficients=beta, intercept=0.0, lam=lam, feature_names=names)


def ridge_cv(
    X,
    y,
    lambda_grid: Sequence[float],
    k: int,
    seed: int = 1,
    *,
    intercept: bool = True,
    feature_names: Sequence[str] | None = None,
) -> tuple[float, RidgeModel]:
    """Pick the lambda with the smallest mean held-out squared error (ties
    go to the larger lambda) and refit on every row."""
    if not lambda_grid:
        raise ValueError("lambda grid is empty")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    order = list(range(n))
    random.Random(seed).shuffle(order)
    bounds = FoldPlan.contiguous(n, k).bounds()

    best_lam = None
    best_mse = np.inf
    for lam in sorted(lambda_grid):
        squared = 0.0
        for lo, hi in bounds:
            held = order[lo:hi]
            rest = order[:lo] + order[hi:]
            model = ridge_fit(X[rest], y[rest], lam, intercept=intercept)
            residual = model.predict(X[held]) - y[held]
            squared += float(residual @ residual)
        mse = squared / n
        if mse <= best_mse:
            best_mse = mse
            best_lam = lam
    return best_lam, ridge_fit(X, y, best_lam, intercept=intercept, feature_names=feature_names)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def save_weights(system_ids: Sequence[str], w: WeightVector, path):
    if len(system_ids) != len(w.weights):
        raise ValueError("one system id per weight required")
    with open(path, "w", encoding="utf-8") as handle:
        for system_id, weight in zip(system_ids, w.weights):
            handle.write(f"{system_id}\t{weight!r}\n")


def load_weights(path, stream: Stream) -> tuple[list[str], WeightVector]:
    ids = []
    weights = []
    with open(path, "r", encoding="utf-8") as handle:
        for i, line in enumerate(handle, 1):
            try:
                system_id, text = line.rstrip("\n").split("\t")
                weight = float(text)
            except ValueError:
                raise ParseError("malformed weights line", file=str(path), line=i) from None
            _check_weight(weight, file=str(path), line=i)
            ids.append(system_id)
            weights.append(weight)
    return ids, WeightVector(weights=tuple(weights), stream=stream)


def save_ridge_model(model: RidgeModel, path):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"intercept\t{model.intercept!r}\n")
        handle.write(f"lambda\t{model.lam!r}\n")
        for name, coef in zip(model.feature_names, model.coefficients):
            handle.write(f"coef:{name}\t{float(coef)!r}\n")


def load_ridge_model(path) -> RidgeModel:
    intercept = lam = None
    names: list[str] = []
    coefs: list[float] = []
    with open(path, "r", encoding="utf-8") as handle:
        for i, line in enumerate(handle, 1):
            key, sep, value = line.rstrip("\n").partition("\t")
            if not sep:
                raise ParseError("malformed model line", file=str(path), line=i)
            number = _parse_float(value, file=str(path), line=i)
            if key == "intercept":
                intercept = number
            elif key == "lambda":
                lam = number
            elif key.startswith("coef:"):
                names.append(key[len("coef:"):])
                coefs.append(number)
            else:
                raise ParseError(f"unknown model field {key!r}", file=str(path), line=i)
    if intercept is None or lam is None:
        raise ParseError("missing intercept or lambda", file=str(path))
    return RidgeModel(
        coefficients=np.array(coefs, dtype=float),
        intercept=intercept,
        lam=lam,
        feature_names=names,
    )
