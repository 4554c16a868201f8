import math
import os
import random
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qestack import ensemble
from qestack.corpus import PredictionSet, Ragged, Stream, Tag
from qestack.ensemble import (
    WeightVector,
    _combine,
    _stacked_matrix,
    fold_bounds,
    combine_word,
    fit_word_ensemble,
    kfold_estimate,
    load_ridge_model,
    load_weights,
    powell_optimize,
    ridge_cv,
    ridge_fit,
    save_ridge_model,
    save_weights,
    sentence_features,
)
from qestack.errors import (
    DegenerateInput,
    FoldError,
    InvalidInput,
    LengthMismatch,
    MissingStream,
    ParseError,
    RangeError,
    SingularSystem,
    ZeroWeights,
)
from qestack.metrics import f1_mult, threshold

from conftest import complementary_systems, fold_specialist_systems, reference_flatten_bad

OK, BAD = False, True


def system(system_id, rows, **kwargs):
    return PredictionSet(system_id=system_id, word_probs=tuple(tuple(r) for r in rows), **kwargs)


# --- oracles ----------------------------------------------------------------


def gauss_solve(A, b):
    """Gaussian elimination with partial pivoting on plain Python lists."""
    n = len(A)
    m = [list(map(float, row)) + [float(b[i])] for i, row in enumerate(A)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(m[r][col]))
        if m[pivot][col] == 0.0:
            raise ZeroDivisionError("singular matrix")
        m[col], m[pivot] = m[pivot], m[col]
        for row in range(col + 1, n):
            factor = m[row][col] / m[col][col]
            for j in range(col, n + 1):
                m[row][j] -= factor * m[col][j]
    x = [0.0] * n
    for row in range(n - 1, -1, -1):
        acc = m[row][n] - sum(m[row][j] * x[j] for j in range(row + 1, n))
        x[row] = acc / m[row][row]
    return x


def ridge_oracle(X, y, lam):
    """Build the penalized normal equations with explicit loops and solve by
    elimination; the intercept row is unpenalized."""
    rows = [list(map(float, r)) + [1.0] for r in X]
    d = len(rows[0])
    A = [[0.0] * d for _ in range(d)]
    b = [0.0] * d
    for r, row in enumerate(rows):
        for i in range(d):
            b[i] += row[i] * float(y[r])
            for j in range(d):
                A[i][j] += row[i] * row[j]
    for i in range(d):
        if i != d - 1:
            A[i][i] += lam
    return gauss_solve(A, b)


def simplex_grid_best(preds, gold, stream, step=0.05):
    """Exhaustive search over the weight simplex through the public route."""
    gold_flat = [t for row in gold for t in row]
    steps = round(1 / step)
    best = -1.0
    for i in range(steps + 1):
        for j in range(steps + 1 - i):
            k = steps - i - j
            w = WeightVector((i * step, j * step, k * step), stream)
            combined = combine_word(preds, w, stream)
            tags = [t for row in combined for t in threshold(row, 0.5)]
            best = max(best, f1_mult(gold_flat, tags).f1_mult)
    return best


# --- combination ------------------------------------------------------------


def test_one_hot_weights_reproduce_that_system():
    preds = [system("a", [[0.1, 0.9]]), system("b", [[0.4, 0.6]])]
    combined = combine_word(preds, WeightVector((0.0, 1.0), Stream.WORDS))
    assert combined == [[0.4, 0.6]]


def test_equal_weights_average():
    preds = [system("a", [[0.4]]), system("b", [[0.8]])]
    combined = combine_word(preds, WeightVector((0.5, 0.5), Stream.WORDS))
    assert combined[0][0] == pytest.approx(0.6, abs=1e-12)


def test_combination_is_scale_invariant():
    preds = [system("a", [[0.3, 0.7]]), system("b", [[0.9, 0.1]])]
    one = combine_word(preds, WeightVector((0.5, 0.5), Stream.WORDS))
    # (1,1) scaled: weights live in [0,1], so compare against (1.0, 1.0)
    other = combine_word(preds, WeightVector((1.0, 1.0), Stream.WORDS))
    assert one == other


def test_missing_stream_and_zero_weights_raise():
    preds = [system("a", [[0.5]])]
    with pytest.raises(MissingStream):
        combine_word(preds, WeightVector((1.0,), Stream.GAPS))
    with pytest.raises(ZeroWeights):
        combine_word(preds, WeightVector((0.0,), Stream.WORDS))


# --- Powell -----------------------------------------------------------------


def plateau_middle(values):
    """Index of the middle of the longest run of consecutive minimal values."""
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


def grid_line(objective, samples=2001):
    """A dense-grid line search for generic objectives: the middle of the
    widest run of minimal samples over the segment."""

    def line(x, d, lo, hi):
        alphas = np.linspace(lo, hi, samples)
        values = [objective(np.clip(x + a * d, 0.0, 1.0)) for a in alphas]
        return alphas[plateau_middle(values)]

    return line


def test_powell_finds_a_separable_quadratic_optimum():
    calls = []

    def objective(z):
        calls.append(1)
        return (z[0] - 0.25) ** 2 + (z[1] - 0.75) ** 2

    point, value = powell_optimize(objective, [0.5, 0.5], grid_line(objective), max_cycles=5)
    assert abs(point[0] - 0.25) <= 1e-3
    assert abs(point[1] - 0.75) <= 1e-3
    assert value <= objective(np.array([0.5, 0.5]))


def test_powell_lands_inside_a_plateau():
    def stepwise(z):
        x = z[0]
        if 0.3 <= x <= 0.4:
            return 0.0
        if x < 0.3:
            return 2.0 - x
        return 1.0 + x

    # direct scan oracle: the global minimum plateau really is [0.3, 0.4]
    scan = min((stepwise(np.array([x / 1000])), x / 1000) for x in range(1001))
    assert 0.3 <= scan[1] <= 0.4

    point, value = powell_optimize(stepwise, [0.9], grid_line(stepwise))
    assert value == 0.0
    assert 0.3 <= point[0] <= 0.4


def test_powell_never_returns_worse_than_init():
    rng = random.Random(21)
    for _ in range(20):
        coeffs = [rng.uniform(-2, 2) for _ in range(6)]

        def bumpy(z):
            return (
                coeffs[0] * z[0]
                + coeffs[1] * z[1]
                + coeffs[2] * np.sin(9 * z[0])
                + coeffs[3] * np.cos(7 * z[1])
                + coeffs[4] * z[0] * z[1]
                + coeffs[5]
            )

        init = np.array([rng.random(), rng.random()])
        _, value = powell_optimize(bumpy, init, grid_line(bumpy), max_cycles=3)
        assert value <= bumpy(init) + 1e-12


def test_powell_rotates_the_direction_set_on_diagonal_valleys():
    # a strongly coupled quadratic forces the replacement heuristic to fire
    def valley(z):
        return (z[0] - z[1]) ** 2 * 50 + (z[0] + z[1] - 1.0) ** 2

    point, value = powell_optimize(valley, [0.9, 0.1], grid_line(valley), max_cycles=10)
    assert value < 1e-4
    assert abs(point[0] - point[1]) < 0.05


# --- direct F1 optimization -------------------------------------------------


def test_single_system_fit_returns_unit_weight():
    rng = random.Random(23)
    preds, gold = complementary_systems(rng, n_sentences=20, n_systems=1)
    fit = fit_word_ensemble(preds, gold, Stream.WORDS)
    assert fit.weights.weights == (1.0,)
    single = f1_mult(
        [t for row in gold for t in row],
        [t for row in threshold_rows(preds[0].word_probs) for t in row],
    ).f1_mult
    assert fit.f1 == pytest.approx(single, abs=1e-12)


def threshold_rows(rows, t=0.5):
    return [threshold(row, t) for row in rows]


def test_fitted_ensemble_never_scores_below_best_single():
    rng = random.Random(24)
    for trial in range(5):
        preds, gold = complementary_systems(rng, n_sentences=40)
        gold_flat = [t for row in gold for t in row]
        singles = []
        for p in preds:
            tags = [t for row in threshold_rows(p.word_probs) for t in row]
            singles.append(f1_mult(gold_flat, tags).f1_mult)
        fit = fit_word_ensemble(preds, gold, Stream.WORDS)
        assert fit.f1 >= max(singles) - 1e-12


def test_powell_fit_reaches_the_simplex_grid_optimum():
    rng = random.Random(25)
    preds, gold = complementary_systems(rng, n_sentences=50)
    fit = fit_word_ensemble(preds, gold, Stream.WORDS)
    grid = simplex_grid_best(preds, gold, Stream.WORDS)
    assert fit.f1 >= grid - 0.005


def test_duplicating_a_system_leaves_the_optimum_unchanged():
    rng = random.Random(26)
    preds, gold = complementary_systems(rng, n_sentences=40)
    fit = fit_word_ensemble(preds, gold, Stream.WORDS)
    duplicated = preds + [
        PredictionSet(system_id="dup", word_probs=preds[0].word_probs)
    ]
    fit_dup = fit_word_ensemble(duplicated, gold, Stream.WORDS)
    assert fit_dup.f1 >= fit.f1 - 0.005


def test_threshold_can_join_the_search():
    rng = random.Random(27)
    preds, gold = complementary_systems(rng, n_sentences=30)
    fit = fit_word_ensemble(preds, gold, Stream.WORDS, optimize_threshold=True)
    assert 0.0 <= fit.threshold <= 1.0
    baseline = fit_word_ensemble(preds, gold, Stream.WORDS)
    assert fit.f1 >= baseline.f1 - 1e-12


def grid_valued_case(rng):
    """Systems whose probabilities lie on the 0.1 grid, where combinations
    often land exactly on the threshold."""
    grid = [i / 10 for i in range(11)]
    n_systems = rng.randint(2, 3)
    lengths = [rng.randint(3, 12) for _ in range(rng.randint(4, 12))]
    gold = [[BAD if rng.random() < 0.4 else OK for _ in range(n)] for n in lengths]
    preds = [
        system(f"s{s}", [[rng.choice(grid) for _ in range(n)] for n in lengths])
        for s in range(n_systems)
    ]
    return preds, gold, rng.random() < 0.5


def test_applying_fitted_weights_reproduces_the_fitted_f1():
    # seed 1 holds cases (the 28th is one) where combining in another order
    # than the objective flips tags that sit on the threshold
    rng = random.Random(1)
    for _ in range(100):
        preds, gold, optimize = grid_valued_case(rng)
        fit = fit_word_ensemble(preds, gold, Stream.WORDS, optimize_threshold=optimize)
        applied = [t for row in combine_word(preds, fit.weights) for t in threshold(row, fit.threshold)]
        assert fit.f1 == f1_mult([t for row in gold for t in row], applied).f1_mult


# --- exact line search --------------------------------------------------------


def fit_objective(matrix, gold_bad, fixed):
    """The objective ``_fit`` minimizes: minus the F1-MULT of the thresholded
    combination, 0 where the weights sum to zero; the threshold is the last
    coordinate when ``fixed`` is None."""
    n = matrix.shape[0]

    def objective(z):
        try:
            combined = _combine(z[:n], matrix)
        except ZeroWeights:
            return 0.0
        return -f1_mult(gold_bad, combined >= (z[n] if fixed is None else fixed)).f1_mult

    return objective


def test_fit_scores_from_counts_equal_f1_mult(monkeypatch):
    # _fit scores the single systems and the objective from confusion counts
    seen = []
    powell = ensemble.powell_optimize

    def recording_powell(objective, init, *args, **kwargs):
        seen.append((objective, init.copy()))
        return powell(objective, init, *args, **kwargs)

    monkeypatch.setattr(ensemble, "powell_optimize", recording_powell)
    rng = np.random.default_rng(5)
    for trial in range(40):
        n, size = int(rng.integers(1, 5)), int(rng.integers(1, 150))
        # quarter steps put values on the threshold
        matrix = rng.integers(0, 5, (n, size)) / 4.0
        gold_bad = rng.random(size) < rng.choice([0.0, 0.3, 1.0])
        fixed = 0.5 if trial % 2 else None
        ensemble._fit(matrix, gold_bad, threshold=0.5, optimize_threshold=fixed is None, max_cycles=1)
        objective, init = seen.pop()
        singles = [f1_mult(gold_bad, matrix[s] >= 0.5).f1_mult for s in range(n)]
        assert init[:n].tolist() == np.eye(n)[max(range(n), key=lambda s: (singles[s], -s))].tolist()
        reference = fit_objective(matrix, gold_bad, fixed)
        for z in (init, np.zeros_like(init), *rng.integers(0, 5, (20, init.size)) / 4.0):
            value = objective(z)
            assert type(value) is float and value.hex() == reference(z).hex()


@st.composite
def lines(draw):
    """A random stacked matrix and gold, and a point and direction whose box
    segment is not empty. ``to_zero`` directions scale the weights by a power
    of two, so all weights reach 0 exactly and together, at one end of the
    segment unless the threshold's bound is nearer."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, size = draw(st.integers(1, 4)), draw(st.integers(1, 120))
    matrix = rng.random((n, size))
    gold_bad = rng.random(size) < draw(st.sampled_from([0.0, 0.3, 0.6]))
    fixed = draw(st.one_of(st.none(), st.floats(0.0, 1.0)))
    dim = n + (fixed is None)
    x = rng.random(dim)
    x[:n] *= rng.random(n) < draw(st.sampled_from([0.5, 1.0]))
    kind = draw(st.sampled_from(["random", "coordinate", "to_zero"]))
    if kind == "random":
        d = rng.normal(size=dim)
    elif kind == "coordinate":
        d = np.eye(dim)[draw(st.integers(0, dim - 1))]
    else:
        d = rng.normal(size=dim)
        d[:n] = x[:n] * 2.0 ** draw(st.integers(-2, 2)) * draw(st.sampled_from([-1.0, 1.0]))
    bounds = ensemble._box_bounds(x, d)
    assume(bounds is not None)
    return matrix, gold_bad, fixed, x, d, bounds


@settings(max_examples=200, deadline=None)
@given(lines())
def test_exact_line_search_is_never_worse_than_a_dense_grid(case):
    matrix, gold_bad, fixed, x, d, (lo, hi) = case
    objective = fit_objective(matrix, gold_bad, fixed)
    alpha, f1, width = ensemble._line_sweep(matrix, gold_bad, x, d, lo, hi, fixed)
    assert lo <= alpha <= hi
    value = objective(np.clip(x + alpha * d, 0.0, 1.0))
    grid = min(objective(np.clip(x + a * d, 0.0, 1.0)) for a in np.linspace(lo, hi, 2001))
    assert value <= grid
    if width > 1e-9:
        assert value == -f1


def test_exact_line_search_covers_the_quadratic_and_zero_weight_cases():
    # threshold search with moving weights: q = -dtau * D is nonzero
    matrix = np.array([[0.2, 0.9, 0.6, 0.4], [0.7, 0.1, 0.5, 0.8]])
    gold_bad = np.array([True, False, True, True])
    x, d = np.array([0.5, 0.5, 0.5]), np.array([1.0, -0.5, 0.4])
    lo, hi = ensemble._box_bounds(x, d)
    objective = fit_objective(matrix, gold_bad, None)
    alpha, f1, _ = ensemble._line_sweep(matrix, gold_bad, x, d, lo, hi)
    grid = min(objective(np.clip(x + a * d, 0.0, 1.0)) for a in np.linspace(lo, hi, 2001))
    assert objective(np.clip(x + alpha * d, 0.0, 1.0)) == -f1 <= grid

    # every weight reaches 0 at lo = -1; the combination is the same elsewhere
    x, d = np.array([0.25, 0.5]), np.array([0.25, 0.5])
    assert ensemble._box_bounds(x, d) == (-1.0, 1.0)
    alpha, f1, _ = ensemble._line_sweep(matrix, gold_bad, x, d, -1.0, 1.0, 0.5)
    assert f1 == -fit_objective(matrix, gold_bad, 0.5)(x) and -1.0 < alpha

    # weights that are zero along the whole line score 0, as in the objective,
    # though every token would count as BAD and so score 1 with this gold
    x, d = np.array([0.0, 0.0, 0.5]), np.array([0.0, 0.0, 1.0])
    assert ensemble._line_sweep(matrix, np.ones(4, dtype=bool), x, d, -0.5, 0.5)[1] == 0.0


def test_exact_line_search_stops_in_the_widest_best_interval():
    # along the threshold alone, F1-MULT is 1/3 for thresholds in (0, 0.3]
    # and in (0.31, 0.89], less elsewhere; the second interval is wider
    matrix = np.array([[0.0, 0.3, 0.31, 0.89, 0.97]])
    gold_bad = np.array([False, True, False, True, False])
    x, d = np.array([1.0, 0.5]), np.array([0.0, 1.0])
    alpha, f1, width = ensemble._line_sweep(matrix, gold_bad, x, d, *ensemble._box_bounds(x, d))
    assert f1 == pytest.approx(1 / 3)
    assert 0.5 + alpha == pytest.approx(0.6) and width == pytest.approx(0.58)


def test_each_line_search_evaluates_the_objective_once(monkeypatch):
    steps = []
    line_step = ensemble._line_step

    def counted_step(func, x, fx, direction, line):
        evaluations, searches = [], []

        def counted_func(z):
            evaluations.append(z)
            return func(z)

        def counted_line(*args):
            searches.append(args)
            return line(*args)

        result = line_step(counted_func, x, fx, direction, counted_line)
        steps.append((len(searches), len(evaluations)))
        return result

    monkeypatch.setattr(ensemble, "_line_step", counted_step)
    preds, gold = complementary_systems(random.Random(28), n_sentences=40)
    for optimize in (False, True):
        fit_word_ensemble(preds, gold, Stream.WORDS, optimize_threshold=optimize)
    assert sum(searches for searches, _ in steps) > 10
    assert all(evaluations == searches <= 1 for searches, evaluations in steps)


# --- k-fold protocol ----------------------------------------------------------


def test_identical_systems_make_the_estimate_exactly_the_single_system_score():
    rng = random.Random(28)
    preds, gold = complementary_systems(rng, n_sentences=30, n_systems=1)
    clones = [
        PredictionSet(system_id=f"c{i}", word_probs=preds[0].word_probs) for i in range(3)
    ]
    estimate = kfold_estimate(clones, gold, 10, Stream.WORDS)
    single = f1_mult(
        [t for row in gold for t in row],
        [t for row in threshold_rows(preds[0].word_probs) for t in row],
    ).f1_mult
    assert estimate == single


def test_kfold_estimate_is_deterministic():
    rng = random.Random(29)
    preds, gold = complementary_systems(rng, n_sentences=24)
    first = kfold_estimate(preds, gold, 2, Stream.WORDS)
    second = kfold_estimate(preds, gold, 2, Stream.WORDS)
    assert first == second


def test_kfold_estimate_stays_below_the_refit_score_on_specialist_systems():
    gaps = []
    for seed in range(6):
        rng = random.Random(1000 + seed)
        preds, gold = fold_specialist_systems(rng, n_sentences=40, k=5)
        estimate = kfold_estimate(preds, gold, 5, Stream.WORDS, max_cycles=6)
        refit = fit_word_ensemble(preds, gold, Stream.WORDS, max_cycles=6).f1
        gaps.append(refit - estimate)
    assert sum(gaps) / len(gaps) > 0


def test_fold_plan_validation():
    assert fold_bounds(10, 3) == [(0, 3), (3, 6), (6, 10)]
    with pytest.raises(FoldError, match="k must be >= 2"):
        fold_bounds(10, 1)
    with pytest.raises(FoldError, match="cannot split 3 sentences into 4 folds"):
        fold_bounds(3, 4)


class ReferencePlan:
    """The contiguous fold plan the stacked k-fold replaced: one fold number
    per sentence, with the fold edges found by bisection."""

    def __init__(self, n, k):
        self.k = k
        self.assignment = tuple(
            fold for fold in range(k) for _ in range((fold + 1) * n // k - fold * n // k)
        )

    def bounds(self):
        edges = [bisect_left(self.assignment, fold) for fold in range(self.k)]
        return list(zip(edges, edges[1:] + [len(self.assignment)]))


def _slice_preds(preds, pick):
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


def reference_kfold_estimate(
    dev_preds,
    dev_gold,
    plan,
    stream,
    **fit_kwargs,
):
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
        gold_bad.append(reference_flatten_bad(dev_gold[lo:hi]))
    return f1_mult(np.concatenate(gold_bad), np.concatenate(pred_bad)).f1_mult


def gap_stream_systems(rng, n_sentences):
    """Systems that carry an N-token word stream and an N+1-entry gap stream,
    with gold tags for the gaps."""
    preds, gold = complementary_systems(rng, n_sentences=n_sentences)
    return [
        PredictionSet(p.system_id, tuple(row[:-1] for row in p.word_probs), gap_probs=p.word_probs)
        for p in preds
    ], gold


@pytest.mark.parametrize("k", [2, 3, 10])
@pytest.mark.parametrize("optimize_threshold", [False, True])
@pytest.mark.parametrize("make", [complementary_systems, fold_specialist_systems, gap_stream_systems])
def test_stacked_kfold_equals_the_per_fold_rebuild(make, optimize_threshold, k):
    rng = random.Random(32)
    stream = Stream.GAPS if make is gap_stream_systems else Stream.WORDS
    for n_sentences in (k, 23, 40):
        preds, gold = make(rng, n_sentences=n_sentences)
        options = {"optimize_threshold": optimize_threshold, "max_cycles": 4}
        expected = reference_kfold_estimate(preds, gold, ReferencePlan(len(gold), k), stream, **options)
        assert kfold_estimate(preds, gold, k, stream, **options) == expected


def test_fold_bounds_equal_the_bisected_fold_plan():
    for n in range(2, 40):
        for k in range(2, n + 1):
            assert fold_bounds(n, k) == ReferencePlan(n, k).bounds()


def test_each_ensemble_command_stacks_the_systems_once(monkeypatch):
    calls = []
    stack = ensemble._stacked_matrix

    def counted(*args):
        calls.append(1)
        return stack(*args)

    monkeypatch.setattr(ensemble, "_stacked_matrix", counted)
    preds, gold = complementary_systems(random.Random(33), n_sentences=20)
    for run in (
        lambda: kfold_estimate(preds, gold, 10, Stream.WORDS, max_cycles=2),
        lambda: fit_word_ensemble(preds, gold, Stream.WORDS, max_cycles=2),
        lambda: combine_word(preds, WeightVector((0.2, 0.3, 0.5), Stream.WORDS)),
    ):
        calls.clear()
        run()
        assert len(calls) == 1


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_sentences=st.integers(4, 30), optimize=st.booleans())
def test_fitters_score_tag_rows_and_their_bool_ragged_alike(seed, n_sentences, optimize):
    preds, bool_rows = complementary_systems(random.Random(seed), n_sentences=n_sentences)
    gold = [[Tag.BAD if b else Tag.OK for b in row] for row in bool_rows]
    bad = Ragged.from_rows(gold, dtype=bool)
    assert bad == bool_rows
    assert bad.values.dtype == bool
    assert bad.values.tolist() == reference_flatten_bad(gold).tolist()
    assert bad.offsets.tolist() == preds[0].word_probs.offsets.tolist()
    options = {"optimize_threshold": optimize, "max_cycles": 4}
    fits = [fit_word_ensemble(preds, g, Stream.WORDS, **options) for g in (gold, bad)]
    assert [float(x).hex() for x in (*fits[0].weights.weights, fits[0].threshold, fits[0].f1)] == [
        float(x).hex() for x in (*fits[1].weights.weights, fits[1].threshold, fits[1].f1)
    ]
    estimates = [kfold_estimate(preds, g, 4, Stream.WORDS, **options).hex() for g in (gold, bad)]
    assert estimates[0] == estimates[1]


def test_kfold_rejects_a_gold_row_of_another_length():
    preds, gold = complementary_systems(random.Random(34), n_sentences=12)
    # same token total, but one token moved from sentence 3 to sentence 4
    gold = [row[:] for row in gold]
    gold[4].append(gold[3].pop())
    want = len(preds[0].word_probs[3])
    with pytest.raises(LengthMismatch, match=f"^entry 4: gold: expected {want} entries, got {want - 1}$"):
        kfold_estimate(preds, gold, 3, Stream.WORDS)
    with pytest.raises(LengthMismatch, match="^gold has 11 rows, expected 12$"):
        kfold_estimate(preds, gold[:-1], 3, Stream.WORDS)


def test_systems_of_another_length_are_an_error_naming_the_system():
    # once, the three entry points raised numpy's bare ValueError from np.vstack
    preds, gold = complementary_systems(random.Random(36), n_sentences=6)
    rows = preds[1].word_probs.rows()
    n = len(rows[2])
    longer, shorter = system("longer", rows[:2] + [rows[2] + [0.5]] + rows[3:]), system("shorter", rows[:-1])
    for odd, message in (
        (longer, f"^entry 3: system 'longer' words stream: expected {n} entries, got {n + 1}$"),
        (shorter, "^system 'shorter' words stream has 5 rows, expected 6$"),
    ):
        systems = [preds[0], odd]
        for call in (
            lambda: fit_word_ensemble(systems, gold, Stream.WORDS),
            lambda: combine_word(systems, WeightVector((0.5, 0.5), Stream.WORDS)),
            lambda: kfold_estimate(systems, gold, 2, Stream.WORDS),
        ):
            with pytest.raises(LengthMismatch, match=message):
                call()


def test_a_stream_or_scores_of_another_sentence_count_is_an_error_naming_the_system():
    # once, sentence_features raised numpy's bare ValueError from np.column_stack
    rows = [[0.1, 0.2], [0.3]]
    with pytest.raises(LengthMismatch, match="^system 'a' sentence_scores has 1 rows, expected 2$"):
        sentence_features([system("a", rows, sentence_scores=(0.5,))])
    with pytest.raises(LengthMismatch, match="^system 'a' gap_probs has 3 rows, expected 2$"):
        sentence_features([system("a", rows, gap_probs=[[0.1, 0.2, 0.3], [0.4, 0.5], [0.6]])])
    with pytest.raises(LengthMismatch, match="^system 'b' word_probs has 1 rows, expected 2$"):
        sentence_features([system("a", rows), system("b", rows[:1])])


def test_normal_equations_that_overflow_are_a_range_error():
    # once, numpy warned of an overflow in matmul and a model came back
    X = [[1e300], [2e300], [3e300]]
    for fit in (lambda: ridge_fit(X, [0.1, 0.2, 0.3], 0.0), lambda: ridge_cv(X * 2, [0.1, 0.2, 0.3] * 2, [1.0], k=2)):
        with pytest.raises(RangeError, match="^normal equations are not finite"):
            fit()


# --- misuse -------------------------------------------------------------------


def _misuse_cases():
    preds, gold = complementary_systems(random.Random(35), n_sentences=6)
    X = [[0.1, 0.2], [0.3, 0.1], [0.5, 0.7], [0.2, 0.9]]
    y = [0.1, 0.4, 0.6, 0.3]
    w = WeightVector((0.5, 0.5), Stream.WORDS)
    return {
        "combine_word weights per system": (LengthMismatch, lambda: combine_word(preds, w)),
        "fit gold tokens": (LengthMismatch, lambda: fit_word_ensemble(preds, gold[1:], Stream.WORDS)),
        "fit threshold": (RangeError, lambda: fit_word_ensemble(preds, gold, Stream.WORDS, threshold=1.5)),
        "kfold threshold": (RangeError, lambda: kfold_estimate(preds, gold, 2, Stream.WORDS, threshold=-0.1)),
        "sentence counts": (LengthMismatch, lambda: sentence_features([preds[0], system("x", [[0.5]])])),
        "sentence empty row": (InvalidInput, lambda: sentence_features([system("x", [[0.5], []])])),
        "ridge_fit rows": (LengthMismatch, lambda: ridge_fit(X, y[1:], 0.1)),
        "ridge_fit feature_names": (LengthMismatch, lambda: ridge_fit(X, y, 0.1, feature_names=["a"])),
        "ridge_fit one row": (DegenerateInput, lambda: ridge_fit(X[:1], y[:1], 0.1)),
        "ridge_fit lambda": (RangeError, lambda: ridge_fit(X, y, -1.0)),
        "ridge_cv empty grid": (DegenerateInput, lambda: ridge_cv(X, y, [], 2)),
        "ridge_cv lambda": (RangeError, lambda: ridge_cv(X, y, [0.1, -1.0], 2)),
        "save_weights ids": (LengthMismatch, lambda: save_weights(["a"], w, os.devnull)),
        "powell no coordinates": (DegenerateInput, lambda: powell_optimize(lambda z: 0.0, [], None)),
    }


@pytest.mark.parametrize("case", list(_misuse_cases()))
def test_ensemble_misuse_raises_a_toolkit_error(case):
    error, call = _misuse_cases()[case]
    with pytest.raises(error):
        call()


# --- sentence features --------------------------------------------------------


def test_sentence_feature_layout():
    full = system(
        "full",
        [[0.2, 0.4, 0.6], [0.0, 0.0]],
        gap_probs=((0.0, 0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
        source_probs=((0.5,), (0.5,)),
        sentence_scores=(0.1, 0.9),
    )
    words_only = system("wo", [[1.0, 1.0, 1.0], [0.5, 0.5]])
    X, names = sentence_features([full, words_only])
    assert names == [
        "full:score",
        "full:words_mean",
        "full:gaps_mean",
        "full:source_mean",
        "wo:words_mean",
    ]
    assert X.shape == (2, 5)
    assert X[0, 1] == pytest.approx(0.4, abs=1e-12)
    assert X[0, 2] == 0.0
    assert X[1, 2] == 1.0


def left_to_right_mean(row):
    total = 0.0
    for value in row:
        total += value
    return total / len(row)


MEAN_ROUNDING_ROWS = [
    [1e16, 1.0, -1e16],  # a compensated sum keeps the 1.0
    [0.1] * 10,
    [1e100, 1.0, -1e100, 1e-3],
    [-0.0, -0.0],  # a sum that starts from 0.0 is +0.0
    [-0.0],
]


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.one_of(st.sampled_from(MEAN_ROUNDING_ROWS), st.lists(st.floats(-0.0, 1.0), min_size=1, max_size=30)),
        min_size=1,
        max_size=8,
    )
)
def test_sentence_means_add_left_to_right(rows):
    X, _ = sentence_features([system("s", rows, gap_probs=rows[::-1])])
    for column, stream_rows in ((0, rows), (1, rows[::-1])):
        expected = [left_to_right_mean(row).hex() for row in stream_rows]
        assert [mean.hex() for mean in X[:, column].tolist()] == expected


# --- ridge --------------------------------------------------------------------


def test_exact_design_recovers_its_coefficients_and_intercept():
    model = ridge_fit([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [1.0, 3.0, 4.0], 0.0)
    assert model.coefficients == pytest.approx([2.0, 3.0], abs=1e-12)
    assert model.intercept == pytest.approx(1.0, abs=1e-12)


def test_intercept_recovers_the_mean_of_a_zero_column():
    model = ridge_fit([[0.0], [0.0]], [1.0, 3.0], 1.0)
    assert model.coefficients[0] == 0.0
    assert model.intercept == pytest.approx(2.0, abs=1e-12)


def test_huge_lambda_kills_slopes_but_not_the_intercept():
    rng = random.Random(30)
    X = [[rng.uniform(-1, 1) for _ in range(3)] for _ in range(40)]
    y = [sum(row) + 0.5 for row in X]
    model = ridge_fit(X, y, 1e9)
    assert max(abs(c) for c in model.coefficients) < 1e-6
    assert model.intercept == pytest.approx(sum(y) / len(y), abs=1e-5)


def test_ridge_matches_the_elimination_oracle():
    rng = random.Random(31)
    for _ in range(40):
        n, d = rng.randint(6, 30), rng.randint(1, 4)
        X = [[rng.uniform(-2, 2) for _ in range(d)] for _ in range(n)]
        y = [rng.uniform(-2, 2) for _ in range(n)]
        lam = rng.choice([0.0, 0.1, 1.0, 10.0])
        if lam == 0.0 and n <= d:
            continue
        model = ridge_fit(X, y, lam)
        expected = ridge_oracle(X, y, lam)
        assert np.allclose(list(model.coefficients) + [model.intercept], expected, atol=1e-8)


def test_singular_unregularized_system_raises():
    X = [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]
    with pytest.raises(SingularSystem):
        ridge_fit(X, [1.0, 2.0, 3.0], 0.0)


def test_cv_with_one_value_returns_it():
    rng = random.Random(32)
    X = [[rng.random()] for _ in range(10)]
    y = [2 * row[0] for row in X]
    lam, model = ridge_cv(X, y, [0.5], k=2)
    assert lam == 0.5
    assert model.lam == 0.5


def test_cv_prefers_no_shrinkage_on_noiseless_data():
    rng = random.Random(33)
    X = [[rng.uniform(-1, 1), rng.uniform(-1, 1)] for _ in range(60)]
    y = [3 * a - 2 * b + 1 for a, b in X]
    lam, model = ridge_cv(X, y, [1e-6, 1e-2, 1.0, 100.0], k=5, seed=4)
    assert lam == 1e-6
    refit = ridge_fit(X, y, lam)
    assert np.allclose(model.coefficients, refit.coefficients)
    assert model.intercept == refit.intercept


def test_cv_breaks_ties_toward_more_regularization():
    # constant target: every lambda fits equally well, the largest must win
    X = [[0.0], [0.0], [0.0], [0.0]]
    y = [1.0, 1.0, 1.0, 1.0]
    lam, _ = ridge_cv(X, y, [0.1, 10.0, 1.0], k=2)
    assert lam == 10.0


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_cv_without_a_finite_error_is_degenerate_input(bad):
    # a non-finite target reaches every fold's fit; once, lambda None went on to ridge_fit
    X = [[0.1], [0.3], [0.5], [0.2]]
    y = [0.1, bad, 0.6, 0.3]
    with pytest.raises(DegenerateInput, match="no lambda gives a finite cross-validation error"):
        ridge_cv(X, y, [0.1, 1.0], k=2)


# --- serialization ------------------------------------------------------------


def test_weight_file_round_trip(tmp_path):
    w = WeightVector((0.25, 0.0, 1.0), Stream.WORDS)
    path = tmp_path / "weights.tsv"
    save_weights(["a", "b", "c"], w, path)
    ids, loaded = load_weights(path, Stream.WORDS)
    assert ids == ["a", "b", "c"]
    assert loaded == w


@pytest.mark.parametrize("text, line", [
    ("intercept 0.5\nlambda\t1.0\n", 1),  # no tab
    ("intercept\t0.5\nslope\t1.0\n", 2),  # unknown field
    ("intercept\t0.5\nlambda\tx\n", 2),  # unparsable float
    ("intercept\t0.5\n", None),  # no lambda: names the file only
])
def test_malformed_ridge_model_is_a_parse_error_naming_file_and_line(tmp_path, text, line):
    path = tmp_path / "model.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as caught:
        load_ridge_model(path)
    assert (caught.value.file, caught.value.line) == (str(path), line)


def test_ridge_model_round_trip(tmp_path):
    model = ridge_fit([[1.0, 2.0], [2.0, 1.0], [0.5, 0.5]], [1.0, 2.0, 3.0], 0.5, feature_names=["u", "v"])
    path = tmp_path / "model.tsv"
    save_ridge_model(model, path)
    loaded = load_ridge_model(path)
    assert loaded.feature_names == ["u", "v"]
    assert loaded.lam == 0.5
    assert np.allclose(loaded.coefficients, model.coefficients)
    assert loaded.intercept == model.intercept
