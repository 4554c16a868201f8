import random

import numpy as np
import pytest

from qestack.corpus import PredictionSet, Stream, Tag
from qestack.ensemble import (
    FoldPlan,
    WeightVector,
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
from qestack.errors import MissingStream, ParseError, SingularSystem, ZeroWeights
from qestack.metrics import f1_mult, threshold
from qestack.metrics import f1_mult_bool as _f1_mult_bool

from conftest import complementary_systems, fold_specialist_systems

OK, BAD = Tag.OK, Tag.BAD


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


def ridge_oracle(X, y, lam, intercept=True):
    """Build the penalized normal equations with explicit loops and solve by
    elimination; the intercept row is unpenalized."""
    rows = [list(map(float, r)) + ([1.0] if intercept else []) for r in X]
    d = len(rows[0])
    A = [[0.0] * d for _ in range(d)]
    b = [0.0] * d
    for r, row in enumerate(rows):
        for i in range(d):
            b[i] += row[i] * float(y[r])
            for j in range(d):
                A[i][j] += row[i] * row[j]
    for i in range(d):
        if not (intercept and i == d - 1):
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


def test_powell_finds_a_separable_quadratic_optimum():
    calls = []

    def objective(z):
        calls.append(1)
        return (z[0] - 0.25) ** 2 + (z[1] - 0.75) ** 2

    point, value = powell_optimize(objective, [0.5, 0.5], max_cycles=5)
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

    point, value = powell_optimize(stepwise, [0.9])
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
        _, value = powell_optimize(bumpy, init, max_cycles=3)
        assert value <= bumpy(init) + 1e-12


def test_powell_rotates_the_direction_set_on_diagonal_valleys():
    # a strongly coupled quadratic forces the replacement heuristic to fire
    def valley(z):
        return (z[0] - z[1]) ** 2 * 50 + (z[0] + z[1] - 1.0) ** 2

    point, value = powell_optimize(valley, [0.9, 0.1], max_cycles=10)
    assert value < 1e-4
    assert abs(point[0] - point[1]) < 0.05


# --- direct F1 optimization -------------------------------------------------


def test_fast_f1_matches_public_metric():
    rng = random.Random(22)
    for _ in range(300):
        n = rng.randint(1, 120)
        gold = [rng.random() < 0.4 for _ in range(n)]
        pred = [rng.random() < 0.4 for _ in range(n)]
        fast = _f1_mult_bool(np.array(gold), np.array(pred))
        slow = f1_mult(
            [BAD if g else OK for g in gold], [BAD if p else OK for p in pred]
        ).f1_mult
        assert fast == pytest.approx(slow, abs=1e-14)


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


# --- k-fold protocol ----------------------------------------------------------


def test_identical_systems_make_the_estimate_exactly_the_single_system_score():
    rng = random.Random(28)
    preds, gold = complementary_systems(rng, n_sentences=30, n_systems=1)
    clones = [
        PredictionSet(system_id=f"c{i}", word_probs=preds[0].word_probs) for i in range(3)
    ]
    plan = FoldPlan.contiguous(len(gold), 10)
    estimate = kfold_estimate(clones, gold, plan, Stream.WORDS)
    single = f1_mult(
        [t for row in gold for t in row],
        [t for row in threshold_rows(preds[0].word_probs) for t in row],
    ).f1_mult
    assert estimate == single


def test_kfold_estimate_is_deterministic():
    rng = random.Random(29)
    preds, gold = complementary_systems(rng, n_sentences=24)
    plan = FoldPlan.contiguous(len(gold), 2)
    first = kfold_estimate(preds, gold, plan, Stream.WORDS)
    second = kfold_estimate(preds, gold, plan, Stream.WORDS)
    assert first == second


def test_kfold_estimate_stays_below_the_refit_score_on_specialist_systems():
    gaps = []
    for seed in range(6):
        rng = random.Random(1000 + seed)
        preds, gold = fold_specialist_systems(rng, n_sentences=40, k=5)
        plan = FoldPlan.contiguous(len(gold), 5)
        estimate = kfold_estimate(preds, gold, plan, Stream.WORDS, max_cycles=6)
        refit = fit_word_ensemble(preds, gold, Stream.WORDS, max_cycles=6).f1
        gaps.append(refit - estimate)
    assert sum(gaps) / len(gaps) > 0


def test_fold_plan_validation():
    plan = FoldPlan.contiguous(10, 3)
    assert plan.assignment == (0, 0, 0, 1, 1, 1, 2, 2, 2, 2)
    with pytest.raises(ValueError):
        FoldPlan(k=2, assignment=(0, 1, 0))
    with pytest.raises(ValueError):
        FoldPlan(k=2, assignment=(0, 0, 0, 1))
    with pytest.raises(ValueError):
        FoldPlan.contiguous(3, 4)


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


# --- ridge --------------------------------------------------------------------


def test_identity_design_without_intercept():
    model = ridge_fit(np.eye(2), [2.0, 3.0], 0.0, intercept=False)
    assert model.coefficients == pytest.approx([2.0, 3.0], abs=1e-12)


def test_ones_column_recovers_the_mean():
    model = ridge_fit([[1.0], [1.0]], [1.0, 3.0], 0.0, intercept=False)
    assert model.coefficients[0] == pytest.approx(2.0, abs=1e-12)


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
        ridge_fit(X, [1.0, 2.0, 3.0], 0.0, intercept=False)


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
