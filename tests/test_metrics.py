import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qestack.corpus import Tag
from qestack.errors import DegenerateInput, EmptyInput, LengthMismatch
from qestack.metrics import ContingencyTable, _f1_mult_counts, f1_mult, mcc, pearson, threshold

OK, BAD = False, True


# --- independent oracles ----------------------------------------------------


def oracle_f1(gold, pred):
    """Recompute both class F1 scores from scratch with exact rationals."""
    scores = {}
    for positive in (OK, BAD):
        hits = sum(1 for g, p in zip(gold, pred) if g is positive and p is positive)
        n_pred = sum(1 for p in pred if p is positive)
        n_gold = sum(1 for g in gold if g is positive)
        if n_pred == 0 and n_gold == 0:
            scores[positive] = Fraction(1)
            continue
        precision = Fraction(hits, n_pred) if n_pred else Fraction(0)
        recall = Fraction(hits, n_gold) if n_gold else Fraction(0)
        if precision + recall == 0:
            scores[positive] = Fraction(0)
        else:
            scores[positive] = 2 * precision * recall / (precision + recall)
    return float(scores[OK]), float(scores[BAD]), float(scores[OK] * scores[BAD])


def oracle_mcc(gold, pred):
    tp = sum(1 for g, p in zip(gold, pred) if g is BAD and p is BAD)
    tn = sum(1 for g, p in zip(gold, pred) if g is OK and p is OK)
    fp = sum(1 for g, p in zip(gold, pred) if g is OK and p is BAD)
    fn = sum(1 for g, p in zip(gold, pred) if g is BAD and p is OK)
    product = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if product == 0:
        return 0.0
    return (tp * tn - fp * fn) / math.sqrt(product)


def oracle_pearson(x, y):
    return float(np.corrcoef(np.asarray(x, float), np.asarray(y, float))[0, 1])


# --- thresholding -----------------------------------------------------------


@pytest.mark.parametrize(
    "probs,t,expected",
    [
        ([0.4, 0.8], 0.5, [OK, BAD]),
        ([0.5], 0.5, [BAD]),
        ([0.2, 0.3], 0.0, [BAD, BAD]),
    ],
)
def test_threshold_boundary_is_bad(probs, t, expected):
    got = threshold(probs, t)
    assert got.dtype == bool
    assert got.tolist() == [tag is BAD for tag in expected]


def test_threshold_rejects_out_of_range():
    with pytest.raises(ValueError):
        threshold([0.5], 1.5)


# --- worked examples --------------------------------------------------------


def test_f1_perfect_prediction():
    tags = [OK, BAD, OK]
    assert f1_mult(tags, tags).f1_mult == 1.0


def test_f1_hand_worked_case():
    gold = [OK, BAD, OK, OK]
    pred = [OK, BAD, BAD, OK]
    result = f1_mult(gold, pred)
    assert result.f1_bad == pytest.approx(2 / 3, abs=1e-12)
    assert result.f1_ok == pytest.approx(0.8, abs=1e-12)
    assert result.f1_mult == pytest.approx(8 / 15, abs=1e-12)


def test_f1_all_ok_prediction_zeroes_the_product():
    gold = [OK, BAD, OK]
    pred = [OK, OK, OK]
    result = f1_mult(gold, pred)
    assert result.f1_bad == 0.0
    assert result.f1_mult == 0.0


def test_mcc_examples():
    assert mcc([OK, BAD], [OK, BAD]) == 1.0
    assert mcc([OK, BAD, OK, OK], [OK, BAD, BAD, OK]) == pytest.approx(2 / math.sqrt(12), abs=1e-12)
    assert mcc([OK, OK, OK], [OK, BAD, OK]) == 0.0


def test_pearson_examples():
    assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-12)
    assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)
    assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)


def test_degenerate_inputs_raise():
    with pytest.raises(EmptyInput):
        f1_mult([], [])
    with pytest.raises(LengthMismatch):
        mcc([OK], [OK, BAD])
    with pytest.raises(DegenerateInput):
        pearson([1.0], [2.0])
    with pytest.raises(DegenerateInput):
        pearson([1.0, 1.0], [1.0, 2.0])


@given(st.floats(allow_nan=False, allow_infinity=False), st.integers(2, 9))
@example(0.1, 3)
@example(0.123456789, 5)
def test_pearson_refuses_every_constant_vector(value, n):
    # once, a constant whose mean rounds had a variance above 0.0: [0.1] * 3
    # correlated 0.0 with anything, and [0.123456789] * 5 gave -3.9e-17
    other = [k / n for k in range(n)]
    for x, y, file in (([value] * n, other, "x.hter"), (other, [value] * n, "y.hter")):
        with pytest.raises(DegenerateInput) as caught:
            pearson(x, y, files=("x.hter", "y.hter"))
        assert str(caught.value) == f"{file}: correlation with a constant vector is undefined"


def test_pearson_of_values_whose_variances_underflow_is_their_correlation():
    # once, the product of two subnormal variances divided by zero, and then
    # was refused; both vectors are now scaled to unit magnitude first
    assert pearson([0.0, 1e-160], [0.0, 1e-160]) == 1.0
    assert pearson([0.0, 5e-324, 1e-323], [1.0, 2.0, 4.0]) == pearson([0.0, 1.0, 2.0], [1.0, 2.0, 4.0])


@pytest.mark.parametrize("scale", [1e200, 1e307, 1e308])
def test_pearson_of_large_finite_values_is_their_correlation(scale):
    # once, fsum met -inf + inf (a ValueError) at 1e200 and squares
    # overflowed (an OverflowError) at 1e308
    x, y = [0.0, 1.0, 1.7], [0.0, 1.5, 1.0]
    r = pearson(x, y)
    assert pearson([v * scale for v in x], [v * scale for v in y]) == pytest.approx(r, abs=1e-15)
    assert pearson([0.0, 1e200, 3e200], [0.0, 2e200, 1e200]) == pytest.approx(pearson([0, 1, 3], [0, 2, 1]), abs=1e-15)


_NORMAL = st.one_of(st.just(0.0), st.floats(1e-100, 1e100), st.floats(-1e100, -1e-100))


@given(
    st.lists(_NORMAL, min_size=2, max_size=30),
    st.lists(_NORMAL, min_size=2, max_size=30),
    st.integers(-600, 600),
)
@example([0.0, 1.0, 3.0], [0.0, 2.0, 1.0], 664)
@settings(max_examples=200, deadline=None)
def test_pearson_is_blind_to_a_power_of_two_scale(x, y, k):
    # every entry stays in the normal range at either scale, so the scaled
    # vector is exact and the correlation keeps its bits
    n = min(len(x), len(y))
    x, y = x[:n], y[:n]
    if len(set(x)) < 2 or len(set(y)) < 2:
        return
    assert pearson([math.ldexp(v, k) for v in x], y) == pearson(x, y)
    assert pearson(x, [math.ldexp(v, k) for v in y]) == pearson(x, y)


def test_contingency_table_totals():
    t = ContingencyTable.from_bool([OK, BAD, OK, OK], [OK, BAD, BAD, OK])
    assert (t.tp, t.tn, t.fp, t.fn) == (1, 2, 1, 0)
    assert t.total == 4


# --- oracle equivalence and invariants --------------------------------------


def random_tag_pair(rng, n):
    gold = [BAD if rng.random() < rng.uniform(0.05, 0.6) else OK for _ in range(n)]
    pred = [BAD if rng.random() < rng.uniform(0.05, 0.6) else OK for _ in range(n)]
    return gold, pred


def test_metrics_match_oracles_on_random_inputs():
    rng = random.Random(11)
    for _ in range(300):
        gold, pred = random_tag_pair(rng, rng.randint(1, 150))
        result = f1_mult(gold, pred)
        ok, bad, mult = oracle_f1(gold, pred)
        assert abs(result.f1_ok - ok) < 1e-12
        assert abs(result.f1_bad - bad) < 1e-12
        assert abs(result.f1_mult - mult) < 1e-12
        assert abs(mcc(gold, pred) - oracle_mcc(gold, pred)) < 1e-12
        # bool lists, bool arrays and Tag lists are the same BAD indicators
        gold_bad, pred_bad = np.array(gold), np.array(pred)
        assert f1_mult(gold_bad, pred_bad) == result
        assert mcc(gold_bad, pred_bad) == mcc(gold, pred)
        gold_tags, pred_tags = [Tag.BAD if t else Tag.OK for t in gold], [Tag.BAD if t else Tag.OK for t in pred]
        assert f1_mult(gold_tags, pred_tags) == result
        assert mcc(gold_tags, pred_tags) == mcc(gold, pred)


def test_f1_mult_from_counts_equals_the_boolean_metric_bit_for_bit():
    rng = np.random.default_rng(138)
    for p_gold in (0.0, 0.3, 1.0):
        for size in (1, 2, 7, 40):
            gold = rng.random(size) < p_gold
            preds = [rng.random(size) < p for p in (0.0, 0.2, 0.5, 0.9, 1.0) for _ in range(4)]
            tp = np.array([np.count_nonzero(gold & pred) for pred in preds])
            bad = np.array([np.count_nonzero(pred) for pred in preds])
            expected = [f1_mult(gold, pred).f1_mult for pred in preds]
            assert _f1_mult_counts(tp, bad, int(np.count_nonzero(gold)), size).tolist() == expected


def test_pearson_matches_numpy_oracle():
    rng = random.Random(12)
    for _ in range(300):
        n = rng.randint(2, 80)
        x = [rng.uniform(-50, 50) for _ in range(n)]
        y = [rng.uniform(-50, 50) for _ in range(n)]
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        assert abs(pearson(x, y) - oracle_pearson(x, y)) < 1e-12


@given(st.lists(st.tuples(st.sampled_from([OK, BAD]), st.sampled_from([OK, BAD])), min_size=1, max_size=60), st.randoms())
@settings(max_examples=150, deadline=None)
def test_joint_permutation_invariance(pairs, shuffler):
    gold, pred = zip(*pairs)
    shuffled = list(pairs)
    shuffler.shuffle(shuffled)
    gold2, pred2 = zip(*shuffled)
    assert f1_mult(gold, pred) == f1_mult(gold2, pred2)
    assert mcc(gold, pred) == mcc(gold2, pred2)


@given(st.lists(st.tuples(st.sampled_from([OK, BAD]), st.sampled_from([OK, BAD])), min_size=1, max_size=60))
@settings(max_examples=150, deadline=None)
def test_class_swap_symmetry(pairs):
    gold, pred = zip(*pairs)
    flip = {OK: BAD, BAD: OK}
    gold_swapped = [flip[t] for t in gold]
    pred_swapped = [flip[t] for t in pred]
    assert mcc(gold, pred) == pytest.approx(mcc(gold_swapped, pred_swapped), abs=1e-12)
    original = f1_mult(gold, pred)
    swapped = f1_mult(gold_swapped, pred_swapped)
    assert swapped.f1_ok == original.f1_bad
    assert swapped.f1_bad == original.f1_ok


@given(
    st.lists(st.floats(-100, 100), min_size=2, max_size=40),
    st.lists(st.floats(-100, 100), min_size=2, max_size=40),
    st.floats(0.5, 2.0),
    st.floats(-10, 10),
    st.floats(0.5, 2.0),
    st.floats(-10, 10),
)
@settings(max_examples=150, deadline=None)
def test_pearson_affine_invariance(x, y, a, b, c, d):
    n = min(len(x), len(y))
    x, y = x[:n], y[:n]
    if n < 2 or len(set(x)) < 2 or len(set(y)) < 2:
        return
    # keep the data well conditioned: when the spread is a vanishing fraction
    # of the magnitude (after the shift), float64 cannot hold 1e-12 absolute
    # accuracy for any correlation algorithm
    if max(x) - min(x) < 10.0 or max(y) - min(y) < 10.0:
        return
    r1 = pearson(x, y)
    r2 = pearson([a * v + b for v in x], [c * v + d for v in y])
    assert abs(r1 - r2) < 1e-12
