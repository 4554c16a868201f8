import hashlib
import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qestack.corpus import PredictionSet, Sentence, Stream, TaggedCorpus
from qestack.ensemble import fold_bounds
from qestack.errors import EmptyInput, InvalidInput, LengthMismatch, MissingStream, ParseError, QEStackError, RangeError
from qestack.labeler import hter, label_corpus
from qestack.linearqe import (
    InstanceTable,
    LinearModel,
    SequenceInstance,
    build_instances,
    extract_features,
    feature_strings,
    fnv1a64,
    gold_tags,
    jackknife,
    load_model,
    mira_train,
    predict,
    predict_probs,
    save_model,
    score_sequence,
    viterbi,
)

from conftest import interleave, random_token

OK, BAD = False, True


def make_instance(tokens, **kwargs):
    return SequenceInstance(tokens=tuple(tokens), **kwargs)


def brute_force(inst, model, cost_gold=None):
    """Enumerate all 2^N labelings, scoring each by direct feature summation:
    the weight of every key of ``extract_features``, in its order. Each
    position's keys are hashed once per label pair, not once per labeling."""
    weights = {
        (i, label, prev): [model.weights.get(key, 0.0) for key in extract_features(inst, i, label, prev)]
        for i in range(len(inst))
        for label in (OK, BAD)
        for prev in (None, OK, BAD)
    }
    best_seq, best_score = None, None
    for combo in itertools.product((OK, BAD), repeat=len(inst)):
        score = 0.0
        prev = None
        for i, label in enumerate(combo):
            for weight in weights[i, label, prev]:
                score += weight
            if cost_gold is not None and label is not cost_gold[i]:
                score += 1.0
            prev = label
        if best_score is None or score > best_score:
            best_seq, best_score = list(combo), score
    return best_seq, best_score


def random_model(rng, inst):
    weights = {}
    for i in range(len(inst)):
        for label in (OK, BAD):
            for prev in (None, OK, BAD):
                for key in extract_features(inst, i, label, prev):
                    if key not in weights:
                        weights[key] = rng.gauss(0.0, 1.0)
    return LinearModel(weights=weights)


BIGRAM_KEYS = frozenset(fnv1a64(f"g={prev}∧{label}") for prev in ("<start>", "OK", "BAD") for label in ("OK", "BAD"))


def without_bigrams(model):
    """``model`` without its bigram keys: every transition scores 0.0."""
    assert BIGRAM_KEYS <= model.weights.keys()
    return LinearModel({key: w for key, w in model.weights.items() if key not in BIGRAM_KEYS})


def random_instance(rng, max_len=8, alphabet="abcdef"):
    n = rng.randint(1, max_len)
    return make_instance([random_token(rng, alphabet) for _ in range(n)])


# --- features ---------------------------------------------------------------


def test_first_position_uses_left_sentinel():
    inst = make_instance(["ein", "haus"])
    names = feature_strings(inst, 0, OK, None)
    assert "w-1=<s>∧OK" in names
    assert "w+1=haus∧OK" in names
    last = feature_strings(inst, 1, BAD, OK)
    assert "w+1=</s>∧BAD" in last
    assert "g=OK∧BAD" in last


def test_stacked_probability_binning():
    inst = make_instance(["x"], stacked=(("sys1", (0.73,)),))
    names = feature_strings(inst, 0, BAD, None)
    assert "s:sys1:b7∧BAD" in names
    # p = 1.0 falls into the top bin, not a bin of its own
    top = make_instance(["x"], stacked=(("sys1", (1.0,)),))
    assert "s:sys1:b9∧BAD" in feature_strings(top, 0, BAD, None)


def test_feature_extraction_is_deterministic():
    inst = make_instance(["a", "b", "c"], aligned=(("u",), (), ("v", "w")))
    first = extract_features(inst, 1, BAD, OK)
    second = extract_features(inst, 1, BAD, OK)
    assert first == second
    assert all(isinstance(k, int) and 0 <= k < 2**64 for k in first)


def test_feature_strings_of_every_template_in_slot_order():
    # the order is the summation order of a score, so it is part of the bits
    inst = make_instance(
        ["a", "b"],
        aligned=(("u", "v"), ()),
        extra=(("P", "Q"), ("R", "S")),
        stacked=(("s0", (0.1, 0.9)), ("s1", (0.5, 0.2))),
    )
    assert feature_strings(inst, 0, BAD, None) == [
        "b∧BAD", "w0=a∧BAD", "w-1=<s>∧BAD", "w+1=b∧BAD", "a=u∧BAD", "a=v∧BAD",
        "x0=P∧BAD", "x1=R∧BAD", "s:s0:b1∧BAD", "s:s1:b5∧BAD", "g=<start>∧BAD",
    ]
    assert feature_strings(inst, 1, OK, BAD) == [
        "b∧OK", "w0=b∧OK", "w-1=a∧OK", "w+1=</s>∧OK", "a=<none>∧OK",
        "x0=Q∧OK", "x1=S∧OK", "s:s0:b9∧OK", "s:s1:b2∧OK", "g=BAD∧OK",
    ]


def test_hash_is_stable():
    # pinned so serialized models stay valid across runs and machines
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("b∧OK") == fnv1a64("b∧OK")


# --- viterbi ----------------------------------------------------------------


def test_zero_weights_decode_to_all_ok():
    inst = make_instance(["a", "b", "c"])
    tags, score = viterbi(inst, LinearModel(weights={}))
    assert tags == [OK, OK, OK]
    assert score == 0.0


def test_without_bigram_viterbi_is_positionwise_argmax():
    rng = random.Random(1)
    for _ in range(30):
        inst = random_instance(rng)
        model = without_bigrams(random_model(rng, inst))
        tags, _ = viterbi(inst, model)
        for i, tag in enumerate(tags):
            scores = {}
            for label in (OK, BAD):
                scores[label] = sum(
                    model.weights.get(k, 0.0) for k in extract_features(inst, i, label, None)
                )
            assert scores[tag] >= scores[OK if tag is BAD else BAD]


def test_viterbi_matches_exhaustive_enumeration():
    rng = random.Random(2)
    for _ in range(60):
        inst = random_instance(rng, max_len=7)
        model = random_model(rng, inst)
        gold = [rng.choice((OK, BAD)) for _ in range(len(inst))] if rng.random() < 0.5 else None
        seq, score = viterbi(inst, model, cost_gold=gold)
        bf_seq, bf_score = brute_force(inst, model, cost_gold=gold)
        assert abs(score - bf_score) < 1e-9
        assert seq == bf_seq


def test_score_sequence_agrees_with_viterbi_score():
    rng = random.Random(3)
    inst = random_instance(rng)
    model = random_model(rng, inst)
    seq, score = viterbi(inst, model)
    assert score_sequence(inst, model, seq) == pytest.approx(score, abs=1e-9)


# --- MIRA -------------------------------------------------------------------


def separable_data(rng, n_sentences, ok_vocab, bad_vocab, min_len=2, max_len=9):
    instances, golds = [], []
    for _ in range(n_sentences):
        n = rng.randint(min_len, max_len)
        tokens, labels = [], []
        for _ in range(n):
            if rng.random() < 0.35:
                tokens.append(rng.choice(bad_vocab))
                labels.append(BAD)
            else:
                tokens.append(rng.choice(ok_vocab))
                labels.append(OK)
        instances.append(make_instance(tokens))
        golds.append(labels)
    return instances, golds


def test_no_updates_once_the_loss_augmented_decode_returns_gold():
    # after convergence yhat == gold (zero loss), so extra epochs change nothing
    inst = make_instance(["a", "b"])
    short, long = [], []
    mira_train([inst], [[OK, BAD]], epochs=20, C=1.0, seed=1, on_update=short.append)
    model = mira_train([inst], [[OK, BAD]], epochs=60, C=1.0, seed=1, on_update=long.append)
    assert len(long) == len(short)
    assert viterbi(inst, model)[0] == [OK, BAD]


def test_mira_separates_a_toy_vocabulary():
    rng = random.Random(4)
    ok_vocab = [f"g{i}" for i in range(12)]
    bad_vocab = [f"b{i}" for i in range(12)]
    instances, golds = separable_data(rng, 60, ok_vocab, bad_vocab)
    model = mira_train(instances, golds, epochs=10, C=1.0, seed=7)
    correct = total = 0
    for inst, gold in zip(instances, golds):
        pred, _ = viterbi(inst, model)
        correct += sum(p is g for p, g in zip(pred, gold))
        total += len(gold)
    assert correct == total


def test_tau_never_exceeds_aggressiveness():
    rng = random.Random(5)
    instances, golds = separable_data(rng, 40, ["x"], ["y"])
    for c in (0.02, 0.5):
        taus = []
        mira_train(instances, golds, epochs=3, C=c, seed=1, on_update=taus.append)
        assert taus, "training this data must trigger updates"
        assert max(taus) <= c + 1e-15


def test_training_is_bit_reproducible_under_a_fixed_seed():
    rng = random.Random(6)
    instances, golds = separable_data(rng, 30, ["u", "v"], ["w", "z"])
    first = mira_train(instances, golds, epochs=4, C=0.7, seed=42)
    second = mira_train(instances, golds, epochs=4, C=0.7, seed=42)
    assert first.weights == second.weights
    different = mira_train(instances, golds, epochs=4, C=0.7, seed=43)
    assert different.weights != first.weights


def test_stacked_features_of_a_perfect_system_dominate():
    rng = random.Random(8)

    def batch(n):
        instances, golds = [], []
        for _ in range(n):
            length = rng.randint(2, 8)
            labels = [rng.choice((OK, BAD)) for _ in range(length)]
            probs = tuple(1.0 if t is BAD else 0.0 for t in labels)
            tokens = [random_token(rng, "qrst") for _ in range(length)]
            instances.append(make_instance(tokens, stacked=(("perfect", probs),)))
            golds.append(labels)
        return instances, golds

    train_insts, train_golds = batch(80)
    dev_insts, dev_golds = batch(40)
    model = mira_train(train_insts, train_golds, epochs=5, C=1.0, seed=3)

    from qestack.metrics import f1_mult

    pred_flat, gold_flat = [], []
    for inst, gold in zip(dev_insts, dev_golds):
        pred_flat.extend(viterbi(inst, model)[0])
        gold_flat.extend(gold)
    assert f1_mult(gold_flat, pred_flat).f1_mult >= 0.99


# --- probabilities ----------------------------------------------------------


def test_zero_weights_give_half_probabilities():
    inst = make_instance(["a", "b"])
    assert predict_probs(inst, LinearModel(weights={})) == [0.5, 0.5]
    # every tie goes to OK, in sentences of mixed lengths decoded together
    instances = [make_instance(["a"] * n) for n in (3, 1, 5, 1, 2)]
    tags, probs = predict(instances, LinearModel(weights={}))
    assert tags == [[OK] * len(inst) for inst in instances]
    assert probs == [[0.5] * len(inst) for inst in instances]


def test_raising_bad_bias_never_lowers_probabilities():
    rng = random.Random(9)
    inst = random_instance(rng)
    model = random_model(rng, inst)
    base = predict_probs(inst, model)
    bias_key = fnv1a64("b∧BAD")
    boosted = dict(model.weights)
    boosted[bias_key] = boosted.get(bias_key, 0.0) + 2.5
    higher = predict_probs(inst, LinearModel(weights=boosted))
    assert all(h >= b - 1e-12 for h, b in zip(higher, base))


def test_thresholded_probabilities_match_viterbi_without_bigram():
    rng = random.Random(10)
    for _ in range(40):
        inst = random_instance(rng)
        model = without_bigrams(random_model(rng, inst))
        probs = predict_probs(inst, model)
        tags, _ = viterbi(inst, model)
        assert [BAD if p >= 0.5 else OK for p in probs] == tags


def test_gamma_sharpens_probabilities():
    rng = random.Random(11)
    inst = random_instance(rng)
    model = random_model(rng, inst)
    soft = predict_probs(inst, model, gamma=0.5)
    sharp = predict_probs(inst, model, gamma=4.0)
    for s, h in zip(soft, sharp):
        if s > 0.5:
            assert h >= s
        elif s < 0.5:
            assert h <= s


# --- jackknife --------------------------------------------------------------


def test_jackknife_covers_every_sentence_exactly_once():
    rng = random.Random(12)
    instances, golds = separable_data(rng, 23, ["m"], ["n"])

    tags, probs = jackknife(instances, golds, 5, epochs=2, C=1.0, seed=1)
    assert len(tags) == len(instances)
    assert len(probs) == len(instances)
    for inst, tag_row, prob_row in zip(instances, tags, probs):
        assert len(tag_row) == len(inst)
        assert len(prob_row) == len(inst)


def test_leave_one_out_is_allowed():
    rng = random.Random(13)
    instances, golds = separable_data(rng, 6, ["m"], ["n"])

    tags, _ = jackknife(instances, golds, len(instances), epochs=1, C=1.0, seed=1)
    assert len(tags) == len(instances)


def noisy_data(rng, n_sentences):
    """Instances with context, alignments and stacked features whose labels
    are only partly predictable, so MIRA keeps updating."""
    instances, golds = [], []
    for _ in range(n_sentences):
        n = rng.randint(1, 7)
        tokens = [random_token(rng, "abcd") for _ in range(n)]
        labels = [BAD if tok[0] == "a" or rng.random() < 0.2 else OK for tok in tokens]
        instances.append(make_instance(
            tokens,
            aligned=tuple(tuple(random_token(rng, "xyz") for _ in range(rng.randint(0, 2))) for _ in tokens),
            stacked=(("s", tuple(rng.random() for _ in tokens)),),
        ))
        golds.append(labels)
    return instances, golds


def test_jackknife_folds_equal_predict_with_mira_train_on_the_rest():
    rng = random.Random(16)
    instances, golds = noisy_data(rng, 20)
    options = {"epochs": 3, "C": 0.5, "seed": 7}
    tags, probs = jackknife(instances, golds, 3, gamma=0.7, **options)
    bounds = fold_bounds(len(instances), 3)
    for lo, hi in bounds:
        model = mira_train(instances[:lo] + instances[hi:], golds[:lo] + golds[hi:], **options)
        fold_tags, fold_probs = predict(instances[lo:hi], model, gamma=0.7)
        assert tags[lo:hi] == fold_tags
        assert probs[lo:hi] == fold_probs
        for inst, row_tags, row_probs in zip(instances[lo:hi], fold_tags, fold_probs):
            assert viterbi(inst, model)[0] == row_tags
            assert predict_probs(inst, model, gamma=0.7) == row_probs
    assert bounds[-1][1] == len(instances)


def test_predict_and_jackknife_compile_each_instance_once(monkeypatch):
    import qestack.linearqe as linearqe

    builds = []
    template_ids = linearqe._template_ids

    def counting_template_ids(table, start, end, *args):
        builds.extend(range(start, end))
        return template_ids(table, start, end, *args)

    monkeypatch.setattr(linearqe, "_template_ids", counting_template_ids)
    instances, golds = noisy_data(random.Random(17), 12)
    jackknife(instances, golds, 4, epochs=2)
    assert len(builds) == len(instances)
    model = mira_train(instances, golds, epochs=1)
    builds.clear()
    predict(instances, model)
    assert len(builds) == len(instances)


def reference_mira(instances, golds, *, epochs, C, seed):
    """Averaged max-loss MIRA on a dict keyed by the hashed keys of
    ``extract_features``, adding weights in the order ``mira_train`` does."""
    w, acc, last = {}, {}, {}
    rng = random.Random(seed)
    order = list(range(len(instances)))
    step = 0
    for _ in range(epochs):
        rng.shuffle(order)
        for idx in order:
            step += 1
            inst, gold = instances[idx], golds[idx]
            pred, augmented = reference_viterbi(inst, w, cost_gold=gold)
            if pred == gold:
                continue
            gold_score, prev = 0.0, None
            for i, label in enumerate(gold):
                for key in extract_features(inst, i, label, prev):
                    gold_score += w.get(key, 0.0)
                prev = label
            violation = augmented - gold_score
            if violation <= 0.0:
                continue
            delta = Counter()
            prev_g = prev_p = None
            for i in range(len(inst)):
                delta.update(extract_features(inst, i, gold[i], prev_g))
                delta.subtract(extract_features(inst, i, pred[i], prev_p))
                prev_g, prev_p = gold[i], pred[i]
            sq_norm = sum(c * c for c in delta.values())
            if sq_norm == 0:
                continue
            tau = min(C, violation / sq_norm)
            for key, count in delta.items():
                if count:
                    acc[key] = acc.get(key, 0.0) + w.get(key, 0.0) * (step - 1 - last.get(key, 0))
                    last[key] = step - 1
                    w[key] = w.get(key, 0.0) + tau * count
    averaged = {key: (acc.get(key, 0.0) + value * (step - last.get(key, 0))) / step for key, value in w.items()}
    return {key: value for key, value in averaged.items() if value != 0.0}


def reference_unigram(inst, w, i, label, cost_gold=None):
    """Position ``i``'s unigram score over dict weights, summing every key of
    ``extract_features`` (a missing key adds 0.0); the bigram key is the last
    of them."""
    s = 0.0
    for key in extract_features(inst, i, label, None)[:-1]:
        s += w.get(key, 0.0)
    return s + 1.0 if cost_gold is not None and label is not cost_gold[i] else s


def reference_transition(inst, w, prev, label):
    return w.get(extract_features(inst, 0, label, prev)[-1], 0.0)


def reference_forward(inst, w, cost_gold=None):
    """The max-product forward pass over dict weights: ``delta[i][l]`` and
    the back pointers of positions 1..n-1. Ties break toward OK."""
    labels = (OK, BAD)
    delta = [[
        reference_unigram(inst, w, 0, label, cost_gold) + reference_transition(inst, w, None, label)
        for label in labels
    ]]
    back = []
    for i in range(1, len(inst)):
        row, pointers = [], []
        for label in labels:
            ok, bad = (delta[-1][p] + reference_transition(inst, w, prev, label) for p, prev in enumerate(labels))
            pointers.append(1 if bad > ok else 0)
            row.append(reference_unigram(inst, w, i, label, cost_gold) + (bad if bad > ok else ok))
        delta.append(row)
        back.append(pointers)
    return delta, back


def reference_viterbi(inst, w, cost_gold=None):
    """First-order Viterbi over dict weights. Ties break toward OK."""
    labels = (OK, BAD)
    delta, back = reference_forward(inst, w, cost_gold)
    best = 0 if delta[-1][0] >= delta[-1][1] else 1
    path = [best]
    for pointers in reversed(back):
        path.append(pointers[path[-1]])
    return [labels[l] for l in reversed(path)], delta[-1][best]


def reference_path_score(inst, w, labels):
    """One labeling's score over dict weights, added key by key in position
    order, each position's transition after its unigram keys."""
    total, prev = 0.0, None
    for i, label in enumerate(labels):
        for key in extract_features(inst, i, label, prev)[:-1]:
            total += w.get(key, 0.0)
        total += reference_transition(inst, w, prev, label)
        prev = label
    return total


def reference_probs(inst, w, gamma):
    """Max-marginal P(BAD) per position over dict weights: the logistic of
    ``gamma`` times the best BAD score minus the best OK score, from the
    forward pass and a backward max pass."""
    labels = (OK, BAD)
    delta, _ = reference_forward(inst, w)
    n = len(inst)
    bwd = [[0.0, 0.0] for _ in range(n)]
    for i in range(n - 2, -1, -1):
        for p, prev in enumerate(labels):
            ok, bad = (
                reference_transition(inst, w, prev, label)
                + reference_unigram(inst, w, i + 1, label)
                + bwd[i + 1][l]
                for l, label in enumerate(labels)
            )
            bwd[i][p] = max(ok, bad)
    return [1.0 / (1.0 + math.exp(-gamma * ((d1 + b1) - (d0 + b0)))) for (d0, d1), (b0, b1) in zip(delta, bwd)]


def test_colliding_feature_strings_share_one_weight(monkeypatch):
    import qestack.linearqe as linearqe

    full_hash = linearqe.fnv1a64
    template_keys = linearqe._template_keys
    monkeypatch.setattr(linearqe, "fnv1a64", lambda text: full_hash(text) % 8)
    monkeypatch.setattr(linearqe, "_template_keys", lambda *args: template_keys(*args) % np.uint64(8))
    instances, golds = noisy_data(random.Random(19), 12)
    options = {"epochs": 3, "C": 0.5, "seed": 5}
    model = mira_train(instances, golds, **options)
    assert model.weights == reference_mira(instances, golds, **options)
    assert predict(instances, model)[0] == [reference_viterbi(inst, model.weights)[0] for inst in instances]

    tags, probs = jackknife(instances, golds, 3, **options)
    lo, hi = fold_bounds(len(instances), 3)[1]
    rest = reference_mira(instances[:lo] + instances[hi:], golds[:lo] + golds[hi:], **options)
    assert (tags[lo:hi], probs[lo:hi]) == predict(instances[lo:hi], LinearModel(rest))


# forced single collisions: the first key of a pair is made the second, so
# the pairing of each template's OK and BAD keys fails and training falls
# back to one weight per key
SINGLE_COLLISIONS = {
    "an-ok-key-is-a-bad-key": ("b∧OK", "w-1=<s>∧BAD"),
    "a-unigram-key-is-a-bigram-key": ("w+1=</s>∧BAD", "g=<start>∧OK"),
}


@pytest.mark.parametrize("C", [0.5, math.inf])
@pytest.mark.parametrize("collision", [None, *SINGLE_COLLISIONS])
def test_both_training_forms_equal_the_reference_mira(monkeypatch, collision, C):
    import qestack.linearqe as linearqe

    if collision is not None:
        source, target = map(fnv1a64, SINGLE_COLLISIONS[collision])
        full_hash, template_keys = linearqe.fnv1a64, linearqe._template_keys

        def colliding_keys(*args):
            keys = template_keys(*args)
            keys[keys == np.uint64(source)] = target
            return keys

        monkeypatch.setattr(linearqe, "fnv1a64", lambda text: target if full_hash(text) == source else full_hash(text))
        monkeypatch.setattr(linearqe, "_template_keys", colliding_keys)
    instances, golds = noisy_data(random.Random(19), 12)
    options = {"epochs": 3, "C": C, "seed": 5}
    form = linearqe._compile_training(instances, golds, options["epochs"], C).form
    assert form is (linearqe._PAIRED if collision is None else linearqe._KEYED)
    assert mira_train(instances, golds, **options).weights == reference_mira(instances, golds, **options)

    tags, probs = jackknife(instances, golds, 3, **options)
    for lo, hi in fold_bounds(len(instances), 3):
        rest = reference_mira(instances[:lo] + instances[hi:], golds[:lo] + golds[hi:], **options)
        assert (tags[lo:hi], probs[lo:hi]) == predict(instances[lo:hi], LinearModel(rest))


def test_noisy_corpora_train_one_weight_per_template():
    # a silent fall back to one weight per key would keep every output but
    # lose the speed of the paired form
    import qestack.linearqe as linearqe

    rng = random.Random(29)
    for n_sentences in (1, 20, 200):
        instances, golds = noisy_data(rng, n_sentences)
        assert linearqe._compile_training(instances, golds, 1, 1.0).form is linearqe._PAIRED


def test_model_file_and_jackknife_probabilities_keep_their_bytes(tmp_path, monkeypatch):
    import qestack.linearqe as linearqe

    # the pins were written when the bin count was an option, here 4
    monkeypatch.setattr(linearqe, "_BINS", 4)
    instances, golds = noisy_data(random.Random(18), 30)
    options = {"epochs": 3, "C": 0.5, "seed": 7}
    path = tmp_path / "m.model"
    save_model(mira_train(instances, golds, **options), path)
    _, probs = jackknife(instances, golds, 3, gamma=0.7, **options)
    # sha256 of the bytes written by commit 84d017e (dict-keyed MIRA)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "41b056f7df44a462f3897c7da611bdf3dac904144f8dc8742c712e91fa8844b2"
    )
    assert hashlib.sha256(repr(probs.rows()).encode()).hexdigest() == (
        "b3f8c5e184c32cb22bcae3f12b3145b02152a9a2bc2fe338105cc2575a1fc17a"
    )


def rich_data(rng, n_sentences):
    """Instances with aligned words (some positions unaligned), two extra
    columns and two stacked systems over a small vocabulary."""
    instances = []
    for _ in range(n_sentences):
        tokens = [random_token(rng, "abc") for _ in range(rng.randint(1, 5))]
        instances.append(make_instance(
            tokens,
            aligned=tuple(tuple(random_token(rng, "xy") for _ in range(rng.randint(0, 2))) for _ in tokens),
            extra=tuple(tuple(rng.choice("PQR") for _ in tokens) for _ in range(2)),
            stacked=tuple((system_id, tuple(rng.random() for _ in tokens)) for system_id in ("s0", "s1")),
        ))
    return instances


def partial_model(rng, instances):
    """Random weights on about half of the keys the instances produce, one
    of them -0.0; the model lacks the other keys."""
    keys = sorted({
        key
        for inst in instances
        for i in range(len(inst))
        for label in (OK, BAD)
        for prev in (None, OK, BAD)
        for key in extract_features(inst, i, label, prev)
    })
    weights = {key: rng.gauss(0.0, 1.0) for key in keys if rng.random() < 0.5}
    if keys:
        weights[rng.choice(keys)] = -0.0
    return LinearModel(weights=weights)


def test_predict_equals_the_reference_bit_for_bit():
    # predict drops the keys a model lacks; the reference adds 0.0 for each
    rng = random.Random(21)
    instances = rich_data(rng, 4)
    for _ in range(32):
        model = partial_model(rng, instances)
        tags, probs = predict(instances, model, gamma=0.7)
        for inst, row_tags, row_probs in zip(instances, tags, probs):
            ref_tags, ref_score = reference_viterbi(inst, model.weights)
            assert row_tags == ref_tags
            assert [p.hex() for p in row_probs] == [p.hex() for p in reference_probs(inst, model.weights, 0.7)]
            decoded, score = viterbi(inst, model)
            assert (decoded, score.hex()) == (ref_tags, ref_score.hex())
            assert score_sequence(inst, model, ref_tags).hex() == reference_path_score(inst, model.weights, ref_tags).hex()


def test_compiles_hash_no_feature_string_but_the_bigrams(monkeypatch):
    # unigram templates are hashed in numpy batches, never string by string
    import qestack.linearqe as linearqe

    hashed = []
    full_hash = linearqe.fnv1a64

    def counting_hash(text):
        hashed.append(text)
        return full_hash(text)

    monkeypatch.setattr(linearqe, "fnv1a64", counting_hash)
    instances, golds = noisy_data(random.Random(22), 40)
    bigrams = sorted(
        feature_strings(instances[0], 0, label, prev)[-1] for label in (OK, BAD) for prev in (None, OK, BAD)
    )
    model = mira_train(instances, golds, epochs=2)
    assert sorted(hashed) == bigrams
    calls = (
        lambda: predict(instances, model),
        lambda: jackknife(instances, golds, 4, epochs=2),
        lambda: viterbi(instances[0], model),
        lambda: score_sequence(instances[0], model, golds[0]),
    )
    for call in calls:
        hashed.clear()
        call()
        assert sorted(hashed) == bigrams


@given(st.lists(st.text(), max_size=30))
@example(["", "\x00", "a\x00", "\x00\x00b", "𝔘𝔫𝔦\U0010ffff", "∧OK"])
def test_batch_fnv1a_equals_fnv1a64(texts):
    # a trailing NUL is a byte like any other (numpy's fixed-width bytes drop it)
    import qestack.linearqe as linearqe

    offsets = np.full(len(texts), linearqe._FNV_OFFSET, np.uint64)
    keys = linearqe._fnv1a64_fold(offsets, [text.encode() for text in texts])
    assert keys.dtype == np.uint64
    assert keys.tolist() == [fnv1a64(text) for text in texts]


ROLES = ("b", "w0=", "w-1=", "w+1=", "a=", "x0=", "x1=", "s:s0:b", "s:𝔰\x00:b")


@given(st.lists(st.tuples(st.sampled_from(ROLES), st.text()), max_size=30))
@example([("b", ""), ("a=", "\x00"), ("w0=", "b"), ("b", "w0=")])
def test_template_keys_continue_each_role_with_each_conjunct(templates):
    import qestack.linearqe as linearqe

    vocab = linearqe._Vocabulary()
    ids = np.array([vocab[role] << 32 | vocab[value] for role, value in templates], np.int64)
    keys = linearqe._template_keys(ids, vocab)
    assert keys.shape == (2, len(templates))
    assert keys.tolist() == [
        [fnv1a64(f"{role}{value}∧{label}") for role, value in templates] for label in ("OK", "BAD")
    ]


def mixed_data(rng, n_sentences):
    """Instances of one shape, drawn per call (0 to 2 extra columns and 0 to
    2 stacked systems under drawn ids, a repeated id included), with every
    alignment the compile pads: no, empty and multi-word alignments."""
    columns = rng.randint(0, 2)
    systems = [rng.choice(("s0", "s1", "𝔰")) for _ in range(rng.randint(0, 2))]
    instances = []
    for _ in range(n_sentences):
        tokens = [random_token(rng, "ab𝔠") for _ in range(rng.randint(1, 4))]
        aligned = () if rng.random() < 0.3 else tuple(
            tuple(random_token(rng, "xy") for _ in range(rng.randint(0, 3))) for _ in tokens
        )
        extra = tuple(tuple(rng.choice(("P", "Q", "", "é\x00")) for _ in tokens) for _ in range(columns))
        stacked = tuple(
            (system_id, tuple(rng.choice((rng.random(), 0.0, 1.0)) for _ in tokens)) for system_id in systems
        )
        instances.append(make_instance(tokens, aligned=aligned, extra=extra, stacked=stacked))
    return instances


# calls of mixed_data per test, each of its own shape; at each test's seed
# the 8 shapes include no extra column, no stacked system, and 2 of each
SHAPES = 8


@pytest.mark.parametrize("block", [3, 64])
def test_compiled_slots_hold_the_keys_of_extract_features_in_order(monkeypatch, block):
    # 70 sentences span several blocks at either size, with sentences on
    # both sides of every block boundary
    import qestack.linearqe as linearqe

    monkeypatch.setattr(linearqe, "_BLOCK", block)
    rng = random.Random(23)
    for _ in range(SHAPES):
        instances = mixed_data(rng, 70)
        compiled, pairs = linearqe._compile_slots(InstanceTable.of(instances))
        assert len(compiled) == len(instances)
        for inst, slots in zip(instances, compiled):
            assert len(slots) == len(inst)
            for i, ids in enumerate(slots):
                # every key but the last, the bigram
                assert [pairs[j][0] for j in ids] == extract_features(inst, i, OK, None)[:-1]
                assert [pairs[j][1] for j in ids] == extract_features(inst, i, BAD, None)[:-1]


@pytest.mark.parametrize("block", [3, 64])
def test_block_compiles_predict_and_train_as_one_instance_at_a_time(monkeypatch, block):
    import qestack.linearqe as linearqe

    rng = random.Random(24)
    for _ in range(SHAPES):
        monkeypatch.setattr(linearqe, "_BLOCK", block)
        instances = mixed_data(rng, 70)
        golds = [[rng.random() < 0.3 for _ in inst.tokens] for inst in instances]
        model = partial_model(rng, instances)
        tags, probs = predict(instances, model, gamma=0.7)
        for inst, row_tags, row_probs in zip(instances, tags, probs):
            assert row_tags == viterbi(inst, model)[0]
            assert [p.hex() for p in row_probs] == [p.hex() for p in reference_probs(inst, model.weights, 0.7)]
        trained = mira_train(instances, golds, epochs=2)
        monkeypatch.setattr(linearqe, "_BLOCK", 1)
        assert trained.weights == mira_train(instances, golds, epochs=2).weights


def test_jackknife_rejects_too_few_sentences():
    with pytest.raises(ValueError):
        jackknife([make_instance(["a"])], [[OK]], 2)


def test_parallel_jackknife_matches_sequential_output():
    rng = random.Random(15)
    instances, golds = separable_data(rng, 18, ["a", "b"], ["c", "d"])
    sequential = jackknife(instances, golds, 3, epochs=2, C=1.0, seed=3, jobs=1)
    parallel = jackknife(instances, golds, 3, epochs=2, C=1.0, seed=3, jobs=2)
    assert parallel == sequential


# --- whole-corpus decode ----------------------------------------------------


def per_sentence_decode(u, t, gamma):
    """The per-sentence decode the whole-corpus pass replaced: ``_forward``
    and its backtrace, a backward pass of Python ``max`` and the logistic
    link, over one sentence's (OK, BAD) unigram scores ``u``."""
    import qestack.linearqe as linearqe

    delta, path, _ = linearqe._forward(u, t)
    n = len(u)
    bwd = [(0.0, 0.0)] * n
    for i in range(n - 2, -1, -1):
        (a0, a1), (b0, b1) = u[i + 1], bwd[i + 1]
        bwd[i] = (
            max(t[1][0] + a0 + b0, t[1][1] + a1 + b1),
            max(t[2][0] + a0 + b0, t[2][1] + a1 + b1),
        )
    probs = []
    for (d0, d1), (b0, b1) in zip(delta, bwd):
        margin = (d1 + b1) - (d0 + b0)
        try:
            probs.append(1.0 / (1.0 + math.exp(-gamma * margin)))
        except OverflowError:
            probs.append(math.exp(gamma * margin))
    return list(map(bool, path)), probs


def per_sentence_predict(inst, model, gamma):
    """One instance compiled alone and decoded by ``per_sentence_decode``."""
    import qestack.linearqe as linearqe

    slots, w, t = linearqe._compile_one(inst, model)
    return per_sentence_decode(linearqe._unigram_scores(slots, w), t, gamma)


def assert_rows_equal_bit_for_bit(got, want):
    (tags, probs), (want_tags, want_probs) = got, want
    assert tags == want_tags
    assert [[p.hex() for p in row] for row in probs] == [[p.hex() for p in row] for row in want_probs]


# ties (-0.0 against 0.0, equal candidates), infinities and NaN among the scores
SCORES = (0.0, -0.0, 1.0, -1.0, 0.5, 2.0, math.inf, -math.inf, math.nan)


@pytest.mark.parametrize("gamma", [0.7, 1000.0])
@pytest.mark.parametrize("pool", ["gauss", "ties", "special"])
def test_whole_corpus_decode_equals_the_per_sentence_decode(gamma, pool):
    # lengths 1 to 12 in shuffled order, each sentence under its own
    # transition scores as in a jackknife; gamma 1000 overflows exp
    import qestack.linearqe as linearqe

    rng = random.Random(26)
    draw = {
        "gauss": lambda: rng.gauss(0.0, 3.0),
        "ties": lambda: rng.choice(SCORES[:6]),
        "special": lambda: rng.choice(SCORES),
    }[pool]
    lengths = [rng.randint(1, 12) for _ in range(60)] + [1, 1, 12]
    rng.shuffle(lengths)
    rows = [[(draw(), draw()) for _ in range(n)] for n in lengths]
    ts = [tuple((draw(), draw()) for _ in range(3)) for _ in lengths]
    # a NaN that only the backward pass meets at position 0, where max()
    # keeps the other operand (np.maximum would not); then a margin of -0.72:
    # at gamma 1000, exp(720) overflows and P(BAD) is exp(-720), a subnormal
    # that 1 / (1 + inf) would round to 0.0
    rows += [[(0.0, 0.0), (0.0, math.nan)], [(0.72, 0.0)]]
    ts += [((0.0, 0.0),) * 3] * 2
    lengths += [2, 1]
    scores = np.array([s for row in rows for s in row]).T
    got = linearqe._decode(scores, np.array(lengths, np.int64), np.array(ts).transpose(1, 2, 0), gamma)
    want = list(zip(*(per_sentence_decode(u, t, gamma) for u, t in zip(rows, ts))))
    assert_rows_equal_bit_for_bit(got, (list(want[0]), list(want[1])))
    if gamma == 1000.0:
        assert got[1][-1] == [math.exp(-720.0)] and math.exp(-720.0) > 0.0


@pytest.mark.parametrize("block", [1, 3, 64])
def test_predict_equals_the_per_sentence_decode_at_any_block_size(monkeypatch, block):
    import qestack.linearqe as linearqe

    monkeypatch.setattr(linearqe, "_BLOCK", block)
    rng = random.Random(27)
    for _ in range(SHAPES):
        instances = mixed_data(rng, 70)
        first = instances[0]
        stacked = tuple((system_id, (0.5,)) for system_id, _ in first.stacked)
        instances.append(make_instance(["a"], extra=(("P",),) * len(first.extra), stacked=stacked))
        model = partial_model(rng, instances)
        bigrams = {fnv1a64(feature_strings(instances[0], 0, OK, prev)[-1]) for prev in (None, OK, BAD)}
        model.weights.update(dict.fromkeys(bigrams, -0.0))  # -0.0 transition scores
        for gamma in (0.7, 1000.0):
            want = list(zip(*(per_sentence_predict(inst, model, gamma) for inst in instances)))
            assert_rows_equal_bit_for_bit(predict(instances, model, gamma), (list(want[0]), list(want[1])))


def test_predict_of_no_instances_is_empty():
    assert predict([], LinearModel(weights={fnv1a64("b∧BAD"): 1.0})) == ([], [])


@pytest.mark.parametrize("jobs", [1, 2])
def test_jackknife_decodes_each_fold_as_the_per_sentence_decode(jobs):
    instances, golds = noisy_data(random.Random(28), 14)
    options = {"epochs": 2, "C": 0.5, "seed": 3}
    tags, probs = jackknife(instances, golds, 3, gamma=0.7, jobs=jobs, **options)
    assert min(map(len, instances)) == 1
    for lo, hi in fold_bounds(len(instances), 3):
        model = mira_train(instances[:lo] + instances[hi:], golds[:lo] + golds[hi:], **options)
        want = list(zip(*(per_sentence_predict(inst, model, 0.7) for inst in instances[lo:hi])))
        assert_rows_equal_bit_for_bit((tags[lo:hi], probs[lo:hi]), (list(want[0]), list(want[1])))


# --- serialization ----------------------------------------------------------


def test_model_round_trip(tmp_path):
    rng = random.Random(14)
    inst = random_instance(rng)
    model = random_model(rng, inst)
    path = tmp_path / "model.txt"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.weights == model.weights
    keys = [int(line.split("\t")[0]) for line in path.read_text().splitlines()]
    assert keys == sorted(keys)


def test_model_keys_beyond_64_bits_are_a_parse_error(tmp_path):
    # no 64-bit feature hash can equal such a key
    path = tmp_path / "model.txt"
    path.write_text(f"{2**64 - 1}\t0.5\n{2**64}\t0.5\n", encoding="utf-8")
    with pytest.raises(ParseError) as caught:
        load_model(path)
    assert (caught.value.file, caught.value.line) == (str(path), 2)
    path.write_text(f"{2**64 - 1}\t0.5\n", encoding="utf-8")
    assert predict([make_instance(["a"])], load_model(path)) == ([[OK]], [[0.5]])
    # a model built in code may hold them; they weigh nothing
    bias = fnv1a64("b∧BAD")
    outside = LinearModel({-1: 2.0, 2**64: 2.0, bias: 1.0})
    assert predict([make_instance(["a"])], outside) == predict([make_instance(["a"])], LinearModel({bias: 1.0}))


@pytest.mark.parametrize(
    "lines, line, message",
    [
        (["1\t0.5", "2\tx", "3 0.5", f"{2**64}\t0.5"], 2, "malformed number 'x'"),
        (["1\t0.5", "2\t0.5", "3 0.5", "4\tx"], 3, "expected a non-empty name and 1 tab-separated value(s)"),
        (["1\t0.5", f"{2**64}\t0.5", "3\tx"], 2, "model key beyond 64 bits"),
        (["1\t0.5", "-2\t0.5"], 2, "model key is not a decimal integer"),
        (["1\t0.5\t0.5"], 1, "expected a non-empty name and 1 tab-separated value(s)"),
        (["1\t0.5\t"], 1, "expected a non-empty name and 1 tab-separated value(s)"),
        (["1\t0.5", "\t0.5", "3\tx"], 2, "expected a non-empty name and 1 tab-separated value(s)"),
        (["1\t0.5", "2\tnan", "3\tx"], 2, "value nan is not finite"),
        (["1\t-inf", "2\t0.5"], 1, "value -inf is not finite"),
        (["1\t0.5", "2\t0.5", "01\t0.5", "3\tx"], 3, "duplicate name '01'"),
    ],
)
def test_a_bad_model_file_names_its_first_bad_line(tmp_path, lines, line, message):
    path = tmp_path / "model.txt"
    path.write_text("".join(f"{text}\n" for text in lines), encoding="utf-8")
    with pytest.raises((ParseError, RangeError)) as caught:
        load_model(path)
    assert str(caught.value) == f"{path}:{line}: {message}"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_model_weight_that_is_not_finite_is_not_saved(tmp_path, value):
    path = tmp_path / "model.txt"
    with pytest.raises(RangeError) as caught:
        save_model(LinearModel({3: 0.5, 7: value}), path)
    assert str(caught.value) == f"{path}:2: value {value!r} is not finite"
    assert not path.exists()


def test_a_repeated_model_key_names_its_second_line(tmp_path):
    # once, the last line of a key silently won
    path = tmp_path / "model.txt"
    path.write_text("7\t0.5\n3\t-1e-3\n7\t2.0\n", encoding="utf-8")
    with pytest.raises(ParseError, match="model.txt:3: duplicate name '7'"):
        load_model(path)
    path.write_text("", encoding="utf-8")
    assert load_model(path).weights == {}
    # a file of several blocks of lines, repeating a key of the first in the last
    lines = [f"{key}\t{key / 7!r}" for key in range(2500)]
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    assert load_model(path).weights == {key: key / 7 for key in range(2500)}
    path.write_text("".join(f"{line}\n" for line in [*lines, "5\t9.5"]), encoding="utf-8")
    with pytest.raises(ParseError, match="model.txt:2501: duplicate name '5'"):
        load_model(path)
    lines[1700] = "1700\tx"
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    with pytest.raises(ParseError, match="model.txt:1701: malformed number 'x'"):
        load_model(path)


# --- corpus to instances ----------------------------------------------------


def tiny_columns(n=1, alignments=frozenset({(0, 0), (1, 1), (2, 1)})) -> dict:
    """``n`` rows of one aligned, tagged segment."""
    return {
        "mt": [Sentence(("das", "haus"))] * n,
        "src": [Sentence(("the", "house", "!"))] * n,
        "tags": [interleave((OK, BAD), (OK, OK, BAD))] * n,
        "source_tags": [(OK, BAD, OK)] * n,
        "alignments": [alignments] * n,
    }


def build_tiny_corpus():
    return TaggedCorpus.from_rows(**tiny_columns())


def position_words(table):
    """Each position's aligned words in ``table``, as a tuple."""
    bounds = table.word_offsets.tolist()
    return [tuple(table.words[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def test_word_instances_carry_aligned_source_words():
    corpus = build_tiny_corpus()
    table = build_instances(corpus, Stream.WORDS)
    assert list(table) == [["das", "haus"]]
    assert position_words(table) == [("the",), ("house", "!")]
    assert gold_tags(corpus, Stream.WORDS) == [[OK, BAD]]


def reference_aligned_words(other_tokens, pairs, key_index, other_index, n):
    """Each position's aligned words from a dict of index lists, each list
    sorted."""
    by_pos = {}
    for pair in pairs or ():
        by_pos.setdefault(pair[key_index], []).append(pair[other_index])
    return [tuple(other_tokens[j] for j in sorted(by_pos.get(i, ()))) for i in range(n)]


@given(
    st.none() | st.frozensets(st.tuples(st.integers(0, 6), st.integers(0, 6))),
    st.integers(1, 6),
    st.sampled_from([(0, 1), (1, 0)]),
)
def test_aligned_words_equal_the_dict_of_lists_reference(pairs, n, indices):
    # one entry: n positions (source words, or MT words) against 7 words on
    # the other side, and the pairs whose position lies within the n
    key_index, other_index = indices
    other = tuple(f"w{j}" for j in range(7))
    keys = tuple(f"k{i}" for i in range(n))
    if pairs is not None:
        pairs = frozenset(pair for pair in pairs if pair[key_index] < n)
    src, mt = (keys, other) if key_index == 0 else (other, keys)
    corpus = TaggedCorpus.from_rows([Sentence(mt)], src=[Sentence(src)], alignments=None if pairs is None else [pairs])
    aligned = position_words(build_instances(corpus, Stream.SOURCE if key_index == 0 else Stream.WORDS))
    want = [()] * n if pairs is None else reference_aligned_words(other, pairs, key_index, other_index, n)
    assert aligned == want


@pytest.mark.parametrize("pair", [(-1, 0), (3, 0), (0, 2), (0, -1)], ids=["negative-source", "source-past-end", "mt-past-end", "negative-mt"])
@pytest.mark.parametrize("stream", [Stream.WORDS, Stream.SOURCE])
def test_an_alignment_outside_a_built_entry_is_a_range_error_naming_it(pair, stream):
    # once, (-1, 0) aligned MT word 0 to the last source word and (3, 0) raised a bare IndexError
    # the corpus is range-checked once, when it is built
    columns = tiny_columns(3)
    columns["alignments"][1:] = [frozenset({(0, 0), pair})] * 2
    with pytest.raises(RangeError, match=rf"^entry 2: alignment {pair[0]}-{pair[1]} out of range \(3/2\)$"):
        build_instances(TaggedCorpus.from_rows(**columns), stream)


@st.composite
def aligned_columns(draw, stream):
    """The 1 to 8 rows of one corpus: every one with a source sentence and
    alignments, every one with a source sentence only, or (on the words
    stream) none with either; the pairs lie within the sentences, and some
    positions have none."""
    kinds = ["aligned", "aligned", "aligned", "source only"] + (["no source"] if stream is Stream.WORDS else [])
    kind = draw(st.sampled_from(kinds))
    names = {"no source": ("mt",), "source only": ("mt", "src"), "aligned": ("mt", "src", "alignments")}
    columns = {name: [] for name in names[kind]}
    for _ in range(draw(st.integers(1, 8))):
        mt = Sentence(tuple(f"m{i}" for i in range(draw(st.integers(1, 6)))))
        columns["mt"].append(mt)
        if kind == "no source":
            continue
        src = Sentence(tuple(f"s{i}" for i in range(draw(st.integers(1, 6)))))
        columns["src"].append(src)
        links = st.lists(st.tuples(st.integers(0, len(src) - 1), st.integers(0, len(mt) - 1)), max_size=12)
        if kind == "aligned":
            columns["alignments"].append(draw(links.map(frozenset) | links))
    return columns


@settings(max_examples=200, deadline=None)
@given(data=st.data(), stream=st.sampled_from([Stream.WORDS, Stream.SOURCE]))
def test_corpus_aligned_words_equal_the_per_entry_reference(data, stream):
    columns = data.draw(aligned_columns(stream))
    table = build_instances(TaggedCorpus.from_rows(**columns), stream)
    got = position_words(table)
    key_index = 1 if stream is Stream.WORDS else 0
    if "alignments" not in columns:
        assert got == [()] * len(table.tokens)
        return
    want = []
    for mt, src, pairs in zip(columns["mt"], columns["src"], columns["alignments"]):
        keys, others = (mt, src) if stream is Stream.WORDS else (src, mt)
        want += reference_aligned_words(others.tokens, set(pairs), key_index, 1 - key_index, len(keys))
    assert got == want


def test_gap_instances_use_flanking_words():
    corpus = build_tiny_corpus()
    table = build_instances(corpus, Stream.GAPS)
    assert list(table) == [["<s>|das", "das|haus", "haus|</s>"]]
    assert position_words(table) == [()] * 3
    assert gold_tags(corpus, Stream.GAPS) == [[OK, OK, BAD]]


def test_source_instances_reverse_the_alignment():
    corpus = build_tiny_corpus()
    table = build_instances(corpus, Stream.SOURCE)
    assert list(table) == [["the", "house", "!"]]
    assert position_words(table) == [("das",), ("haus",), ("haus",)]
    assert gold_tags(corpus, Stream.SOURCE) == [[OK, BAD, OK]]


def test_stacked_probs_follow_the_requested_stream():
    corpus = build_tiny_corpus()
    preds = PredictionSet(
        system_id="s1",
        word_probs=((0.1, 0.9),),
        gap_probs=((0.2, 0.3, 0.4),),
    )
    def stacked(stream):
        table = build_instances(corpus, stream, predictions=[preds])
        return [(system_id, values.tolist()) for system_id, values in table.stacked]

    assert stacked(Stream.WORDS) == [("s1", [0.1, 0.9])]
    assert stacked(Stream.GAPS) == [("s1", [0.2, 0.3, 0.4])]
    # systems without the stream are skipped rather than imputed
    assert stacked(Stream.SOURCE) == []


@pytest.mark.parametrize("rows", [[[0.1, 0.2]], [[0.1, 0.2], [0.3], [0.5]], [[0.1, 0.2], [0.3]]])
def test_stacked_streams_and_extra_columns_must_match_the_corpus(rows):
    # once, fewer sentences than the corpus raised a bare IndexError and
    # more were cut to the corpus
    corpus = TaggedCorpus.from_rows(**tiny_columns(2))
    lengths = [len(row) for row in rows]
    with pytest.raises(LengthMismatch, match="system 's1'"):
        build_instances(corpus, Stream.WORDS, predictions=[PredictionSet("s1", rows)])
    with pytest.raises(LengthMismatch, match="extra column"):
        build_instances(corpus, Stream.WORDS, extra_columns=[[("X",) * n for n in lengths]])
    table = build_instances(
        corpus, Stream.WORDS, predictions=[PredictionSet("s1", [[0.1, 0.2]] * 2)], extra_columns=[[("X", "Y")] * 2]
    )
    assert (len(table), table.extra, table.stacked[0][1].tolist()) == (2, (["X", "Y"] * 2,), [0.1, 0.2] * 2)


def test_rows_of_another_length_are_an_error_naming_the_entry():
    corpus = TaggedCorpus.from_rows(**tiny_columns(2))
    cases = [
        (lambda: build_instances(corpus, Stream.WORDS, predictions=[PredictionSet("s1", [[0.1, 0.2], [0.3]])]),
         "entry 2: system 's1' words stream: expected 2 entries, got 1"),
        (lambda: build_instances(corpus, Stream.GAPS, predictions=[PredictionSet("s1", [[0.1]], gap_probs=[[0.1]])]),
         "system 's1' gaps stream has 1 rows, expected 2"),
        (lambda: build_instances(corpus, Stream.WORDS, extra_columns=[[("X", "Y"), ("X",)]]),
         "entry 2: extra column: expected 2 entries, got 1"),
        (lambda: mira_train([make_instance(["a", "b"])] * 2, [[OK, BAD]]), "gold labeling has 1 rows, expected 2"),
        (lambda: mira_train([make_instance(["a", "b"])], [[OK]]), "entry 1: gold labeling: expected 2 entries, got 1"),
    ]
    for call, message in cases:
        with pytest.raises(LengthMismatch) as caught:
            call()
        assert str(caught.value) == message


# --- misuse ---------------------------------------------------------------------


def _misuse_cases():
    bare = TaggedCorpus(mt=(Sentence(("a", "b")),))
    two = make_instance(["a", "b"])
    under_ids = [make_instance(["a"], stacked=((system_id, (0.5,)),)) for system_id in "st"]
    return {
        "instance without tokens": (EmptyInput, lambda: make_instance([])),
        "aligned words per position": (LengthMismatch, lambda: make_instance(["a", "b"], aligned=(("x",),))),
        "extra column per position": (LengthMismatch, lambda: make_instance(["a", "b"], extra=(("x",),))),
        "stacked probabilities per position": (
            LengthMismatch, lambda: make_instance(["a", "b"], stacked=(("s", (0.5,)),)),
        ),
        "gold labelings per instance": (LengthMismatch, lambda: mira_train([two, two], [[OK, BAD]])),
        "gold labeling length": (LengthMismatch, lambda: mira_train([two], [[OK]])),
        "C not a number": (RangeError, lambda: mira_train([two], [[OK, BAD]], C=math.nan)),
        "gamma not finite in predict": (RangeError, lambda: predict([two], LinearModel({}), gamma=math.nan)),
        "gamma not finite in jackknife": (RangeError, lambda: jackknife([two, two], [[OK, BAD]] * 2, 2, gamma=math.inf)),
        "source stream without source": (MissingStream, lambda: build_instances(bare, Stream.SOURCE)),
        "unknown stream": (MissingStream, lambda: build_instances(bare, "words")),
        "gold without source tags": (MissingStream, lambda: gold_tags(bare, Stream.SOURCE)),
        "gold without target tags": (MissingStream, lambda: gold_tags(bare, Stream.WORDS)),
        "instances of mixed shapes": (
            InvalidInput, lambda: InstanceTable.of([two, make_instance(["a"], extra=(("x",),))]),
        ),
        "instances under other system ids": (InvalidInput, lambda: predict(under_ids, LinearModel({}))),
        "stacked probability not finite": (
            RangeError, lambda: predict([make_instance(["a"], stacked=(("s", (math.nan,)),))], LinearModel({})),
        ),
        "hter of an empty post-edit": (RangeError, lambda: hter([], 0)),
        "label without a post-edit": (MissingStream, lambda: label_corpus(bare)),
    }


@pytest.mark.parametrize("case", sorted(_misuse_cases()))
def test_misuse_raises_a_toolkit_error_of_its_own_class(case):
    error, call = _misuse_cases()[case]
    with pytest.raises(QEStackError) as caught:
        call()
    assert type(caught.value) is error
