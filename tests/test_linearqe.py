import hashlib
import itertools
import random
from collections import Counter

import pytest

from qestack.corpus import (
    PredictionSet,
    Sentence,
    SourceTags,
    Stream,
    TaggedCorpus,
    Tag,
    TargetTags,
    Entry,
)
from qestack.ensemble import FoldPlan
from qestack.linearqe import (
    FeatureConfig,
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

from conftest import random_token

OK, BAD = Tag.OK, Tag.BAD


def make_instance(tokens, **kwargs):
    return SequenceInstance(tokens=tuple(tokens), **kwargs)


def brute_force(inst, model, cost_gold=None):
    """Enumerate all 2^N labelings, scoring each by direct feature summation."""
    best_seq, best_score = None, None
    for combo in itertools.product((OK, BAD), repeat=len(inst)):
        score = 0.0
        prev = None
        for i, label in enumerate(combo):
            for key in extract_features(inst, i, label, prev, model.config):
                score += model.weights.get(key, 0.0)
            if cost_gold is not None and label is not cost_gold[i]:
                score += 1.0
            prev = label
        if best_score is None or score > best_score:
            best_seq, best_score = list(combo), score
    return best_seq, best_score


def random_model(rng, inst, config=None):
    config = config or FeatureConfig()
    weights = {}
    for i in range(len(inst)):
        for label in (OK, BAD):
            for prev in (None, OK, BAD):
                for key in extract_features(inst, i, label, prev, config):
                    if key not in weights:
                        weights[key] = rng.gauss(0.0, 1.0)
    return LinearModel(weights=weights, config=config)


def random_instance(rng, max_len=8, alphabet="abcdef"):
    n = rng.randint(1, max_len)
    return make_instance([random_token(rng, alphabet) for _ in range(n)])


# --- features ---------------------------------------------------------------


def test_first_position_uses_left_sentinel():
    inst = make_instance(["ein", "haus"])
    names = feature_strings(inst, 0, OK, None, FeatureConfig())
    assert "w-1=<s>∧OK" in names
    assert "w+1=haus∧OK" in names
    last = feature_strings(inst, 1, BAD, OK, FeatureConfig())
    assert "w+1=</s>∧BAD" in last
    assert "g=OK∧BAD" in last


def test_stacked_probability_binning():
    inst = make_instance(["x"], stacked=(("sys1", (0.73,)),))
    names = feature_strings(inst, 0, BAD, None, FeatureConfig(bins=10))
    assert "s:sys1:b7∧BAD" in names
    # p = 1.0 falls into the top bin, not a bin of its own
    top = make_instance(["x"], stacked=(("sys1", (1.0,)),))
    assert "s:sys1:b9∧BAD" in feature_strings(top, 0, BAD, None, FeatureConfig(bins=10))


def test_feature_extraction_is_deterministic():
    inst = make_instance(["a", "b", "c"], aligned=(("u",), (), ("v", "w")))
    first = extract_features(inst, 1, BAD, OK, FeatureConfig())
    second = extract_features(inst, 1, BAD, OK, FeatureConfig())
    assert first == second
    assert all(isinstance(k, int) and 0 <= k < 2**64 for k in first)


def test_template_toggles_change_the_feature_set():
    inst = make_instance(["a", "b"])
    full = set(feature_strings(inst, 0, OK, None, FeatureConfig()))
    no_ctx = set(feature_strings(inst, 0, OK, None, FeatureConfig(use_context=False)))
    assert no_ctx < full
    assert not any(name.startswith("w-1=") for name in no_ctx)


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
    config = FeatureConfig(use_bigram=False)
    for _ in range(30):
        inst = random_instance(rng)
        model = random_model(rng, inst, config)
        tags, _ = viterbi(inst, model)
        for i, tag in enumerate(tags):
            scores = {}
            for label in (OK, BAD):
                scores[label] = sum(
                    model.weights.get(k, 0.0) for k in extract_features(inst, i, label, None, config)
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


def test_raising_bad_bias_never_lowers_probabilities():
    rng = random.Random(9)
    inst = random_instance(rng)
    model = random_model(rng, inst)
    base = predict_probs(inst, model)
    bias_key = fnv1a64("b∧BAD")
    boosted = dict(model.weights)
    boosted[bias_key] = boosted.get(bias_key, 0.0) + 2.5
    higher = predict_probs(inst, LinearModel(weights=boosted, config=model.config))
    assert all(h >= b - 1e-12 for h, b in zip(higher, base))


def test_thresholded_probabilities_match_viterbi_without_bigram():
    rng = random.Random(10)
    config = FeatureConfig(use_bigram=False)
    for _ in range(40):
        inst = random_instance(rng)
        model = random_model(rng, inst, config)
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


@pytest.mark.parametrize("average", [True, False])
def test_jackknife_folds_equal_predict_with_mira_train_on_the_rest(average):
    rng = random.Random(16)
    instances, golds = noisy_data(rng, 20)
    options = {"epochs": 3, "C": 0.5, "seed": 7, "config": FeatureConfig(bins=4), "average": average}
    tags, probs = jackknife(instances, golds, 3, gamma=0.7, **options)
    bounds = FoldPlan.contiguous(len(instances), 3).bounds()
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

    class CountingCompiled(linearqe._Compiled):
        __slots__ = ()

        def __init__(self, inst, *args):
            builds.append(inst)
            super().__init__(inst, *args)

    monkeypatch.setattr(linearqe, "_Compiled", CountingCompiled)
    instances, golds = noisy_data(random.Random(17), 12)
    jackknife(instances, golds, 4, epochs=2)
    assert len(builds) == len(instances)
    model = mira_train(instances, golds, epochs=1)
    builds.clear()
    predict(instances, model)
    assert len(builds) == len(instances)


def reference_mira(instances, golds, config, *, epochs, C, seed):
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
            pred, augmented = reference_viterbi(inst, w, config, cost_gold=gold)
            if pred == gold:
                continue
            gold_score, prev = 0.0, None
            for i, label in enumerate(gold):
                for key in extract_features(inst, i, label, prev, config):
                    gold_score += w.get(key, 0.0)
                prev = label
            violation = augmented - gold_score
            if violation <= 0.0:
                continue
            delta = Counter()
            prev_g = prev_p = None
            for i in range(len(inst)):
                delta.update(extract_features(inst, i, gold[i], prev_g, config))
                delta.subtract(extract_features(inst, i, pred[i], prev_p, config))
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


def reference_viterbi(inst, w, config, cost_gold=None):
    """First-order Viterbi over dict weights; the bigram key is the last of
    ``extract_features``. Ties break toward OK."""
    labels = (OK, BAD)

    def unigram(i, label):
        keys = extract_features(inst, i, label, None, config)
        s = 0.0
        for key in keys[:-1] if config.use_bigram else keys:
            s += w.get(key, 0.0)
        return s + 1.0 if cost_gold is not None and label is not cost_gold[i] else s

    def transition(prev, label):
        return w.get(extract_features(inst, 0, label, prev, config)[-1], 0.0) if config.use_bigram else 0.0

    delta = [[unigram(0, label) + transition(None, label) for label in labels]]
    back = []
    for i in range(1, len(inst)):
        row, pointers = [], []
        for label in labels:
            ok, bad = (delta[-1][p] + transition(prev, label) for p, prev in enumerate(labels))
            pointers.append(1 if bad > ok else 0)
            row.append(unigram(i, label) + (bad if bad > ok else ok))
        delta.append(row)
        back.append(pointers)
    best = 0 if delta[-1][0] >= delta[-1][1] else 1
    path = [best]
    for pointers in reversed(back):
        path.append(pointers[path[-1]])
    return [labels[l] for l in reversed(path)], delta[-1][best]


def test_colliding_feature_strings_share_one_weight(monkeypatch):
    import qestack.linearqe as linearqe

    full_hash = linearqe.fnv1a64
    monkeypatch.setattr(linearqe, "fnv1a64", lambda text: full_hash(text) % 8)
    instances, golds = noisy_data(random.Random(19), 12)
    config = FeatureConfig(bins=3)
    options = {"epochs": 3, "C": 0.5, "seed": 5, "config": config}
    model = mira_train(instances, golds, **options)
    assert model.weights == reference_mira(instances, golds, **options)
    assert predict(instances, model)[0] == [reference_viterbi(inst, model.weights, config)[0] for inst in instances]

    tags, probs = jackknife(instances, golds, 3, **options)
    lo, hi = FoldPlan.contiguous(len(instances), 3).bounds()[1]
    rest = reference_mira(instances[:lo] + instances[hi:], golds[:lo] + golds[hi:], **options)
    assert (tags[lo:hi], probs[lo:hi]) == predict(instances[lo:hi], LinearModel(rest, config))


def test_model_file_and_jackknife_probabilities_keep_their_bytes(tmp_path):
    instances, golds = noisy_data(random.Random(18), 30)
    options = {"epochs": 3, "C": 0.5, "seed": 7, "config": FeatureConfig(bins=4)}
    path = tmp_path / "m.model"
    save_model(mira_train(instances, golds, **options), path)
    _, probs = jackknife(instances, golds, 3, gamma=0.7, **options)
    # sha256 of the bytes written by commit 84d017e (dict-keyed MIRA)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "41b056f7df44a462f3897c7da611bdf3dac904144f8dc8742c712e91fa8844b2"
    )
    assert hashlib.sha256(repr(probs).encode()).hexdigest() == (
        "b3f8c5e184c32cb22bcae3f12b3145b02152a9a2bc2fe338105cc2575a1fc17a"
    )


def test_jackknife_rejects_too_few_sentences():
    with pytest.raises(ValueError):
        jackknife([make_instance(["a"])], [[OK]], 2)


def test_parallel_jackknife_matches_sequential_output():
    rng = random.Random(15)
    instances, golds = separable_data(rng, 18, ["a", "b"], ["c", "d"])
    sequential = jackknife(instances, golds, 3, epochs=2, C=1.0, seed=3, jobs=1)
    parallel = jackknife(instances, golds, 3, epochs=2, C=1.0, seed=3, jobs=2)
    assert parallel == sequential


# --- serialization ----------------------------------------------------------


def test_model_round_trip(tmp_path):
    rng = random.Random(14)
    inst = random_instance(rng)
    model = random_model(rng, inst)
    path = tmp_path / "model.txt"
    save_model(model, path)
    loaded = load_model(path, config=model.config)
    assert loaded.weights == model.weights
    keys = [int(line.split("\t")[0]) for line in path.read_text().splitlines()]
    assert keys == sorted(keys)


# --- corpus to instances ----------------------------------------------------


def build_tiny_corpus():
    entry = Entry(
        mt=Sentence(("das", "haus")),
        src=Sentence(("the", "house", "!")),
        target_tags=TargetTags(word_tags=(OK, BAD), gap_tags=(OK, OK, BAD)),
        source_tags=SourceTags((OK, BAD, OK)),
        alignments=frozenset({(0, 0), (1, 1), (2, 1)}),
    )
    return TaggedCorpus((entry,))


def test_word_instances_carry_aligned_source_words():
    corpus = build_tiny_corpus()
    inst = build_instances(corpus, Stream.WORDS)[0]
    assert inst.tokens == ("das", "haus")
    assert inst.aligned == (("the",), ("house", "!"))
    assert gold_tags(corpus, Stream.WORDS) == [[OK, BAD]]


def test_gap_instances_use_flanking_words():
    corpus = build_tiny_corpus()
    inst = build_instances(corpus, Stream.GAPS)[0]
    assert inst.tokens == ("<s>|das", "das|haus", "haus|</s>")
    assert gold_tags(corpus, Stream.GAPS) == [[OK, OK, BAD]]


def test_source_instances_reverse_the_alignment():
    corpus = build_tiny_corpus()
    inst = build_instances(corpus, Stream.SOURCE)[0]
    assert inst.tokens == ("the", "house", "!")
    assert inst.aligned == (("das",), ("haus",), ("haus",))
    assert gold_tags(corpus, Stream.SOURCE) == [[OK, BAD, OK]]


def test_stacked_probs_follow_the_requested_stream():
    corpus = build_tiny_corpus()
    preds = PredictionSet(
        system_id="s1",
        word_probs=((0.1, 0.9),),
        gap_probs=((0.2, 0.3, 0.4),),
    )
    word_inst = build_instances(corpus, Stream.WORDS, predictions=[preds])[0]
    assert word_inst.stacked == (("s1", (0.1, 0.9)),)
    gap_inst = build_instances(corpus, Stream.GAPS, predictions=[preds])[0]
    assert gap_inst.stacked == (("s1", (0.2, 0.3, 0.4)),)
    # systems without the stream are skipped rather than imputed
    source_inst = build_instances(corpus, Stream.SOURCE, predictions=[preds])[0]
    assert source_inst.stacked == ()
