"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line on the real stdout so the outcome is visible even under capture.

Criterion 10 needs the official shared-task data and is skipped unless
``QESTACK_WMT19_DATA`` points at a directory laid out as described in the
README (en-de/train.{src,mt,pe}, en-ru/train.{src,mt,pe}, annotations.tsv).
"""

import math
import os
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from qestack.cli import main
from qestack.corpus import PredictionSet, Stream, load_corpus
from qestack.doclevel import (
    AnnotationStats,
    AnnotationTable,
    Document,
    Severity,
    annotation_stats,
    annotations_to_tags,
    mqm_closed_form,
    read_annotations,
    tags_to_annotations,
)
from qestack.ensemble import (
    fit_word_ensemble,
    kfold_estimate,
    ridge_cv,
    ridge_fit,
)
from qestack.labeler import align_edit, edit_cost, hter, tags_from_edits
from qestack.linearqe import mira_train, viterbi
from qestack.metrics import f1_mult, mcc, pearson, threshold

from conftest import complementary_systems, fold_specialist_systems, random_sentence, random_token
from doclevel_reference import annotation_rows
from test_doclevel import random_doc_with_clean_annotations
from test_ensemble import ridge_oracle, simplex_grid_best
from test_labeler import levenshtein
from test_linearqe import brute_force, random_instance, random_model, separable_data
from test_metrics import oracle_f1, oracle_mcc, oracle_pearson, random_tag_pair

OK, BAD = False, True


@pytest.fixture
def criterion(request):
    """Context manager printing one PASS/FAIL/SKIP line per criterion on the
    live terminal, bypassing pytest's output capture."""
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def announce(line):
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print(line, flush=True)
        else:
            print(line, flush=True)

    @contextmanager
    def _criterion(number, description):
        start = time.perf_counter()
        try:
            yield
        except BaseException as exc:
            verdict = "SKIP" if isinstance(exc, pytest.skip.Exception) else "FAIL"
            announce(f"\n[acceptance] criterion {number:>2}: {verdict}  {description}")
            raise
        elapsed = time.perf_counter() - start
        announce(f"\n[acceptance] criterion {number:>2}: PASS  {description} ({elapsed:.2f}s)")

    return _criterion


def test_criterion_01_metric_oracle_equivalence(criterion):
    with criterion(1, "metrics match brute-force oracles (1e-12) and hand-worked values (1e-9)"):
        start = time.perf_counter()
        rng = random.Random(101)
        for _ in range(1000):
            gold, pred = random_tag_pair(rng, rng.randint(1, 120))
            got = f1_mult(gold, pred)
            ok, bad, mult = oracle_f1(gold, pred)
            assert abs(got.f1_ok - ok) < 1e-12
            assert abs(got.f1_bad - bad) < 1e-12
            assert abs(got.f1_mult - mult) < 1e-12
            assert abs(mcc(gold, pred) - oracle_mcc(gold, pred)) < 1e-12

            n = rng.randint(2, 60)
            x = [rng.uniform(-40, 40) for _ in range(n)]
            y = [rng.uniform(-40, 40) for _ in range(n)]
            if len(set(x)) > 1 and len(set(y)) > 1:
                assert abs(pearson(x, y) - oracle_pearson(x, y)) < 1e-12

        hand = f1_mult([OK, BAD, OK, OK], [OK, BAD, BAD, OK])
        assert abs(hand.f1_mult - 8 / 15) < 1e-9
        assert abs(mcc([OK, BAD, OK, OK], [OK, BAD, BAD, OK]) - 2 / math.sqrt(12)) < 1e-9
        assert abs(pearson([1, 2, 3, 4], [1, 3, 2, 4]) - 0.8) < 1e-9
        assert time.perf_counter() - start < 5.0


def test_criterion_02_edit_labeling(criterion):
    with criterion(2, "edit alignment matches the Levenshtein oracle; HTER and tag placement exact"):
        start = time.perf_counter()
        rng = random.Random(102)
        for _ in range(1000):
            mt = random_sentence(rng, 1, 12, alphabet="abcde")
            pe = random_sentence(rng, 1, 12, alphabet="abcde")
            script = align_edit(mt, pe)
            assert edit_cost(script) == levenshtein(list(mt), list(pe))

        def sent(text):
            from qestack.corpus import Sentence

            return Sentence(tuple(text.split()))

        assert hter(align_edit(sent("a b c"), sent("a c")), 2) == 0.5
        assert hter(align_edit(sent("a b"), sent("x y z")), 3) == 1.0

        tags = tags_from_edits(align_edit(sent("a b c"), sent("a c")), 3)
        assert tags[1::2] == (OK, BAD, OK)
        assert tags[0::2] == (OK, OK, OK, OK)
        tags = tags_from_edits(align_edit(sent("a c"), sent("a b c")), 2)
        assert tags[1::2] == (OK, OK)
        assert tags[0::2] == (OK, BAD, OK)
        assert time.perf_counter() - start < 10.0


def test_criterion_03_viterbi_exactness(criterion):
    with criterion(3, "Viterbi equals exhaustive enumeration over 2^N labelings (1e-9)"):
        from qestack.linearqe import SequenceInstance

        rng = random.Random(103)
        for case in range(200):
            # spread lengths over 1..12, pinning every 10th case to the N=12 bound
            n = 12 if case % 10 == 0 else rng.randint(1, 12)
            inst = SequenceInstance(tokens=tuple(random_token(rng, "abcdef") for _ in range(n)))
            model = random_model(rng, inst)
            gold = [rng.choice((OK, BAD)) for _ in range(len(inst))] if case % 3 == 0 else None
            seq, score = viterbi(inst, model, cost_gold=gold)
            bf_seq, bf_score = brute_force(inst, model, cost_gold=gold)
            assert abs(score - bf_score) < 1e-9
            assert seq == bf_seq


def test_criterion_04_mira_learning(criterion):
    with criterion(4, "MIRA reaches 100% training accuracy in 10 epochs; reruns bit-identical"):
        rng = random.Random(104)
        ok_vocab = [f"g{i}" for i in range(30)]
        bad_vocab = [f"b{i}" for i in range(30)]
        instances, golds = separable_data(rng, 500, ok_vocab, bad_vocab, min_len=3, max_len=12)
        model = mira_train(instances, golds, epochs=10, C=1.0, seed=7)
        correct = total = 0
        for inst, gold in zip(instances, golds):
            pred, _ = viterbi(inst, model)
            correct += sum(p is g for p, g in zip(pred, gold))
            total += len(gold)
        assert correct == total

        rerun = mira_train(instances, golds, epochs=10, C=1.0, seed=7)
        assert rerun.weights == model.weights


def test_criterion_05_powell_vs_grid_oracle(criterion):
    with criterion(5, "Powell fit reaches the simplex-grid oracle (0.005) and never loses to a single system"):
        start = time.perf_counter()
        for trial in range(20):
            rng = random.Random(500 + trial)
            # a few hundred sentences keep the thresholded objective fine-grained
            # enough that one flipped tag costs well under the 0.005 tolerance
            preds, gold = complementary_systems(rng, n_sentences=300)
            fit = fit_word_ensemble(preds, gold, Stream.WORDS)
            grid = simplex_grid_best(preds, gold, Stream.WORDS)
            assert fit.f1 >= grid - 0.005

            gold_flat = [t for row in gold for t in row]
            for p in preds:
                tags = [t for row in p.word_probs for t in threshold(row, 0.5)]
                assert fit.f1 >= f1_mult(gold_flat, tags).f1_mult - 1e-12
        assert time.perf_counter() - start < 60.0


def test_criterion_06_kfold_protocol(criterion):
    with criterion(6, "10-fold estimate: exact for duplicated systems, below the refit score on average"):
        rng = random.Random(106)
        clones_src, gold = complementary_systems(rng, n_sentences=40, n_systems=1)
        clones = [
            PredictionSet(system_id=f"c{i}", word_probs=clones_src[0].word_probs)
            for i in range(4)
        ]
        estimate = kfold_estimate(clones, gold, 10, Stream.WORDS)
        gold_flat = [t for row in gold for t in row]
        single_tags = [t for row in clones_src[0].word_probs for t in threshold(row, 0.5)]
        assert estimate == f1_mult(gold_flat, single_tags).f1_mult

        gaps = []
        for seed in range(50):
            rng = random.Random(6000 + seed)
            preds, gold = fold_specialist_systems(rng, n_sentences=60, k=10)
            est = kfold_estimate(preds, gold, 10, Stream.WORDS, max_cycles=6)
            refit = fit_word_ensemble(preds, gold, Stream.WORDS, max_cycles=6).f1
            gaps.append(refit - est)
        mean_gap = sum(gaps) / len(gaps)
        assert mean_gap > 0.0


def test_criterion_07_ridge(criterion):
    with criterion(7, "ridge matches the elimination oracle (1e-8); limits and CV selection behave"):
        rng = random.Random(107)
        checked = 0
        while checked < 100:
            n, d = rng.randint(8, 40), rng.randint(1, 5)
            X = [[rng.uniform(-2, 2) for _ in range(d)] for _ in range(n)]
            y = [rng.uniform(-2, 2) for _ in range(n)]
            lam = rng.choice([0.0, 0.01, 0.1, 1.0, 10.0])
            model = ridge_fit(X, y, lam)
            expected = ridge_oracle(X, y, lam)
            assert np.allclose(
                list(model.coefficients) + [model.intercept], expected, atol=1e-8
            )
            checked += 1

        X = [[rng.uniform(-1, 1) for _ in range(3)] for _ in range(50)]
        y = [sum(row) + 0.25 for row in X]
        huge = ridge_fit(X, y, 1e9)
        assert max(abs(c) for c in huge.coefficients) < 1e-6

        noiseless_y = [3 * row[0] - 2 * row[1] + row[2] + 1 for row in X]
        lam, _ = ridge_cv(X, noiseless_y, [1e-6, 1e-3, 1.0, 100.0], k=5, seed=3)
        assert lam == 1e-6


def test_criterion_08_document_round_trip(criterion):
    with criterion(8, "span->tag->span is the identity for clean annotations; multi-span splits in two"):
        rng = random.Random(108)
        for _ in range(500):
            doc, annotations = random_doc_with_clean_annotations(rng)
            recovered = tags_to_annotations(doc, annotations_to_tags(doc, annotations))
            # the same spans, annotation by annotation, each recovered one MAJOR
            assert annotation_rows(recovered) == [(Severity.MAJOR, spans) for _, spans in annotation_rows(annotations)]

        doc = Document.from_sentences(["les bandes sont parfaits ici"])
        multi = AnnotationTable.from_rows([Severity.MINOR], [[(0, 4, 10), (0, 16, 24)]])
        recovered = tags_to_annotations(doc, annotations_to_tags(doc, multi))
        assert len(recovered) == 2


def test_criterion_09_mqm_closed_form(criterion):
    with criterion(9, "MQM worked examples exact; affine and monotone in every severity count"):
        assert mqm_closed_form({Severity.MINOR: 1, Severity.MAJOR: 2}, 100) == pytest.approx(89.0, abs=1e-12)
        assert mqm_closed_form({Severity.CRITICAL: 2}, 10) == pytest.approx(-100.0, abs=1e-12)

        rng = random.Random(109)
        for _ in range(1000):
            counts = {s: rng.randint(0, 30) for s in Severity}
            n_words = rng.randint(1, 500)
            base = mqm_closed_form(counts, n_words)
            for severity in Severity:
                weight = {Severity.MINOR: 1.0, Severity.MAJOR: 5.0, Severity.CRITICAL: 10.0}[severity]
                bumped = dict(counts)
                bumped[severity] += 1
                higher = mqm_closed_form(bumped, n_words)
                # affine: one extra error shifts the score by exactly its weight share
                assert higher - base == pytest.approx(-100.0 * weight / n_words, abs=1e-9)
                # monotone: more errors never raise the score
                assert higher <= base


def test_criterion_10_dataset_statistics(criterion):
    with criterion(10, "official dataset statistics (needs QESTACK_WMT19_DATA)"):
        root = os.environ.get("QESTACK_WMT19_DATA")
        if not root:
            pytest.skip("QESTACK_WMT19_DATA not set; official shared-task data unavailable")
        en_de = load_corpus(
            mt=os.path.join(root, "en-de", "train.mt"),
            src=os.path.join(root, "en-de", "train.src"),
            pe=os.path.join(root, "en-de", "train.pe"),
        )
        assert len(en_de) == 13442
        en_ru = load_corpus(
            mt=os.path.join(root, "en-ru", "train.mt"),
            src=os.path.join(root, "en-ru", "train.src"),
            pe=os.path.join(root, "en-ru", "train.pe"),
        )
        assert len(en_ru) == 15089

        by_doc = read_annotations(os.path.join(root, "annotations.tsv"))
        # the corpus's statistics are the sums of each document's
        per_doc = [annotation_stats(table) for table in by_doc.values()]
        stats = AnnotationStats(
            total=sum(s.total for s in per_doc),
            multi_span=sum(s.multi_span for s in per_doc),
            cross_sentence=sum(s.cross_sentence for s in per_doc),
            severity_counts={sev: sum(s.severity_counts[sev] for s in per_doc) for sev in Severity},
        )
        assert stats.total == 36242
        assert stats.multi_span == 4170
        assert stats.cross_sentence == 149
        percentages = stats.severity_percentages()
        assert round(percentages[Severity.MAJOR], 2) == 84.12
        assert round(percentages[Severity.MINOR], 2) == 11.74
        assert round(percentages[Severity.CRITICAL], 2) == 4.14


def test_criterion_11_end_to_end_smoke(criterion, tmp_path):
    with criterion(11, "full synthetic pipeline through the CLI in under 60 s"):
        start = time.perf_counter()
        rng = random.Random(111)

        # 200-sentence synthetic corpus: MT with injected errors against a PE
        mt_lines, pe_lines = [], []
        for _ in range(200):
            pe = [random_token(rng, "abcdefgh") for _ in range(rng.randint(3, 9))]
            mt = [tok if rng.random() > 0.25 else random_token(rng, "abcdefgh") for tok in pe]
            if rng.random() < 0.3:
                mt = mt[:-1] or mt
            mt_lines.append(" ".join(mt))
            pe_lines.append(" ".join(pe))
        mt_path = tmp_path / "c.mt"
        pe_path = tmp_path / "c.pe"
        mt_path.write_text("".join(line + "\n" for line in mt_lines))
        pe_path.write_text("".join(line + "\n" for line in pe_lines))

        labels = tmp_path / "gold"
        assert main(["make-labels", "--mt", str(mt_path), "--pe", str(pe_path), "--out-prefix", str(labels)]) == 0

        model = tmp_path / "linear.model"
        assert main([
            "linear", "train", "--mt", str(mt_path), "--tags", f"{labels}.tags",
            "--model", str(model), "--epochs", "3",
        ]) == 0

        linear_pred = tmp_path / "linear_oof"
        assert main([
            "linear", "jackknife", "--mt", str(mt_path), "--tags", f"{labels}.tags",
            "--out-prefix", str(linear_pred), "--epochs", "2", "--k", "5",
        ]) == 0

        # a second, noisier system plus per-system sentence scores
        gold_corpus = load_corpus(mt=str(mt_path), tags=f"{labels}.tags", hter=f"{labels}.hter")
        noisy_path = tmp_path / "noisy.probs"
        with open(noisy_path, "w") as handle:
            for tags in gold_corpus.tags:
                row = [
                    min(1.0, max(0.0, (0.8 if t is BAD else 0.2) + rng.uniform(-0.3, 0.3)))
                    for t in tags[1::2]
                ]
                handle.write(" ".join(repr(p) for p in row) + "\n")
        scores_path = tmp_path / "noisy.scores"
        with open(scores_path, "w") as handle:
            for value in gold_corpus.hter.tolist():
                handle.write(f"{min(1.0, max(0.0, value + rng.uniform(-0.2, 0.2)))!r}\n")

        manifest = tmp_path / "manifest.tsv"
        manifest.write_text(
            f"linear\twords={linear_pred.name}.probs\n"
            f"noisy\twords={noisy_path.name}\tsentences={scores_path.name}\n"
        )

        weights = tmp_path / "weights.tsv"
        assert main([
            "ensemble-word", "fit", "--manifest", str(manifest), "--mt", str(mt_path),
            "--gold", f"{labels}.tags", "--stream", "words", "--out", str(weights),
        ]) == 0

        combined = tmp_path / "combined.probs"
        assert main([
            "ensemble-word", "apply", "--manifest", str(manifest), "--mt", str(mt_path),
            "--weights", str(weights), "--stream", "words", "--out", str(combined),
        ]) == 0

        sent_model = tmp_path / "sent.model"
        assert main([
            "ensemble-sent", "fit", "--manifest", str(manifest), "--mt", str(mt_path),
            "--gold-scores", f"{labels}.hter", "--out", str(sent_model),
        ]) == 0
        sent_scores = tmp_path / "sent.scores"
        assert main([
            "ensemble-sent", "apply", "--manifest", str(manifest), "--mt", str(mt_path),
            "--model", str(sent_model), "--out", str(sent_scores),
        ]) == 0

        assert main([
            "evaluate", "--gold", f"{labels}.tags", "--pred", f"{labels}.tags",
        ]) == 0
        assert main([
            "--format", "kv", "evaluate", "--stream", "words",
            "--gold", f"{labels}.tags", "--pred", str(combined),
        ]) == 0
        assert main([
            "--format", "kv", "evaluate", "--stream", "sentence",
            "--gold", f"{labels}.hter", "--pred", str(sent_scores),
        ]) == 0

        assert time.perf_counter() - start < 60.0
