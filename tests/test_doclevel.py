import random

import pytest

from qestack.doclevel import (
    Annotation,
    AnnotationStats,
    Document,
    Severity,
    Span,
    annotation_f1,
    annotation_stats,
    annotations_to_tags,
    doc_mqm_features,
    fit_doc_mqm,
    mqm_closed_form,
    predict_doc_mqm,
    read_annotations,
    read_document_manifest,
    tags_to_annotations,
    tokenize_with_offsets,
    write_annotations,
)
from qestack.errors import LengthMismatch, ParseError, SpanOutOfBounds

from conftest import interleave, random_token

OK, BAD = False, True
MINOR, MAJOR, CRITICAL = Severity.MINOR, Severity.MAJOR, Severity.CRITICAL


def ann(severity, *spans):
    return Annotation(severity=severity, spans=tuple(Span(*s) for s in spans))


# --- tokenization -------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("ab cd", [(0, 2), (3, 5)]),
        ("  a  ", [(2, 3)]),
        ("", []),
        ("one\ttwo three", [(0, 3), (4, 7), (8, 13)]),
    ],
)
def test_tokenize_with_offsets(text, expected):
    offsets = tokenize_with_offsets(text)
    assert offsets == expected
    for start, end in offsets:
        assert text[start:end].split() == [text[start:end]]


# --- annotations -> tags --------------------------------------------------------


def test_span_covering_a_token_marks_it_bad():
    doc = Document.from_sentences(["aa bb cc dd"])
    tags = annotations_to_tags(doc, [ann(MAJOR, (0, 6, 8))])
    assert tuple(tags[0][1::2]) == (OK, OK, BAD, OK)
    assert set(tags[0][0::2]) == {OK}


def test_partial_character_overlap_marks_the_whole_token():
    doc = Document.from_sentences(["aa bb cc"])
    tags = annotations_to_tags(doc, [ann(MINOR, (0, 4, 5))])
    assert tuple(tags[0][1::2]) == (OK, BAD, OK)


def test_span_matching_gap_borders_marks_the_gap_only():
    doc = Document.from_sentences(["ab cd"])
    tags = annotations_to_tags(doc, [ann(MAJOR, (0, 2, 3))])
    assert tuple(tags[0][1::2]) == (OK, OK)
    assert tuple(tags[0][0::2]) == (OK, BAD, OK)


def test_edge_gaps_use_sentence_borders():
    doc = Document.from_sentences([" ab cd "])
    # sentence start .. first token start
    tags = annotations_to_tags(doc, [ann(MAJOR, (0, 0, 1))])
    assert tuple(tags[0][0::2]) == (BAD, OK, OK)
    # last token end .. sentence end
    tags = annotations_to_tags(doc, [ann(MAJOR, (0, 6, 7))])
    assert tuple(tags[0][0::2]) == (OK, OK, BAD)


def test_multi_span_annotation_marks_every_span():
    doc = Document.from_sentences(["aa bb cc", "dd ee"])
    tags = annotations_to_tags(doc, [ann(MINOR, (0, 0, 2), (1, 3, 5))])
    assert tuple(tags[0][1::2]) == (BAD, OK, OK)
    assert tuple(tags[1][1::2]) == (OK, BAD)


def test_span_outside_sentence_raises():
    doc = Document.from_sentences(["ab"])
    with pytest.raises(SpanOutOfBounds):
        annotations_to_tags(doc, [ann(MAJOR, (0, 0, 3))])
    with pytest.raises(SpanOutOfBounds):
        annotations_to_tags(doc, [ann(MAJOR, (1, 0, 1))])


# --- tags -> annotations --------------------------------------------------------


def doc_tags(doc, word_rows, gap_rows=None):
    out = []
    for i, words in enumerate(word_rows):
        gaps = gap_rows[i] if gap_rows else (OK,) * (len(words) + 1)
        out.append(interleave(words, gaps))
    return out


def test_contiguous_bad_tokens_merge_into_one_annotation():
    doc = Document.from_sentences(["aa bb cc dd"])
    annotations = tags_to_annotations(doc, doc_tags(doc, [(OK, BAD, BAD, OK)]))
    assert len(annotations) == 1
    assert annotations[0].spans == (Span(0, 3, 8),)
    assert annotations[0].severity is MAJOR


def test_non_contiguous_bad_tokens_stay_separate():
    doc = Document.from_sentences(["aa bb cc dd"])
    annotations = tags_to_annotations(doc, doc_tags(doc, [(OK, BAD, OK, BAD)]))
    assert [a.spans for a in annotations] == [(Span(0, 3, 5),), (Span(0, 9, 11),)]


def test_bad_gap_becomes_a_border_annotation():
    doc = Document.from_sentences(["ab cd"])
    tags = doc_tags(doc, [(OK, OK)], [(OK, BAD, OK)])
    annotations = tags_to_annotations(doc, tags)
    assert [a.spans for a in annotations] == [(Span(0, 2, 3),)]


def test_a_tag_row_of_another_length_than_its_sentence_is_an_error_naming_the_entry():
    # once, a 2N-entry row was read as N words and shifted every later span:
    # this one gave Span(1, 2, 3), the space, for the BAD "gh"
    doc = Document.from_sentences(["ab cd", "ef gh"])
    rows = [[OK, BAD, OK, OK], [OK, OK, OK, BAD, OK]]
    with pytest.raises(LengthMismatch, match="^entry 1: tags: expected 5 entries, got 4$"):
        tags_to_annotations(doc, rows)
    with pytest.raises(LengthMismatch, match="^tags has 1 rows, expected 2$"):
        tags_to_annotations(doc, rows[1:])
    rows[0].append(OK)
    assert [a.spans for a in tags_to_annotations(doc, rows)] == [(Span(0, 0, 2),), (Span(1, 3, 5),)]


def test_multi_span_input_round_trips_into_two_annotations():
    doc = Document.from_sentences(["les bandes sont parfaits ici"])
    original = [ann(MINOR, (0, 4, 10), (0, 16, 24))]
    recovered = tags_to_annotations(doc, annotations_to_tags(doc, original))
    assert len(recovered) == 2
    assert recovered[0].spans == (Span(0, 4, 10),)
    assert recovered[1].spans == (Span(0, 16, 24),)
    assert all(a.severity is MAJOR for a in recovered)


def random_doc_with_clean_annotations(rng):
    """Token-aligned single-span annotations separated by at least one OK
    token, plus optional gap annotations."""
    sentences = []
    for _ in range(rng.randint(1, 4)):
        sentences.append(" ".join(random_token(rng) for _ in range(rng.randint(1, 9))))
    doc = Document.from_sentences(sentences)
    annotations = []
    for sent_idx, offsets in enumerate(doc.token_offsets):
        n = len(offsets)
        t = 0
        while t < n:
            if rng.random() < 0.3:
                run = min(n - t, rng.randint(1, 3))
                severity = rng.choice(list(Severity))
                annotations.append(
                    Annotation(severity=severity, spans=(Span(sent_idx, offsets[t][0], offsets[t + run - 1][1]),))
                )
                t += run + 1  # leave one OK token between runs
            else:
                t += 1
        borders = [0] + [o for pair in offsets for o in pair] + [len(sentences[sent_idx])]
        for gap in range(n + 1):
            if rng.random() < 0.1:
                annotations.append(
                    Annotation(severity=MAJOR, spans=(Span(sent_idx, borders[2 * gap], borders[2 * gap + 1]),))
                )
    annotations.sort(key=lambda a: a.spans[0])
    return doc, annotations


def test_round_trip_identity_for_clean_annotations():
    rng = random.Random(41)
    for _ in range(200):
        doc, annotations = random_doc_with_clean_annotations(rng)
        recovered = tags_to_annotations(doc, annotations_to_tags(doc, annotations))
        assert [a.spans for a in recovered] == [a.spans for a in annotations]
        assert all(a.severity is MAJOR for a in recovered)


# --- MQM ------------------------------------------------------------------------


def test_mqm_examples():
    assert mqm_closed_form({}, 50) == 100.0
    assert mqm_closed_form({MINOR: 1, MAJOR: 2}, 100) == pytest.approx(89.0, abs=1e-12)
    assert mqm_closed_form({CRITICAL: 2}, 10) == pytest.approx(-100.0, abs=1e-12)
    assert mqm_closed_form({CRITICAL: 2}, 10, floor=0.0) == 0.0


def test_mqm_affine_and_monotone():
    rng = random.Random(42)
    for _ in range(200):
        counts = {s: rng.randint(0, 20) for s in Severity}
        n_words = rng.randint(1, 400)
        base = mqm_closed_form(counts, n_words)
        for severity in Severity:
            bumped = dict(counts)
            bumped[severity] += 1
            delta = mqm_closed_form(bumped, n_words) - base
            weight = {MINOR: 1.0, MAJOR: 5.0, CRITICAL: 10.0}[severity]
            assert delta == pytest.approx(-100.0 * weight / n_words, abs=1e-9)


def test_custom_weights():
    score = mqm_closed_form({MINOR: 2}, 10, weights={MINOR: 0.5, MAJOR: 5.0, CRITICAL: 10.0})
    assert score == pytest.approx(90.0, abs=1e-12)


# --- document features and regression --------------------------------------------


def test_feature_vector_examples():
    tags = doc_tags(None, [(OK,) * 4, (OK,) * 4], [(OK,) * 5, (OK,) * 5])
    assert doc_mqm_features(tags, [100.0, 100.0]) == [100.0, 0.0, 0.0, 0.0]

    uneven = doc_tags(None, [(OK,), (OK,) * 7], [(OK,) * 2, (OK,) * 8])
    assert doc_mqm_features(uneven, [80.0, 100.0])[0] == pytest.approx(90.0)

    mixed = doc_tags(None, [(BAD, BAD) + (OK,) * 8], [(OK,) * 11])
    feats = doc_mqm_features(mixed, [50.0])
    assert feats[1] == pytest.approx(0.2)
    assert feats[2] == 0.0
    assert feats[3] == pytest.approx(2 / 21)


def test_features_of_a_tag_row_of_even_length_are_an_error_naming_the_entry():
    # once, [[BAD, BAD]] gave [1.0, 1.0, 1.0, 1.0]
    with pytest.raises(LengthMismatch, match="^entry 1: tags: expected 3 entries, got 2$"):
        doc_mqm_features([[BAD, BAD]], [1.0])
    with pytest.raises(LengthMismatch, match="^entry 2: tags: expected 1 entries, got 0$"):
        doc_mqm_features([[OK, BAD, OK], []], [1.0, 2.0])


def test_doc_regression_fits_exact_linear_data():
    rng = random.Random(43)
    truth = [2.0, -30.0, 10.0, 5.0]
    X, y = [], []
    for _ in range(12):
        row = [rng.uniform(0, 100), rng.random(), rng.random(), rng.random()]
        X.append(row)
        y.append(sum(c * v for c, v in zip(truth, row)) + 7.0)
    model = fit_doc_mqm(X, y)
    for row, target in zip(X, y):
        assert predict_doc_mqm(model, row) == pytest.approx(target, abs=1e-6)


def test_constant_gold_yields_intercept_only():
    rng = random.Random(44)
    X = [[rng.random() for _ in range(4)] for _ in range(10)]
    model = fit_doc_mqm(X, [42.0] * 10, lam=1e6)
    assert predict_doc_mqm(model, X[0]) == pytest.approx(42.0, abs=1e-3)


def test_doc_regression_needs_five_documents():
    with pytest.raises(ValueError):
        fit_doc_mqm([[1, 2, 3, 4]] * 4, [1, 2, 3, 4])


# --- annotation F1 ----------------------------------------------------------------


def test_annotation_f1_identity_and_empty():
    doc = Document.from_sentences(["aa bb cc"])
    gold = [ann(MAJOR, (0, 0, 2))]
    assert annotation_f1([gold], [gold], [doc]) == 1.0
    assert annotation_f1([gold], [[]], [doc]) == 0.0
    assert annotation_f1([[]], [[]], [doc]) == 1.0


def test_annotation_f1_hand_worked_overlap():
    doc = Document.from_sentences(["0123456789"])
    gold = [ann(MAJOR, (0, 0, 4))]
    pred = [ann(MAJOR, (0, 2, 6))]
    assert annotation_f1([gold], [pred], [doc]) == pytest.approx(0.5, abs=1e-12)


def test_annotation_f1_swapping_swaps_precision_and_recall():
    doc = Document.from_sentences(["0123456789"])
    gold = [ann(MAJOR, (0, 0, 6))]
    pred = [ann(MAJOR, (0, 4, 8))]
    assert annotation_f1([gold], [pred], [doc]) == pytest.approx(
        annotation_f1([pred], [gold], [doc]), abs=1e-12
    )


def test_zero_width_spans_count_as_single_border_units():
    doc = Document.from_sentences(["ab"])
    gold = [ann(MAJOR, (0, 0, 0))]
    pred_match = [ann(MAJOR, (0, 0, 0))]
    pred_miss = [ann(MAJOR, (0, 2, 2))]
    assert annotation_f1([gold], [pred_match], [doc]) == 1.0
    assert annotation_f1([gold], [pred_miss], [doc]) == 0.0


def test_severity_does_not_affect_annotation_f1():
    doc = Document.from_sentences(["abcd efgh"])
    gold = [ann(CRITICAL, (0, 0, 4))]
    pred = [ann(MINOR, (0, 0, 4))]
    assert annotation_f1([gold], [pred], [doc]) == 1.0


# --- stats ------------------------------------------------------------------------


def test_stats_on_empty_corpus():
    stats = annotation_stats([])
    assert stats == AnnotationStats(0, 0, 0, {s: 0 for s in Severity})
    assert stats.severity_percentages() == {s: 0.0 for s in Severity}


def test_stats_counts_multi_span_and_cross_sentence():
    annotations = [
        ann(MAJOR, (0, 0, 2)),
        ann(MINOR, (0, 0, 2), (0, 4, 6)),
        ann(CRITICAL, (0, 0, 2), (1, 0, 2)),
        ann(MAJOR, (2, 0, 1)),
    ]
    stats = annotation_stats(annotations)
    assert stats.total == 4
    assert stats.multi_span == 2
    assert stats.cross_sentence == 1
    assert stats.severity_counts[MAJOR] == 2
    assert stats.severity_percentages()[MAJOR] == 50.0


# --- file formats -------------------------------------------------------------------


def test_annotation_file_round_trip(tmp_path):
    by_doc = {
        "doc1": [ann(MAJOR, (0, 0, 4)), ann(MINOR, (0, 6, 8), (1, 0, 2))],
        "doc2": [ann(CRITICAL, (3, 2, 2))],
    }
    path = tmp_path / "anns.tsv"
    write_annotations(by_doc, path)
    assert read_annotations(path) == by_doc
    first = path.read_text().splitlines()[0]
    assert first == "doc1\tmajor\t0:0-4"


def test_annotation_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("doc1\tsevere\t0:0-4\n")
    with pytest.raises(ParseError):
        read_annotations(path)
    path.write_text("doc1\tmajor\t0:4-2\n")
    with pytest.raises(ParseError):
        read_annotations(path)


def test_document_manifest(tmp_path):
    (tmp_path / "d1.txt").write_text("hello world\nsecond line\n")
    (tmp_path / "d2.txt").write_text("only one\n")
    manifest = tmp_path / "docs.tsv"
    manifest.write_text("d1\td1.txt\nd2\td2.txt\n")
    docs = read_document_manifest(manifest)
    assert list(docs) == ["d1", "d2"]
    assert docs["d1"].n_words() == 4
    assert docs["d2"].token_offsets[0] == ((0, 4), (5, 8))


def test_annotations_in_overlap_within_one_annotation_rejected():
    with pytest.raises(ValueError):
        ann(MAJOR, (0, 0, 4), (0, 2, 6))
