"""The array core of the document layer against the span-by-span and
character-by-character code it replaced (``doclevel_reference``)."""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qestack.corpus import Ragged, Tag, write_alignments, write_probs
from qestack.doclevel import (
    Annotation,
    AnnotationTable,
    Document,
    Severity,
    Span,
    annotation_f1,
    annotation_stats,
    annotations_to_tags,
    doc_mqm_features,
    read_annotations,
    tags_to_annotations,
    tokenize_with_offsets,
    write_annotations,
)
from qestack.errors import InvalidInput, ParseError, QEStackError, SpanOutOfBounds

from doclevel_reference import (
    reference_annotation_f1,
    reference_annotations_to_tags,
    reference_read_annotations,
    reference_tags_to_annotations,
    reference_tokenize_with_offsets,
)
from conftest import interleave

# Unicode whitespace (ideographic space, the \x1c-\x1f separators, NEL, NBSP,
# line and paragraph separators) next to ordinary and non-ASCII letters
WHITESPACE = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2003\u200a\u2028\u2029\u202f\u3000"
LETTERS = "ab.\xe9\u20ac\u4e2d\u200b\x00\ud800"  # U+200B (zero-width space) is not whitespace
sentences = st.text(alphabet=st.sampled_from(WHITESPACE + LETTERS), max_size=14)
documents = st.lists(sentences, min_size=1, max_size=4).map(Document.from_sentences)


def outcome(fn, *args):
    """The result, or the class and message of the toolkit error raised."""
    try:
        return fn(*args)
    except QEStackError as exc:
        return type(exc), str(exc)


@st.composite
def annotations(draw, doc, in_bounds=None):
    """Zero-width, multi-span and cross-sentence annotations; unless
    ``in_bounds``, some spans point past their sentence or document."""
    if in_bounds is None:
        in_bounds = draw(st.booleans())
    out = []
    for _ in range(draw(st.integers(0, 6))):
        spans = []
        for _ in range(draw(st.integers(1, 3))):
            sent = draw(st.integers(0, len(doc) - (1 if in_bounds else 0)))
            length = len(doc.sentences[sent]) if sent < len(doc) else 4
            borders = [0, length] + [o for pair in (doc.token_offsets[sent] if sent < len(doc) else ()) for o in pair]
            limit = length if in_bounds else length + 1
            start = draw(st.one_of(st.integers(0, limit), st.sampled_from(borders)))
            end = draw(st.one_of(st.integers(start, max(start, limit)), st.sampled_from(borders)))
            if end >= start:
                spans.append(Span(sent, start, end))
        try:
            out.append(Annotation(draw(st.sampled_from(Severity)), tuple(spans)))
        except ValueError:  # no spans, or overlapping ones
            pass
    return out


@settings(max_examples=400, deadline=None)
@given(text=st.one_of(st.text(), sentences))
def test_tokenize_matches_reference(text):
    assert tokenize_with_offsets(text) == reference_tokenize_with_offsets(text)


@settings(max_examples=200, deadline=None)
@given(texts=st.lists(st.one_of(st.text(max_size=10), sentences), max_size=5))
def test_document_token_offsets_match_reference(texts):
    doc = Document.from_sentences(texts)
    assert doc.token_offsets == tuple(tuple(reference_tokenize_with_offsets(t)) for t in texts)
    assert doc.n_words() == sum(len(reference_tokenize_with_offsets(t)) for t in texts)
    assert doc.tag_lengths() == [2 * len(reference_tokenize_with_offsets(t)) + 1 for t in texts]


@settings(max_examples=400, deadline=None)
@given(data=st.data(), doc=documents)
def test_annotations_to_tags_matches_reference(data, doc):
    anns = data.draw(annotations(doc))
    expected = outcome(reference_annotations_to_tags, doc, anns)
    assert outcome(annotations_to_tags, doc, anns) == expected
    assert outcome(annotations_to_tags, doc, AnnotationTable.of(anns)) == expected


@settings(max_examples=400, deadline=None)
@given(data=st.data(), doc=documents, severity=st.sampled_from(Severity))
def test_tags_to_annotations_matches_reference(data, doc, severity):
    tags = []
    for offsets in doc.token_offsets:
        n = len(offsets)
        words = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        gaps = data.draw(st.lists(st.booleans(), min_size=n + 1, max_size=n + 1))
        tags.append(interleave(words, gaps))
    expected = reference_tags_to_annotations(doc, tags, severity)
    assert tags_to_annotations(doc, tags, severity) == expected
    rows = Ragged.from_rows(tags, dtype=bool)
    assert rows == tags
    assert list(tags_to_annotations(doc, rows, severity)) == expected


@settings(max_examples=200, deadline=None)
@given(data=st.data(), doc=documents)
def test_tags_of_the_wrong_shape_raise_as_before(data, doc):
    tags = [interleave((True,) * len(offsets), (False,) * (len(offsets) + 1)) for offsets in doc.token_offsets]
    i = data.draw(st.integers(0, len(tags) - 1))
    # 2n and 2n+1 entries: a row one short of its sentence's once shifted every later span
    tags[i] = (False,) * data.draw(st.integers(0, 9))
    if data.draw(st.booleans()):
        tags.pop()
    assert outcome(tags_to_annotations, doc, tags) == outcome(reference_tags_to_annotations, doc, tags)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), docs=st.lists(documents, min_size=0, max_size=3))
def test_annotation_f1_matches_reference(data, docs):
    in_bounds = data.draw(st.booleans())
    gold = [data.draw(annotations(doc, in_bounds)) for doc in docs]
    pred = [data.draw(annotations(doc, in_bounds)) for doc in docs]
    assert outcome(annotation_f1, gold, pred, docs) == outcome(reference_annotation_f1, gold, pred, docs)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), doc=documents)
def test_round_trip_through_tags_matches_reference(data, doc):
    anns = data.draw(annotations(doc, in_bounds=True))
    tags = annotations_to_tags(doc, anns)
    assert tags_to_annotations(doc, tags) == reference_tags_to_annotations(doc, reference_annotations_to_tags(doc, anns))


# --- annotation files -------------------------------------------------------------


def _mutate(line, kind, k):
    """One kind of change to a written annotation line; ``k`` picks where."""
    doc_id, severity, spans = line.split("\t")
    parts = spans.split(",")
    sent, _, rest = parts[k % len(parts)].partition(":")
    start, _, end = rest.partition("-")
    if kind == "upper":
        severity = severity.upper()
    elif kind == "severity":
        severity = "severe"
    elif kind == "fields":
        return line.replace("\t", " ", 1) if k % 2 else line + "\textra"
    elif kind == "plus":
        parts[k % len(parts)] = f"{sent}:+{start}-{end}"
    elif kind == "spaces":
        parts[k % len(parts)] = f" {sent}: {start}-{end} "
    elif kind == "unicode_digit":
        parts[k % len(parts)] = f"{sent}:{start}-{end}".replace("0", "٠").replace("1", "१")
    elif kind == "underscore":
        parts[k % len(parts)] = f"{sent}:{start}_0-{end}_0"
    elif kind == "reversed":
        parts[k % len(parts)] = f"{sent}:{int(end) + 1}-{start}"
    elif kind == "negative":
        parts[k % len(parts)] = f"-{k % 3}:{start}-{end}"
    elif kind == "empty_part":
        parts.append("")
    elif kind == "garbage":
        parts[k % len(parts)] = ["x", "1:2", "1-2", ":-", "1:2-3-4", "1:2:3-4"][k % 6]
    elif kind == "overlap":
        parts.append(f"{sent}:{start}-{int(end) + 1}")
    elif kind == "unsorted":
        parts.reverse()
        parts.append(f"{int(sent) + 9}:{start}-{end}")
    elif kind == "zeros":
        parts[k % len(parts)] = f"00{sent}:0{start}-{end}"
    elif kind == "empty_doc":
        doc_id = ""
    elif kind == "blank":
        return " \t"
    return "\t".join((doc_id, severity, ",".join(parts)))


MUTATIONS = (
    "upper", "severity", "fields", "plus", "spaces", "unicode_digit", "underscore", "reversed",
    "negative", "empty_part", "garbage", "overlap", "unsorted", "zeros", "empty_doc", "blank",
)


def read_outcome(reader, path):
    try:
        return list(reader(path).items())
    except QEStackError as exc:
        return type(exc), getattr(exc, "file", None), getattr(exc, "line", None), str(exc)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_read_annotations_matches_reference(tmp_path, data):
    doc = Document.from_sentences(["aa bb cc dd", "e f", "ggg  hh"])
    by_doc = {d: data.draw(annotations(doc, in_bounds=True)) for d in ("d0", "d1", "d2")}
    path = tmp_path / "anns.tsv"
    write_annotations(by_doc, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if lines:
        # documents interleaved in the file, then a few lines changed
        lines = data.draw(st.permutations(lines))
        for _ in range(data.draw(st.integers(0, 3))):
            i = data.draw(st.integers(0, len(lines) - 1))
            kind, k = data.draw(st.sampled_from(MUTATIONS)), data.draw(st.integers(0, 100))
            try:
                lines[i] = _mutate(lines[i], kind, k)
            except ValueError:  # a line an earlier change left without its fields or numbers
                pass
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    assert read_outcome(read_annotations, path) == read_outcome(reference_read_annotations, path)


def test_read_annotations_reports_the_first_bad_line(tmp_path):
    path = tmp_path / "anns.tsv"
    path.write_text("d0\tmajor\t0:0-2\nd0\tmajor\t0:0-4,0:2-6\nd1\tminor\t1:5-3\n", encoding="utf-8")
    with pytest.raises(ParseError) as caught:
        read_annotations(path)
    assert (caught.value.file, caught.value.line) == (str(path), 2)
    assert str(caught.value).endswith("spans within one annotation may not overlap")
    path.write_text("d0\tmajor\t0:0-2\nd1\tMINOR\t1:+5-3\nd0\tmajor\t0:0-4,0:2-6\n", encoding="utf-8")
    with pytest.raises(ParseError) as caught:
        read_annotations(path)
    assert (caught.value.line, str(caught.value)) == (2, f"{path}:2: malformed span '1:+5-3'")


def test_offsets_from_ten_to_the_eighteenth_are_malformed_spans(tmp_path):
    path = tmp_path / "anns.tsv"
    path.write_text("d0\tmajor\t0:0-999999999999999999\nd0\tmajor\t0:0-1000000000000000000\n", encoding="utf-8")
    with pytest.raises(ParseError) as caught:
        read_annotations(path)
    assert (caught.value.line, str(caught.value)) == (2, f"{path}:2: malformed span '0:0-1000000000000000000'")


def test_lenient_lines_read_as_their_written_form(tmp_path):
    path = tmp_path / "anns.tsv"
    lines = ["d0\tMAJOR\t0:+6-8, 2:0-1,0:١-2", "d0\tminor\t0:0000000000000000001-00000000000000000002"]
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    table = read_annotations(path)["d0"]
    assert table == [
        Annotation(Severity.MAJOR, (Span(0, 1, 2), Span(0, 6, 8), Span(2, 0, 1))),
        Annotation(Severity.MINOR, (Span(0, 1, 2),)),
    ]
    assert table.spans.tolist() == [[0, 1, 2], [0, 6, 8], [2, 0, 1], [0, 1, 2]]


# --- tables read as lists -----------------------------------------------------------


def test_annotation_table_reads_as_its_list(tmp_path):
    anns = [
        Annotation(Severity.MINOR, (Span(1, 4, 6), Span(0, 0, 2))),
        Annotation(Severity.CRITICAL, (Span(2, 3, 3),)),
    ]
    table = AnnotationTable.of(anns)
    assert len(table) == 2 and table == anns and anns == table and list(table) == anns
    assert table[0].spans == (Span(0, 0, 2), Span(1, 4, 6)) and table[-1] == anns[-1]
    assert table[:1] == anns[:1] and table != anns[:1]
    assert table.severity.tolist() == [0, 2] and table.offsets.tolist() == [0, 2, 3]
    assert AnnotationTable.of(table) is table
    doc = Document.from_sentences(["ab cd"])
    for array in (table.severity, table.offsets, table.spans, doc.borders, doc.offsets):
        with pytest.raises(ValueError):  # read-only, so cached annotations and offsets stay true
            array[0] = 1
    stats = annotation_stats(table)
    assert (stats.total, stats.multi_span, stats.cross_sentence) == (2, 1, 1)
    assert stats == annotation_stats(anns)
    path = tmp_path / "anns.tsv"
    write_annotations({"d": table}, path)
    assert read_annotations(path) == {"d": anns}


def test_annotations_to_tags_gives_interleaved_rows_equal_to_their_target_tags():
    tags = [interleave((True,), (False, True)), interleave((), (True,))]
    doc = Document.from_sentences(["ab", " "])
    rows = annotations_to_tags(doc, [Annotation(Severity.MAJOR, (Span(0, 0, 1), Span(0, 2, 2), Span(1, 0, 1)))])
    assert rows.values.tolist() == [False, True, True, True] and rows.offsets.tolist() == [0, 3, 4]
    assert rows == tags and rows.rows() == [list(t) for t in tags] and rows[1] == list(tags[1])
    # Tag objects are still read as BAD indicators
    assert rows == [interleave((Tag.BAD,), (Tag.OK, Tag.BAD)), interleave((), (Tag.BAD,))]
    assert rows != [interleave((False,), (False, True)), interleave((), (True,))]


# --- document features ---------------------------------------------------------------


def left_to_right_mean(values):
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


ROUNDING_ROWS = [
    [1e16, 1.0, -1e16],  # a compensated sum keeps the 1.0
    [0.1] * 10,
    [1e100, 1.0, -1e100, 1e-3],
    [-0.0, -0.0],  # a sum that starts from 0.0 is +0.0
]


@settings(max_examples=300, deadline=None)
@given(row=st.one_of(st.sampled_from(ROUNDING_ROWS), st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=30)))
def test_mean_sentence_mqm_adds_left_to_right(row):
    tags = [(False, False, False)] * len(row)
    mean = doc_mqm_features(tags, row)[0]
    assert mean == left_to_right_mean(row) and math.copysign(1.0, mean) == math.copysign(1.0, left_to_right_mean(row))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), sizes=st.lists(st.integers(0, 6), min_size=1, max_size=5))
def test_bad_fractions_are_integer_counts(data, sizes):
    tags = [
        interleave(
            data.draw(st.lists(st.booleans(), min_size=n, max_size=n)),
            data.draw(st.lists(st.booleans(), min_size=n + 1, max_size=n + 1)),
        )
        for n in sizes
    ]
    bad_words = sum(tag for t in tags for tag in t[1::2])
    bad_gaps = sum(tag for t in tags for tag in t[0::2])
    n_words = sum(sizes)
    n_gaps = n_words + len(sizes)
    expected = [
        bad_words / n_words if n_words else 0.0,
        bad_gaps / n_gaps,
        (bad_words + bad_gaps) / (n_words + n_gaps),
    ]
    rows = Ragged.from_rows(tags, dtype=bool)
    assert doc_mqm_features(tags, [50.0] * len(tags))[1:] == expected
    assert doc_mqm_features(rows, [50.0] * len(tags))[1:] == expected


# --- the error contract ----------------------------------------------------------------


def test_value_errors_follow_the_error_contract(tmp_path):
    doc = Document.from_sentences(["ab"])
    for call in (
        lambda: Annotation(Severity.MAJOR, ()),
        lambda: Annotation(Severity.MAJOR, (Span(0, 0, 4), Span(0, 2, 6))),
        lambda: annotation_f1([[]], [], [doc]),
        lambda: write_probs([[0.5], []], tmp_path / "p.probs"),
        lambda: write_alignments([{(0, 0)}, set()], tmp_path / "a.align"),
    ):
        with pytest.raises(InvalidInput) as caught:
            call()
        assert isinstance(caught.value, QEStackError) and isinstance(caught.value, ValueError)
    with pytest.raises(SpanOutOfBounds):
        annotation_f1([[Annotation(Severity.MAJOR, (Span(0, 0, 3),))]], [[]], [doc])
