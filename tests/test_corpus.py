import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qestack import corpus as corpus_module
from qestack.config import load_config_file
from qestack.corpus import (
    PredictionSet,
    Ragged,
    Sentence,
    Stream,
    Tag,
    TaggedCorpus,
    _parse_float,
    _read_lines,
    check_lengths,
    is_tag_file,
    load_corpus,
    load_predictions,
    read_alignment_lines,
    read_manifest,
    read_prob_lines,
    read_score_lines,
    read_sentences,
    read_tag_lines,
    read_tag_stream,
    write_alignments,
    write_probs,
    write_scores,
    write_sentences,
    write_tags,
)
from qestack.doclevel import read_annotations, read_doc_table, read_document_manifest, write_doc_table
from qestack.ensemble import RidgeModel, load_ridge_model, load_weights, save_ridge_model, save_weights
from qestack.errors import InvalidInput, LengthMismatch, ParseError, RangeError
from qestack.linearqe import LinearModel, load_model, save_model

from conftest import (
    TABLE_DEFECTS,
    alignment_sets,
    assert_same_corpus,
    interleave,
    random_corpus,
    reference_read_tag_rows,
    table_defect,
)

OK, BAD = False, True


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_interleaved_tags_split_into_word_and_gap_streams(tmp_path):
    mt = write(tmp_path / "x.mt", "ein Haus\n")
    tags = write(tmp_path / "x.tags", "OK OK OK BAD OK\n")
    corpus = load_corpus(mt=mt, tags=tags)
    assert corpus.tags[0][1::2] == [OK, BAD]
    assert corpus.tags[0][0::2] == [OK, OK, OK]


def test_tag_line_with_wrong_entry_count_raises(tmp_path):
    mt = write(tmp_path / "x.mt", "ein Haus\n")
    tags = write(tmp_path / "x.tags", "OK OK BAD OK\n")
    with pytest.raises(LengthMismatch) as err:
        load_corpus(mt=mt, tags=tags)
    assert err.value.line == 1
    assert "x.tags" in str(err.value)


def test_line_count_disagreement_raises(tmp_path):
    mt = write(tmp_path / "x.mt", "a b\nc\n")
    pe = write(tmp_path / "x.pe", "a b\n")
    with pytest.raises(LengthMismatch):
        load_corpus(mt=mt, pe=pe)


def test_empty_line_is_rejected_everywhere(tmp_path):
    mt = write(tmp_path / "x.mt", "a b\n\nc\n")
    with pytest.raises(ParseError) as err:
        load_corpus(mt=mt)
    assert err.value.line == 2


def test_malformed_tag_raises(tmp_path):
    mt = write(tmp_path / "x.mt", "a\n")
    tags = write(tmp_path / "x.tags", "OK ok OK\n")
    with pytest.raises(ParseError):
        load_corpus(mt=mt, tags=tags)


def test_hter_outside_unit_interval_raises(tmp_path):
    mt = write(tmp_path / "x.mt", "a\n")
    hter = write(tmp_path / "x.hter", "1.5\n")
    with pytest.raises(RangeError):
        load_corpus(mt=mt, hter=hter)


def test_alignment_parsing_and_range_check(tmp_path):
    mt = write(tmp_path / "x.mt", "a b\n")
    src = write(tmp_path / "x.src", "u v w\n")
    align = write(tmp_path / "x.align", "0-0 2-1\n")
    corpus = load_corpus(mt=mt, src=src, align=align)
    assert alignment_sets(corpus.alignments) == [frozenset({(0, 0), (2, 1)})]

    bad = write(tmp_path / "y.align", "0-0 3-1\n")
    with pytest.raises(ParseError):
        load_corpus(mt=mt, src=src, align=bad)
    garbled = write(tmp_path / "z.align", "0:0\n")
    with pytest.raises(ParseError):
        read_alignment_lines(garbled)


def test_word_prob_line_matches_sentence(tmp_path):
    mt = write(tmp_path / "x.mt", "a b\n")
    corpus = load_corpus(mt=mt)
    probs = write(tmp_path / "x.probs", "0.1 0.9\n")
    preds = load_predictions(corpus, "sys", words=probs)
    assert preds.word_probs == ((0.1, 0.9),)


def test_word_prob_line_with_extra_value_raises(tmp_path):
    mt = write(tmp_path / "x.mt", "a b\n")
    corpus = load_corpus(mt=mt)
    probs = write(tmp_path / "x.probs", "0.1 0.9 0.2\n")
    with pytest.raises(LengthMismatch):
        load_predictions(corpus, "sys", words=probs)


def test_prob_outside_unit_interval_raises(tmp_path):
    mt = write(tmp_path / "x.mt", "a b\n")
    corpus = load_corpus(mt=mt)
    probs = write(tmp_path / "x.probs", "0.1 1.3\n")
    with pytest.raises(RangeError):
        load_predictions(corpus, "sys", words=probs)


def test_gap_stream_needs_one_extra_value(tmp_path):
    mt = write(tmp_path / "x.mt", "a b\n")
    corpus = load_corpus(mt=mt)
    gaps = write(tmp_path / "x.gaps", "0.0 0.5 1.0\n")
    words = write(tmp_path / "x.words", "0.1 0.2\n")
    preds = load_predictions(corpus, "sys", words=words, gaps=gaps)
    assert preds.gap_probs == ((0.0, 0.5, 1.0),)


def test_tag_file_maps_to_degenerate_probabilities(tmp_path):
    mt = write(tmp_path / "x.mt", "a b\n")
    corpus = load_corpus(mt=mt)
    tags = write(tmp_path / "x.wtags", "OK BAD\n")
    preds = load_predictions(corpus, "sys", words=tags)
    assert preds.word_probs == ((0.0, 1.0),)
    assert preds.word_probs.values.dtype == np.float64


def test_write_tags_examples(tmp_path):
    path = tmp_path / "out.tags"
    write_tags([interleave((OK, BAD), (OK, OK, OK))], path)
    assert path.read_text() == "OK OK OK BAD OK\n"
    write_tags([(BAD, OK)], path)
    assert path.read_text() == "BAD OK\n"


def test_write_tags_refuses_an_empty_row_the_reader_rejects(tmp_path):
    # once, [[BAD], []] was written as "BAD\n\n", which read_tag_lines rejects at line 2
    path = tmp_path / "out.tags"
    with pytest.raises(InvalidInput, match="empty tag row"):
        write_tags([[BAD], []], path)
    assert not path.exists()


def test_write_scores_refuses_a_value_the_reader_rejects(tmp_path):
    # once, NaN was written as "nan", which read_score_lines rejects as not finite
    path = tmp_path / "out.scores"
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(RangeError, match=rf"out.scores:2: score {value!r} is not finite"):
            write_scores([0.5, value], path)
        assert not path.exists()


def test_write_tags_writes_the_same_bytes_from_every_form_of_tags(tmp_path):
    rows = [[OK, BAD, OK], [BAD, BAD, OK], [OK, OK, BAD, BAD, OK]]
    forms = {
        "bool rows": rows,
        "Tag rows": [[Tag.BAD if bad else Tag.OK for bad in row] for row in rows],
        "bool tuples": [tuple(row) for row in rows],
        "Ragged": Ragged.from_rows(rows, dtype=bool),
    }
    written = {}
    for name, form in forms.items():
        path = tmp_path / "out.tags"
        write_tags(form, path)
        written[name] = path.read_bytes()
    assert set(written.values()) == {b"OK BAD OK\nBAD BAD OK\nOK OK BAD BAD OK\n"}
    assert read_tag_lines(path) == rows


def test_manifest_round_trip(tmp_path):
    mt = write(tmp_path / "x.mt", "a b\nc\n")
    corpus = load_corpus(mt=mt)
    write(tmp_path / "s1.probs", "0.1 0.2\n0.3\n")
    write(tmp_path / "s1.scores", "0.5\n0.25\n")
    write(tmp_path / "s2.probs", "1.0 0.0\n0.5\n")
    manifest = write(
        tmp_path / "systems.tsv",
        "s1\twords=s1.probs\tsentences=s1.scores\ns2\twords=s2.probs\n",
    )
    systems = read_manifest(manifest, corpus)
    assert [s.system_id for s in systems] == ["s1", "s2"]
    assert systems[0].sentence_scores == (0.5, 0.25)
    assert systems[1].gap_probs is None


def test_manifest_rejects_duplicates_and_unknown_streams(tmp_path):
    mt = write(tmp_path / "x.mt", "a\n")
    corpus = load_corpus(mt=mt)
    write(tmp_path / "p.probs", "0.1\n")
    dup = write(tmp_path / "m1.tsv", "s\twords=p.probs\ns\twords=p.probs\n")
    with pytest.raises(ParseError):
        read_manifest(dup, corpus)
    unknown = write(tmp_path / "m2.tsv", "s\tbogus=p.probs\n")
    with pytest.raises(ParseError):
        read_manifest(unknown, corpus)


def test_round_trip_identity_on_random_corpora(tmp_path):
    rng = random.Random(7)
    for case in range(1000):
        corpus = random_corpus(rng, rng.randint(1, 4))
        base = tmp_path / f"c{case % 8}"
        write_sentences(corpus.mt, f"{base}.mt")
        write_sentences(corpus.src, f"{base}.src")
        write_sentences(corpus.pe, f"{base}.pe")
        write_tags(corpus.tags, f"{base}.tags")
        write_tags(corpus.source_tags, f"{base}.source_tags")
        write_scores(corpus.hter, f"{base}.hter")
        write_alignments(alignment_sets(corpus.alignments), f"{base}.align")
        reloaded = load_corpus(
            mt=f"{base}.mt",
            src=f"{base}.src",
            pe=f"{base}.pe",
            tags=f"{base}.tags",
            source_tags=f"{base}.source_tags",
            hter=f"{base}.hter",
            align=f"{base}.align",
        )
        assert_same_corpus(reloaded, corpus)


def test_prob_and_score_round_trip(tmp_path, rng):
    rows = [[round(rng.random(), 8) for _ in range(rng.randint(1, 6))] for _ in range(20)]
    write_probs(rows, tmp_path / "p.probs")
    from qestack.corpus import read_prob_lines

    assert read_prob_lines(tmp_path / "p.probs") == rows

    scores = [rng.uniform(-3, 3) for _ in range(50)]
    write_scores(scores, tmp_path / "s.scores")
    assert read_score_lines(tmp_path / "s.scores") == scores


@pytest.mark.parametrize(
    "rows, line, value",
    [
        ([[0.5, math.nan], [1.5], [math.inf]], 1, "nan"),
        ([[0.5], [0.25, 1.5]], 2, "1.5"),
        ([[0.5], [0.0], [1.0, -math.inf]], 3, "-inf"),
        ([[1.0], [-1e-300]], 2, "-1e-300"),
    ],
)
def test_write_probs_refuses_what_read_prob_lines_rejects(tmp_path, rows, line, value):
    # once, write_probs wrote nan, inf and 1.5, which read_prob_lines then rejected
    path = tmp_path / "p.probs"
    for probs in (rows, Ragged.from_rows(rows)):
        with pytest.raises(RangeError) as caught:
            write_probs(probs, path)
        assert str(caught.value) == f"{path}:{line}: probability {value} outside [0, 1]"
        assert not path.exists()


def test_write_probs_writes_a_ragged_as_its_rows(tmp_path, rng):
    rows = [[rng.random() for _ in range(rng.randint(1, 6))] for _ in range(20)] + [[0.0, -0.0, 1.0]]
    write_probs(rows, tmp_path / "rows.probs")
    write_probs(Ragged.from_rows(rows), tmp_path / "ragged.probs")
    assert (tmp_path / "rows.probs").read_bytes() == (tmp_path / "ragged.probs").read_bytes()
    assert read_prob_lines(tmp_path / "ragged.probs") == rows
    with pytest.raises(InvalidInput):
        write_probs(Ragged.from_rows([[0.5], []]), tmp_path / "empty.probs")


def test_sentence_rejects_whitespace_token():
    with pytest.raises(ParseError):
        Sentence(("a b",))
    with pytest.raises(ParseError):
        Sentence(())


def test_read_sentences_splits_on_every_unicode_whitespace(tmp_path):
    # U+001F is whitespace to str.split() but no line boundary to splitlines()
    path = write(tmp_path / "s.mt", "a\u3000b\x1fc\xa0 d\n\u2003e\t\n")
    sentences = read_sentences(path)
    assert sentences == [Sentence(("a", "b", "c", "d")), Sentence(("e",))]
    assert [hash(s) for s in sentences] == [hash(Sentence(s.tokens)) for s in sentences]


def test_prediction_set_requires_consistent_construction():
    with pytest.raises(LengthMismatch):
        TaggedCorpus.from_rows([Sentence(("a",))], tags=[(OK, OK)])
    ps = PredictionSet(system_id="s", word_probs=((0.5,),))
    assert len(ps) == 1


# --- every artifact loader -------------------------------------------------------


def _plain(loader, name):
    def make(tmp_path, text):
        path = write(tmp_path / name, text)
        return path, lambda: loader(path)

    return make


def _document_manifest(tmp_path, text):
    write(tmp_path / "d0.txt", "a b\n")
    return _plain(read_document_manifest, "docs.tsv")(tmp_path, text)


def _document_file(tmp_path, text):
    manifest = write(tmp_path / "docs.tsv", "d0\td0.txt\n")
    return write(tmp_path / "d0.txt", text), lambda: read_document_manifest(manifest)


# kind -> (writes the faulty file and returns it with its loader, valid line, garbled line)
LOADERS = {
    "linear model": (_plain(load_model, "m.model"), "12\t0.5", "12 0.5"),
    "weights": (_plain(lambda p: load_weights(p, Stream.WORDS), "w.tsv"), "sys0\t0.5", "sys1\t0.5\t0.5"),
    "ridge model": (_plain(load_ridge_model, "r.model"), "intercept\t0.5", "lambda 0.1"),
    "annotations": (_plain(read_annotations, "a.tsv"), "d0\tmajor\t0:0-1", "d0\tmajor\t0:1"),
    "document manifest": (_document_manifest, "d0\td0.txt", "d1"),
    "document file": (_document_file, "a b", "   "),
    "doc table": (_plain(lambda p: read_doc_table(p, 1), "t.tsv"), "d0\t1.5", "d1\tx"),
}


@pytest.mark.parametrize("garbled", [False, True], ids=["empty", "garbled"])
@pytest.mark.parametrize("kind", list(LOADERS))
def test_every_loader_names_file_and_line_of_an_empty_or_garbled_line(tmp_path, kind, garbled):
    make, valid, bad = LOADERS[kind]
    path, load = make(tmp_path, valid + "\n" + (bad if garbled else "") + "\n")
    with pytest.raises(ParseError) as caught:
        load()
    assert (caught.value.file, caught.value.line) == (path, 2)


# --- name<TAB>value tables ---------------------------------------------------------


def _model_table(path):
    weights = load_model(path).weights
    return list(map(str, weights)), [list(weights.values())]


def _weights_table(path):
    ids, weights = load_weights(path, Stream.WORDS)
    return ids, [list(weights.weights)]


def _ridge_table(path):
    model = load_ridge_model(path)
    names = ["intercept", "lambda", *(f"coef:{name}" for name in model.feature_names)]
    return names, [[model.intercept, model.lam, *model.coefficients.tolist()]]


def _doc_table(n):
    def read(path):
        table = read_doc_table(path, n)
        return list(table), list(map(list, zip(*table.values())))

    return read


# kind -> (names, value columns, a writer of both to a path, a reader of both from a path)
TABLES = {
    "linear model": (
        ["3", "12", str(2**64 - 1)],
        [[0.1, -0.0, -2.5e-300]],
        lambda names, columns, path: save_model(LinearModel(dict(zip(map(int, names), columns[0]))), path),
        _model_table,
    ),
    "weights": (
        ["sys0", "sys 1", "sys2"],
        [[1 / 3, 0.0, 1.0]],
        # a WeightVector refuses a value outside [0, 1] itself; this reaches the writer
        lambda names, columns, path: save_weights(names, SimpleNamespace(weights=tuple(columns[0])), path),
        _weights_table,
    ),
    "ridge model": (
        ["intercept", "lambda", "coef:a", "coef:sys0:words_mean"],
        [[-0.1, 10.0, 5e-324, 1e300]],
        lambda names, columns, path: save_ridge_model(
            RidgeModel(np.array(columns[0][2:]), columns[0][0], columns[0][1], [n[5:] for n in names[2:]]), path
        ),
        _ridge_table,
    ),
    "doc features": (
        ["doc0", "doc1"],
        [[50.0, -12.5], [0.0, 1 / 7], [1.0, 0.5], [0.25, -0.0]],
        lambda names, columns, path: write_doc_table(dict(zip(names, zip(*columns))), path),
        _doc_table(4),
    ),
    "MQM table": (
        ["doc0", "doc 1", "doc2"],
        [[50.0, -12.5, 1 / 7]],
        lambda names, columns, path: write_doc_table(dict(zip(names, zip(*columns))), path),
        _doc_table(1),
    ),
}


def _bits(columns):
    return [[float(value).hex() for value in column] for column in columns]


@pytest.mark.parametrize("kind", list(TABLES))
def test_a_table_reads_back_the_names_and_float_bits_it_was_written_with(tmp_path, kind):
    names, columns, save, load = TABLES[kind]
    path = tmp_path / "table.tsv"
    save(names, columns, path)
    got_names, got_columns = load(path)
    assert got_names == names and _bits(got_columns) == _bits(columns)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind", list(TABLES))
def test_a_table_writer_refuses_a_value_that_is_not_finite_naming_its_line(tmp_path, kind, value):
    names, columns, save, _ = TABLES[kind]
    columns = [list(column) for column in columns]
    columns[-1][1] = value
    path = tmp_path / "table.tsv"
    with pytest.raises(RangeError) as caught:
        save(names, columns, path)
    assert str(caught.value) == f"{path}:2: value {value!r} is not finite"
    assert not path.exists()


def test_a_doc_table_with_rows_of_other_lengths_is_not_written(tmp_path):
    path = tmp_path / "table.tsv"
    with pytest.raises(ValueError):
        write_doc_table({"doc0": [1.0, 2.0], "doc1": [3.0]}, path)
    assert not path.exists()


@pytest.mark.parametrize("defect", TABLE_DEFECTS)
@pytest.mark.parametrize("kind", list(TABLES))
def test_a_table_reader_names_the_file_and_line_of_a_bad_line(tmp_path, kind, defect):
    names, columns, save, load = TABLES[kind]
    path = tmp_path / "table.tsv"
    save(names, columns, path)
    text, line, message = table_defect(path.read_text(encoding="utf-8"), defect)
    path.write_text(text, encoding="utf-8")
    with pytest.raises((ParseError, RangeError)) as caught:
        load(path)
    assert str(caught.value) == f"{path}:{line}: {message}"


# --- prediction streams as flat arrays ---------------------------------------------


def test_ragged_holds_rows_as_flat_values_and_offsets():
    ragged = Ragged.from_rows([(0.1, 0.2), [0.3], (1.0, 0.0, 0.5)])
    assert ragged.values.dtype == np.float64 and ragged.offsets.dtype == np.int64
    assert ragged.values.tolist() == [0.1, 0.2, 0.3, 1.0, 0.0, 0.5]
    assert ragged.offsets.tolist() == [0, 2, 3, 6]
    assert len(ragged) == 3
    assert ragged.rows() == [[0.1, 0.2], [0.3], [1.0, 0.0, 0.5]]
    assert list(ragged) == ragged.rows()
    assert ragged[1] == [0.3] and ragged[-1] == [1.0, 0.0, 0.5]
    assert ragged[:2] + ragged[2:] == ragged.rows()
    with pytest.raises(IndexError):
        ragged[3]
    empty = Ragged.from_rows([])
    assert len(empty) == 0 and empty.rows() == [] and empty.offsets.tolist() == [0]


def test_ragged_equals_the_same_rows_in_any_form():
    ragged = Ragged.from_rows([[0.1, 0.2], [0.3]])
    assert ragged == ((0.1, 0.2), (0.3,))
    assert ragged == [[0.1, 0.2], [0.3]]
    assert ragged == Ragged.from_rows(((0.1, 0.2), (0.3,)))
    # same values, other row boundaries
    assert ragged != [[0.1], [0.2, 0.3]]
    assert ragged != [[0.1, 0.2], [0.4]]
    assert ragged != [[OK, BAD], [OK]]
    assert ragged != None  # noqa: E711


def test_prediction_set_turns_rows_into_ragged_streams_once():
    words = Ragged.from_rows([[0.5, 0.25]])
    ps = PredictionSet("s", words, gap_probs=((0.0, 0.5, 1.0),), sentence_scores=(0.5,))
    assert ps.word_probs is words
    assert isinstance(ps.gap_probs, Ragged) and ps.gap_probs == ((0.0, 0.5, 1.0),)
    assert ps.source_probs is None and ps.sentence_scores == (0.5,)
    assert ps.stream(Stream.GAPS) is ps.gap_probs
    assert ps == PredictionSet("s", ((0.5, 0.25),), gap_probs=[[0.0, 0.5, 1.0]], sentence_scores=(0.5,))


def test_check_lengths_on_a_ragged_stream_reports_the_first_wrong_line(tmp_path):
    rows = [[0.1, 0.2], [0.3], [0.4]]
    check_lengths(Ragged.from_rows(rows), [2, 1, 1], "word stream", file="p.probs")
    check_lengths(rows, 3, "word stream")  # an int fixes only the number of rows
    for lengths, line, want, got in (([2, 2, 1], 2, 2, 1), ([1, 2, 1], 1, 1, 2), ([2, 1, 2], 3, 2, 1), ([1, 1, 1], 1, 1, 2)):
        message = f"word stream: expected {want} entries, got {got}"
        for given_rows in (rows, Ragged.from_rows(rows)):
            for given in (lengths, np.array(lengths)):
                with pytest.raises(LengthMismatch) as caught:
                    check_lengths(given_rows, given, "word stream", file="p.probs")
                assert (str(caught.value), caught.value.line) == (f"p.probs:{line}: {message}", line)
                with pytest.raises(LengthMismatch) as caught:
                    check_lengths(given_rows, given, "word stream")
                assert (str(caught.value), caught.value.file) == (f"entry {line}: {message}", None)
    for want in ([2, 1], 2):
        with pytest.raises(LengthMismatch, match="^p.probs: word stream has 3 lines, expected 2$"):
            check_lengths(Ragged.from_rows(rows), want, "word stream", file="p.probs")
        with pytest.raises(LengthMismatch, match="^word stream has 3 rows, expected 2$"):
            check_lengths(rows, want, "word stream")


def reference_read_prob_lines(path) -> list[list[float]]:
    """``read_prob_lines`` as it was before it returned a :class:`Ragged`:
    one ``_parse_float`` call and one range check per field."""
    out = []
    for i, line in enumerate(_read_lines(path), 1):
        row = []
        for f in line.split():
            value = _parse_float(f, file=str(path), line=i)
            if not 0.0 <= value <= 1.0:
                raise RangeError(f"probability {value} outside [0, 1]", file=str(path), line=i)
            row.append(value)
        out.append(row)
    return out


def reference_read_score_lines(path) -> list[float]:
    """``read_score_lines`` as it was before it converted the file in one
    pass: one ``split()`` and one ``_parse_float`` call per line, and a
    value that is not finite a RangeError."""
    out = []
    for i, line in enumerate(_read_lines(path), 1):
        fields = line.split()
        if len(fields) != 1:
            raise ParseError(f"expected one value per line, got {len(fields)}", file=str(path), line=i)
        out.append(_parse_float(fields[0], file=str(path), line=i))
        if not math.isfinite(out[-1]):
            raise RangeError(f"score {out[-1]!r} is not finite", file=str(path), line=i)
    return out


def _bits(value):
    """A Python float's bits, or a row's; anything else is kept as it is."""
    if type(value) is float:
        return value.hex()
    return [_bits(v) for v in value] if isinstance(value, list) else value


def _outcome(read, path):
    """Float bits and row lengths of a read, or the class and message of its error."""
    try:
        rows = read(path)
    except Exception as exc:  # noqa: BLE001 -- the error is the outcome
        return type(exc), str(exc)
    return [_bits(row) for row in rows]


# spellings float() reads as a value in [0, 1]
_IN_RANGE_TOKENS = st.one_of(
    st.floats(0.0, 1.0).map(repr),
    st.floats(0.0, 1.0).map(lambda x: f"{x:e}"),
    st.floats(0.0, 1.0).map(lambda x: f"{x:+.3E}"),
    st.sampled_from([
        "0", "1", "0.0", "1.0", "-0.0", "+0.0", "-0", ".5", "+.5", "5e-1", "5.E-1", "1e-400",
        "-1e-400", "0.9999999999999999", "0_5e-1", "0.2_5", "١", "٠.٥", "０.５", "۰.۲",
    ]),
)
# spellings float() rejects or reads as a value outside [0, 1], and any number
_OTHER_TOKENS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.from_regex(r"[+-]?(\d{1,3}(\.\d{0,4})?|\.\d{1,4})([eE][+-]?\d{1,3})?", fullmatch=True),
    st.sampled_from([
        "1.0000000000000002", "1e300", "2", "-0.1", "1_0", "١.٥",
        "inf", "-inf", "+inf", "INF", "Infinity", "-Infinity", "iNfInItY", "infinity",
        "nan", "NaN", "-nan", "+nan", "NAN",
        "_1", "1_", "1__0", "0._5", "0x1p-2", "0x0.8p0", "0x1", "0b1",
        "abc", "1.2.3", "--1", "e5", ".", "+", "1e", "1e+", "0,5", "½", "None", "OK",
    ]),
)
_SEPARATORS = st.sampled_from([" ", "  ", "\t", " \t ", "\u00a0", "\u2003"])


@st.composite
def _number_files(draw, max_fields):
    """Lines of up to ``max_fields`` in-range numbers in which up to three
    fields are replaced by other tokens, sometimes a line with one field
    more, and sometimes an empty line."""
    rows = [
        draw(st.lists(_IN_RANGE_TOKENS, min_size=1, max_size=max_fields)) for _ in range(draw(st.integers(1, 5)))
    ]
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(_OTHER_TOKENS)
    if draw(st.integers(0, 4)) == 2:
        draw(st.sampled_from(rows)).append(draw(_IN_RANGE_TOKENS))
    lines = []
    for row in rows:
        text = row[0]
        for token in row[1:]:
            text += draw(_SEPARATORS) + token
        lines.append(text)
    if draw(st.integers(0, 9)) == 5:
        lines.insert(draw(st.integers(0, len(lines))), "")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "read, reference, max_fields",
    [(read_prob_lines, reference_read_prob_lines, 6), (read_score_lines, reference_read_score_lines, 1)],
    ids=["probs", "scores"],
)
@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_one_pass_number_readers_equal_the_per_field_readers(tmp_path, read, reference, max_fields, data):
    path = tmp_path / "fuzz.txt"
    path.write_bytes(data.draw(_number_files(max_fields)).encode("utf-8"))
    want = _outcome(reference, path)
    got = _outcome(read, path)
    assert got == want


# tokens that are not tags, some of them close to one
_OTHER_TAGS = st.sampled_from(["ok", "Bad", "OKBAD", "BAD.", "OK,", "0", "1.0", "ＯＫ", "B", "-", "None"])


@st.composite
def _tag_files(draw):
    """Lines of 1 to 9 OK/BAD tags, often an interleaved 2N+1, in which up to
    two are replaced by other tokens, sometimes an empty line; returns the
    text and each line's number of tags."""
    sizes = st.one_of(st.sampled_from([3, 5, 7, 9]), st.integers(1, 9))
    rows = [
        draw(st.lists(st.sampled_from(["OK", "BAD"]), min_size=n, max_size=n))
        for n in draw(st.lists(sizes, min_size=1, max_size=6))
    ]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(_OTHER_TAGS)
    lines = []
    for row in rows:
        text = row[0]
        for token in row[1:]:
            text += draw(_SEPARATORS) + token
        lines.append(text)
    if draw(st.integers(0, 19)) == 7:
        lines.insert(draw(st.integers(0, len(lines))), "")
    return "\n".join(lines) + "\n", [len(row) for row in rows]


def _tag_outcome(read, path, stream, lengths):
    """BAD indicators per row of a read, or the class, message and place of its error."""
    try:
        rows = read(path, stream, lengths)
    except Exception as exc:  # noqa: BLE001 -- the error is the outcome
        return type(exc), str(exc), getattr(exc, "file", None), getattr(exc, "line", None)
    if isinstance(rows, Ragged):
        assert rows.values.dtype == bool
        return rows.rows()
    return [[bool(tag) for tag in row] for row in rows]


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), stream=st.sampled_from(["target", "words", "gaps", "source"]))
def test_read_tag_stream_equals_the_tag_object_reader(tmp_path, data, stream):
    text, counts = data.draw(_tag_files())
    lengths = ()
    if data.draw(st.booleans()):
        # per line: its own count (taken as read), the words or gaps count of
        # an interleaved line, or another; then cut short or run long
        lengths = [data.draw(st.sampled_from([n, n, n // 2, n // 2 + 1, n + 1])) for n in counts]
        lengths = lengths[: data.draw(st.integers(0, len(lengths)))] + data.draw(st.lists(st.integers(1, 9), max_size=2))
    path = tmp_path / "fuzz.tags"
    path.write_bytes(text.encode("utf-8"))
    want = _tag_outcome(reference_read_tag_rows, path, stream, lengths)
    got = _tag_outcome(read_tag_stream, path, stream, lengths)
    assert got == want


# --- alignments as pair arrays -----------------------------------------------


def reference_read_alignment_lines(path):
    """``read_alignment_lines`` as it was: one frozenset of exact int pairs
    per line, field by field."""
    out = []
    for i, line in enumerate(_read_lines(path), 1):
        pairs = set()
        for field_ in line.split():
            left, sep, right = field_.partition("-")
            if not sep or not field_.isascii() or not left.isdigit() or not right.isdigit():
                raise ParseError(f"invalid alignment pair {field_!r}", file=str(path), line=i)
            pairs.add((int(left), int(right)))
        out.append(frozenset(pairs))
    return out


def reference_alignment_range_error(path, lines, src_lengths, mt_lengths):
    """The message of ``load_corpus``'s range check as it was, walking the
    lines in file order and each line's pairs in sorted order."""
    for i, pairs in enumerate(lines, 1):
        for s_idx, m_idx in sorted(pairs):
            if s_idx >= src_lengths[i - 1] or m_idx >= mt_lengths[i - 1]:
                return f"{path}:{i}: alignment {s_idx}-{m_idx} out of range for lengths {src_lengths[i - 1]}/{mt_lengths[i - 1]}"
    return None


_INT64_MAX = 2**63 - 1

# indices: small ones, and some of 18 to 20 digits around int64's maximum
_INDICES = st.one_of(
    st.integers(0, 9),
    st.integers(0, 9),
    st.sampled_from([10**17, 10**18 - 1, 10**18, _INT64_MAX, _INT64_MAX + 1, 10**20]),
)
# fields that are not digits-digits, some close to it
_BAD_PAIRS = st.sampled_from(
    ["0:0", "3-", "-3", "-", "1--2", "1-2-3", "+1-2", "1-+2", "a-1", "1.0-2", "0x1-2", "\u0661-0", "1-\u00b2", "\uff11-2"]
)


@st.composite
def _alignment_files(draw):
    """Lines of 1 to 8 ``i-j`` pairs, some repeated, with leading zeros now
    and then, between runs of blanks (Unicode ones too); sometimes a field
    replaced by one that is not a pair and sometimes an empty line."""
    lines = []
    for _ in range(draw(st.integers(1, 5))):
        pairs = draw(st.lists(st.tuples(_INDICES, _INDICES), min_size=1, max_size=8))
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=3))
        fields = [f"{draw(st.sampled_from(['', '', '0', '00']))}{i}-{j}" for i, j in draw(st.permutations(pairs))]
        if draw(st.integers(0, 5)) == 3:
            fields[draw(st.integers(0, len(fields) - 1))] = draw(_BAD_PAIRS)
        text = draw(st.sampled_from(["", "", " ", "\t"]))
        for field_ in fields:
            text += field_ + draw(st.sampled_from([" ", " ", "  ", "\t", " \t ", "\u00a0", "\u2003"]))
        lines.append(text.rstrip(" ") if draw(st.booleans()) else text)
    if draw(st.integers(0, 19)) == 7:
        lines.insert(draw(st.integers(0, len(lines))), "")
    return "\n".join(lines) + "\n"


def _alignment_outcome(read, path):
    """Each line's pairs as a set, with every index beyond int64 read as its
    maximum, or the class, message and place of the error."""
    try:
        lines = read(path)
    except Exception as exc:  # noqa: BLE001 -- the error is the outcome
        return type(exc), str(exc), getattr(exc, "file", None), getattr(exc, "line", None)
    if isinstance(lines, tuple):
        pairs, offsets = lines
        assert pairs.dtype == np.int64 and pairs.shape == (offsets[-1], 2) and offsets[0] == 0
        bounds = offsets.tolist()
        lines = [list(map(tuple, pairs[lo:hi].tolist())) for lo, hi in zip(bounds, bounds[1:])]
        assert all(line == sorted(set(line)) for line in lines)
    return [frozenset((min(i, _INT64_MAX), min(j, _INT64_MAX)) for i, j in line) for line in lines]


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_alignment_files())
def test_read_alignment_lines_equals_the_per_field_reader(tmp_path, text):
    path = tmp_path / "fuzz.align"
    path.write_bytes(text.encode("utf-8"))
    assert _alignment_outcome(read_alignment_lines, path) == _alignment_outcome(reference_read_alignment_lines, path)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_load_corpus_names_the_first_alignment_out_of_range(tmp_path, data):
    lengths = data.draw(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)), min_size=1, max_size=6))
    index = st.one_of(st.integers(0, 7), st.just(10**20))
    lines = [data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=6)) for _ in lengths]
    paths = {name: tmp_path / f"c.{name}" for name in ("src", "mt", "align")}
    for name, side in (("src", 0), ("mt", 1)):
        paths[name].write_text("".join(" ".join(["w"] * n[side]) + "\n" for n in lengths))
    paths["align"].write_text("".join(" ".join(f"{i}-{j}" for i, j in line) + "\n" for line in lines))
    want = reference_alignment_range_error(paths["align"], lines, *zip(*lengths))
    try:
        corpus = load_corpus(**paths)
    except ParseError as exc:
        assert str(exc) == want
    else:
        assert want is None
        assert alignment_sets(corpus.alignments) == [frozenset(line) for line in lines]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_the_packed_key_and_the_lexsort_sort_pairs_alike(data):
    # 18-digit indices make the packed key pass int64, so those inputs take the lexsort
    index = st.one_of(st.integers(0, 9), st.integers(0, 9), st.sampled_from([10**17, 10**18 - 1, _INT64_MAX]))
    lines = []
    for _ in range(data.draw(st.integers(0, 5))):
        line = data.draw(st.lists(st.tuples(index, index), max_size=6))
        lines.append(line + data.draw(st.lists(st.sampled_from(line), max_size=3)) if line else line)
    counts = np.array([len(line) for line in lines], np.int64)
    pairs = np.array([pair for line in lines for pair in line], np.int64).reshape(-1, 2)
    packed = corpus_module._sorted_distinct(pairs, counts)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus_module, "_packed_key", lambda *args: None)
        lexsorted = corpus_module._sorted_distinct(pairs, counts)
    assert packed[0].tolist() == lexsorted[0].tolist() and packed[1].tolist() == lexsorted[1].tolist()
    bounds = packed[1].tolist()
    got = [list(map(tuple, packed[0][lo:hi].tolist())) for lo, hi in zip(bounds, bounds[1:])]
    assert got == [sorted(set(line)) for line in lines]


def test_the_packed_key_falls_back_only_past_int64():
    line = np.zeros(2, np.int64)
    assert corpus_module._packed_key(np.array([[0, 3], [5, 0]], np.int64), line, 1).tolist() == [3, 20]
    assert corpus_module._packed_key(np.array([[10**17, 0], [0, 9]], np.int64), line, 1) is not None
    assert corpus_module._packed_key(np.array([[10**17, 0], [0, 10**17]], np.int64), line, 1) is None
    assert corpus_module._packed_key(np.array([[10**18 - 1, 0], [0, 9]], np.int64), line, 1) is None


def test_a_loaded_corpus_holds_its_alignments_as_one_read_only_pair_table(tmp_path):
    mt = write(tmp_path / "x.mt", "a b c\nd\n")
    src = write(tmp_path / "x.src", "u v\nw\n")
    align = write(tmp_path / "x.align", "1-2 0-0\t 1-2  0-1\n0-0\n")
    corpus = load_corpus(mt=mt, src=src, align=align)
    pairs, offsets = corpus.alignments
    assert pairs.tolist() == [[0, 0], [0, 1], [1, 2], [0, 0]] and offsets.tolist() == [0, 3, 4]
    assert not pairs.flags.writeable
    first, second = alignment_sets(corpus.alignments)
    assert first == frozenset({(1, 2), (0, 0), (0, 1)}) and second == frozenset({(0, 0)})



def test_alignment_offsets_are_read_only_however_the_table_is_built(tmp_path):
    # once, only the pairs were frozen: writing to a loaded corpus's offsets
    # silently moved the alignments of every row view built afterwards
    mt = write(tmp_path / "x.mt", "a b c\nd\n")
    src = write(tmp_path / "x.src", "u v\nw\n")
    align = write(tmp_path / "x.align", "1-2 0-0\n0-0\n")
    corpus = load_corpus(mt=mt, src=src, align=align)
    built = TaggedCorpus.from_rows([Sentence(("a",))], src=[Sentence(("u",))], alignments=[{(0, 0)}])
    for pairs, offsets in (read_alignment_lines(align), corpus.alignments, built.alignments):
        assert not pairs.flags.writeable and not offsets.flags.writeable
        with pytest.raises(ValueError):
            offsets[1] = 0


# --- a corpus of rows built in code ----------------------------------------------


_OPTIONAL_COLUMNS = ("src", "pe", "tags", "source_tags", "hter", "alignments")


@st.composite
def _corpus_rows(draw):
    """The 0 to 6 rows of each column of one corpus, every optional column
    held or not; alignments (which need source sentences) are sets or
    lists, some repeating a pair."""
    held = draw(st.sets(st.sampled_from(_OPTIONAL_COLUMNS)))
    if "alignments" in held:
        held.add("src")

    def sentence(prefix):
        return Sentence(tuple(f"{prefix}{i}" for i in range(draw(st.integers(1, 5)))))

    def bools(n):
        return tuple(draw(st.lists(st.booleans(), min_size=n, max_size=n)))

    columns = {name: [] for name in ("mt", *held)}
    for _ in range(draw(st.integers(0, 6))):
        mt, src = sentence("m"), sentence("s")
        pairs = draw(st.lists(st.tuples(st.integers(0, len(src) - 1), st.integers(0, len(mt) - 1)), max_size=8))
        row = {
            "mt": mt,
            "src": src,
            "pe": sentence("p"),
            "tags": interleave(bools(len(mt)), bools(len(mt) + 1)),
            "source_tags": bools(len(src)),
            "hter": draw(st.floats(0.0, 1.0)),
            "alignments": draw(st.sampled_from([frozenset(pairs), pairs, pairs + pairs[:3]])),
        }
        for name, rows in columns.items():
            rows.append(row[name])
    return columns


@settings(max_examples=300, deadline=None)
@given(columns=_corpus_rows())
def test_a_corpus_from_rows_holds_its_rows_as_columns(columns):
    corpus = TaggedCorpus.from_rows(**columns)
    assert len(corpus) == len(columns["mt"]) and corpus.mt == tuple(columns["mt"])
    for name in _OPTIONAL_COLUMNS:
        assert (getattr(corpus, name) is None) == (name not in columns)
    for name in ("src", "pe"):
        if name in columns:
            assert getattr(corpus, name) == tuple(columns[name])
    for name in ("tags", "source_tags"):
        if name in columns:
            assert getattr(corpus, name).rows() == [list(row) for row in columns[name]]
    if corpus.hter is not None:
        assert corpus.hter.tolist() == columns["hter"]
        assert corpus.hter.dtype == np.float64 and not corpus.hter.flags.writeable
    if corpus.alignments is not None:
        # a repeated pair is held once, in sorted order
        pairs, offsets = corpus.alignments
        assert offsets[-1] == sum(len(set(line)) for line in columns["alignments"])
        assert [pairs[lo:hi].tolist() for lo, hi in zip(offsets, offsets[1:])] == [
            sorted(map(list, set(line))) for line in columns["alignments"]
        ]
        as_sets = {**columns, "alignments": list(map(frozenset, columns["alignments"]))}
        assert_same_corpus(corpus, TaggedCorpus.from_rows(**as_sets))


def test_the_columns_of_a_corpus_hold_one_segment_count():
    mt = (Sentence(("a", "b")), Sentence(("c",)))
    no_pairs = np.empty((0, 2), np.int64)
    assert len(TaggedCorpus(mt=mt, hter=np.array([0.1, 0.2]), alignments=(no_pairs, np.zeros(3)))) == 2
    with pytest.raises(LengthMismatch, match=r"^columns of \[1, 3\] segments beside 2 MT sentences$"):
        TaggedCorpus(mt=mt, src=mt[:1], hter=np.array([0.1, 0.2]), alignments=(no_pairs, np.zeros(4)))
    with pytest.raises(LengthMismatch, match=r"^columns of \[3\] segments beside 2 MT sentences$"):
        TaggedCorpus.from_rows(mt, tags=[(OK, OK, OK)] * 3)


def _full_columns(n=4) -> dict:
    """``n`` rows of every column: a 2-word MT sentence, a 3-word source."""
    return {
        "mt": [Sentence(("a", "b"))] * n,
        "src": [Sentence(("x", "y", "z"))] * n,
        "pe": [Sentence(("a",))] * n,
        "tags": [interleave((OK, BAD), (OK, OK, BAD))] * n,
        "source_tags": [(OK, BAD, OK)] * n,
        "hter": [0.5] * n,
        "alignments": [{(0, 0), (2, 1)}] * n,
    }


@pytest.mark.parametrize("name", ["mt", "src", "pe", "tags", "source_tags", "hter"])
def test_a_none_row_is_an_error_naming_its_entry(name):
    columns = _full_columns()
    columns[name] = [columns[name][0], None, columns[name][0], None]
    with pytest.raises(InvalidInput, match=f"^entry 2 has no {name}$"):
        TaggedCorpus.from_rows(**columns)
    if name != "mt":
        columns.pop(name)
        if name == "src":
            columns.pop("alignments")
        assert getattr(TaggedCorpus.from_rows(**columns), name) is None


@pytest.mark.parametrize(
    "name, row, message",
    [
        ("tags", interleave((OK, BAD, OK), (OK,) * 4), "entry 2: target tags: expected 5 entries, got 7"),
        ("tags", interleave((OK,), (OK, BAD)), "entry 2: target tags: expected 5 entries, got 3"),
        ("source_tags", (OK, BAD), "entry 2: source tags: expected 3 entries, got 2"),
        ("source_tags", (OK,) * 4, "entry 2: source tags: expected 3 entries, got 4"),
    ],
)
def test_tags_of_another_length_than_their_sentence_are_an_error_naming_the_entry(name, row, message):
    columns = {key: _full_columns()[key] for key in ("mt", "src", "tags", "source_tags")}
    columns[name] = [columns[name][0], row, columns[name][0], row]
    with pytest.raises(LengthMismatch) as caught:
        TaggedCorpus.from_rows(**columns)
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "pair, message",
    [
        ((3, 0), "entry 2: alignment 3-0 out of range (3/2)"),
        ((0, 2), "entry 2: alignment 0-2 out of range (3/2)"),
        ((-1, 0), "entry 2: alignment -1-0 out of range (3/2)"),
        ((0, 2**63), "alignment index beyond int64"),
    ],
)
def test_a_pair_outside_its_entry_is_a_range_error_naming_it(pair, message):
    mt, src = [Sentence(("a", "b"))] * 3, [Sentence(("x", "y", "z"))] * 3
    with pytest.raises(RangeError) as caught:
        TaggedCorpus.from_rows(mt, src=src, alignments=[{(0, 0)}, *([(1, 1), pair, pair],) * 2])
    assert str(caught.value) == message
    with pytest.raises(InvalidInput, match="^alignments need source sentences$"):
        TaggedCorpus.from_rows(mt[:1], alignments=[{(0, 0)}])


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("0.5 0.1\n0.2 x 1.5\n", ParseError, "p.probs:2: malformed number 'x'"),
        ("0.5 0.1\n0.2 1.5 x\n", RangeError, "p.probs:2: probability 1.5 outside [0, 1]"),
        ("0.5 nan\n0.2 x\n", RangeError, "p.probs:1: probability nan outside [0, 1]"),
        ("0.5 -1e-400\n0.2 -0.5\n", RangeError, "p.probs:2: probability -0.5 outside [0, 1]"),
        ("0.5 inf\n", RangeError, "p.probs:1: probability inf outside [0, 1]"),
    ],
)
def test_read_prob_lines_reports_the_first_bad_field_in_file_order(tmp_path, text, error, message):
    path = write(tmp_path / "p.probs", text)
    with pytest.raises(error) as caught:
        read_prob_lines(path)
    assert str(caught.value) == f"{tmp_path}/{message}"


# --- files that are not UTF-8 --------------------------------------------------------


@pytest.mark.parametrize(
    "read",
    [read_prob_lines, read_score_lines, read_tag_lines, read_sentences, is_tag_file, load_config_file],
    ids=lambda read: read.__name__,
)
@pytest.mark.parametrize(
    "data, line",
    [(b"\xff 0.5\n0.5\n", 1), (b"OK\n0.5 \xe9t\xc3\n", 2), (b"OK\r\nab\rc\xc3\xa9\n\xc3(\n", 4)],
)
def test_a_byte_that_is_not_utf8_is_a_parse_error_naming_its_line(tmp_path, read, data, line):
    path = tmp_path / "in.txt"
    path.write_bytes(data)
    with pytest.raises(ParseError) as caught:
        read(str(path))
    assert (caught.value.file, caught.value.line) == (str(path), line)
    assert "not UTF-8" in str(caught.value)


def test_ragged_arrays_are_read_only():
    values = np.array([0.1, 0.2])
    ragged = Ragged(values, np.array([0, 2], dtype=np.int64))
    with pytest.raises(ValueError):
        ragged.values[0] = 0.5
    with pytest.raises(ValueError):
        ragged.offsets[1] = 1
    assert values.flags.writeable  # only the stream's own view is frozen
