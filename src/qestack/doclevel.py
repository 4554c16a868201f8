"""Document-level pipeline: character-span annotations, their conversion to
and from token/gap tags, closed-form MQM, the 4-feature document regression,
and character-level annotation F1.

The tag conversion is deliberately lossy in four documented ways: severities
collapse to a default, partially covered tokens become fully BAD, adjacent
BAD tokens merge into one annotation, and multi-span annotations split into
one annotation per span. Gap-derived annotations keep their own zero-width
or whitespace-border spans so they survive round trips.
"""

from __future__ import annotations

import enum
import os
import re
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import Mapping

import numpy as np

from .corpus import Ragged, _cut_interleaved, _freeze_arrays, _read_lines, _read_table, _write_lines, _write_table
from .errors import InvalidInput, ParseError, RangeError, SpanOutOfBounds
from .ensemble import RidgeModel, ridge_fit
from .metrics import _class_f1_array

__all__ = [
    "Severity",
    "Span",
    "Annotation",
    "Document",
    "AnnotationTable",
    "AnnotationStats",
    "tokenize_with_offsets",
    "annotations_to_tags",
    "tags_to_annotations",
    "mqm_closed_form",
    "doc_mqm_features",
    "fit_doc_mqm",
    "predict_doc_mqm",
    "annotation_f1",
    "annotation_stats",
    "read_annotations",
    "write_annotations",
    "read_document_manifest",
    "read_doc_table",
    "write_doc_table",
    "DEFAULT_SEVERITY_WEIGHTS",
    "DOC_FEATURES",
]


class Severity(enum.Enum):
    MINOR = "minor"
    MAJOR = "major"
    CRITICAL = "critical"

    @classmethod
    def parse(cls, text: str, *, file=None, line=None) -> "Severity":
        try:
            return cls(text.lower())
        except ValueError:
            raise ParseError(f"unknown severity {text!r}", file=file, line=line) from None


_SEVERITIES = tuple(Severity)  # an AnnotationTable's severity codes index this
_CODES = {s.value: code for code, s in enumerate(_SEVERITIES)}

DEFAULT_SEVERITY_WEIGHTS: dict[Severity, float] = {
    Severity.MINOR: 1.0,
    Severity.MAJOR: 5.0,
    Severity.CRITICAL: 10.0,
}

# the document regression's features, in the order of doc_mqm_features; a
# document model holds one coefficient for each, under these names
DOC_FEATURES = ("mean_sentence_mqm", "bad_word_frac", "bad_gap_frac", "bad_all_frac")


@dataclass(frozen=True, order=True)
class Span:
    """A contiguous character block: 0-based, end-exclusive offsets within one
    sentence. ``start == end`` is allowed only for gap-anchored spans."""

    sent_idx: int
    start: int
    end: int

    def __post_init__(self):
        if self.sent_idx < 0 or self.start < 0 or self.end < self.start:
            raise SpanOutOfBounds(f"malformed span {self.sent_idx}:{self.start}-{self.end}")


@dataclass(frozen=True)
class Annotation:
    severity: Severity
    spans: tuple[Span, ...]

    def __post_init__(self):
        if not self.spans:
            raise InvalidInput("annotation needs at least one span")
        ordered = sorted(self.spans)
        if list(ordered) != list(self.spans):
            object.__setattr__(self, "spans", tuple(ordered))
        for left, right in zip(self.spans, self.spans[1:]):
            if left.sent_idx == right.sent_idx and right.start < left.end:
                raise InvalidInput("spans within one annotation may not overlap")

    @property
    def multi_span(self) -> bool:
        return len(self.spans) > 1

    @property
    def cross_sentence(self) -> bool:
        return len({s.sent_idx for s in self.spans}) > 1


def tokenize_with_offsets(sentence: str) -> list[tuple[int, int]]:
    """Offsets of the maximal non-whitespace runs of a raw sentence."""
    return list(Document.from_sentences([sentence]).token_offsets[0])


def _space_mask(text: str) -> np.ndarray:
    """``str.isspace`` of every character: ASCII by its code, any other
    character by asking Python once per distinct character."""
    codes = np.array(text).reshape(1).view(np.uint32)[: len(text)]  # the UCS-4 code points
    space = (codes - np.uint32(9) <= 4) | (codes - np.uint32(28) <= 4)  # \t..\r and \x1c..space
    if not text.isascii():
        for char in set(text):
            if ord(char) > 127 and char.isspace():
                space |= codes == ord(char)
    return space


@dataclass(frozen=True)
class Document:
    """Raw sentences plus their token borders in one int array. The sentences
    are laid end to end with one separator position after each, so every
    offset is document-global. Sentence ``i`` owns
    ``borders[offsets[i]:offsets[i + 1]]``: its start, each token's start
    and end, and its end; the 2N+1 intervals between consecutive borders
    are its gaps and tokens in tag-file order."""

    sentences: tuple[str, ...]
    borders: np.ndarray = field(compare=False, repr=False)  # int64, nondecreasing
    offsets: np.ndarray = field(compare=False, repr=False)  # int64, len(sentences) + 1

    def __post_init__(self):
        _freeze_arrays(self)

    @classmethod
    def from_sentences(cls, sentences: Sequence[str]) -> "Document":
        sentences = tuple(sentences)
        lengths = np.fromiter(map(len, sentences), np.int64, len(sentences))
        starts = np.concatenate(([0], np.cumsum(lengths + 1)))
        word = np.zeros(starts[-1] + 1, bool)  # False around the separator-joined text
        word[1:-1] = ~_space_mask("\n".join(sentences))
        edges = np.flatnonzero(word[1:] != word[:-1])  # token starts and ends, alternating
        offsets = 2 * np.searchsorted(edges[0::2], starts) + 2 * np.arange(len(sentences) + 1)
        return cls(sentences, np.sort(np.concatenate((edges, starts[:-1], starts[:-1] + lengths))), offsets)

    def __len__(self) -> int:
        return len(self.sentences)

    def n_words(self) -> int:
        return self.borders.size // 2 - len(self.sentences)

    def tag_lengths(self) -> list[int]:
        """2N+1 per sentence: the entries of its interleaved tag line."""
        return (np.diff(self.offsets) - 1).tolist()

    @cached_property
    def token_offsets(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Each sentence's ``(start, end)`` token offsets within the sentence."""
        local = (self.borders - np.repeat(self.borders[self.offsets[:-1]], np.diff(self.offsets))).tolist()
        bounds = self.offsets.tolist()
        # a sentence's borders are its start, token starts and ends alternating, and its end
        return tuple(
            tuple(zip(local[lo + 1 : hi - 1 : 2], local[lo + 2 : hi - 1 : 2]))
            for lo, hi in zip(bounds, bounds[1:])
        )


@dataclass(frozen=True, eq=False)
class AnnotationTable(Sequence):
    """One document's annotations as flat int arrays. It reads as, and
    equals, the list of :class:`Annotation` it holds."""

    severity: np.ndarray  # int8 index into Severity, one per annotation
    offsets: np.ndarray  # int64: annotation a holds spans[offsets[a]:offsets[a + 1]]
    spans: np.ndarray  # int64 rows (sentence, start, end), sorted within each annotation

    def __post_init__(self):
        _freeze_arrays(self)

    @classmethod
    def of(cls, annotations) -> "AnnotationTable":
        """A table as it is; Annotation objects converted once."""
        if isinstance(annotations, AnnotationTable):
            return annotations
        annotations = list(annotations)
        counts = np.fromiter((len(a.spans) for a in annotations), np.int64, len(annotations))
        spans = [(s.sent_idx, s.start, s.end) for a in annotations for s in a.spans]
        return cls(
            np.fromiter((_SEVERITIES.index(a.severity) for a in annotations), np.int8, len(annotations)),
            np.concatenate(([0], np.cumsum(counts))),
            np.array(spans, dtype=np.int64).reshape(-1, 3),
        )

    def __len__(self) -> int:
        return self.severity.size

    def __getitem__(self, index):
        return self._annotations[index]

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, Sequence) else NotImplemented

    @cached_property
    def _annotations(self) -> list[Annotation]:
        spans = [Span(*row) for row in self.spans.tolist()]
        bounds = self.offsets.tolist()
        return [
            Annotation(_SEVERITIES[code], tuple(spans[lo:hi]))
            for code, lo, hi in zip(self.severity.tolist(), bounds, bounds[1:])
        ]


def _place(doc: Document, table: AnnotationTable) -> tuple[np.ndarray, np.ndarray]:
    """The document-global start and end of every span; the first span, in
    table order, that lies outside the document raises."""
    sent, start, end = table.spans.T
    first = doc.borders[doc.offsets[:-1]]
    lengths = np.append(doc.borders[doc.offsets[1:] - 1] - first, -1)  # -1 past the last sentence
    outside = np.flatnonzero(end > lengths[np.minimum(sent, len(doc.sentences))])
    if outside.size:
        s, a, b = table.spans[outside[0]].tolist()
        if s >= len(doc.sentences):
            raise SpanOutOfBounds(f"span sentence {s} outside document")
        raise SpanOutOfBounds(f"span {a}-{b} outside sentence of length {lengths[s]}")
    return first[sent] + start, first[sent] + end


def annotations_to_tags(doc: Document, annotations: Sequence[Annotation]) -> Ragged:
    """Project spans onto token and gap tags: one row of interleaved BAD
    indicators (2N+1, gap 0 first) per sentence.

    A token is BAD when any of its characters belongs to a span. A gap is BAD
    only when a span begins and ends exactly on the gap's borders: the end of
    token i-1 and the start of token i, with the sentence start and end
    standing in at the first and last gap.
    """
    starts, ends = _place(doc, AnnotationTable.of(annotations))
    borders = doc.borders
    bad = np.zeros(max(borders.size - 1, 0), bool)  # per interval between consecutive borders
    # the odd intervals are the tokens, and the separators between sentences, which no span reaches;
    # a span covers those from the first that ends after it starts to the last that starts before it ends
    first = np.searchsorted(borders[2::2], starts, "right")
    stop = np.searchsorted(borders[1:-1:2], ends, "left")
    some, n_odd = first < stop, bad.size // 2
    depth = np.bincount(first[some], minlength=n_odd + 1) - np.bincount(stop[some], minlength=n_odd + 1)
    bad[1::2] = np.cumsum(depth)[:n_odd] > 0
    # even intervals are gaps, whose starts increase strictly
    gap = np.minimum(np.searchsorted(borders[0::2], starts), borders.size // 2 - 1)
    hit = (borders[0::2][gap] == starts) & (borders[1::2][gap] == ends)
    bad[2 * gap[hit]] = True
    return Ragged(np.delete(bad, doc.offsets[1:-1] - 1), doc.offsets - np.arange(len(doc.sentences) + 1))


def tags_to_annotations(
    doc: Document,
    tags: Sequence[Sequence[bool]],
    default_severity: Severity = Severity.MAJOR,
) -> AnnotationTable:
    """Retrieve annotations from predicted tags: per sentence one row of its
    2N+1 interleaved BAD indicators.

    Each maximal run of contiguous BAD tokens becomes one single-span
    annotation; each BAD gap becomes its own annotation over the gap borders,
    with no merge attempted. All annotations get ``default_severity``.
    """
    if len(tags) != len(doc.sentences):
        raise RangeError("one tag row per sentence required")
    bad = Ragged.from_rows(tags, dtype=bool)
    words, tokens = np.diff(bad.offsets) // 2, np.diff(doc.offsets) // 2 - 1
    wrong = np.flatnonzero(words != tokens)
    if wrong.size:
        raise RangeError(f"sentence {wrong[0]}: {words[wrong[0]]} word tags for {tokens[wrong[0]]} tokens")
    # entry p of sentence i's tag line is interval p + i of the document's borders
    marked = np.flatnonzero(bad.values)
    marked += np.searchsorted(bad.offsets, marked, "right") - 1
    token, gap = marked[marked % 2 == 1], marked[marked % 2 == 0]
    first = np.concatenate((token[np.diff(token, prepend=-3) != 2], gap))
    last = np.concatenate((token[np.diff(token, append=-1) != 2], gap))
    order = np.lexsort((doc.borders[last + 1], doc.borders[first]))
    first, last = first[order], last[order]
    sent = np.searchsorted(doc.offsets, first, "right") - 1
    base = doc.borders[doc.offsets[sent]]
    spans = np.stack((sent, doc.borders[first] - base, doc.borders[last + 1] - base), axis=1)
    severity = np.full(len(spans), _SEVERITIES.index(default_severity), np.int8)
    return AnnotationTable(severity, np.arange(len(spans) + 1), spans)


def mqm_closed_form(
    counts: Mapping[Severity, int],
    n_words: int,
    weights: Mapping[Severity, float] | None = None,
    floor: float | None = None,
) -> float:
    """MQM on the 0-100 scale from severity counts and the document word
    count; negative scores are allowed unless a ``floor`` is given."""
    if n_words < 1:
        raise RangeError("n_words must be >= 1")
    weights = DEFAULT_SEVERITY_WEIGHTS if weights is None else weights
    penalty = 0.0
    for severity, count in counts.items():
        if count < 0:
            raise RangeError("severity counts must be nonnegative")
        weight = weights[severity]
        if weight < 0:
            raise RangeError("severity weights must be nonnegative")
        penalty += weight * count
    score = 100.0 * (1.0 - penalty / n_words)
    if floor is not None:
        score = max(floor, score)
    return score


def doc_mqm_features(tags: Sequence[Sequence[bool]], sentence_mqms: Sequence[float]) -> list[float]:
    """The 4 regression features: unweighted mean sentence MQM and the BAD
    fractions among token tags, gap tags and all tags, from the tags as
    :func:`tags_to_annotations` takes them. The mean adds the MQMs left to
    right from 0.0, whatever the Python version's ``sum()`` does, and the
    fractions divide integer counts."""
    if not tags or len(tags) != len(sentence_mqms):
        raise RangeError("need one predicted MQM per sentence")
    bad = Ragged.from_rows(tags, dtype=bool)
    words, gaps = (_cut_interleaved(bad, stream).values for stream in ("words", "gaps"))
    bad_words, bad_gaps = int(np.count_nonzero(words)), int(np.count_nonzero(gaps))
    n_words, n_gaps = words.size, gaps.size
    return [
        float(np.cumsum([0.0, *sentence_mqms])[-1]) / len(sentence_mqms),
        bad_words / n_words if n_words else 0.0,
        bad_gaps / n_gaps if n_gaps else 0.0,
        (bad_words + bad_gaps) / (n_words + n_gaps) if n_words + n_gaps else 0.0,
    ]


def fit_doc_mqm(features, gold_mqms, lam: float = 0.0) -> RidgeModel:
    """Least squares by default; a lambda grid is available upstream."""
    features = [list(row) for row in features]
    if len(features) < 5:
        raise RangeError("need at least 5 documents to fit")
    return ridge_fit(features, list(gold_mqms), lam, feature_names=DOC_FEATURES)


def predict_doc_mqm(model: RidgeModel, features) -> float:
    return float(model.predict([list(features)])[0])


# ---------------------------------------------------------------------------
# Character-level annotation F1
# ---------------------------------------------------------------------------


def _units(doc: Document, annotations) -> np.ndarray:
    """One flag per unit that spans can cover: each character of the
    document, by its document-global offset, then each offset again as the
    border unit that a zero-width span covers."""
    starts, ends = _place(doc, AnnotationTable.of(annotations))
    size = int(doc.borders[-1]) if doc.borders.size else 0
    wide = ends > starts
    depth = np.bincount(starts[wide], minlength=size + 1) - np.bincount(ends[wide], minlength=size + 1)
    units = np.zeros(2 * size + 1, bool)
    units[:size] = np.cumsum(depth)[:size] > 0
    units[size + starts[~wide]] = True
    return units


def annotation_f1(
    gold: Sequence[Sequence[Annotation]],
    pred: Sequence[Sequence[Annotation]],
    docs: Sequence[Document],
) -> float:
    """Micro-averaged character-level F1 of the BAD class over a corpus of
    documents (pass single-element lists for one document)."""
    if not (len(gold) == len(pred) == len(docs)):
        raise InvalidInput("gold, pred and docs must be parallel")
    tp = predicted = present = 0
    for gold_anns, pred_anns, doc in zip(gold, pred, docs):
        gold_units, pred_units = _units(doc, gold_anns), _units(doc, pred_anns)
        tp += int(np.count_nonzero(gold_units & pred_units))
        predicted += int(np.count_nonzero(pred_units))
        present += int(np.count_nonzero(gold_units))
    return float(_class_f1_array(np.array([tp]), np.array([predicted]), present)[0])


@dataclass(frozen=True)
class AnnotationStats:
    total: int
    multi_span: int
    cross_sentence: int
    severity_counts: dict[Severity, int]

    def severity_percentages(self) -> dict[Severity, float]:
        if self.total == 0:
            return {s: 0.0 for s in Severity}
        return {s: 100.0 * self.severity_counts.get(s, 0) / self.total for s in Severity}


def annotation_stats(annotations: Sequence[Annotation]) -> AnnotationStats:
    table = AnnotationTable.of(annotations)
    first, last = table.offsets[:-1], table.offsets[1:] - 1
    return AnnotationStats(
        total=len(table),
        multi_span=int(np.count_nonzero(last > first)),
        cross_sentence=int(np.count_nonzero(table.spans[first, 0] != table.spans[last, 0])),
        severity_counts=dict(zip(Severity, np.bincount(table.severity, minlength=len(Severity)).tolist())),
    )


# ---------------------------------------------------------------------------
# File formats (this toolkit's own)
# ---------------------------------------------------------------------------


def _format_table(doc_id: str, table: AnnotationTable) -> list[str]:
    spans = list(map("{}:{}-{}".format, *table.spans.T.tolist()))
    bounds = table.offsets.tolist()
    names = list(_CODES)
    return [
        f"{doc_id}\t{names[code]}\t{','.join(spans[lo:hi])}"
        for code, lo, hi in zip(table.severity.tolist(), bounds, bounds[1:])
    ]


def write_annotations(by_doc: Mapping[str, Sequence[Annotation]], path):
    """One annotation per line: ``doc_id<TAB>severity<TAB>sent:start-end[,...]``."""
    tables = ((doc_id, AnnotationTable.of(anns)) for doc_id, anns in by_doc.items())
    _write_lines(path, (line for doc_id, table in tables for line in _format_table(doc_id, table)))


_NUMBER = "[0-9]{1,18}"
_SPAN = f"{_NUMBER}:{_NUMBER}-{_NUMBER}"
# a line as write_annotations writes it
_WRITTEN_LINE = f"^([^\t\n]*)\t(minor|major|critical)\t({_SPAN}(?:,{_SPAN})*)$"


def _parse_annotation_line(line: str, path, i: int) -> str:
    """One line, checked as the line-by-line reader always checked it (numbers
    as ``int()`` reads them), given back in its written form."""
    fields = line.split("\t")
    if len(fields) != 3:
        raise ParseError("expected doc_id<TAB>severity<TAB>spans", file=str(path), line=i)
    doc_id, severity_text, span_text = fields
    severity = Severity.parse(severity_text, file=str(path), line=i)
    spans = []
    for part in span_text.split(","):
        try:
            sent, _, rest = part.partition(":")
            start, _, end = rest.partition("-")
            values = (int(sent), int(start), int(end))
            if max(values) >= 10**18:  # beyond the written form's 18 digits
                raise ValueError(part)
            spans.append(Span(*values))
        except (ValueError, SpanOutOfBounds):
            raise ParseError(f"malformed span {part!r}", file=str(path), line=i) from None
    try:
        annotation = Annotation(severity=severity, spans=tuple(spans))
        return _format_table(doc_id, AnnotationTable.of([annotation]))[0]
    except ValueError as exc:
        raise ParseError(str(exc), file=str(path), line=i) from None


def read_annotations(path) -> dict[str, AnnotationTable]:
    """Each document's annotations, in file order, as a table. Lines in the
    written form are parsed together and checked in vectorised passes; a
    file with any other line is parsed line by line. Either way the first
    bad line raises its first error."""
    lines = _read_lines(path)
    rows = re.findall(_WRITTEN_LINE, "\n".join(lines), re.M)
    if len(rows) != len(lines):
        written = (_parse_annotation_line(line, path, i) for i, line in enumerate(lines, 1))
        rows = re.findall(_WRITTEN_LINE, "\n".join(written), re.M)
    if not rows:
        return {}
    doc_ids, severities, span_texts = zip(*rows)
    numbers = ",".join(span_texts).replace(":", ",").replace("-", ",")
    spans = np.fromstring(numbers, np.int64, sep=",").reshape(-1, 3)
    counts = np.fromiter(map(str.count, span_texts, repeat(",")), np.int64, len(rows)) + 1
    doc_index = {doc_id: k for k, doc_id in enumerate(dict.fromkeys(doc_ids))}
    doc = np.fromiter(map(doc_index.__getitem__, doc_ids), np.int64, len(rows))
    owner = np.repeat(np.arange(len(rows)), counts)
    # spans grouped by document, then by annotation in file order, each annotation's sorted
    order = np.lexsort((spans[:, 2], spans[:, 1], spans[:, 0], owner, doc[owner]))
    spans, owner = spans[order], owner[order]
    overlap = (owner[1:] == owner[:-1]) & (spans[1:, 0] == spans[:-1, 0]) & (spans[1:, 1] < spans[:-1, 2])
    bad = np.concatenate((owner[spans[:, 2] < spans[:, 1]], owner[1:][overlap]))
    if bad.size:
        i = int(bad.min())
        _parse_annotation_line(lines[i], path, i + 1)
        raise AssertionError(f"{path}:{i + 1} passes the line-by-line check")
    by_doc = np.argsort(doc, kind="stable")
    severity = np.fromiter(map(_CODES.__getitem__, severities), np.int8, len(rows))[by_doc]
    offsets = np.concatenate(([0], np.cumsum(counts[by_doc])))
    bounds = np.searchsorted(doc[by_doc], np.arange(len(doc_index) + 1)).tolist()
    tables = {}
    for doc_id, lo, hi in zip(doc_index, bounds, bounds[1:]):
        first, last = offsets[lo], offsets[hi]
        tables[doc_id] = AnnotationTable(severity[lo:hi], offsets[lo : hi + 1] - first, spans[first:last])
    return tables


def read_document_manifest(path) -> dict[str, Document]:
    """Manifest: ``doc_id<TAB>relative/path`` per line; each referenced file
    holds one raw sentence per line."""
    base = os.path.dirname(os.path.abspath(path))
    docs: dict[str, Document] = {}
    for i, line in enumerate(_read_lines(path), 1):
        doc_id, sep, rel = line.partition("\t")
        if not sep or not doc_id or not rel:
            raise ParseError("expected doc_id<TAB>path", file=str(path), line=i)
        if doc_id in docs:
            raise ParseError(f"duplicate document id {doc_id!r}", file=str(path), line=i)
        doc_path = os.path.join(base, rel)
        sentences = _read_lines(doc_path)
        if not sentences:
            raise ParseError("document holds no sentences", file=doc_path)
        docs[doc_id] = Document.from_sentences(sentences)
    return docs


def read_doc_table(path, n_columns: int) -> dict[str, list[float]]:
    """A document feature or MQM table: ``doc_id<TAB>value...`` per line with
    ``n_columns`` finite values."""
    doc_ids, columns = _read_table(path, n_columns)
    return dict(zip(doc_ids, map(list, zip(*columns))))


def write_doc_table(table: Mapping[str, Sequence[float]], path):
    _write_table(path, table, *zip(*table.values(), strict=True))
