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
from dataclasses import dataclass
from typing import Mapping, Sequence

from .corpus import Tag, TargetTags, _parse_float, _read_lines, _write_lines
from .errors import ParseError, RangeError, SpanOutOfBounds
from .ensemble import RidgeModel, ridge_fit

__all__ = [
    "Severity",
    "Span",
    "Annotation",
    "Document",
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


DEFAULT_SEVERITY_WEIGHTS: dict[Severity, float] = {
    Severity.MINOR: 1.0,
    Severity.MAJOR: 5.0,
    Severity.CRITICAL: 10.0,
}


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
            raise ValueError("annotation needs at least one span")
        ordered = sorted(self.spans)
        if list(ordered) != list(self.spans):
            object.__setattr__(self, "spans", tuple(ordered))
        for left, right in zip(self.spans, self.spans[1:]):
            if left.sent_idx == right.sent_idx and right.start < left.end:
                raise ValueError("spans within one annotation may not overlap")

    @property
    def multi_span(self) -> bool:
        return len(self.spans) > 1

    @property
    def cross_sentence(self) -> bool:
        return len({s.sent_idx for s in self.spans}) > 1


def tokenize_with_offsets(sentence: str) -> list[tuple[int, int]]:
    """Offsets of the maximal non-whitespace runs of a raw sentence."""
    offsets = []
    start = None
    for i, ch in enumerate(sentence):
        if ch.isspace():
            if start is not None:
                offsets.append((start, i))
                start = None
        elif start is None:
            start = i
    if start is not None:
        offsets.append((start, len(sentence)))
    return offsets


@dataclass(frozen=True)
class Document:
    """Raw sentences plus their token offsets."""

    sentences: tuple[str, ...]
    token_offsets: tuple[tuple[tuple[int, int], ...], ...]

    @classmethod
    def from_sentences(cls, sentences: Sequence[str]) -> "Document":
        return cls(
            sentences=tuple(sentences),
            token_offsets=tuple(tuple(tokenize_with_offsets(s)) for s in sentences),
        )

    def __len__(self) -> int:
        return len(self.sentences)

    def n_words(self) -> int:
        return sum(len(offsets) for offsets in self.token_offsets)


def _check_span(doc: Document, span: Span):
    if span.sent_idx >= len(doc.sentences):
        raise SpanOutOfBounds(f"span sentence {span.sent_idx} outside document")
    if span.end > len(doc.sentences[span.sent_idx]):
        raise SpanOutOfBounds(
            f"span {span.start}-{span.end} outside sentence of length "
            f"{len(doc.sentences[span.sent_idx])}"
        )


def annotations_to_tags(doc: Document, annotations: Sequence[Annotation]) -> list[TargetTags]:
    """Project spans onto token and gap tags, one TargetTags per sentence.

    A token is BAD when any of its characters belongs to a span. A gap is BAD
    only when a span begins and ends exactly on the gap's borders: the end of
    token i-1 and the start of token i, with the sentence start and end
    standing in at the first and last gap.
    """
    spans_by_sentence: dict[int, list[Span]] = {}
    for ann in annotations:
        for span in ann.spans:
            _check_span(doc, span)
            spans_by_sentence.setdefault(span.sent_idx, []).append(span)

    result = []
    for sent_idx, offsets in enumerate(doc.token_offsets):
        spans = spans_by_sentence.get(sent_idx, ())
        n = len(offsets)
        word_tags = [Tag.OK] * n
        gap_tags = [Tag.OK] * (n + 1)
        borders = [0] + [off for pair in offsets for off in pair] + [len(doc.sentences[sent_idx])]
        for span in spans:
            for t, (tok_start, tok_end) in enumerate(offsets):
                if span.start < tok_end and tok_start < span.end:
                    word_tags[t] = Tag.BAD
            for gap in range(n + 1):
                gap_start = borders[2 * gap]
                gap_end = borders[2 * gap + 1]
                if span.start == gap_start and span.end == gap_end:
                    gap_tags[gap] = Tag.BAD
        result.append(TargetTags(word_tags=tuple(word_tags), gap_tags=tuple(gap_tags)))
    return result


def tags_to_annotations(
    doc: Document,
    tags: Sequence[TargetTags],
    default_severity: Severity = Severity.MAJOR,
) -> list[Annotation]:
    """Retrieve annotations from predicted tags.

    Each maximal run of contiguous BAD tokens becomes one single-span
    annotation; each BAD gap becomes its own annotation over the gap borders,
    with no merge attempted. All annotations get ``default_severity``.
    """
    if len(tags) != len(doc.sentences):
        raise RangeError("one TargetTags per sentence required")
    annotations = []
    for sent_idx, (sentence_tags, offsets) in enumerate(zip(tags, doc.token_offsets)):
        n = len(offsets)
        if len(sentence_tags.word_tags) != n:
            raise RangeError(f"sentence {sent_idx}: {len(sentence_tags.word_tags)} word tags for {n} tokens")
        spans: list[Span] = []
        run_start = None
        for t in range(n + 1):
            bad = t < n and sentence_tags.word_tags[t] is Tag.BAD
            if bad and run_start is None:
                run_start = t
            elif not bad and run_start is not None:
                spans.append(Span(sent_idx, offsets[run_start][0], offsets[t - 1][1]))
                run_start = None
        borders = [0] + [off for pair in offsets for off in pair] + [len(doc.sentences[sent_idx])]
        for gap, tag in enumerate(sentence_tags.gap_tags):
            if tag is Tag.BAD:
                spans.append(Span(sent_idx, borders[2 * gap], borders[2 * gap + 1]))
        for span in sorted(spans):
            annotations.append(Annotation(severity=default_severity, spans=(span,)))
    return annotations


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


def doc_mqm_features(
    tags: Sequence[TargetTags], sentence_mqms: Sequence[float]
) -> list[float]:
    """The 4 regression features: unweighted mean sentence MQM and the BAD
    fractions among token tags, gap tags and all tags."""
    if not tags or len(tags) != len(sentence_mqms):
        raise RangeError("need one predicted MQM per sentence")
    bad_words = sum(1 for t in tags for tag in t.word_tags if tag is Tag.BAD)
    bad_gaps = sum(1 for t in tags for tag in t.gap_tags if tag is Tag.BAD)
    n_words = sum(len(t.word_tags) for t in tags)
    n_gaps = sum(len(t.gap_tags) for t in tags)
    return [
        sum(sentence_mqms) / len(sentence_mqms),
        bad_words / n_words if n_words else 0.0,
        bad_gaps / n_gaps if n_gaps else 0.0,
        (bad_words + bad_gaps) / (n_words + n_gaps) if n_words + n_gaps else 0.0,
    ]


def fit_doc_mqm(features, gold_mqms, lam: float = 0.0) -> RidgeModel:
    """Least squares by default; a lambda grid is available upstream."""
    features = [list(row) for row in features]
    if len(features) < 5:
        raise RangeError("need at least 5 documents to fit")
    return ridge_fit(
        features,
        list(gold_mqms),
        lam,
        feature_names=["mean_sentence_mqm", "bad_word_frac", "bad_gap_frac", "bad_all_frac"],
    )


def predict_doc_mqm(model: RidgeModel, features) -> float:
    return float(model.predict([list(features)])[0])


# ---------------------------------------------------------------------------
# Character-level annotation F1
# ---------------------------------------------------------------------------


def _covered_units(doc: Document, annotations: Sequence[Annotation]) -> set[tuple]:
    """Units covered by spans: one per character, plus one border unit for a
    zero-width gap span (identified by its offset)."""
    units: set[tuple] = set()
    for ann in annotations:
        for span in ann.spans:
            _check_span(doc, span)
            if span.start == span.end:
                units.add((span.sent_idx, "border", span.start))
            else:
                units.update((span.sent_idx, "char", c) for c in range(span.start, span.end))
    return units


def annotation_f1(
    gold: Sequence[Sequence[Annotation]],
    pred: Sequence[Sequence[Annotation]],
    docs: Sequence[Document],
) -> float:
    """Micro-averaged character-level F1 of the BAD class over a corpus of
    documents (pass single-element lists for one document)."""
    if not (len(gold) == len(pred) == len(docs)):
        raise ValueError("gold, pred and docs must be parallel")
    tp = fp = fn = 0
    for gold_anns, pred_anns, doc in zip(gold, pred, docs):
        gold_units = _covered_units(doc, gold_anns)
        pred_units = _covered_units(doc, pred_anns)
        tp += len(gold_units & pred_units)
        fp += len(pred_units - gold_units)
        fn += len(gold_units - pred_units)
    if tp == 0:
        return 0.0 if (fp or fn) else 1.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall)


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
    severity_counts = {s: 0 for s in Severity}
    multi = cross = 0
    for ann in annotations:
        severity_counts[ann.severity] += 1
        if ann.multi_span:
            multi += 1
        if ann.cross_sentence:
            cross += 1
    return AnnotationStats(
        total=len(annotations),
        multi_span=multi,
        cross_sentence=cross,
        severity_counts=severity_counts,
    )


# ---------------------------------------------------------------------------
# File formats (this toolkit's own)
# ---------------------------------------------------------------------------


def _format_annotation(doc_id: str, ann: Annotation) -> str:
    spans = ",".join(f"{s.sent_idx}:{s.start}-{s.end}" for s in ann.spans)
    return f"{doc_id}\t{ann.severity.value}\t{spans}"


def write_annotations(by_doc: Mapping[str, Sequence[Annotation]], path):
    """One annotation per line: ``doc_id<TAB>severity<TAB>sent:start-end[,...]``."""
    _write_lines(path, (_format_annotation(doc_id, ann) for doc_id, anns in by_doc.items() for ann in anns))


def read_annotations(path) -> dict[str, list[Annotation]]:
    by_doc: dict[str, list[Annotation]] = {}
    for i, line in enumerate(_read_lines(path), 1):
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
                spans.append(Span(int(sent), int(start), int(end)))
            except (ValueError, SpanOutOfBounds):
                raise ParseError(f"malformed span {part!r}", file=str(path), line=i) from None
        try:
            by_doc.setdefault(doc_id, []).append(Annotation(severity=severity, spans=tuple(spans)))
        except ValueError as exc:
            raise ParseError(str(exc), file=str(path), line=i) from None
    return by_doc


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
    ``n_columns`` values."""
    table = {}
    for i, line in enumerate(_read_lines(path), 1):
        doc_id, *values = line.split("\t")
        if len(values) != n_columns:
            raise ParseError(f"expected doc_id and {n_columns} values", file=str(path), line=i)
        table[doc_id] = [_parse_float(v, file=str(path), line=i) for v in values]
    return table


def write_doc_table(table: Mapping[str, Sequence[float]], path):
    _write_lines(path, (doc_id + "".join(f"\t{float(v)!r}" for v in row) for doc_id, row in table.items()))
