"""The document layer as it was before it ran on flat arrays: one span, one
token and one character at a time. Kept as the oracle of the array core."""

from qestack.corpus import Tag, _read_lines
from qestack.doclevel import Annotation, Severity, Span
from qestack.errors import ParseError, RangeError, SpanOutOfBounds


def reference_tokenize_with_offsets(sentence):
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


def _check_span(doc, span):
    if span.sent_idx >= len(doc.sentences):
        raise SpanOutOfBounds(f"span sentence {span.sent_idx} outside document")
    if span.end > len(doc.sentences[span.sent_idx]):
        raise SpanOutOfBounds(
            f"span {span.start}-{span.end} outside sentence of length "
            f"{len(doc.sentences[span.sent_idx])}"
        )


def reference_annotations_to_tags(doc, annotations):
    spans_by_sentence = {}
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
        row = [None] * (2 * n + 1)
        row[0::2], row[1::2] = gap_tags, word_tags
        result.append(row)
    return result


def reference_tags_to_annotations(doc, tags, default_severity=Severity.MAJOR):
    if len(tags) != len(doc.sentences):
        raise RangeError("one tag row per sentence required")
    annotations = []
    for sent_idx, (sentence_tags, offsets) in enumerate(zip(tags, doc.token_offsets)):
        n = len(offsets)
        word_tags, gap_tags = sentence_tags[1::2], sentence_tags[0::2]
        if len(word_tags) != n:
            raise RangeError(f"sentence {sent_idx}: {len(word_tags)} word tags for {n} tokens")
        spans = []
        run_start = None
        for t in range(n + 1):
            bad = t < n and bool(word_tags[t])
            if bad and run_start is None:
                run_start = t
            elif not bad and run_start is not None:
                spans.append(Span(sent_idx, offsets[run_start][0], offsets[t - 1][1]))
                run_start = None
        borders = [0] + [off for pair in offsets for off in pair] + [len(doc.sentences[sent_idx])]
        for gap, tag in enumerate(gap_tags):
            if bool(tag):
                spans.append(Span(sent_idx, borders[2 * gap], borders[2 * gap + 1]))
        for span in sorted(spans):
            annotations.append(Annotation(severity=default_severity, spans=(span,)))
    return annotations


def _covered_units(doc, annotations):
    units = set()
    for ann in annotations:
        for span in ann.spans:
            _check_span(doc, span)
            if span.start == span.end:
                units.add((span.sent_idx, "border", span.start))
            else:
                units.update((span.sent_idx, "char", c) for c in range(span.start, span.end))
    return units


def reference_annotation_f1(gold, pred, docs):
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


def reference_read_annotations(path):
    by_doc = {}
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
