"""Data model and bit-exact file I/O for WMT-style QE corpora.

File conventions (all plain text, UTF-8, one segment per line, no empty
lines anywhere):

* ``*.src`` / ``*.mt`` / ``*.pe`` -- whitespace-tokenized sentences.
* ``*.tags`` -- interleaved gap/word tags, ``g0 w1 g1 ... wN gN`` (2N+1
  entries for an N-token MT sentence), or N word tags behind a flag; read
  as a :class:`Ragged` of bool BAD indicators (:func:`read_tag_stream`).
* ``*.source_tags`` -- one tag per source token.
* ``*.hter`` -- one float in [0, 1] per line.
* ``*.probs`` -- one float in [0, 1] per token per line, read into a
  :class:`Ragged` (flat float64 values plus per-line offsets).
* ``*.align`` -- whitespace-separated ``i-j`` pairs of ASCII digits,
  0-based, ``i`` indexing the source sentence and ``j`` the MT sentence.
  Each line is read with its pairs deduplicated and sorted, into one int64
  pair array on per-line offsets (:func:`read_alignment_lines`); an entry
  holds its line as an :class:`Alignment`, a view of that array.

A tag is a ``bool``, BAD being true, from the labeler to the writers.
:class:`Tag` names the two values in files; ``Tag`` rows are still read as
BAD indicators, but nothing here makes them.

Loaded structures are immutable and safe to share across threads.
"""

from __future__ import annotations

import enum
import operator
import os
from dataclasses import dataclass, fields
from itertools import chain

import numpy as np

from .errors import InvalidInput, LengthMismatch, ParseError, RangeError

__all__ = [
    "Tag",
    "Stream",
    "Sentence",
    "TargetTags",
    "SourceTags",
    "Entry",
    "Alignment",
    "TaggedCorpus",
    "Ragged",
    "PredictionSet",
    "load_corpus",
    "load_predictions",
    "read_manifest",
    "read_tag_stream",
    "read_alignment_lines",
    "alignment_table",
    "corpus_alignments",
    "first_out_of_range",
    "is_tag_file",
    "stream_lengths",
    "check_lengths",
    "write_tags",
    "write_probs",
    "write_scores",
    "write_alignments",
    "write_sentences",
]


class Tag(enum.Enum):
    """The two tag names of the files. The toolkit's tags are bools; a Tag
    is accepted as input and reads as one."""

    OK = "OK"
    BAD = "BAD"

    def __str__(self) -> str:
        return self.value

    def __bool__(self) -> bool:
        """The tag's BAD indicator: BAD is true."""
        return self is Tag.BAD


class Stream(enum.Enum):
    """The three token-level prediction streams a system may emit."""

    WORDS = "words"
    GAPS = "gaps"
    SOURCE = "source"


@dataclass(frozen=True)
class Sentence:
    """A tokenized sentence; tokens are non-empty and whitespace-free."""

    tokens: tuple[str, ...]

    def __post_init__(self):
        if not self.tokens:
            raise ParseError("empty sentence")
        for tok in self.tokens:
            if not tok or tok.split() != [tok]:
                raise ParseError(f"token {tok!r} is empty or contains whitespace")

    @classmethod
    def _trusted(cls, tokens: tuple[str, ...]) -> "Sentence":
        """A sentence built without ``__post_init__``'s checks, for tokens
        known to pass them: the ``str.split()`` of a line that is not blank."""
        sentence = object.__new__(cls)
        object.__setattr__(sentence, "tokens", tokens)
        return sentence

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


@dataclass(frozen=True)
class TargetTags:
    """BAD indicators of the N MT tokens plus N+1 gaps (gap 0 precedes the
    first token). It reads as its 2N+1 tags in file order: gap 0, word 1,
    gap 1, and so on."""

    word_tags: tuple[bool, ...]
    gap_tags: tuple[bool, ...]

    def __post_init__(self):
        if len(self.gap_tags) != len(self.word_tags) + 1:
            raise LengthMismatch(
                f"{len(self.word_tags)} word tags need {len(self.word_tags) + 1} "
                f"gap tags, got {len(self.gap_tags)}"
            )

    def __len__(self) -> int:
        return 2 * len(self.word_tags) + 1

    def __iter__(self):
        tags = [False] * len(self)
        tags[0::2] = self.gap_tags
        tags[1::2] = self.word_tags
        return iter(tags)

    @classmethod
    def from_interleaved(cls, tags, *, file=None, line=None) -> "TargetTags":
        tags = tuple(tags)
        _check_interleaved(len(tags), file=file, line=line)
        return cls(word_tags=tags[1::2], gap_tags=tags[0::2])

    @classmethod
    def words_only(cls, word_tags) -> "TargetTags":
        word_tags = tuple(word_tags)
        return cls(word_tags=word_tags, gap_tags=(False,) * (len(word_tags) + 1))


def _check_interleaved(n: int, *, file=None, line=None):
    if n < 3 or n % 2 == 0:
        raise LengthMismatch(f"interleaved tag line must hold 2N+1 entries, got {n}", file=file, line=line)


@dataclass(frozen=True)
class SourceTags:
    """BAD indicators of the source tokens."""

    tags: tuple[bool, ...]

    def __len__(self) -> int:
        return len(self.tags)

    def __iter__(self):
        return iter(self.tags)


class Alignment:
    """The word alignment of one segment: its distinct ``(source index, MT
    index)`` pairs in sorted order, held as a read-only (k, 2) int64 array
    (for a loaded corpus, a view of the file's one pair array). It iterates
    as ``(src, mt)`` tuples, and equals and hashes like the frozenset of
    them."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: np.ndarray):
        self.pairs = pairs

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return map(tuple, self.pairs.tolist())

    def __eq__(self, other):
        if isinstance(other, Alignment):
            return np.array_equal(self.pairs, other.pairs)
        if isinstance(other, (set, frozenset)):
            return frozenset(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self))

    def __repr__(self) -> str:
        return f"Alignment({list(self)!r})"


@dataclass(frozen=True)
class Entry:
    """One aligned segment: source, MT, optional post-edit, labels, HTER and
    word alignments. A loaded corpus holds each line's alignments as an
    :class:`Alignment` (sorted, distinct pairs); an entry built in code may
    hold any collection of ``(src, mt)`` pairs, a frozenset for instance."""

    mt: Sentence
    src: Sentence | None = None
    pe: Sentence | None = None
    target_tags: TargetTags | None = None
    source_tags: SourceTags | None = None
    hter: float | None = None
    alignments: Alignment | frozenset[tuple[int, int]] | None = None


@dataclass(frozen=True)
class TaggedCorpus:
    entries: tuple[Entry, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def mt_lengths(self) -> list[int]:
        return [len(e.mt) for e in self.entries]


def _freeze_arrays(obj):
    """Give each array field of a frozen dataclass a read-only view of its
    own, so that nothing derived from the arrays can go stale."""
    for field_ in fields(obj):
        value = getattr(obj, field_.name)
        if isinstance(value, np.ndarray):
            view = value.view()
            view.flags.writeable = False
            object.__setattr__(obj, field_.name, view)


@dataclass(frozen=True, eq=False)
class Ragged:
    """Rows of float64 probabilities or bool BAD indicators, stored flat: row
    ``i`` is ``values[offsets[i]:offsets[i + 1]]``. It reads as a sequence of
    rows (lists of Python values) and equals any rows that hold the same
    values in its dtype."""

    values: np.ndarray  # float64 or bool, every row's entries in order
    offsets: np.ndarray  # int64, len(rows) + 1 entries, offsets[0] == 0

    def __post_init__(self):
        _freeze_arrays(self)

    @classmethod
    def from_rows(cls, rows, dtype=np.float64) -> "Ragged":
        """Any rows (TargetTags and SourceTags are rows of their tags); a Ragged
        is kept, or cast to ``dtype``. ``dtype=bool`` reads ``Tag`` rows as BAD."""
        if isinstance(rows, Ragged):
            return rows if rows.values.dtype == dtype else cls(rows.values.astype(dtype), rows.offsets)
        rows = list(rows)
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, rows), dtype=np.int64, count=len(rows)), out=offsets[1:])
        values = np.fromiter(chain.from_iterable(rows), dtype=dtype, count=int(offsets[-1]))
        return cls(values, offsets)

    def rows(self) -> list[list[float]]:
        """The row view: one list of Python values per row, bit for bit."""
        flat = self.values.tolist()
        bounds = self.offsets.tolist()
        return [flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __iter__(self):
        return iter(self.rows())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.rows()[index]
        index = range(len(self))[index]
        return self.values[self.offsets[index]:self.offsets[index + 1]].tolist()

    def __eq__(self, other):
        try:
            other = Ragged.from_rows(other, dtype=self.values.dtype)
        except (TypeError, ValueError):
            return NotImplemented
        return np.array_equal(self.offsets, other.offsets) and np.array_equal(self.values, other.values)


@dataclass(frozen=True)
class PredictionSet:
    """Per-system predictions: P(BAD) per MT word, optionally per gap and per
    source token, and optionally one score per sentence. The token streams
    are :class:`Ragged`; rows given in any other form are converted once."""

    system_id: str
    word_probs: Ragged
    gap_probs: Ragged | None = None
    source_probs: Ragged | None = None
    sentence_scores: tuple[float, ...] | None = None

    def __post_init__(self):
        for name in ("word_probs", "gap_probs", "source_probs"):
            rows = getattr(self, name)
            if rows is not None:
                object.__setattr__(self, name, Ragged.from_rows(rows))

    def __len__(self) -> int:
        return len(self.word_probs)

    def stream(self, stream: Stream) -> Ragged | None:
        """The per-token rows of one stream, or None when the system has none."""
        if stream is Stream.WORDS:
            return self.word_probs
        return self.gap_probs if stream is Stream.GAPS else self.source_probs


# ---------------------------------------------------------------------------
# Low-level line readers. Every artifact of the toolkit is read through
# _read_lines and written through _write_lines, and its numbers are parsed by
# _parse_float. Empty lines are invalid everywhere: degenerate segments must
# be filtered upstream, so we fail fast instead of guessing.
# ---------------------------------------------------------------------------


def _utf8_error(path) -> ParseError:
    """The error for a file that does not decode as UTF-8, naming the line
    (as ``splitlines`` counts them) of its first invalid byte."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start].decode("utf-8") + "?").splitlines())
        return ParseError(
            f"not UTF-8: {exc.reason} (byte 0x{data[exc.start]:02x})", file=str(path), line=line
        )
    return ParseError("not UTF-8", file=str(path))  # the file changed since the failed read


def _read_lines(path) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except UnicodeDecodeError:
        raise _utf8_error(path) from None
    for i, line in enumerate(lines, 1):
        if not line.strip():
            raise ParseError("empty line", file=str(path), line=i)
    return lines


def read_sentences(path) -> list[Sentence]:
    """One sentence per line. ``_read_lines`` rejects blank lines, so each
    line splits into at least one token, none empty or holding whitespace."""
    trusted = Sentence._trusted
    return [trusted(tuple(line.split())) for line in _read_lines(path)]


def _read_fields(path) -> tuple[list[str], list[str], np.ndarray]:
    """A file's lines, their fields in one flat list, and each line's int64 offset into it."""
    lines = _read_lines(path)
    fields = []
    offsets = [0]
    for line in lines:
        fields += line.split()
        offsets.append(len(fields))
    return lines, fields, np.array(offsets, dtype=np.int64)


def read_tag_lines(path) -> list[list[bool]]:
    """Every line's tags as read, BAD being true."""
    return read_tag_stream(path, "source").rows()


def read_tag_stream(path, stream: str, lengths=()) -> Ragged:
    """One stream of a tag file as bool BAD indicators on per-line offsets.
    ``target`` and ``source`` lines are taken as read; a ``target`` line must
    be interleaved (2N+1). A ``words`` or ``gaps`` line is taken as read when
    its length is already ``lengths[i]``, else it must be interleaved and
    keeps only that stream's tags. The first field that is not OK or BAD,
    in file order, is a ParseError."""
    values, offsets = [], [0]
    for line in _read_lines(path):
        try:
            values += map({"OK": False, "BAD": True}.__getitem__, line.split())
        except KeyError as exc:
            message = f"invalid tag {exc.args[0]!r} (expected OK or BAD)"
            raise ParseError(message, file=str(path), line=len(offsets)) from None
        offsets.append(len(values))
    tags = Ragged(np.array(values, dtype=bool), np.array(offsets, dtype=np.int64))
    if stream not in ("target", "words", "gaps"):
        return tags
    counts = np.diff(tags.offsets)
    # the lines to cut: every line of the target, else those not yet at their length
    cut = np.ones(counts.size, bool)
    if stream != "target":
        known = min(len(lengths), counts.size)
        cut[:known] = counts[:known] != np.asarray(lengths[:known], dtype=np.int64)
    wrong = np.flatnonzero(cut & ((counts < 3) | (counts % 2 == 0)))
    if wrong.size:
        _check_interleaved(int(counts[wrong[0]]), file=str(path), line=int(wrong[0]) + 1)
    if stream == "target":
        return tags
    # a cut line keeps its odd positions (words) or its even ones (gaps); an
    # entry's position in its line is odd when its index and its line's
    # start differ in parity (bool masks: no int array per entry)
    odd = np.zeros(tags.values.size, bool)
    odd[1::2] = True
    odd ^= np.repeat(tags.offsets[:-1] % 2 == 1, counts)
    keep = ~np.repeat(cut, counts) | (odd == (stream == "words"))
    kept = np.where(cut, counts // 2 + (stream == "gaps"), counts)
    return Ragged(tags.values[keep], np.concatenate(([0], np.cumsum(kept))))


def _parse_float(text, *, file, line) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"malformed number {text!r}", file=file, line=line) from None


def read_score_lines(path) -> list[float]:
    """One float per line, of any value; only a file one ``map(float, ...)`` fails on is walked."""
    lines, fields, _ = _read_fields(path)
    # no line is blank, so as many fields as lines means one on each
    if len(fields) == len(lines):
        try:
            return list(map(float, fields))
        except ValueError:
            pass
    out = []
    for i, line in enumerate(lines, 1):
        fields = line.split()
        if len(fields) != 1:
            raise ParseError(f"expected one value per line, got {len(fields)}", file=str(path), line=i)
        out.append(_parse_float(fields[0], file=str(path), line=i))
    return out


def read_prob_lines(path) -> Ragged:
    """Every line's probabilities, parsed by ``float()`` and range-checked
    in one pass over the whole file."""
    lines, fields, offsets = _read_fields(path)
    try:
        values = np.fromiter(map(float, fields), dtype=np.float64, count=len(fields))
    except ValueError:
        _raise_first_prob_error(lines, path)
    # NaN fails both comparisons
    if not ((values >= 0.0) & (values <= 1.0)).all():
        _raise_first_prob_error(lines, path)
    return Ragged(values, offsets)


def _raise_first_prob_error(lines, path):
    """Raise the error of the first field, in file order, that is not a
    number or lies outside [0, 1]."""
    for i, line in enumerate(lines, 1):
        for f in line.split():
            value = _parse_float(f, file=str(path), line=i)
            if not 0.0 <= value <= 1.0:
                raise RangeError(f"probability {value} outside [0, 1]", file=str(path), line=i)
    raise AssertionError(f"{path} holds no invalid probability")


_NO_PAIRS = Alignment(np.empty((0, 2), np.int64))

# An index of at most this many digits fits in int64.
_INDEX_DIGITS = 18
_INT64_MAX = int(np.iinfo(np.int64).max)


def read_alignment_lines(path) -> tuple[np.ndarray, np.ndarray]:
    """Every line's ``i-j`` pairs as one (pairs, 2) int64 array of (source,
    MT) indices, each line's pairs sorted and distinct, and the lines' int64
    offsets into it. A file of ``digits-digits`` fields of at most 18 ASCII
    digits between spaces and tabs is parsed in one pass over its bytes; any
    other goes field by field, where the first field that is not two runs of
    ASCII digits joined by ``-`` is a ParseError, and an index beyond int64
    reads as int64's maximum (out of range of every sentence)."""
    lines = _read_lines(path)
    pairs = _parse_alignment_bytes(lines)
    if pairs is not None:
        counts = np.fromiter(map(operator.methodcaller("count", "-"), lines), np.int64, len(lines))
    else:
        rows = [_alignment_pairs(line, path, i) for i, line in enumerate(lines, 1)]
        counts = np.fromiter(map(len, rows), np.int64, len(rows))
        flat = [min(index, _INT64_MAX) for row in rows for pair in row for index in pair]
        pairs = np.array(flat, np.int64).reshape(-1, 2)
    return _sorted_distinct(pairs, counts)


def _alignment_pairs(line: str, path, i: int) -> list[tuple[int, int]]:
    """The pairs of line ``i``, field by field, as exact ints."""
    pairs = []
    for field_ in line.split():
        left, sep, right = field_.partition("-")
        # ASCII digits only: str.isdigit also takes '²' and '١'
        if not sep or not field_.isascii() or not left.isdigit() or not right.isdigit():
            raise ParseError(f"invalid alignment pair {field_!r}", file=str(path), line=i)
        pairs.append((int(left), int(right)))
    return pairs


def _parse_alignment_bytes(lines: list[str]) -> np.ndarray | None:
    """The pairs of ``lines``, in file order, as a (pairs, 2) int64 array,
    when the lines hold only ``digits-digits`` fields of at most
    ``_INDEX_DIGITS`` ASCII digits between spaces and tabs; else None."""
    text = "\n".join(lines) + "\n"
    data = np.frombuffer(text.encode(), np.uint8)
    blank = (data == 32) | (data == 9) | (data == 10)
    hyphens = np.flatnonzero(data == 45)
    # every byte a digit, a hyphen or a blank (a non-ASCII character's bytes are none of these)
    if np.count_nonzero(data - np.uint8(48) < 10) + hyphens.size + np.count_nonzero(blank) != data.size:
        return None
    # fields run from a byte after a blank to the next blank (the text ends
    # in one); with as many hyphens as fields, hyphen k falling inside field
    # k with digits on both sides makes every field digits-digits
    inside = ~blank
    starts = np.flatnonzero(inside & np.concatenate(([True], blank[:-1])))
    ends = np.flatnonzero(blank & np.concatenate(([False], inside[:-1])))
    if hyphens.size != starts.size:
        return None
    left, right = hyphens - starts, ends - hyphens - 1
    if not ((left - 1 < _INDEX_DIGITS) & (right - 1 < _INDEX_DIGITS) & (left > 0) & (right > 0)).all():
        return None
    return np.fromstring(text.replace("-", " "), np.int64, sep=" ").reshape(-1, 2)


def _sorted_distinct(pairs: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``pairs``, ``counts[i]`` of them on line i in line order, with each
    line's pairs sorted and distinct (one lexsort), and the lines' offsets."""
    line = np.repeat(np.arange(counts.size), counts)
    order = np.lexsort((pairs[:, 1], pairs[:, 0], line))
    pairs, line = pairs[order], line[order]
    # a pair is kept unless it repeats its sorted predecessor on the same line
    keep = np.ones(line.size, bool)
    keep[1:] = (line[1:] != line[:-1]) | (pairs[1:] != pairs[:-1]).any(axis=1)
    offsets = np.zeros(counts.size + 1, np.int64)
    np.cumsum(np.bincount(line[keep], minlength=counts.size), out=offsets[1:])
    pairs = pairs[keep]
    pairs.flags.writeable = False
    return pairs, offsets


def alignment_table(alignments) -> tuple[np.ndarray, np.ndarray]:
    """The pairs of ``alignments`` (one per line: an :class:`Alignment`, any
    collection of ``(src, mt)`` pairs, or None for none) as one (pairs, 2)
    int64 array, each line's pairs sorted and distinct, and the lines' int64
    offsets into it. A loaded corpus's views are concatenated; anything else
    is converted in one pass. An index beyond int64 is a RangeError."""
    alignments = [_NO_PAIRS if a is None else a for a in alignments]
    counts = np.fromiter(map(len, alignments), np.int64, len(alignments))
    if all(isinstance(a, Alignment) for a in alignments):
        offsets = np.zeros(counts.size + 1, np.int64)
        np.cumsum(counts, out=offsets[1:])
        return np.concatenate([_NO_PAIRS.pairs, *(a.pairs for a in alignments)]), offsets
    # a collection may repeat a pair, and a set holds them in any order
    try:
        flat = np.fromiter(chain.from_iterable(chain.from_iterable(alignments)), np.int64, 2 * int(counts.sum()))
    except OverflowError:
        raise RangeError("alignment index beyond int64") from None
    return _sorted_distinct(flat.reshape(-1, 2), counts)


def first_out_of_range(pairs, offsets, src_lengths, mt_lengths) -> int | None:
    """The row in ``pairs`` of the first pair that is negative or lies past
    its line's source or MT length (``src_lengths[i]`` and ``mt_lengths[i]``
    on line i), or None when every pair is in range."""
    counts = np.diff(offsets)
    lengths = np.stack((np.repeat(src_lengths, counts), np.repeat(mt_lengths, counts)), axis=1)
    bad = ((pairs < 0) | (pairs >= lengths)).any(axis=1)
    return int(bad.argmax()) if bad.any() else None


def corpus_alignments(entries) -> tuple[np.ndarray, np.ndarray]:
    """The :func:`alignment_table` of the entries' alignments, an entry
    without a source sentence having none. A pair outside its entry's
    sentences is a RangeError naming the entry."""
    table = alignment_table(e.alignments if e.src is not None else None for e in entries)
    src_lengths = [len(e.src) if e.src is not None else 0 for e in entries]
    row = first_out_of_range(*table, src_lengths, [len(e.mt) for e in entries])
    if row is not None:
        i = int(np.searchsorted(table[1], row, side="right")) - 1
        s_idx, m_idx = table[0][row].tolist()
        lengths = f"{src_lengths[i]}/{len(entries[i].mt)}"
        raise RangeError(f"entry {i + 1}: alignment {s_idx}-{m_idx} out of range ({lengths})")
    return table


# ---------------------------------------------------------------------------
# Corpus loading
# ---------------------------------------------------------------------------


def _check_counts(counts: dict[str, int]):
    sizes = set(counts.values())
    if len(sizes) > 1:
        detail = ", ".join(f"{name}={n}" for name, n in counts.items())
        raise LengthMismatch(f"files disagree on segment count: {detail}")


def check_lengths(rows, lengths, path, what: str):
    """The length rule of every per-line file: ``rows`` (one per line of
    ``path``) are as many as ``lengths``, and row i holds ``lengths[i]``
    entries (any number where that is None)."""
    if len(rows) != len(lengths):
        raise LengthMismatch(f"{what} has {len(rows)} lines, expected {len(lengths)}", file=str(path))
    if (
        isinstance(rows, Ragged)
        and None not in lengths
        and np.array_equal(np.diff(rows.offsets), lengths)
    ):
        return
    for i, (row, n) in enumerate(zip(rows, lengths), 1):
        if n is not None and len(row) != n:
            raise LengthMismatch(f"{what}: expected {n} entries, got {len(row)}", file=str(path), line=i)


def stream_lengths(corpus: TaggedCorpus, stream: Stream) -> list[int | None]:
    """Entries per line of a ``stream`` file: N for the words of an N-token
    MT sentence, N+1 for its gaps, one per source token for the source (None
    for an entry without a source sentence)."""
    if stream is Stream.SOURCE:
        return [len(e.src) if e.src is not None else None for e in corpus]
    return [len(e.mt) + (stream is Stream.GAPS) for e in corpus]


def _read_alignments(path) -> list[Alignment]:
    """One :class:`Alignment` per line, each a view of the file's pairs."""
    pairs, offsets = read_alignment_lines(path)
    bounds = offsets.tolist()
    return [Alignment(pairs[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def _check_alignment_range(path, alignments, src_sents, mt_sents):
    """A ParseError naming the first line of ``path`` with a pair outside its
    sentences, and the first such pair in sorted order. The line is read
    again field by field, so that an index beyond int64 is named as written."""
    src_lengths = np.fromiter(map(len, src_sents), np.int64, len(src_sents))
    mt_lengths = np.fromiter(map(len, mt_sents), np.int64, len(mt_sents))
    pairs, offsets = alignment_table(alignments)
    row = first_out_of_range(pairs, offsets, src_lengths, mt_lengths)
    if row is None:
        return
    i = int(np.searchsorted(offsets, row, side="right")) - 1
    n_src, n_mt = int(src_lengths[i]), int(mt_lengths[i])
    for s_idx, m_idx in sorted(_alignment_pairs(_read_lines(path)[i], path, i + 1)):
        if s_idx >= n_src or m_idx >= n_mt:
            raise ParseError(
                f"alignment {s_idx}-{m_idx} out of range for lengths {n_src}/{n_mt}", file=str(path), line=i + 1
            )
    raise AssertionError(f"{path}:{i + 1} holds no alignment out of range")


def load_corpus(
    *,
    mt,
    src=None,
    pe=None,
    tags=None,
    source_tags=None,
    hter=None,
    align=None,
    word_tags_only: bool = False,
) -> TaggedCorpus:
    """Load a corpus from parallel one-segment-per-line files.

    ``mt`` is required; every other column is optional. All cross-file length
    invariants are validated: equal line counts, 2N+1 entries per target-tag
    line (or N with ``word_tags_only``), source-tag/source length agreement,
    HTER in [0, 1] and alignment indices in range.
    """
    # one column per Entry field, in reading order
    columns = {"mt": (mt, read_sentences)}
    for name, path, reader in (
        ("src", src, read_sentences),
        ("pe", pe, read_sentences),
        ("target_tags", tags, read_tag_lines),
        ("source_tags", source_tags, read_tag_lines),
        ("hter", hter, read_score_lines),
        ("alignments", align, _read_alignments),
    ):
        if path is not None:
            columns[name] = (path, reader)
    rows = {name: reader(path) for name, (path, reader) in columns.items()}
    _check_counts({str(columns[name][0]): len(values) for name, values in rows.items()})
    mt_sents = rows["mt"]
    src_sents = rows.get("src")
    if src_sents is None and (source_tags is not None or align is not None):
        what = "source tags" if source_tags is not None else "alignments"
        raise ParseError(f"{what} supplied without a source file")

    if tags is not None:
        n_tags = [len(s) if word_tags_only else 2 * len(s) + 1 for s in mt_sents]
        check_lengths(rows["target_tags"], n_tags, tags, "target tags")
        rows["target_tags"] = [
            TargetTags.words_only(row)
            if word_tags_only
            else TargetTags.from_interleaved(row, file=str(tags), line=i)
            for i, row in enumerate(rows["target_tags"], 1)
        ]
    if source_tags is not None:
        check_lengths(rows["source_tags"], [len(s) for s in src_sents], source_tags, "source tags")
        rows["source_tags"] = [SourceTags(tuple(row)) for row in rows["source_tags"]]
    for i, value in enumerate(rows.get("hter", ()), 1):
        if not 0.0 <= value <= 1.0:
            raise RangeError(f"HTER {value} outside [0, 1]", file=str(hter), line=i)
    if align is not None:
        _check_alignment_range(align, rows["alignments"], src_sents, mt_sents)
    return TaggedCorpus(tuple(Entry(**{name: rows[name][i] for name in rows}) for i in range(len(mt_sents))))


# ---------------------------------------------------------------------------
# Prediction loading
# ---------------------------------------------------------------------------


def is_tag_file(path) -> bool:
    """Whether the first line of a prediction file holds only OK/BAD tags."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            head = handle.readline().split()
    except UnicodeDecodeError:
        raise _utf8_error(path) from None
    return bool(head) and all(t in ("OK", "BAD") for t in head)


def _tags_as_probs(path) -> Ragged | None:
    """Tag-only systems enter the ensemble as degenerate probabilities
    (OK -> 0, BAD -> 1). Returns None when the file is not a tag file."""
    if is_tag_file(path):
        return Ragged.from_rows(read_tag_stream(path, "source"))
    return None


def _load_stream(path, lengths, name) -> Ragged:
    rows = _tags_as_probs(path)
    if rows is None:
        rows = read_prob_lines(path)
    check_lengths(rows, lengths, path, f"{name} stream")
    return rows


def load_predictions(
    corpus: TaggedCorpus,
    system_id: str,
    *,
    words,
    gaps=None,
    source=None,
    sentences=None,
) -> PredictionSet:
    """Load one system's predictions, validating every stream against the
    corpus. ``words`` is required; tag files are accepted anywhere a
    probability file is and map OK/BAD to 0/1."""
    word_probs = _load_stream(words, stream_lengths(corpus, Stream.WORDS), "word")

    gap_probs = None
    if gaps is not None:
        gap_probs = _load_stream(gaps, stream_lengths(corpus, Stream.GAPS), "gap")

    source_probs = None
    if source is not None:
        src_lengths = stream_lengths(corpus, Stream.SOURCE)
        if None in src_lengths:
            i = src_lengths.index(None) + 1
            raise LengthMismatch(f"corpus entry {i} has no source sentence", file=str(source))
        source_probs = _load_stream(source, src_lengths, "source")

    sentence_scores = None
    if sentences is not None:
        values = read_score_lines(sentences)
        check_lengths(values, [None] * len(corpus), sentences, "sentence stream")
        sentence_scores = tuple(values)

    return PredictionSet(
        system_id=system_id,
        word_probs=word_probs,
        gap_probs=gap_probs,
        source_probs=source_probs,
        sentence_scores=sentence_scores,
    )


def read_manifest(path, corpus: TaggedCorpus) -> list[PredictionSet]:
    """Read a system manifest: one system per line,
    ``system_id<TAB>stream=path`` pairs with ``stream`` among
    words/gaps/source/sentences. Paths are relative to the manifest file."""
    base = os.path.dirname(os.path.abspath(path))
    systems = []
    seen = set()
    for i, line in enumerate(_read_lines(path), 1):
        fields = line.split("\t")
        system_id = fields[0].strip()
        if not system_id:
            raise ParseError("missing system id", file=str(path), line=i)
        if system_id in seen:
            raise ParseError(f"duplicate system id {system_id!r}", file=str(path), line=i)
        seen.add(system_id)
        streams = {}
        for field_ in fields[1:]:
            key, sep, value = field_.partition("=")
            if not sep or key not in ("words", "gaps", "source", "sentences"):
                raise ParseError(f"invalid manifest field {field_!r}", file=str(path), line=i)
            streams[key] = os.path.join(base, value)
        if "words" not in streams:
            raise ParseError(f"system {system_id!r} lists no words stream", file=str(path), line=i)
        systems.append(load_predictions(corpus, system_id, **streams))
    if not systems:
        raise ParseError("manifest lists no systems", file=str(path))
    return systems


# ---------------------------------------------------------------------------
# Writers. Floats are written with repr() so that load(write(x)) == x.
# ---------------------------------------------------------------------------


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")


def write_tags(rows, path):
    """Write one line of OK/BAD tags per row of BAD indicators: TargetTags
    interleaved (2N+1), SourceTags, plain rows or a bool Ragged."""
    tags = Ragged.from_rows(rows, dtype=bool)
    bounds = tags.offsets.tolist()
    name = ("OK", "BAD").__getitem__
    _write_lines(path, (" ".join(map(name, tags.values[lo:hi].tolist())) for lo, hi in zip(bounds, bounds[1:])))


def write_probs(rows, path):
    for row in rows:
        if not row:
            raise InvalidInput("cannot serialize an empty probability row")
    _write_lines(path, [" ".join(repr(float(p)) for p in row) for row in rows])


def write_scores(values, path):
    _write_lines(path, [repr(float(v)) for v in values])


def write_alignments(alignment_sets, path):
    """One line of ``i-j`` pairs per alignment, sorted and distinct."""
    pairs, offsets = alignment_table(alignment_sets)
    if (np.diff(offsets) == 0).any():
        raise InvalidInput("cannot serialize an empty alignment set (empty lines are invalid)")
    fields = list(map("{}-{}".format, pairs[:, 0].tolist(), pairs[:, 1].tolist()))
    bounds = offsets.tolist()
    _write_lines(path, (" ".join(fields[lo:hi]) for lo, hi in zip(bounds, bounds[1:])))


def write_sentences(sentences, path):
    _write_lines(path, [s.text for s in sentences])
