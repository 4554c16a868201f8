"""Data model and bit-exact file I/O for WMT-style QE corpora.

File conventions (all plain text, UTF-8, one segment per line, no empty
lines anywhere):

* ``*.src`` / ``*.mt`` / ``*.pe`` -- whitespace-tokenized sentences.
* ``*.tags`` -- interleaved gap/word tags, ``g0 w1 g1 ... wN gN`` (2N+1
  entries for an N-token MT sentence); read as a :class:`Ragged` of bool
  BAD indicators (:func:`read_tag_stream`).
* ``*.source_tags`` -- one tag per source token.
* ``*.hter`` -- one float in [0, 1] per line.
* ``*.probs`` -- one float in [0, 1] per token per line, read into a
  :class:`Ragged` (flat float64 values plus per-line offsets).
* ``*.align`` -- whitespace-separated ``i-j`` pairs of ASCII digits,
  0-based, ``i`` indexing the source sentence and ``j`` the MT sentence.
  Each line is read with its pairs deduplicated and sorted, into one int64
  pair array on per-line offsets (:func:`read_alignment_lines`).

A :class:`TaggedCorpus` holds these files as columns on one segment count:
``corpus.mt`` and ``corpus.src`` are tuples of sentences, ``corpus.tags``
and ``corpus.source_tags`` bool :class:`Ragged` rows, ``corpus.hter`` a
float64 array and ``corpus.alignments`` the file's pair array and offsets.
Code builds one from rows per column with :meth:`TaggedCorpus.from_rows`.

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
from math import isfinite

import numpy as np

from .errors import InvalidInput, LengthMismatch, ParseError, RangeError

__all__ = [
    "Tag",
    "Stream",
    "Sentence",
    "TaggedCorpus",
    "Ragged",
    "PredictionSet",
    "load_corpus",
    "load_predictions",
    "read_manifest",
    "read_tag_stream",
    "read_alignment_lines",
    "alignment_table",
    "first_out_of_range",
    "is_tag_file",
    "stream_lengths",
    "check_lengths",
    "check_finite",
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
        """Any rows; a Ragged is kept, or cast to ``dtype``. ``dtype=bool``
        reads ``Tag`` rows as BAD."""
        if isinstance(rows, Ragged):
            return rows if rows.values.dtype == dtype else cls(rows.values.astype(dtype), rows.offsets)
        rows = list(rows)
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(_lengths(rows), out=offsets[1:])
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


@dataclass(frozen=True, eq=False)
class TaggedCorpus:
    """Aligned segments as columns on one segment count. ``mt`` is required;
    every other column is held for every segment or is None.

    * ``mt``, ``src``, ``pe``: tuples of :class:`Sentence`;
    * ``tags``: the interleaved target tags, 2N+1 per N-token MT sentence,
      as a bool :class:`Ragged`;
    * ``source_tags``: one tag per source token, a bool :class:`Ragged`;
    * ``hter``: a float64 array;
    * ``alignments``: the ``(pairs, offsets)`` of
      :func:`read_alignment_lines`, each line's pairs sorted, distinct and
      within its sentences.

    :meth:`from_rows` builds a corpus in code."""

    mt: tuple[Sentence, ...]
    src: tuple[Sentence, ...] | None = None
    pe: tuple[Sentence, ...] | None = None
    tags: Ragged | None = None
    source_tags: Ragged | None = None
    hter: np.ndarray | None = None
    alignments: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        _freeze_arrays(self)
        columns = (self.src, self.pe, self.tags, self.source_tags, self.hter)
        sizes = {len(column) for column in columns if column is not None}
        if self.alignments is not None:
            sizes.add(len(self.alignments[1]) - 1)
        other = sorted(sizes - {len(self.mt)})
        if other:
            raise LengthMismatch(f"columns of {other} segments beside {len(self.mt)} MT sentences")

    @classmethod
    def from_rows(cls, mt, *, src=None, pe=None, tags=None, source_tags=None, hter=None, alignments=None):
        """The corpus of columns built in code, one row per segment in each
        column given: sentences, rows of BAD indicators, HTER values and
        alignments (any collection of ``(src, mt)`` pairs, or None for none).
        A None row (other than an alignment's) is an InvalidInput naming its
        entry. Target tags must be 2N+1 (interleaved) on an N-token MT
        sentence and source tags one per source token, or a LengthMismatch
        names the first entry that breaks the rule. Each entry's pairs are
        sorted and a repeated pair kept once; alignments need source
        sentences, a pair outside its entry's sentences is a RangeError
        naming the entry, and so is an index beyond int64."""
        given = {"mt": mt, "src": src, "pe": pe, "tags": tags, "source_tags": source_tags, "hter": hter}
        columns = {}
        for name, rows in given.items():
            if rows is None:
                continue
            rows = columns[name] = rows if isinstance(rows, (Ragged, np.ndarray)) else tuple(rows)
            missing = [row is None for row in rows]
            if any(missing):
                raise InvalidInput(f"entry {missing.index(True) + 1} has no {name}")
        if alignments is not None:
            if src is None:
                raise InvalidInput("alignments need source sentences")
            alignments = columns["alignments"] = alignment_table(alignments)
        for name in ("tags", "source_tags"):
            if name in columns:
                columns[name] = Ragged.from_rows(columns[name], dtype=bool)
        if hter is not None:
            columns["hter"] = np.array(columns["hter"], np.float64)
        corpus = cls(**columns)
        mt_lengths = _lengths(corpus.mt)
        src_lengths = None if src is None else _lengths(corpus.src)
        if alignments is not None:
            bad = first_out_of_range(*alignments, src_lengths, mt_lengths)
            if bad is not None:
                i, s_idx, m_idx = bad
                lengths = f"{src_lengths[i]}/{mt_lengths[i]}"
                raise RangeError(f"entry {i + 1}: alignment {s_idx}-{m_idx} out of range ({lengths})")
        if tags is not None:
            check_lengths(corpus.tags, 2 * mt_lengths + 1, "target tags")
        if source_tags is not None and src is not None:
            check_lengths(corpus.source_tags, src_lengths, "source tags")
        return corpus

    def __len__(self) -> int:
        return len(self.mt)


def _lengths(rows) -> np.ndarray:
    """The length of each row, as int64."""
    return np.fromiter(map(len, rows), np.int64, len(rows))


@dataclass(frozen=True)
class PredictionSet:
    """Per-system predictions: P(BAD) per MT word, optionally per gap and per
    source token, and optionally one score per sentence. The token streams
    are :class:`Ragged`; rows given in any other form are converted once.
    Every stream and the scores hold one row per sentence of the words, or a
    LengthMismatch names the first that does not."""

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
        for name in ("gap_probs", "source_probs", "sentence_scores"):
            rows = getattr(self, name)
            if rows is not None:
                check_lengths(rows, len(self.word_probs), f"system {self.system_id!r} {name}")

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


def read_tag_lines(path) -> Ragged:
    """Every line's tags as read, BAD being true."""
    return read_tag_stream(path, "source")


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
        message = f"interleaved tag line must hold 2N+1 entries, got {counts[wrong[0]]}"
        raise LengthMismatch(message, file=str(path), line=int(wrong[0]) + 1)
    return tags if stream == "target" else _cut_interleaved(tags, stream, cut)


def _cut_interleaved(tags: Ragged, stream: str, cut=None) -> Ragged:
    """The ``words`` (odd positions) or ``gaps`` (even positions) of
    interleaved 2N+1 rows of tags; a row where ``cut`` is false is kept
    whole."""
    counts = np.diff(tags.offsets)
    if cut is None:
        cut = np.ones(counts.size, bool)
    # an entry's position in its row is odd when its index and its row's
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


def check_finite(values, what: str, *, file, line: int | None = None):
    """A RangeError naming the first of ``values`` that is not finite, and
    its line: ``line``, or with ``line`` None the value's own line, one value
    to a line."""
    if not all(map(isfinite, values)):
        first = next(i for i, value in enumerate(values) if not isfinite(value))
        raise RangeError(
            f"{what} {values[first]!r} is not finite", file=str(file), line=first + 1 if line is None else line
        )


def read_score_lines(path) -> list[float]:
    """One finite float per line; only a file one ``map(float, ...)`` fails on is walked."""
    lines, fields, _ = _read_fields(path)
    # no line is blank, so as many fields as lines means one on each
    if len(fields) == len(lines):
        try:
            values = list(map(float, fields))
        except ValueError:
            pass
        else:
            check_finite(values, "score", file=path)
            return values
    out = []
    for i, line in enumerate(lines, 1):
        fields = line.split()
        if len(fields) != 1:
            raise ParseError(f"expected one value per line, got {len(fields)}", file=str(path), line=i)
        out.append(_parse_float(fields[0], file=str(path), line=i))
        check_finite(out[-1:], "score", file=path, line=i)
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


_TABLE_BLOCK = 1024  # lines split at once: one block's strings are all the read holds besides the table


def _read_table(path, n: int, keys=list) -> tuple[list, list[list[float]]]:
    """The keys and the ``n`` value columns of a file of
    ``name<TAB>v1<TAB>...<TAB>vn`` lines: each line holds a non-empty name
    and ``n`` finite values, read by ``float()``, and no key repeats.
    ``keys`` maps a sequence of names to their keys, raising ValueError for a
    name the caller refuses. Blocks of lines are read a column at a time; a
    file that fails that read is walked line by line to name its first bad
    line."""
    lines = _read_lines(path)
    table_keys, columns = [], [[] for _ in range(n)]
    for start in range(0, len(lines), _TABLE_BLOCK):
        rows = list(map(operator.methodcaller("split", "\t"), lines[start:start + _TABLE_BLOCK]))
        names, *fields = zip(*rows)
        try:
            block_keys = keys(names)
            values = [list(map(float, column)) for column in fields]
        except ValueError:
            break
        if set(map(len, rows)) != {n + 1} or not all(names) or not all(map(isfinite, chain(*values))):
            break
        table_keys += block_keys
        for column, block in zip(columns, values):
            column += block
    else:
        if len(set(table_keys)) == len(table_keys):
            return table_keys, columns
    seen = set()
    for i, line in enumerate(lines, 1):
        name, *fields = line.split("\t")
        if not name or len(fields) != n:
            raise ParseError(f"expected a non-empty name and {n} tab-separated value(s)", file=str(path), line=i)
        try:
            [key] = keys((name,))
        except ValueError as exc:
            raise ParseError(str(exc), file=str(path), line=i) from None
        check_finite([_parse_float(field, file=str(path), line=i) for field in fields], "value", file=path, line=i)
        if key in seen:
            raise ParseError(f"duplicate name {name!r}", file=str(path), line=i)
        seen.add(key)
    raise AssertionError(f"{path} holds no bad line")


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
        counts = _lengths(rows)
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


def _packed_key(pairs: np.ndarray, line: np.ndarray, n_lines: int) -> np.ndarray | None:
    """One int64 per pair, ``(line * src_span + src) * mt_span + mt`` with the
    indices taken from their minimum, which sorts as (line, source, MT)
    does; None when ``n_lines * src_span * mt_span`` passes int64."""
    if not pairs.size:
        return line
    src, mt = pairs[:, 0], pairs[:, 1]
    src_low, mt_low = int(src.min()), int(mt.min())
    src_span, mt_span = int(src.max()) - src_low + 1, int(mt.max()) - mt_low + 1
    if n_lines * src_span * mt_span > _INT64_MAX:
        return None
    return (line * src_span + (src - src_low)) * mt_span + (mt - mt_low)


def _sorted_distinct(pairs: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``pairs``, ``counts[i]`` of them on line i in line order, with each
    line's pairs sorted and distinct, and the lines' offsets. The pairs are
    sorted on one packed key, or with a three-key lexsort where that key
    would pass int64."""
    line = np.repeat(np.arange(counts.size), counts)
    key = _packed_key(pairs, line, counts.size)
    order = np.lexsort((pairs[:, 1], pairs[:, 0], line)) if key is None else np.argsort(key, kind="stable")
    # take and compress, and the columns compared one at a time: fancy
    # indexing and reductions over the rows of a (pairs, 2) array are slower
    pairs, line = pairs.take(order, axis=0), line[order]
    # a pair is kept unless it repeats its sorted predecessor on the same line
    keep = np.ones(line.size, bool)
    keep[1:] = (line[1:] != line[:-1]) | (pairs[1:, 0] != pairs[:-1, 0]) | (pairs[1:, 1] != pairs[:-1, 1])
    offsets = np.zeros(counts.size + 1, np.int64)
    np.cumsum(np.bincount(line[keep], minlength=counts.size), out=offsets[1:])
    pairs = pairs.compress(keep, axis=0)
    pairs.flags.writeable = offsets.flags.writeable = False
    return pairs, offsets


def alignment_table(alignments) -> tuple[np.ndarray, np.ndarray]:
    """The pairs of ``alignments`` (one per line: any collection of ``(src,
    mt)`` pairs, or None for none) as one (pairs, 2) int64 array, each line's
    pairs sorted and distinct, and the lines' int64 offsets into it. An index
    beyond int64 is a RangeError."""
    alignments = [() if a is None else a for a in alignments]
    counts = _lengths(alignments)
    # a collection may repeat a pair, and a set holds them in any order
    try:
        flat = np.fromiter(chain.from_iterable(chain.from_iterable(alignments)), np.int64, 2 * int(counts.sum()))
    except OverflowError:
        raise RangeError("alignment index beyond int64") from None
    return _sorted_distinct(flat.reshape(-1, 2), counts)


def first_out_of_range(pairs, offsets, src_lengths, mt_lengths) -> tuple[int, int, int] | None:
    """The line, source index and MT index of the first pair in ``pairs``
    that is negative or lies past its line's source or MT length
    (``src_lengths[i]`` and ``mt_lengths[i]`` on line i), or None when every
    pair is in range."""
    counts = np.diff(offsets)
    # a column at a time: a reduction over the rows of (pairs, 2) is several times slower
    src, mt = pairs.T
    bad = (src < 0) | (src >= np.repeat(src_lengths, counts)) | (mt < 0) | (mt >= np.repeat(mt_lengths, counts))
    if not bad.any():
        return None
    row = int(bad.argmax())
    return int(np.searchsorted(offsets, row, side="right")) - 1, *pairs[row].tolist()


# ---------------------------------------------------------------------------
# Corpus loading
# ---------------------------------------------------------------------------


def _check_counts(counts: dict[str, int]):
    sizes = set(counts.values())
    if len(sizes) > 1:
        detail = ", ".join(f"{name}={n}" for name, n in counts.items())
        raise LengthMismatch(f"files disagree on segment count: {detail}")


def check_lengths(rows, want, what: str, *, file=None):
    """The length rule of every per-row stream: ``rows`` (a :class:`Ragged`
    or any rows) are as many as ``want`` and row i holds ``want[i]`` entries,
    ``want`` being the counts per row (an int64 array or a list), or an int
    when only the number of rows is fixed. The error is a LengthMismatch
    naming ``file`` and the line, the rows being its lines, or without a file
    the entry (``entry i: ...``), 1-based."""
    file = None if file is None else str(file)
    counted = isinstance(want, (int, np.integer))
    n = want if counted else len(want)
    if len(rows) != n:
        raise LengthMismatch(f"{what} has {len(rows)} {'rows' if file is None else 'lines'}, expected {n}", file=file)
    if counted:
        return
    got = np.diff(rows.offsets) if isinstance(rows, Ragged) else _lengths(rows)
    bad = np.flatnonzero(got != want)
    if bad.size:
        i = int(bad[0])
        message = f"{what}: expected {want[i]} entries, got {got[i]}"
        if file is None:
            raise LengthMismatch(f"entry {i + 1}: {message}")
        raise LengthMismatch(message, file=file, line=i + 1)


def stream_lengths(corpus: TaggedCorpus, stream: Stream) -> np.ndarray | None:
    """Entries per line of a ``stream`` file, as one int64 array: N for the
    words of an N-token MT sentence, N+1 for its gaps, one per source token
    for the source (None for a corpus without source sentences)."""
    if stream is Stream.SOURCE:
        return None if corpus.src is None else _lengths(corpus.src)
    return _lengths(corpus.mt) + (stream is Stream.GAPS)


def _check_alignment_range(path, pairs, offsets, src_lengths, mt_lengths):
    """A ParseError naming the first line of ``path`` with a pair outside its
    sentences, and the first such pair in sorted order. The line is read
    again field by field, so that an index beyond int64 is named as written."""
    bad = first_out_of_range(pairs, offsets, src_lengths, mt_lengths)
    if bad is None:
        return
    i = bad[0]
    n_src, n_mt = int(src_lengths[i]), int(mt_lengths[i])
    for s_idx, m_idx in sorted(_alignment_pairs(_read_lines(path)[i], path, i + 1)):
        if s_idx >= n_src or m_idx >= n_mt:
            raise ParseError(
                f"alignment {s_idx}-{m_idx} out of range for lengths {n_src}/{n_mt}", file=str(path), line=i + 1
            )
    raise AssertionError(f"{path}:{i + 1} holds no alignment out of range")


def load_corpus(*, mt, src=None, pe=None, tags=None, source_tags=None, hter=None, align=None) -> TaggedCorpus:
    """Load a corpus from parallel one-segment-per-line files.

    ``mt`` is required; every other column is optional. All cross-file length
    invariants are validated: equal line counts, 2N+1 entries per target-tag
    line, source-tag/source length agreement, HTER in [0, 1] and alignment
    indices in range.
    """
    # one column per TaggedCorpus field, in reading order
    columns = {"mt": (mt, read_sentences)}
    for name, path, reader in (
        ("src", src, read_sentences),
        ("pe", pe, read_sentences),
        ("tags", tags, read_tag_lines),
        ("source_tags", source_tags, read_tag_lines),
        ("hter", hter, read_score_lines),
        ("alignments", align, read_alignment_lines),
    ):
        if path is not None:
            columns[name] = (path, reader)
    rows = {name: reader(path) for name, (path, reader) in columns.items()}
    # the alignments are a (pairs, offsets) table: one offset per line, and one more
    sizes = {name: len(values[1]) - 1 if name == "alignments" else len(values) for name, values in rows.items()}
    _check_counts({str(columns[name][0]): n for name, n in sizes.items()})
    mt_lengths = _lengths(rows["mt"])
    src_lengths = _lengths(rows["src"]) if src is not None else None
    if src is None and (source_tags is not None or align is not None):
        what = "source tags" if source_tags is not None else "alignments"
        raise ParseError(f"{what} supplied without a source file")

    if tags is not None:
        check_lengths(rows["tags"], 2 * mt_lengths + 1, "target tags", file=tags)
    if source_tags is not None:
        check_lengths(rows["source_tags"], src_lengths, "source tags", file=source_tags)
    for i, value in enumerate(rows.get("hter", ()), 1):
        if not 0.0 <= value <= 1.0:
            raise RangeError(f"HTER {value} outside [0, 1]", file=str(hter), line=i)
    if align is not None:
        _check_alignment_range(align, *rows["alignments"], src_lengths, mt_lengths)
    for name, convert in (("mt", tuple), ("src", tuple), ("pe", tuple), ("hter", np.array)):
        if name in rows:
            rows[name] = convert(rows[name])
    return TaggedCorpus(**rows)


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
    check_lengths(rows, lengths, f"{name} stream", file=path)
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
        if corpus.src is None:
            raise LengthMismatch("corpus entry 1 has no source sentence", file=str(source))
        source_probs = _load_stream(source, stream_lengths(corpus, Stream.SOURCE), "source")

    sentence_scores = None
    if sentences is not None:
        values = read_score_lines(sentences)
        check_lengths(values, len(corpus), "sentence stream", file=sentences)
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
    """Write one line of OK/BAD tags per row of BAD indicators: bool rows
    (target tags interleaved, 2N+1) or a bool Ragged."""
    tags = Ragged.from_rows(rows, dtype=bool)
    if (np.diff(tags.offsets) == 0).any():
        raise InvalidInput("cannot serialize an empty tag row (empty lines are invalid)")
    bounds = tags.offsets.tolist()
    name = ("OK", "BAD").__getitem__
    _write_lines(path, (" ".join(map(name, tags.values[lo:hi].tolist())) for lo, hi in zip(bounds, bounds[1:])))


def write_probs(rows, path):
    """One line of P(BAD) per row of float rows or a Ragged; a value outside
    [0, 1] (or NaN) is a RangeError naming the line it would take."""
    probs = Ragged.from_rows(rows)
    if (np.diff(probs.offsets) == 0).any():
        raise InvalidInput("cannot serialize an empty probability row")
    outside = np.flatnonzero(~((probs.values >= 0.0) & (probs.values <= 1.0)))
    if outside.size:
        line = int(np.searchsorted(probs.offsets, outside[0], side="right"))
        raise RangeError(f"probability {float(probs.values[outside[0]])} outside [0, 1]", file=str(path), line=line)
    flat, bounds = probs.values.tolist(), probs.offsets.tolist()
    _write_lines(path, (" ".join(map(repr, flat[lo:hi])) for lo, hi in zip(bounds, bounds[1:])))


def write_scores(values, path):
    """One finite float per line; the first value that is not finite is a
    RangeError naming the line it would take."""
    values = list(map(float, values))
    check_finite(values, "score", file=path)
    _write_lines(path, map(repr, values))


def _write_table(path, names, *columns):
    """One ``name<TAB>v1<TAB>...<TAB>vn`` line per name, its values one from
    each column written by ``repr(float(v))``, which reads back bit for bit;
    a value that is not finite is a RangeError naming its line, and nothing
    is written."""
    columns = [list(map(float, column)) for column in columns]
    if not all(map(isfinite, chain(*columns))):
        for line, row in enumerate(zip(*columns), 1):
            check_finite(row, "value", file=path, line=line)
    _write_lines(path, map("\t".join, zip(names, *(map(repr, column) for column in columns))))


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
