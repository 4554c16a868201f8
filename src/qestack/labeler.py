"""Word/gap/source tags and HTER from (pseudo-)post-edits.

The alignment is plain Levenshtein under unit costs (no block shifts): the
labeling convention only needs a deterministic minimum-cost script, and ties
are broken during backtrace by preferring MATCH > SUB > DEL_FROM_MT >
INS_INTO_MT_GAP.

The DP runs over blocks of sentence pairs at once. Row i of a table follows
from row i-1 as ``row[j] = j + min_{k<=j}(t[k] - k)`` with
``t[k] = min(diag + cost, up + 1)``: one ``np.minimum`` and one prefix
minimum (``np.minimum.accumulate``) per row, for every pair of the block.
The table keeps the prefix minimum itself, ``row[j] - j``. ``label_corpus``
sorts the pairs by (MT length, PE length) and cuts them into blocks of at
most ``_CELL_BUDGET`` table cells (a pair larger than that is a block of its
own), so that little of a block's table is padding and no block allocates
more than the budget, however long its sentences. The backtrace then walks
every pair of the block together, one step per iteration. Every value is an
exact int, so the scripts, tags and HTER are those of the cell-by-cell DP.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from itertools import count
from typing import Sequence

import numpy as np

from .corpus import (
    Ragged,
    Sentence,
    TaggedCorpus,
    _cut_interleaved,
    alignment_table,
    first_out_of_range,
)
from .errors import InconsistentScript, LengthMismatch, MissingStream, RangeError

__all__ = [
    "EditKind",
    "EditStep",
    "align_edit",
    "tags_from_edits",
    "hter",
    "source_tags_from_target",
    "label_corpus",
]


class EditKind(enum.Enum):
    MATCH = "MATCH"
    SUB = "SUB"
    DEL_FROM_MT = "DEL_FROM_MT"
    INS_INTO_MT_GAP = "INS_INTO_MT_GAP"


@dataclass(frozen=True)
class EditStep:
    kind: EditKind
    mt_index: int | None = None
    pe_index: int | None = None


# Backtrace preference when several predecessors give the optimal cost; the
# backtrace records a step as its index here.
_PREFERENCE = (EditKind.MATCH, EditKind.SUB, EditKind.DEL_FROM_MT, EditKind.INS_INTO_MT_GAP)

_SUB, _DEL, _INS, _DONE = 1, 2, 3, 4
# Step taken for (first predecessor that fits, tokens equal): diagonal,
# deletion, insertion, none (the pair has reached the origin).
_STEP_KIND = np.array([[_SUB, 0], [_DEL, _DEL], [_INS, _INS], [_DONE, _DONE]], np.int8)

# Table cells B * (N+1) * (M+1) of one block: 512 KB of int16.
_CELL_BUDGET = 1 << 18

# A block whose N+1 and M+1 are at most this keeps its table in int16: the
# values lie in [-M, N], the guards at 16383, and every difference between
# them fits. Longer sentences take int32.
_INT16_LENGTH = 1 << 13


def _edit_block(mt: np.ndarray, pe: np.ndarray, n: np.ndarray, m: np.ndarray):
    """Edit DP and backtrace of B pairs at once.

    ``mt`` (B, N+1) holds token ids with MT word i of pair b at ``[b, i]``
    (column 0 unused), ``pe`` (B, M+1) likewise; ``n`` and ``m`` are the
    pairs' lengths. Ids past a pair's own length may be anything: cells
    beyond (n, m) never feed the cells up to it. Returns ``word_bad`` (word
    i at column i) and ``gap_bad`` (gap i at column i), both (B, N+1) bool,
    each pair's edit count, and the (T, B) steps of the backtrace from the
    end of the pairs, as ``_PREFERENCE`` indices (``_DONE`` once a pair has
    reached the origin).
    """
    size, n1 = mt.shape
    m1 = pe.shape[1]
    # Cell (i, j) of pair b sits at [i + 1, b, j + 1] and holds d(i, j) - j,
    # the prefix minimum itself, so a row takes no arange. Its values lie in
    # [-M, N]; the guard row and column hold ``far``, which no step fits.
    dtype = np.int16 if max(n1, m1) <= _INT16_LENGTH else np.int32
    far = np.iinfo(dtype).max // 2
    table = np.empty((n1 + 1, size, m1 + 1), dtype)
    table[0] = far
    table[:, :, 0] = far
    dist = table[1:, :, 1:]
    dist[0] = 0
    for i in range(1, n1):
        prev, row = dist[i - 1], dist[i]
        # t - j: min(diag + cost, up + 1) - j
        np.subtract(prev[:, :-1], mt[:, i, None] == pe[:, 1:], out=row[:, 1:])
        np.minimum(row[:, 1:], prev[:, 1:] + 1, out=row[:, 1:])
        row[:, 0] = i
        np.minimum.accumulate(row, axis=1, out=row)

    # Each pair's position: its table cell, MT word and PE word, all flat.
    row_stride = size * (m1 + 1)
    pair = np.arange(size)
    pos = np.stack([(n + 1) * row_stride + pair * (m1 + 1) + m + 1, pair * n1 + n, pair * m1 + m], axis=1)
    moves = np.array([[row_stride + 1, 1, 1]] * 2 + [[row_stride, 1, 0], [1, 0, 1], [0, 0, 0]])
    # the cell, then its diagonal, upper and left predecessors
    around = np.array([0, -row_stride - 1, -row_stride, -1])
    cells, mt_ids, pe_ids = table.reshape(-1), mt.reshape(-1), pe.reshape(-1)
    # A predecessor fits when the cell's distance is its own plus the step's
    # cost: 0 or 1 on the diagonal, 1 up and left. In table values that is
    # a rise from the cell to the predecessor of 1 - cost on the diagonal, -1
    # up and 0 left. ``fits`` ends in a column that always fits, so argmax
    # picks the first predecessor that does, in _PREFERENCE order.
    rise = np.array([[0, -1, 0]], dtype).repeat(size, axis=0)
    fits = np.ones((size, 4), bool)
    step_fits = fits[:, :3]
    cell, mt_word, pe_word = pos[:, :1], pos[:, 1], pos[:, 2]
    steps = []
    while True:
        values = cells[cell + around]
        same = mt_ids[mt_word] == pe_ids[pe_word]
        rise[:, 0] = same
        np.equal(values[:, 1:] - values[:, :1], rise, out=step_fits)
        if not step_fits.any():
            break
        kind = _STEP_KIND[fits.argmax(axis=1), same.view(np.int8)]
        steps.append(kind)
        pos -= moves[kind]
    steps = np.array(steps, np.int8).reshape(-1, size)

    # A step at MT position i leaves word i (MATCH, SUB, DEL_FROM_MT) or
    # inserts into gap i; i falls by one with each word left.
    leaves = steps <= _DEL
    at = n - (np.cumsum(leaves, axis=0, dtype=np.int32) - leaves)
    rows = np.broadcast_to(pair, steps.shape)
    edited = (steps == _SUB) | (steps == _DEL)
    inserted = steps == _INS
    word_bad = np.zeros((size, n1), bool)
    gap_bad = np.zeros((size, n1), bool)
    word_bad[rows[edited], at[edited]] = True
    gap_bad[rows[inserted], at[inserted]] = True
    return word_bad, gap_bad, (edited | inserted).sum(axis=0), steps


def _blocks(order: list[int], lengths: list[tuple[int, int]]):
    """Cut ``order`` (pairs sorted by their (MT, PE) ``lengths``) into runs
    whose padded tables hold at most ``_CELL_BUDGET`` cells; a larger pair is
    a run of its own."""
    block: list[int] = []
    rows = cols = 0
    for k in order:
        n, m = lengths[k]
        grown_rows, grown_cols = max(rows, n + 1), max(cols, m + 1)
        if block and (len(block) + 1) * grown_rows * grown_cols > _CELL_BUDGET:
            yield block
            block, grown_rows, grown_cols = [], n + 1, m + 1
        block.append(k)
        rows, cols = grown_rows, grown_cols
    if block:
        yield block


def _interned(*columns: Ragged) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The flat tokens of token columns, one column after another, as int32
    ids (equal tokens, equal ids), and the starts and lengths of their rows."""
    tokens = np.concatenate([column.values for column in columns]).tolist()
    lengths = np.concatenate([np.diff(column.offsets) for column in columns])
    vocab: dict[str, int] = {}
    ids = np.fromiter(map(vocab.setdefault, tokens, count()), np.int32, len(tokens))
    return ids, np.cumsum(lengths) - lengths, lengths


def _padded(ids: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """(B, width + 1) rows of ids from ``starts``, behind an unused column 0."""
    out = np.full((len(starts), width + 1), -1, np.int32)
    out[:, 1:] = ids[np.minimum(starts[:, None] + np.arange(width), len(ids) - 1)]
    return out


def _align_pairs(mt: Ragged, pe: Ragged) -> tuple[Ragged, np.ndarray]:
    """The interleaved tags (2N+1 per N-token MT row) and the edit count of
    each (MT, PE) pair of token column rows, in input order, through
    length-sorted blocks of ``_edit_block``."""
    ids, starts, lengths = _interned(mt, pe)
    size = len(mt)
    n, m, mt_starts, pe_starts = lengths[:size], lengths[size:], starts[:size], starts[size:]
    pairs = list(zip(n.tolist(), m.tolist()))
    order = sorted(range(size), key=pairs.__getitem__)
    edits = np.empty(size, np.int64)
    chunks = []
    for block in _blocks(order, pairs):
        bn, bm = n[block], m[block]
        word_bad, gap_bad, edits[block], _ = _edit_block(
            _padded(ids, mt_starts[block], int(bn.max())), _padded(ids, pe_starts[block], int(bm.max())), bn, bm
        )
        # gap 0, word 1, gap 1, ..., word N, gap N; each pair keeps its 2N+1
        interleaved = np.empty((len(block), 2 * gap_bad.shape[1] - 1), bool)
        interleaved[:, 0::2] = gap_bad
        interleaved[:, 1::2] = word_bad[:, 1:]
        chunks.append(interleaved[np.arange(interleaved.shape[1]) <= 2 * bn[:, None]])
    # the rows lie in sorted order; gather them back into input order
    counts = 2 * n + 1
    sorted_starts = np.empty(size, np.int64)
    sorted_starts[order] = np.cumsum(counts[order]) - counts[order]
    offsets = np.concatenate(([0], np.cumsum(counts)))
    values = np.concatenate([np.empty(0, bool), *chunks])
    return Ragged(values[np.repeat(sorted_starts - offsets[:-1], counts) + np.arange(offsets[-1])], offsets), edits


def align_edit(mt: Sentence, pe: Sentence) -> list[EditStep]:
    """Minimum-cost edit script turning ``mt`` into ``pe`` (sub=del=ins=1)."""
    ids, starts, lengths = _interned(Ragged.from_rows([mt, pe], dtype=object))
    *_, backtrace = _edit_block(
        _padded(ids, starts[:1], len(mt)), _padded(ids, starts[1:], len(pe)), lengths[:1], lengths[1:]
    )
    steps: list[EditStep] = []
    i = j = 0
    for code in reversed(backtrace[:, 0].tolist()):
        kind = _PREFERENCE[code]
        if kind is EditKind.INS_INTO_MT_GAP:
            steps.append(EditStep(kind, pe_index=j))
            j += 1
        elif kind is EditKind.DEL_FROM_MT:
            steps.append(EditStep(kind, mt_index=i))
            i += 1
        else:
            steps.append(EditStep(kind, mt_index=i, pe_index=j))
            i, j = i + 1, j + 1
    return steps


def edit_cost(script: Sequence[EditStep]) -> int:
    return sum(1 for step in script if step.kind is not EditKind.MATCH)


def tags_from_edits(script: Sequence[EditStep], n_mt: int) -> tuple[bool, ...]:
    """The 2N+1 interleaved tags of an N-token MT sentence, gap 0 first: an
    MT word is BAD when substituted or deleted; gap i is BAD when at least
    one insertion lands between MT tokens i-1 and i (gap 0 precedes token 0).
    BAD is true."""
    tags = [False] * (2 * n_mt + 1)
    mt_pos = 0
    for step in script:
        if step.kind is EditKind.INS_INTO_MT_GAP:
            tags[2 * mt_pos] = True
            continue
        if step.mt_index != mt_pos:
            raise InconsistentScript(
                f"edit script visits MT index {step.mt_index}, expected {mt_pos}"
            )
        if mt_pos >= n_mt:
            raise InconsistentScript(f"edit script overruns MT length {n_mt}")
        if step.kind is not EditKind.MATCH:
            tags[2 * mt_pos + 1] = True
        mt_pos += 1
    if mt_pos != n_mt:
        raise InconsistentScript(f"edit script covers {mt_pos} MT tokens, expected {n_mt}")
    return tuple(tags)


def hter(script: Sequence[EditStep], pe_len: int) -> float:
    """Edit count divided by post-edit length, clamped to [0, 1]."""
    if pe_len < 1:
        raise RangeError("post-edit length must be >= 1")
    return min(1.0, max(0.0, edit_cost(script) / pe_len))


def source_tags_from_target(target_tags: Sequence[bool], alignments, src_len: int) -> tuple[bool, ...]:
    """Project one row of 2N+1 interleaved target tags onto the source; a row
    of even length is a LengthMismatch.

    A source token is BAD when aligned to a BAD MT word. A BAD gap i
    additionally implicates the source tokens lying strictly between
    max(aligned src of MT token i-1) and min(aligned src of MT token i); when
    either flanking token is missing or unaligned, the gap implicates nothing.
    Unaligned source tokens stay OK. A pair outside the sentences is a
    RangeError.
    """
    if len(target_tags) % 2 == 0:
        raise LengthMismatch(f"interleaved target tags must be 2N+1, got {len(target_tags)}")
    n_mt = len(target_tags) // 2
    pairs, offsets = alignment_table([alignments])
    bad = first_out_of_range(pairs, offsets, [src_len], [n_mt])
    if bad is not None:
        _, s_idx, m_idx = bad
        raise RangeError(f"alignment {s_idx}-{m_idx} out of range ({src_len}/{n_mt})")
    tags = Ragged.from_rows([target_tags], dtype=bool)
    return tuple(_project(tags, [src_len], pairs, offsets).tolist())


def _project(tags: Ragged, src_lengths, pairs, offsets) -> np.ndarray:
    """:func:`source_tags_from_target` for every entry at once: the source
    BAD indicators of all entries, flat, from their interleaved target tags
    and their in-range alignment table."""
    words = _cut_interleaved(tags, "words")
    word_bad, gap_bad = words.values, _cut_interleaved(tags, "gaps").values
    mt_lengths, src_lengths = np.diff(words.offsets), np.asarray(src_lengths, np.int64)
    counts = np.diff(offsets)
    n_src = int(src_lengths.sum())
    word = np.repeat(np.cumsum(mt_lengths) - mt_lengths, counts) + pairs[:, 1]
    src = np.repeat(np.cumsum(src_lengths) - src_lengths, counts) + pairs[:, 0]
    bad = np.zeros(n_src, bool)
    bad[src[word_bad[word]]] = True
    # each MT word's lowest and highest aligned source position (none: n_src and -1)
    lowest = np.full(word_bad.size, n_src, np.int64)
    highest = np.full(word_bad.size, -1, np.int64)
    np.minimum.at(lowest, word, src)
    np.maximum.at(highest, word, src)
    # the gap after flat word w of entry e is flat gap w + e + 1; after an
    # entry's last word it is an edge gap
    after = gap_bad[np.arange(word_bad.size) + np.repeat(np.arange(mt_lengths.size), mt_lengths) + 1]
    after[np.cumsum(mt_lengths)[mt_lengths > 0] - 1] = False
    left = np.flatnonzero(after)
    start, stop = highest[left] + 1, lowest[left + 1]
    inner = (start > 0) & (stop < n_src) & (start < stop)
    # a difference array marks each BAD gap's source run
    runs = np.bincount(start[inner], minlength=n_src + 1) - np.bincount(stop[inner], minlength=n_src + 1)
    bad |= np.cumsum(runs[:-1]) > 0
    return bad


def label_corpus(corpus: TaggedCorpus) -> TaggedCorpus:
    """The corpus with its target tags and HTER, clamped to [0, 1], computed
    from its post-edits, and its source tags projected through its
    alignments (None without them). Entries are aligned in length-sorted
    blocks and their source tags projected all at once."""
    if corpus.pe is None:
        raise MissingStream("cannot label an entry without a post-edit")
    tags, edits = _align_pairs(corpus.mt, corpus.pe)
    hter = np.clip(edits / np.diff(corpus.pe.offsets), 0.0, 1.0)
    source_tags = None
    if corpus.src is not None and corpus.alignments is not None:
        offsets = corpus.src.offsets
        source_tags = Ragged(_project(tags, np.diff(offsets), *corpus.alignments), offsets)
    return replace(corpus, tags=tags, source_tags=source_tags, hter=hter)
