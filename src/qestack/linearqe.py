"""Feature-based first-order sequential word-level QE model.

The tagger scores a label sequence y over a sentence as
``sum_i w . phi(x, i, y_i, y_{i-1})`` with unigram templates (current/left/
right token, aligned other-side words, extra annotation columns, binned
stacked probabilities, bias) conjoined with the current label, plus a single
bigram indicator over the label pair. The template set is fixed: a table
without extra columns or stacked systems has none of their templates, and a
position without aligned words has ``a=<none>``. Decoding is exact dynamic
programming over the two labels; weights are learned with max-loss MIRA and
averaged over all post-update vectors.

Feature strings are hashed to 64-bit keys (FNV-1a); collisions are tolerated,
they merely share a weight. A call compiles an ``InstanceTable``, columns
flat over the positions, in blocks of 64 sentences: the block's templates
become rows of int ids, one row per slot, and the distinct templates of the
block are hashed in one numpy pass, as their OK and BAD keys; no feature
string is built. Prediction gathers the weights of those keys and sums them
slot row by slot row, a key the model lacks adding 0.0, into one score array
over the corpus, which is then decoded in one pass into a bool and a float64
``Ragged``: the sentences sorted by length, longest first, each position's
forward and backward step runs over all the sentences that reach it at once.
Training interns its corpus's templates into dense ids and, since from zero
weights every MIRA update moves a template's OK weight by the negation of its
BAD weight's move, trains one weight per template, the BAD key's, and writes
both keys back; a corpus whose keys collide so that this pairing fails trains
one weight per key, colliding strings sharing one. Models and their files
keep the keys. ``feature_strings`` builds the strings of one position of a
table and is the reference the compile is tested against. Code builds a
table with ``InstanceTable.from_rows``, the CLI with ``build_instances``;
``viterbi``, ``score_sequence`` and ``predict_probs`` take a table of one
sentence.
Gap and source streams are trained as independent sequence models over their
own position sequences.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from itertools import chain, islice, pairwise
from math import exp, isfinite
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .corpus import (
    PredictionSet,
    Ragged,
    Stream,
    TaggedCorpus,
    _cut_interleaved,
    _lengths,
    _read_table,
    _write_table,
    check_lengths,
    stream_lengths,
)
from .ensemble import fold_bounds
from .errors import EmptyInput, InvalidInput, MissingStream, RangeError

__all__ = [
    "InstanceTable",
    "LinearModel",
    "extract_features",
    "feature_strings",
    "viterbi",
    "score_sequence",
    "mira_train",
    "predict",
    "predict_probs",
    "jackknife",
    "save_model",
    "load_model",
    "build_instances",
    "gold_tags",
]

_LABELS = ("OK", "BAD")  # a label's name, indexed by its BAD indicator
_CONJUNCTS = tuple(f"∧{label}" for label in _LABELS)
_START = "<start>"
_LEFT_SENTINEL = "<s>"
_RIGHT_SENTINEL = "</s>"
_NO_ALIGNMENT = "<none>"
_BINS = 10  # equal-width bins of a stacked probability

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a64(text: str) -> int:
    """Deterministic 64-bit FNV-1a hash of a feature string."""
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def _offsets(lengths: np.ndarray) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))


@dataclass(frozen=True, eq=False)
class InstanceTable:
    """The tagging problems of one stream as columns, every sentence with the
    same extra columns and stacked systems: the ``tokens`` of all positions,
    sentence i holding ``offsets[i]:offsets[i + 1]``; the aligned ``words``,
    position p holding ``word_offsets[p]:word_offsets[p + 1]`` (none is
    ``a=<none>``); each ``extra`` column, and each ``stacked`` system's id
    with its float64 P(BAD), at all positions. ``len()`` counts the
    sentences, and iterating yields each one's tokens."""

    tokens: list[str]
    offsets: np.ndarray  # int64, one more than the sentences
    words: list[str]
    word_offsets: np.ndarray  # int64, one more than the positions
    extra: tuple[list[str], ...] = ()
    stacked: tuple[tuple[str, np.ndarray], ...] = ()

    @classmethod
    def from_rows(cls, tokens, *, aligned=None, extra=(), stacked=()) -> "InstanceTable":
        """The table of one row per sentence in each column: tokens, each
        position's aligned words (None: none), each ``extra`` column's
        strings and each ``stacked`` system's ``(system id, P(BAD) rows)``.
        An empty sentence is an EmptyInput, and a row of another length than
        its sentence a LengthMismatch, naming the entry."""
        tokens = [list(row) for row in tokens]
        lengths = _lengths(tokens)
        if not lengths.all():
            raise EmptyInput(f"entry {np.argmin(lengths) + 1}: a sentence needs at least one token")
        positions = [()] * int(lengths.sum())
        if aligned is not None:
            aligned = list(aligned)
            check_lengths(aligned, lengths, "aligned words")
            positions = list(chain.from_iterable(aligned))
        extra = [list(column) for column in extra]
        for column in extra:
            check_lengths(column, lengths, "extra column")
        stacked = [(system_id, Ragged.from_rows(rows)) for system_id, rows in stacked]
        for system_id, rows in stacked:
            check_lengths(rows, lengths, f"system {system_id!r} stacked probabilities")
        return cls(
            list(chain.from_iterable(tokens)),
            _offsets(lengths),
            list(chain.from_iterable(positions)),
            _offsets(_lengths(positions)),
            tuple(list(chain.from_iterable(column)) for column in extra),
            tuple((system_id, rows.values) for system_id, rows in stacked),
        )

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __iter__(self):
        return (self.tokens[lo:hi] for lo, hi in pairwise(self.offsets.tolist()))


@dataclass
class LinearModel:
    """Feature weights by 64-bit key (training maps its dense ids back to the
    keys)."""

    weights: dict[int, float]


def _prob_bin(p: float) -> int:
    return min(int(_BINS * p), _BINS - 1)


def feature_strings(table: InstanceTable, p: int, label: bool, prev: bool | None) -> list[str]:
    """Human-readable feature names for position ``p`` of ``table`` (counted
    over all its sentences) with ``label`` and the previous label ``prev``
    (BAD is true; None means sequence start): each label-free template
    conjoined with the label, then the bigram."""
    return [
        *(f"{role}{value}∧{_LABELS[label]}" for role, value in _templates(table, p)),
        _bigram_string(prev, label),
    ]


def _templates(table: InstanceTable, p: int) -> list[tuple[str, object]]:
    """Position ``p``'s label-free unigram templates as ``(role, value)``
    pairs, in slot order; the template is ``f"{role}{value}"``. This is the
    one-position reference of ``_template_ids``, which builds the same
    templates for a block of sentences at once."""
    tokens, p = table.tokens, range(len(table.tokens))[p]
    sentence = int(np.searchsorted(table.offsets, p, "right")) - 1
    lo, hi = table.offsets[sentence:sentence + 2].tolist()
    words = table.words[table.word_offsets[p]:table.word_offsets[p + 1]] or (_NO_ALIGNMENT,)
    return [
        ("b", ""),
        ("w0=", tokens[p]),
        ("w-1=", tokens[p - 1] if p > lo else _LEFT_SENTINEL),
        ("w+1=", tokens[p + 1] if p + 1 < hi else _RIGHT_SENTINEL),
        *(("a=", word) for word in words),
        *((f"x{c}=", column[p]) for c, column in enumerate(table.extra)),
        *((f"s:{system_id}:b", _prob_bin(probs[p])) for system_id, probs in table.stacked),
    ]


def _bigram_string(prev: bool | None, label: bool) -> str:
    return f"g={_START if prev is None else _LABELS[prev]}∧{_LABELS[label]}"


def extract_features(table: InstanceTable, p: int, label: bool, prev: bool | None) -> list[int]:
    """Hashed sparse feature vector (a multiset of 64-bit keys)."""
    return [fnv1a64(s) for s in feature_strings(table, p, label, prev)]


# ---------------------------------------------------------------------------
# Compiled form: unigram keys are position/label-local and never change while
# the weights do, so each call of ``predict``, ``mira_train``, ``jackknife``,
# ``viterbi`` or ``score_sequence`` compiles its table once, in blocks of
# ``_BLOCK`` sentences, each a slice of every column. A block's templates are
# int ids in one row per slot, in slot order, with a column per position; the
# distinct templates of each row are hashed in one numpy FNV-1a pass per
# block, as their OK and BAD keys, folded on from each role's state.
# Prediction gathers the weights of those keys and adds them slot row by slot
# row into the block's columns of one score array over the corpus; training
# and the one-sentence functions intern each template's (OK key, BAD key)
# into a dense template id and keep each position's template ids, which
# ``_keyed_slots`` turns into (OK ids, BAD ids) of the keys where a weight per
# key is needed.
# Every score is a left-to-right sum in slot order from +0.0; such a sum is
# never -0.0, so the 0.0 that a key the model lacks or a padded aligned-word
# slot adds is a no-op and every path is bit-identical to summing each key of
# ``extract_features``.
# ---------------------------------------------------------------------------

_BLOCK = 64  # sentences compiled together: larger blocks make fewer numpy calls but raise peak memory
_PRIME = np.uint64(_FNV_PRIME)
_CONJUNCT_BYTES = tuple(conjunct.encode() for conjunct in _CONJUNCTS)


def _fnv1a64_fold(states: np.ndarray, data: Sequence[bytes]) -> np.ndarray:
    """FNV-1a continued from each ``uint64`` state over the bytes of the
    matching item of ``data``, byte column by byte column. The rows are
    sorted longest first, so the rows that a column continues are a prefix.
    From ``_FNV_OFFSET`` over ``text.encode()`` it gives ``fnv1a64(text)``."""
    lengths = np.fromiter(map(len, data), np.int64, len(data))
    order = np.argsort(-lengths)
    starts = (np.cumsum(lengths) - lengths)[order]
    buffer = np.frombuffer(b"".join(data), np.uint8)
    h = states[order]
    for column, rows in enumerate((len(data) - np.cumsum(np.bincount(lengths))).tolist()):
        if not rows:
            break
        head = h[:rows]
        head ^= buffer[starts[:rows] + column]
        head *= _PRIME
    out = np.empty_like(h)
    out[order] = h
    return out


class _Vocabulary(dict):
    """One call's role and value strings by id, numbered in order of first
    sight, and their UTF-8 bytes."""

    __slots__ = ("_utf8",)

    def __init__(self):
        super().__init__()
        self._utf8: list[bytes] = []

    def __missing__(self, text: str) -> int:
        self[text] = new = len(self)
        return new

    def utf8(self, ids: np.ndarray) -> list[bytes]:
        self._utf8 += [text.encode() for text in islice(self, len(self._utf8), None)]
        return list(map(self._utf8.__getitem__, ids.tolist()))


def _template_keys(templates: np.ndarray, vocab: _Vocabulary) -> np.ndarray:
    """The OK and BAD keys, shape (2, n), of templates given as ids ``role id
    << 32 | value id`` in ``vocab``: the FNV-1a state of each distinct role
    is folded on over the bytes of the value, then over each conjunct."""
    roles, role_of = np.unique(templates >> 32, return_inverse=True)
    role_states = _fnv1a64_fold(np.full(roles.size, _FNV_OFFSET, np.uint64), vocab.utf8(roles))
    states = _fnv1a64_fold(role_states[role_of], vocab.utf8(templates & 0xFFFFFFFF))
    keys = np.empty((len(_CONJUNCT_BYTES), states.size), np.uint64)
    for h, conjunct in zip(keys, _CONJUNCT_BYTES):
        h[...] = states
        for byte in conjunct:
            h ^= np.uint64(byte)
            h *= _PRIME
    return keys


def _template_ids(table: InstanceTable, start: int, end: int, vocab: _Vocabulary) -> list[np.ndarray]:
    """The templates of sentences ``start:end`` of ``table`` as ids ``role id
    << 32 | value id``, with the role and the value numbered by ``vocab``
    (which grows): a row per slot in slot order, holding each position of the
    block. -1 pads the aligned-word slots beyond a position's own words."""

    def role(name: str) -> int:
        return vocab[name] << 32

    def ids(strings) -> np.ndarray:
        return np.fromiter(map(vocab.__getitem__, strings), np.int64)

    bounds = table.offsets[start:end + 1]
    lo, hi = bounds[0], bounds[-1]
    total = hi - lo
    rows = [np.full(total, role("b") | vocab[""], np.int64)]
    tokens = ids(table.tokens[lo:hi])
    rows.append(role("w0=") | tokens)
    left, right = np.roll(tokens, 1), np.roll(tokens, -1)
    left[bounds[:-1] - lo] = vocab[_LEFT_SENTINEL]
    right[bounds[1:] - lo - 1] = vocab[_RIGHT_SENTINEL]
    rows += [role("w-1=") | left, role("w+1=") | right]
    at = table.word_offsets[lo:hi + 1]
    counts = np.diff(at)
    position = np.repeat(np.arange(total), counts)
    slot = np.arange(position.size) - (at[:-1] - at[0])[position]
    aligned = role("a=") | ids(table.words[at[0]:at[-1]])
    for k in range(counts.max(initial=1)):
        row = np.full(total, role("a=") | vocab[_NO_ALIGNMENT] if k == 0 else -1, np.int64)
        row[position[slot == k]] = aligned[slot == k]
        rows.append(row)
    rows += [role(f"x{c}=") | ids(column[lo:hi]) for c, column in enumerate(table.extra)]
    for system_id, values in table.stacked:
        probs = values[lo:hi]
        # _prob_bin's min(int(_BINS * p), _BINS - 1), where int64 holds it
        scaled = np.minimum(_BINS * probs, _BINS - 1)
        if not (np.isfinite(probs) & (scaled >= -(2.0**63))).all():
            raise RangeError("a stacked probability is not finite or too far below 0 to bin")
        bins, which = np.unique(scaled.astype(np.int64), return_inverse=True)
        rows.append(role(f"s:{system_id}:b") | ids(map(str, bins.tolist()))[which])
    return rows


def _compile(table: InstanceTable):
    """Yields the sentence range of each block of up to ``_BLOCK`` sentences
    with, for each slot of each of its positions, the index of its template
    among the block's distinct templates (shaped as ``_template_ids``, -1 for
    a padded slot), and those templates' OK and BAD keys, shape (2,
    distinct). The blocks share one vocabulary."""
    vocab = _Vocabulary()
    for start in range(0, len(table), _BLOCK):
        end = min(start + _BLOCK, len(table))
        yield (start, end, *_distinct_templates(_template_ids(table, start, end, vocab), vocab))


def _distinct_templates(rows: list[np.ndarray], vocab: _Vocabulary) -> tuple[list[np.ndarray], np.ndarray]:
    """Each slot's index among the templates of the block (-1 where padded)
    and those templates' keys. A template is distinct within its slot row;
    the rows are deduplicated one at a time, which keeps the arrays small."""
    which, distinct, start = [], [], 0
    for row in rows:
        templates, index = np.unique(row, return_inverse=True)
        index += start
        if templates[0] < 0:  # the padded slots
            templates = templates[1:]
            index -= 1
            index[row < 0] = -1
        which.append(index)
        distinct.append(templates)
        start += templates.size
    return which, _template_keys(np.concatenate(distinct), vocab)


def _corpus_scores(table: InstanceTable, weights) -> np.ndarray:
    """The (OK, BAD) unigram scores, shape (2, positions), of every position
    of ``table`` in corpus order under ``weights`` by key; a key the weights
    lack weighs 0.0. Keys are searched as int64, which numpy searches faster
    than uint64. The compile's arrays are freed when it returns."""
    weights = {key: value for key, value in weights.items() if 0 <= key <= _MASK64}  # no other key is a hash
    keys = np.fromiter(weights, np.uint64, len(weights)).view(np.int64)
    order = np.argsort(keys)
    keys = keys[order]
    values = np.fromiter(weights.values(), np.float64, len(weights))[order]
    bounds = table.offsets.tolist()
    scores = np.zeros((2, bounds[-1]))
    for start, end, which, block_keys in _compile(table):
        _block_scores(scores[:, bounds[start]:bounds[end]], which, block_keys.view(np.int64), keys, values)
    return scores


def _block_scores(out: np.ndarray, which, block_keys, keys, values) -> None:
    """Adds a block's (OK, BAD) unigram scores into ``out``, its zeroed
    columns of the corpus scores: the weights of the slots' keys, found in
    the sorted ``keys``, added slot row by slot row."""
    found = np.zeros((2, block_keys.shape[1] + 1))  # the last column weighs the padded slots
    if keys.size:
        at = np.searchsorted(keys, block_keys)
        at[at == keys.size] = 0
        np.copyto(found[:, :-1], values[at], where=keys[at] == block_keys)
    for row in which:
        out += found[:, row]


def _compile_slots(table: InstanceTable) -> tuple[list[list[tuple[int, ...]]], list[tuple[int, int]]]:
    """Each sentence's per-position template ids in slot order, and the (OK
    key, BAD key) of each template id: the ids number the distinct pairs of
    keys in order of first sight, so templates whose keys both collide share
    one."""
    pairs: dict[tuple[int, int], int] = {}
    compiled = []
    for start, end, which, keys in _compile(table):
        # the slots hold the int objects of ``pairs``, not a copy of each
        ids = [pairs.setdefault(pair, len(pairs)) for pair in zip(*keys.tolist())]
        by_position = np.array(which, np.int64).T
        real = by_position >= 0
        templates = list(map(ids.__getitem__, by_position[real].tolist()))
        slots, lo = [], 0
        for hi in np.cumsum(real.sum(1)).tolist():
            slots.append(tuple(templates[lo:hi]))
            lo = hi
        bounds = (table.offsets[start:end + 1] - table.offsets[start]).tolist()
        compiled += (slots[lo:hi] for lo, hi in pairwise(bounds))
    return compiled, list(pairs)


def _keyed_slots(compiled, pairs, index: dict[int, int]) -> list[list]:
    """Each position's (OK ids, BAD ids) in slot order, from its template ids
    and their ``pairs`` of keys: the dense ids of the keys in ``index``,
    where a new key takes the next id and colliding keys share one."""
    ok_ids = [index.setdefault(ok, len(index)) for ok, _ in pairs]
    bad_ids = [index.setdefault(bad, len(index)) for _, bad in pairs]
    return [
        [(tuple(map(ok_ids.__getitem__, ids)), tuple(map(bad_ids.__getitem__, ids))) for ids in sentence]
        for sentence in compiled
    ]


def _bigram_keys():
    """Transition keys indexed [prev][cur]; prev 0 is the start sentinel."""
    return tuple(tuple(fnv1a64(_bigram_string(p, label)) for label in (False, True)) for p in (None, False, True))


class _Weights(dict):
    """A model's weights by 64-bit key, as decoding reads them: an unseen key
    weighs 0.0."""

    __slots__ = ()

    def __missing__(self, key):
        return 0.0


def _model_weights(model: LinearModel) -> _Weights:
    """``mira_train`` and ``load_model`` build ``_Weights``; any other dict is
    copied into one."""
    return model.weights if isinstance(model.weights, _Weights) else _Weights(model.weights)


def _int_path(tags) -> list[int]:
    """BAD indicators as the 0/1 label path that decoding and MIRA index
    their tables with: indexing by an exact int is faster than by a bool."""
    return [1 if bad else 0 for bad in tags]


def _unigram_scores(slots, w, cost=None):
    """Per-position (OK, BAD) scores of one sentence's keyed slots; with a
    ``cost`` path the label that differs from it gains 1.0
    (Hamming-augmented)."""
    scores = []
    for i, (ok, bad) in enumerate(slots):
        s0 = 0.0
        for j in ok:
            s0 += w[j]
        s1 = 0.0
        for j in bad:
            s1 += w[j]
        if cost is not None:
            s0, s1 = (s0 + 1.0, s1) if cost[i] else (s0, s1 + 1.0)
        scores.append((s0, s1))
    return scores


def _transition_scores(bigram_slots, w):
    return tuple(tuple(w[j] for j in row) for row in bigram_slots)


def _forward(u, t):
    """The max-product forward pass and its backtrace: ``delta[i][l]`` is the
    best score of a prefix ending in label ``l`` at position ``i``. Returns
    ``delta``, the Viterbi path (0 OK, 1 BAD) and its score; ties break
    toward OK."""
    (t00, t01), (t10, t11), (t20, t21) = t
    d0, d1 = u[0][0] + t00, u[0][1] + t01
    delta, back = [(d0, d1)], [(0, 0)]
    for u0, u1 in u[1:]:
        ok0, bad0, ok1, bad1 = d0 + t10, d1 + t20, d0 + t11, d1 + t21
        b0, b1 = (1 if bad0 > ok0 else 0), (1 if bad1 > ok1 else 0)
        d0, d1 = u0 + (bad0 if b0 else ok0), u1 + (bad1 if b1 else ok1)
        delta.append((d0, d1))
        back.append((b0, b1))

    last = 0 if d0 >= d1 else 1
    path = [last] * len(u)
    for i in range(len(u) - 1, 0, -1):
        path[i - 1] = back[i][path[i]]
    return delta, path, delta[-1][last]


def _path_score(slots, t, w, path) -> float:
    total = 0.0
    prev = 0
    for position, label in zip(slots, path):
        for j in position[label]:
            total += w[j]
        total += t[prev][label]
        prev = label + 1
    return total


# ---------------------------------------------------------------------------
# Whole-corpus decoding: ``predict`` and ``jackknife`` take every sentence's
# Viterbi tags and max-marginal P(BAD) from one pass over flat arrays, the
# (OK, BAD) unigram scores of all positions. The sentences are sorted by
# length, longest first (a stable sort), and their positions laid out
# position-major, so the sentences that reach position i are one run of the
# arrays; each step of the forward pass, and of the backward pass fused with
# the backtrace, is a few numpy operations over one run. Every sum keeps the
# operand order of ``_forward`` and of the max-marginal recurrence, and every
# max is ``np.where(y > x, y, x)``, never ``np.maximum``: like Python's
# ``max(x, y)`` it keeps the first operand on a tie (so 0.0 against -0.0) and
# on NaN. The logistic link calls ``math.exp`` per value: numpy's vectorised
# ``exp`` may differ from libm's in the last bit, which would change the
# probabilities.
# ---------------------------------------------------------------------------


def _decode(scores: np.ndarray, lengths: np.ndarray, t: np.ndarray, gamma: float) -> tuple[Ragged, Ragged]:
    """Viterbi tags and max-marginal P(BAD) of every sentence, as a bool and
    a float64 ``Ragged``, given the unigram scores of all positions, shape
    (2, positions), in corpus order, each sentence's length and its
    transition scores, shape (3, 2, sentences), indexed [prev][cur] as
    ``_forward``'s ``t``. The decode permutes ``scores`` in place."""
    tags, x = _max_marginals(scores, lengths, t, gamma)
    offsets = _offsets(lengths)
    return Ragged(tags, offsets), Ragged(np.fromiter(map(_logistic, x.tolist()), np.float64, x.size), offsets)


@np.errstate(over="ignore", invalid="ignore")  # Python's float arithmetic warns of neither
def _max_marginals(scores, lengths, t, gamma) -> tuple[np.ndarray, np.ndarray]:
    """``_decode``'s passes: the Viterbi labels of all positions, and their
    max-marginal margins (BAD minus OK) times ``-gamma``, in corpus order.
    A function of its own, so that its arrays are freed before the
    probabilities are taken."""
    order = np.argsort(-lengths, kind="stable")
    (t00, t01), (t10, t11), (t20, t21) = t[:, :, order]
    starts = (np.cumsum(lengths) - lengths)[order]
    active = (lengths.size - np.cumsum(np.bincount(lengths, minlength=1)))[:-1]  # sentences longer than i
    # position-major layout: position i of the j-th longest sentence is at
    # offsets[i] + j, so each position's sentences are one run
    offsets = np.cumsum([0, *active])
    runs = list(pairwise(offsets.tolist()))
    columns = np.concatenate([starts[:a] + i for i, a in enumerate(active.tolist())]) if runs else starts
    scores[...] = scores[:, columns]
    u0, u1 = scores
    total, n = columns.size, lengths.size

    delta0, delta1 = np.empty(total), np.empty(total)
    back0, back1 = np.zeros(total, bool), np.zeros(total, bool)  # BAD precedes on the best path to OK, to BAD
    d0, d1 = np.add(u0[:n], t00, out=delta0[:n]), np.add(u1[:n], t01, out=delta1[:n])
    for lo, hi in runs[1:]:
        a = hi - lo
        d0, d1 = d0[:a], d1[:a]
        ok0, bad0, ok1, bad1 = d0 + t10[:a], d1 + t20[:a], d0 + t11[:a], d1 + t21[:a]
        b0, b1 = np.greater(bad0, ok0, out=back0[lo:hi]), np.greater(bad1, ok1, out=back1[lo:hi])
        d0 = np.add(u0[lo:hi], np.where(b0, bad0, ok0), out=delta0[lo:hi])
        d1 = np.add(u1[lo:hi], np.where(b1, bad1, ok1), out=delta1[lo:hi])

    # descending, the backtrace and the backward pass: ``label`` is each
    # sentence's label on its best path, and beta the best score of the
    # suffix after each label, (0.0, 0.0) at the last position; the margin
    # of a position replaces its ``delta1``
    last = offsets[lengths[order] - 1] + np.arange(n)
    label = ~(delta0[last] >= delta1[last])
    path = np.empty(total, bool)
    beta0, beta1 = np.zeros(n), np.zeros(n)
    for (lo, hi), (after, end) in zip(runs[::-1], (runs[1:] + [(total, total)])[::-1]):
        a, c = hi - lo, end - after  # the sentences at the position, and those that go on past it
        a0, a1, c0, c1 = u0[after:end], u1[after:end], beta0[:c], beta1[:c]
        x0, y0 = t10[:c] + a0 + c0, t11[:c] + a1 + c1
        x1, y1 = t20[:c] + a0 + c0, t21[:c] + a1 + c1
        beta0[:c], beta1[:c] = np.where(y0 > x0, y0, x0), np.where(y1 > x1, y1, x1)
        label[:c] = np.where(label[:c], back1[after:end], back0[after:end])
        path[lo:hi] = label[:a]
        delta1[lo:hi] = -gamma * ((delta1[lo:hi] + beta1[:a]) - (delta0[lo:hi] + beta0[:a]))

    tags, x = np.empty(total, bool), np.empty(total)
    tags[columns], x[columns] = path, delta1
    return tags, x


def _logistic(x: float) -> float:
    """``1 / (1 + exp(x))``, the P(BAD) of a margin times ``-gamma``."""
    try:
        return 1.0 / (1.0 + exp(x))
    except OverflowError:  # 1 + exp(x) rounds to exp(x)
        return exp(-x)


def _one_sentence(table: InstanceTable) -> InstanceTable:
    if len(table) != 1:
        raise InvalidInput(f"expected a table of one sentence, got {len(table)} sentences")
    return table


def _compile_one(table: InstanceTable, model: LinearModel):
    """A one-sentence table compiled against a model: its slots, the weight
    of each slot's key and the transition scores."""
    w = _model_weights(model)
    index: dict[int, int] = {}
    (slots,) = _keyed_slots(*_compile_slots(_one_sentence(table)), index)
    return slots, [w[key] for key in index], _transition_scores(_bigram_keys(), w)


def viterbi(
    table: InstanceTable, model: LinearModel, cost_gold: Sequence[bool] | None = None
) -> tuple[list[bool], float]:
    """Exact argmax tag sequence (BAD is true) and its score of a table of
    one sentence. With ``cost_gold`` the score is Hamming-augmented
    (loss-augmented decoding). Ties break toward OK."""
    slots, w, t = _compile_one(table, model)
    _, path, score = _forward(_unigram_scores(slots, w, cost_gold), t)
    return list(map(bool, path)), score


def score_sequence(table: InstanceTable, model: LinearModel, labels: Sequence[bool]) -> float:
    """Model score of one labeling of a table of one sentence (no loss
    augmentation)."""
    slots, w, t = _compile_one(table, model)
    return _path_score(slots, t, w, _int_path(labels))


# ---------------------------------------------------------------------------
# Max-loss MIRA
# ---------------------------------------------------------------------------


def mira_train(
    table: InstanceTable,
    golds: Ragged | Sequence[Sequence[bool]],
    *,
    epochs: int = 5,
    C: float = 1.0,
    seed: int = 1,
    on_update: Callable[[float], None] | None = None,
) -> LinearModel:
    """Train with max-loss MIRA on the sentences of ``table`` and their gold
    labelings (a Ragged, or rows converted once).

    Per example the loss-augmented Viterbi prediction yhat is decoded; when
    ``score(yhat) + hamming(yhat, gold) > score(gold)`` the weights move by
    ``tau * (phi(gold) - phi(yhat))`` with ``tau = min(C, violation /
    ||delta phi||^2)``. Updates with ``||delta phi||^2 = 0`` are degenerate
    and skipped. The returned model averages all post-update weight
    vectors; data order is reshuffled every epoch from ``seed``.
    """
    training = _compile_training(table, golds, epochs, C)
    return LinearModel(training.weights(_mira(training, epochs=epochs, C=C, seed=seed, on_update=on_update)))


# ---------------------------------------------------------------------------
# A unigram feature is a label-free template conjoined with OK or BAD, and an
# update moves each template of a position where gold and prediction differ
# by +count under the gold label and -count under the other. So from zero
# weights every update keeps w[OK key] == -w[BAD key], bit for bit: IEEE
# negation is exact and round-to-nearest symmetric, and only the sign of a
# zero can differ, which no sum from +0.0 shows. Training therefore keeps one
# weight per template, its BAD key's: a position's slots are ((), template
# ids), its OK score is 0.0 minus its BAD score, and ||delta phi||^2 counts
# each template's square twice. That holds only while every template has keys
# of its own, which a 64-bit collision can break; such a corpus trains one
# weight per key, on (OK ids, BAD ids) per position.
# Each MIRA visit is one call of its form's ``step``: the paired step walks
# the positions once, summing each position's BAD score and the gold path's
# score in one inner loop and running the forward recurrence as it goes; the
# keyed step composes ``_forward`` with ``_path_score``. Either adds every
# weight in the order of ``_unigram_scores``, ``_forward`` and
# ``_path_score``, so the bits are theirs. The delta is then +1 for each id of
# a moved position's gold side and -1 for each of its predicted side, in both
# forms.
# ---------------------------------------------------------------------------


class _Form(NamedTuple):
    """The steps that read a position's slots: ``step(slots, gold, w, t)``
    decodes under the Hamming cost of ``gold`` and returns the predicted
    path, its augmented score and the score of ``gold`` (as ``_forward``
    over ``_unigram_scores`` and ``_path_score``); ``unigram_scores(slots,
    w)`` gives the (OK, BAD) scores without cost."""

    step: Callable
    unigram_scores: Callable


def _keyed_step(slots, gold, w, t):
    _, pred, augmented = _forward(_unigram_scores(slots, w, gold), t)
    return pred, augmented, _path_score(slots, t, w, gold)


def _paired_unigram_scores(slots, w):
    """``_unigram_scores`` over template ids: the BAD score sums their
    weights and the OK score is 0.0 minus it."""
    scores = []
    for _, ids in slots:
        s1 = 0.0
        for j in ids:
            s1 += w[j]
        scores.append((0.0 - s1, s1))
    return scores


def _paired_step(slots, gold, w, t):
    """``_keyed_step`` over template ids in one walk: each position's BAD
    score and the gold score, where a template's weight is added under BAD
    and subtracted under OK, are summed in one loop, and the forward step of
    ``_forward`` follows with the position's Hamming-augmented scores."""
    (t00, t01), (t10, t11), (t20, t21) = t
    back0, back1 = [0], [0]
    total, before, d0, d1 = 0.0, t[0], None, None
    for (_, ids), g in zip(slots, gold):
        s1 = 0.0
        if g:
            for j in ids:
                x = w[j]
                s1 += x
                total += x
            u0, u1 = 0.0 - s1 + 1.0, s1
        else:
            for j in ids:
                x = w[j]
                s1 += x
                total -= x
            u0, u1 = 0.0 - s1, s1 + 1.0
        total += before[g]
        before = t[g + 1]
        if d0 is None:
            d0, d1 = u0 + t00, u1 + t01
            continue
        ok0, bad0, ok1, bad1 = d0 + t10, d1 + t20, d0 + t11, d1 + t21
        if bad0 > ok0:
            d0 = u0 + bad0
            back0.append(1)
        else:
            d0 = u0 + ok0
            back0.append(0)
        if bad1 > ok1:
            d1 = u1 + bad1
            back1.append(1)
        else:
            d1 = u1 + ok1
            back1.append(0)

    label = 0 if d0 >= d1 else 1
    augmented = d1 if label else d0
    path = [label] * len(back0)
    for i in range(len(back0) - 1, 0, -1):
        label = path[i - 1] = (back1 if label else back0)[i]
    return path, augmented, total


_KEYED = _Form(_keyed_step, _unigram_scores)
_PAIRED = _Form(_paired_step, _paired_unigram_scores)


@dataclass(frozen=True, eq=False)
class _Training:
    """A training corpus compiled once: each sentence's slots, in ``form``,
    and gold path (0 OK, 1 BAD), the transition slots and the key of every
    dense id. In the paired form the template ids come first, and
    ``ok_keys`` holds each one's OK key; in the keyed form it is empty."""

    form: _Form
    slots: list
    paths: list
    bigram_slots: tuple
    keys: list[int]
    ok_keys: list[int]

    def weights(self, w: list[float]) -> _Weights:
        """The weights by key of the averaged weights ``w`` by dense id, each
        OK key taking the negation of its template's BAD weight; zeros are
        left out."""
        weights = _Weights((key, value) for key, value in zip(self.keys, w) if value != 0.0)
        weights.update((key, -value) for key, value in zip(self.ok_keys, w) if value != 0.0)
        return weights


def _compile_training(table: InstanceTable, golds, epochs, C) -> _Training:
    """Checks the training arguments and compiles every sentence once. The
    paired form needs every unigram key to be one template's only OK or BAD
    key and no bigram key to be a unigram key; otherwise the keys are
    interned one id each, as the keyed form."""
    if epochs < 1:
        raise RangeError("epochs must be >= 1")
    if not C > 0:
        raise RangeError("C must be positive")
    golds = Ragged.from_rows(golds, dtype=bool)
    check_lengths(golds, np.diff(table.offsets), "gold labeling")
    compiled, pairs = _compile_slots(table)
    path = golds.values.view(np.uint8).tolist()
    paths = [path[lo:hi] for lo, hi in pairwise(golds.offsets.tolist())]
    ok_keys, bad_keys = [ok for ok, _ in pairs], [bad for _, bad in pairs]
    unigrams = {*ok_keys, *bad_keys}
    bigram_keys = _bigram_keys()
    if len(unigrams) == 2 * len(pairs) and unigrams.isdisjoint(chain.from_iterable(bigram_keys)):
        form, index = _PAIRED, dict(zip(bad_keys, range(len(pairs))))
        compiled = [[((), ids) for ids in sentence] for sentence in compiled]
    else:
        form, index, ok_keys = _KEYED, {}, []
        compiled = _keyed_slots(compiled, pairs, index)
    # a transition slot is the dense id of its key, a new key taking the next id
    bigram_slots = tuple(tuple(index.setdefault(key, len(index)) for key in row) for row in bigram_keys)
    return _Training(form, compiled, paths, bigram_slots, list(index), ok_keys)


def _mira(training: _Training, lo=0, hi=0, *, epochs, C, seed, on_update=None) -> list[float]:
    """The MIRA loop of ``mira_train`` over the sentences of ``training``
    but ``[lo, hi)``; returns the averaged weight of every dense id."""
    compiled, paths = training.slots[:lo] + training.slots[hi:], training.paths[:lo] + training.paths[hi:]
    walk = training.form.step
    bigram_slots = training.bigram_slots
    (b00, b01), (b10, b11), (b20, b21) = bigram_slots
    paired = len(training.ok_keys)  # the ids below it are templates, whose OK key counts too
    size = len(training.keys)
    w = [0.0] * size
    acc = [0.0] * size
    last = [0] * size
    rng = random.Random(seed)
    order = list(range(len(compiled)))
    step = 0

    for _ in range(epochs):
        rng.shuffle(order)
        for idx in order:
            step += 1
            comp = compiled[idx]
            gold = paths[idx]
            t = ((w[b00], w[b01]), (w[b10], w[b11]), (w[b20], w[b21]))
            pred, augmented, gold_score = walk(comp, gold, w, t)
            if pred == gold:
                continue
            violation = augmented - gold_score
            if violation <= 0.0:
                continue

            # phi(gold) - phi(pred): unigrams differ only where the labels
            # do, transitions only there and one position after
            delta: dict[int, int] = {}
            before_g = before_p = bigram_slots[0]
            for position, g, p in zip(comp, gold, pred):
                j_g, j_p = before_g[g], before_p[p]
                if j_g != j_p:
                    delta[j_g] = delta.get(j_g, 0) + 1
                    delta[j_p] = delta.get(j_p, 0) - 1
                if g != p:
                    for j in position[g]:
                        delta[j] = delta.get(j, 0) + 1
                    for j in position[p]:
                        delta[j] = delta.get(j, 0) - 1
                before_g, before_p = bigram_slots[g + 1], bigram_slots[p + 1]

            sq_norm = 0
            for j, count in delta.items():
                sq_norm += 2 * count * count if j < paired else count * count
            if sq_norm == 0:
                continue  # degenerate update (feature collision), skip
            tau = min(C, violation / sq_norm)
            if on_update is not None:
                on_update(tau)
            for j, count in delta.items():
                if count == 0:
                    continue
                acc[j] += w[j] * (step - 1 - last[j])
                last[j] = step - 1
                w[j] += tau * count

    if not step:
        return w
    return [(a + v * (step - l)) / step for a, v, l in zip(acc, w, last)]


# ---------------------------------------------------------------------------
# Probability output and jackknifing
# ---------------------------------------------------------------------------


def predict(table: InstanceTable, model: LinearModel, gamma: float = 1.0) -> tuple[Ragged, Ragged]:
    """Viterbi tags and P(BAD) for every sentence (as ``viterbi`` and
    ``predict_probs`` give them), as a bool and a float64 ``Ragged``, each
    sentence compiled once. A ``gamma`` that is not finite is a
    RangeError."""
    _check_gamma(gamma)
    w = _model_weights(model)
    t = np.repeat(np.array(_transition_scores(_bigram_keys(), w))[:, :, None], len(table), axis=2)
    return _decode(_corpus_scores(table, w), np.diff(table.offsets), t, gamma)


def _check_gamma(gamma: float):
    if not isfinite(gamma):
        raise RangeError("gamma must be finite")


def predict_probs(table: InstanceTable, model: LinearModel, gamma: float = 1.0) -> list[float]:
    """P(BAD) per position of a table of one sentence, from max-marginal
    margins through a logistic link: ``p_i = logistic(gamma *
    (maxscore(y_i=BAD) - maxscore(y_i=OK)))``."""
    return predict(_one_sentence(table), model, gamma)[1][0]


def _jackknife_fold(training: _Training, lo, hi, **options):
    """Trains on every fold but ``[lo, hi)``; returns the unigram scores of
    the held-out positions, shape (2, positions), and the transition
    scores."""
    w = _mira(training, lo, hi, **options)
    unigram_scores = training.form.unigram_scores
    scores = np.array(list(chain.from_iterable(unigram_scores(slots, w) for slots in training.slots[lo:hi])))
    return scores.T, _transition_scores(training.bigram_slots, w)


_WORKER_FOLD = None  # a worker process's fold function, set once by the pool initializer


def _init_worker(fold):
    global _WORKER_FOLD
    _WORKER_FOLD = fold


def _worker_fold(bounds):
    return _WORKER_FOLD(*bounds)


def jackknife(
    table: InstanceTable,
    golds: Ragged | Sequence[Sequence[bool]],
    k: int,
    *,
    epochs: int = 5,
    C: float = 1.0,
    seed: int = 1,
    gamma: float = 1.0,
    jobs: int = 1,
) -> tuple[Ragged, Ragged]:
    """Out-of-fold predictions for every sentence: fold i is predicted, as by
    ``predict``, with the model ``mira_train`` fits with the same options on
    the other k-1 contiguous folds. The corpus is compiled once and each fold
    trains on index ranges of it; with ``jobs > 1`` every worker process
    receives it once. The folds return their held-out scores and the corpus
    is decoded once, each sentence under its fold's transition scores. The
    result, a bool and a float64 ``Ragged``, covers each sentence exactly
    once, in corpus order."""
    _check_gamma(gamma)
    bounds = fold_bounds(len(table), k)
    training = _compile_training(table, golds, epochs, C)
    fold = functools.partial(_jackknife_fold, training, epochs=epochs, C=C, seed=seed)
    if jobs > 1:
        # imported here: they cost about 8 ms of every CLI start, and one job needs neither
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        spawn = multiprocessing.get_context("spawn")  # fork is unsafe in a process with threads
        with ProcessPoolExecutor(jobs, mp_context=spawn, initializer=_init_worker, initargs=(fold,)) as pool:
            results = list(pool.map(_worker_fold, bounds))
    else:
        results = [fold(lo, hi) for lo, hi in bounds]
    scores, t = zip(*results)
    t = np.repeat(np.array(t).transpose(1, 2, 0), [hi - lo for lo, hi in bounds], axis=2)
    return _decode(np.concatenate(scores, axis=1), _lengths(training.slots), t, gamma)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def save_model(model: LinearModel, path):
    """Plain-text model: one ``featurekey<TAB>weight`` line, sorted by key, each
    weight finite (else a RangeError naming its line, and nothing written)."""
    keys = sorted(model.weights)
    _write_table(path, map(str, keys), map(model.weights.__getitem__, keys))


def _model_keys(names) -> list[int]:
    """Each model line's key: a decimal integer of at most 64 bits."""
    if not all(map(str.isdecimal, names)):
        raise ValueError("model key is not a decimal integer")
    keys = list(map(int, names))
    if max(keys) > _MASK64:
        raise ValueError("model key beyond 64 bits")
    return keys


def load_model(path) -> LinearModel:
    """The weights ``save_model`` writes; no key may repeat, as an int."""
    keys, [weights] = _read_table(path, 1, _model_keys)
    return LinearModel(weights=_Weights(zip(keys, weights)))


# ---------------------------------------------------------------------------
# Corpus -> instances for each stream
# ---------------------------------------------------------------------------


def _aligned_words(corpus: TaggedCorpus, stream: Stream) -> tuple[list[str], np.ndarray]:
    """The aligned words of every WORDS (source words per MT token) or SOURCE
    (MT words per source token) position, flat, each position's in index
    order, and each position's count, from one lexsort of the pairs."""
    pairs, offsets = corpus.alignments
    keys, others, key_index = (corpus.mt, corpus.src, 1) if stream is Stream.WORDS else (corpus.src, corpus.mt, 0)
    per_line = np.diff(offsets)
    key = np.repeat(keys.offsets[:-1], per_line) + pairs[:, key_index]
    other = np.repeat(others.offsets[:-1], per_line) + pairs[:, 1 - key_index]
    words = others.values[other[np.lexsort((other, key))]].tolist()
    return words, np.bincount(key, minlength=int(keys.offsets[-1]))


def build_instances(
    corpus: TaggedCorpus,
    stream: Stream,
    *,
    predictions: Sequence[PredictionSet] = (),
    extra_columns: Sequence[Sequence[Sequence[str]]] = (),
) -> InstanceTable:
    """Turn a corpus into the instance table of one stream.

    WORDS tags the MT tokens with aligned source words as context; GAPS tags
    the N+1 gap positions, each represented by its flanking MT words; SOURCE
    tags the source tokens with aligned MT words as context. ``extra_columns``
    supplies one annotation column per element, each a token column (as
    ``read_sentences`` gives) or per-sentence rows of per-position strings.
    Stacked probabilities are taken from the matching stream of each
    prediction set that provides it. A stacked stream or an extra column
    whose sentences or lengths differ from the stream's is a LengthMismatch.
    """
    if stream is Stream.SOURCE and corpus.src is None:
        raise MissingStream("source stream needs source sentences")
    if stream not in (Stream.WORDS, Stream.GAPS, Stream.SOURCE):
        raise MissingStream(f"unknown stream {stream!r}")
    lengths = stream_lengths(corpus, stream)
    if stream is Stream.GAPS:
        # gap i of a sentence lies between its tokens i - 1 and i, the sentinels at its ends
        mt = corpus.mt
        left = np.insert(mt.values, mt.offsets[:-1], _LEFT_SENTINEL).tolist()
        right = np.insert(mt.values, mt.offsets[1:], _RIGHT_SENTINEL).tolist()
        tokens = list(map("{}|{}".format, left, right))
    else:
        tokens = (corpus.mt if stream is Stream.WORDS else corpus.src).values.tolist()
    words, counts = [], np.zeros(lengths.sum(), np.int64)
    if stream is not Stream.GAPS and corpus.alignments is not None:
        words, counts = _aligned_words(corpus, stream)
    stacked = []
    for pred in predictions:
        probs = pred.stream(stream)
        if probs is not None:
            check_lengths(probs, lengths, f"system {pred.system_id!r} {stream.value} stream")
            stacked.append((pred.system_id, probs.values))
    for column in extra_columns:
        check_lengths(column, lengths, "extra column")
    extra = tuple(Ragged.from_rows(column, dtype=object).values.tolist() for column in extra_columns)
    return InstanceTable(tokens, _offsets(lengths), words, _offsets(counts), extra, tuple(stacked))


def gold_tags(corpus: TaggedCorpus, stream: Stream) -> Ragged:
    """Gold BAD indicators for one stream, one bool row per entry; the corpus
    must carry them."""
    if stream is Stream.SOURCE:
        if corpus.source_tags is None:
            raise MissingStream("entry 1 has no source tags")
        return corpus.source_tags
    if corpus.tags is None:
        raise MissingStream("entry 1 has no target tags")
    return _cut_interleaved(corpus.tags, "words" if stream is Stream.WORDS else "gaps")
