"""Feature-based first-order sequential word-level QE model.

The tagger scores a label sequence y over an instance as
``sum_i w . phi(x, i, y_i, y_{i-1})`` with unigram templates (current/left/
right token, aligned other-side words, extra annotation columns, binned
stacked probabilities, bias) conjoined with the current label, plus a single
bigram indicator over the label pair. The template set is fixed: an instance
without extra columns or stacked systems has none of their templates, and a
position without aligned words has ``a=<none>``. Decoding is exact dynamic
programming over the two labels; weights are learned with max-loss MIRA and
averaged over all post-update vectors.

Feature strings are hashed to 64-bit keys (FNV-1a); collisions are tolerated,
they merely share a weight. A call compiles its instances in blocks of 64
sentences: the block's templates become rows of int ids, one row per slot,
and the distinct templates of the block are hashed in one numpy pass, as
their OK and BAD keys; no feature string is built. Prediction gathers the
weights of those keys and sums them slot row by slot row, a key the model
lacks adding 0.0, into one score array over the corpus, which is then
decoded in one pass: the sentences sorted by length, longest first, each
position's forward and backward step runs over all the sentences that reach
it at once. Training interns the keys of its corpus into dense ids, so
colliding strings share one id, and trains on weight lists indexed by id;
models and their files keep the keys. ``feature_strings`` builds the strings
position by position and is the reference the compile is tested against.
Gap and source streams are trained as independent sequence models over their
own position sequences.
"""

from __future__ import annotations

import functools
import multiprocessing
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import chain, islice, pairwise
from math import exp
from operator import methodcaller
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .corpus import (
    PredictionSet,
    Ragged,
    Stream,
    TaggedCorpus,
    _cut_interleaved,
    _lengths,
    _parse_float,
    _read_lines,
    _write_lines,
)
from .ensemble import fold_bounds
from .errors import EmptyInput, LengthMismatch, MissingStream, ParseError, RangeError

__all__ = [
    "FeatureConfig",
    "SequenceInstance",
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

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a64(text: str) -> int:
    """Deterministic 64-bit FNV-1a hash of a feature string."""
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


@dataclass(frozen=True)
class FeatureConfig:
    """The bin count for stacked probabilities; the templates are fixed."""

    bins: int = 10

    def __post_init__(self):
        if self.bins < 1:
            raise RangeError("bins must be >= 1")


@dataclass(frozen=True)
class SequenceInstance:
    """One tagging problem: the stream's tokens plus per-position context.

    ``aligned`` holds the other-side words aligned to each position, ``extra``
    holds optional annotation columns (columns first, positions second) and
    ``stacked`` holds per-system P(BAD) values used as stacked features.
    """

    tokens: tuple[str, ...]
    aligned: tuple[tuple[str, ...], ...] = ()
    extra: tuple[tuple[str, ...], ...] = ()
    stacked: tuple[tuple[str, tuple[float, ...]], ...] = ()

    def __post_init__(self):
        n = len(self.tokens)
        if n == 0:
            raise EmptyInput("instance needs at least one token")
        if self.aligned and len(self.aligned) != n:
            raise LengthMismatch("aligned words must cover every position")
        for column in self.extra:
            if len(column) != n:
                raise LengthMismatch("extra column length must match the token count")
        for _, probs in self.stacked:
            if len(probs) != n:
                raise LengthMismatch("stacked probabilities must cover every position")

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass
class LinearModel:
    """Feature weights by 64-bit key (training maps its dense ids back to the
    keys) plus the feature config that produced them. Serialization keeps
    only the weights; supply the same ``bins`` when loading."""

    weights: dict[int, float]
    config: FeatureConfig = field(default_factory=FeatureConfig)


def _prob_bin(p: float, bins: int) -> int:
    return min(int(bins * p), bins - 1)


def feature_strings(
    inst: SequenceInstance, i: int, label: bool, prev: bool | None, config: FeatureConfig
) -> list[str]:
    """Human-readable feature names for position ``i`` with ``label`` and the
    previous label ``prev`` (BAD is true; None means sequence start): each
    label-free template conjoined with the label, then the bigram."""
    return [
        *(f"{role}{value}∧{_LABELS[label]}" for role, value in _templates(inst, i, config)),
        _bigram_string(prev, label),
    ]


def _templates(inst: SequenceInstance, i: int, config: FeatureConfig) -> list[tuple[str, object]]:
    """Position ``i``'s label-free unigram templates as ``(role, value)``
    pairs, in slot order; the template is ``f"{role}{value}"``. This is the
    one-position reference of ``_template_ids``, which builds the same
    templates for a block of instances at once."""
    tokens = inst.tokens
    words = (inst.aligned[i] if inst.aligned else ()) or (_NO_ALIGNMENT,)
    return [
        ("b", ""),
        ("w0=", tokens[i]),
        ("w-1=", tokens[i - 1] if i > 0 else _LEFT_SENTINEL),
        ("w+1=", tokens[i + 1] if i + 1 < len(tokens) else _RIGHT_SENTINEL),
        *(("a=", word) for word in words),
        *((f"x{c}=", column[i]) for c, column in enumerate(inst.extra)),
        *((f"s:{system_id}:b", _prob_bin(probs[i], config.bins)) for system_id, probs in inst.stacked),
    ]


def _bigram_string(prev: bool | None, label: bool) -> str:
    return f"g={_START if prev is None else _LABELS[prev]}∧{_LABELS[label]}"


def extract_features(
    inst: SequenceInstance, i: int, label: bool, prev: bool | None, config: FeatureConfig
) -> list[int]:
    """Hashed sparse feature vector (a multiset of 64-bit keys)."""
    return [fnv1a64(s) for s in feature_strings(inst, i, label, prev, config)]


# ---------------------------------------------------------------------------
# Compiled form: unigram keys are position/label-local and never change while
# the weights do, so each call of ``predict``, ``mira_train``, ``jackknife``,
# ``viterbi`` or ``score_sequence`` compiles its instances once, in blocks of
# ``_BLOCK`` sentences. A block's templates are int ids in one row per slot,
# in slot order, with a column per position; the distinct templates of each
# row are hashed in one numpy FNV-1a pass per block, as their OK and BAD keys,
# folded on from each role's state. Prediction gathers the weights of those
# keys and adds them slot row by slot row into the block's columns of one
# score array over the corpus; training and the single-instance functions
# intern the keys into dense ids and keep each position's (OK ids, BAD ids).
# Every score is a left-to-right sum in slot order from +0.0; such a sum is
# never -0.0, so the 0.0 that a key the model lacks or a padded slot adds is
# a no-op and every path is bit-identical to summing each key of
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


def _template_ids(block: list[SequenceInstance], config: FeatureConfig, vocab: _Vocabulary) -> list[np.ndarray]:
    """The templates of a block of instances as ids ``role id << 32 | value
    id``, with the role and the value numbered by ``vocab`` (which grows): a
    row per slot in slot order, holding each position of the block. -1 pads
    the slots a position lacks, the aligned words beyond its own and the
    extra columns and stacked systems only other instances have."""

    def role(name: str) -> int:
        return vocab[name] << 32

    def ids(strings) -> np.ndarray:
        return np.fromiter(map(vocab.__getitem__, strings), np.int64)

    lengths = [len(inst) for inst in block]
    total = sum(lengths)
    ends = np.cumsum(lengths)

    def padded(have: list[bool], templates: np.ndarray) -> np.ndarray:
        row = np.full(total, -1, np.int64)
        row[np.repeat(have, lengths)] = templates
        return row

    rows = [np.full(total, role("b") | vocab[""], np.int64)]
    tokens = ids(chain.from_iterable(inst.tokens for inst in block))
    rows.append(role("w0=") | tokens)
    left, right = np.roll(tokens, 1), np.roll(tokens, -1)
    left[ends - lengths] = vocab[_LEFT_SENTINEL]
    right[ends - 1] = vocab[_RIGHT_SENTINEL]
    rows += [role("w-1=") | left, role("w+1=") | right]
    words = [ws or (_NO_ALIGNMENT,) for inst in block for ws in inst.aligned or ((),) * len(inst)]
    counts = np.fromiter(map(len, words), np.int64, total)
    position = np.repeat(np.arange(total), counts)
    slot = np.arange(position.size) - (np.cumsum(counts) - counts)[position]
    aligned = role("a=") | ids(chain.from_iterable(words))
    for k in range(counts.max()):
        row = np.full(total, -1, np.int64)
        row[position[slot == k]] = aligned[slot == k]
        rows.append(row)
    for c in range(max(len(inst.extra) for inst in block)):
        have = [c < len(inst.extra) for inst in block]
        values = ids(chain.from_iterable(inst.extra[c] for inst, h in zip(block, have) if h))
        rows.append(padded(have, role(f"x{c}=") | values))
    for c in range(max(len(inst.stacked) for inst in block)):
        have = [c < len(inst.stacked) for inst in block]
        systems = [inst.stacked[c] for inst, h in zip(block, have) if h]
        probs = np.fromiter(chain.from_iterable(p for _, p in systems), np.float64)
        # _prob_bin's min(int(bins * p), bins - 1), where int64 holds it
        scaled = np.minimum(config.bins * probs, config.bins - 1)
        if not (np.isfinite(probs) & (scaled >= -(2.0**63))).all():
            raise RangeError("a stacked probability is not finite or too far below 0 to bin")
        bins, which = np.unique(scaled.astype(np.int64), return_inverse=True)
        roles = np.repeat([role(f"s:{system_id}:b") for system_id, _ in systems], [len(p) for _, p in systems])
        rows.append(padded(have, roles | ids(map(str, bins.tolist()))[which]))
    return rows


def _compile(instances: Iterable[SequenceInstance], config: FeatureConfig):
    """Yields each block of up to ``_BLOCK`` instances with, for each slot
    of each of its positions, the index of its template among the block's
    distinct templates (shaped as ``_template_ids``, -1 for a padded slot),
    and those templates' OK and BAD keys, shape (2, distinct). The blocks
    share one vocabulary."""
    vocab = _Vocabulary()
    it = iter(instances)
    while block := list(islice(it, _BLOCK)):
        yield (block, *_distinct_templates(_template_ids(block, config, vocab), vocab))


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


def _bounds(block: list[SequenceInstance]) -> Iterator[tuple[int, int]]:
    """Each instance's start and end among the positions of its block."""
    start = 0
    for inst in block:
        yield start, start + len(inst)
        start += len(inst)


def _corpus_scores(instances: Iterable[SequenceInstance], config: FeatureConfig, weights, total: int) -> np.ndarray:
    """The (OK, BAD) unigram scores, shape (2, total), of every position of
    ``instances`` in corpus order under ``weights`` by key; a key the weights
    lack weighs 0.0. Keys are searched as int64, which numpy searches faster
    than uint64. The compile's arrays are freed when it returns."""
    weights = {key: value for key, value in weights.items() if 0 <= key <= _MASK64}  # no other key is a hash
    keys = np.fromiter(weights, np.uint64, len(weights)).view(np.int64)
    order = np.argsort(keys)
    keys = keys[order]
    values = np.fromiter(weights.values(), np.float64, len(weights))[order]
    scores = np.zeros((2, total))
    start = 0
    for block, which, block_keys in _compile(instances, config):
        end = start + sum(map(len, block))
        _block_scores(scores[:, start:end], which, block_keys.view(np.int64), keys, values)
        start = end
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


def _compile_slots(instances: Iterable[SequenceInstance], config: FeatureConfig, index: dict[int, int]) -> list[list]:
    """Each instance's per-position (OK slots, BAD slots) in slot order: the
    dense ids of its keys in ``index``, where a new key takes the next id and
    colliding templates share one."""
    compiled = []
    for block, which, keys in _compile(instances, config):
        # the slots hold the int objects of ``index``, not a copy of each
        ok_ids, bad_ids = ([index.setdefault(key, len(index)) for key in row] for row in keys.tolist())
        by_position = np.array(which, np.int64).reshape(len(which), sum(map(len, block))).T
        real = by_position >= 0
        templates = by_position[real].tolist()
        ok, bad = list(map(ok_ids.__getitem__, templates)), list(map(bad_ids.__getitem__, templates))
        slots, start = [], 0
        for end in np.cumsum(real.sum(1)).tolist():
            slots.append((tuple(ok[start:end]), tuple(bad[start:end])))
            start = end
        compiled += (slots[start:end] for start, end in _bounds(block))
    return compiled


def _bigram_slots(index=None):
    """Transition slots indexed [prev][cur]; prev 0 is the start sentinel.
    With an ``index`` a slot is the key's dense id, without it is the key."""
    keys = [[fnv1a64(_bigram_string(p, label)) for label in (False, True)] for p in (None, False, True)]
    if index is None:
        return tuple(tuple(row) for row in keys)
    return tuple(tuple(index.setdefault(key, len(index)) for key in row) for row in keys)


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
    """Per-position (OK, BAD) scores of one compiled instance; with a
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


def _decode(scores: np.ndarray, lengths: np.ndarray, t: np.ndarray, gamma: float):
    """Viterbi tags and max-marginal P(BAD) rows of every sentence, given
    the unigram scores of all positions, shape (2, positions), in corpus
    order, each sentence's length and its transition scores, shape
    (3, 2, sentences), indexed [prev][cur] as ``_forward``'s ``t``. The
    decode permutes ``scores`` in place."""
    tags, x = _max_marginals(scores, lengths, t, gamma)
    ends = np.cumsum(lengths)
    bounds = list(zip((ends - lengths).tolist(), ends.tolist()))
    return [tags[s:e].tolist() for s, e in bounds], [list(map(_logistic, x[s:e].tolist())) for s, e in bounds]


@np.errstate(over="ignore", invalid="ignore")  # Python's float arithmetic warns of neither
def _max_marginals(scores, lengths, t, gamma) -> tuple[np.ndarray, np.ndarray]:
    """``_decode``'s passes: the Viterbi labels of all positions, and their
    max-marginal margins (BAD minus OK) times ``-gamma``, in corpus order.
    A function of its own, so that its arrays are freed before the rows are
    built."""
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


def _compile_one(inst: SequenceInstance, model: LinearModel):
    """One instance compiled against a model: its slots, the weight of each
    slot's key and the transition scores."""
    w = _model_weights(model)
    index: dict[int, int] = {}
    (slots,) = _compile_slots([inst], model.config, index)
    return slots, [w[key] for key in index], _transition_scores(_bigram_slots(), w)


def viterbi(
    inst: SequenceInstance, model: LinearModel, cost_gold: Sequence[bool] | None = None
) -> tuple[list[bool], float]:
    """Exact argmax tag sequence (BAD is true) and its score. With
    ``cost_gold`` the score is Hamming-augmented (loss-augmented decoding).
    Ties break toward OK."""
    slots, w, t = _compile_one(inst, model)
    _, path, score = _forward(_unigram_scores(slots, w, cost_gold), t)
    return list(map(bool, path)), score


def score_sequence(inst: SequenceInstance, model: LinearModel, labels: Sequence[bool]) -> float:
    """Model score of one labeling (no loss augmentation)."""
    slots, w, t = _compile_one(inst, model)
    return _path_score(slots, t, w, _int_path(labels))


# ---------------------------------------------------------------------------
# Max-loss MIRA
# ---------------------------------------------------------------------------


def mira_train(
    instances: Sequence[SequenceInstance],
    golds: Sequence[Sequence[bool]],
    *,
    epochs: int = 5,
    C: float = 1.0,
    seed: int = 1,
    config: FeatureConfig | None = None,
    average: bool = True,
    on_update: Callable[[float], None] | None = None,
) -> LinearModel:
    """Train with max-loss MIRA.

    Per example the loss-augmented Viterbi prediction yhat is decoded; when
    ``score(yhat) + hamming(yhat, gold) > score(gold)`` the weights move by
    ``tau * (phi(gold) - phi(yhat))`` with ``tau = min(C, violation /
    ||delta phi||^2)``. Updates with ``||delta phi||^2 = 0`` are degenerate
    and skipped. The returned model averages all post-update weight vectors
    (disable with ``average=False``); data order is reshuffled every epoch
    from ``seed``.
    """
    config, index, compiled, bigram_slots, paths = _compile_training(instances, golds, epochs, C, config)
    w = _mira(
        compiled, paths, bigram_slots, len(index),
        epochs=epochs, C=C, seed=seed, average=average, on_update=on_update,
    )
    return LinearModel(weights=_Weights((key, w[j]) for key, j in index.items() if w[j] != 0.0), config=config)


def _compile_training(instances, golds, epochs, C, config):
    """Checks the training arguments and compiles every instance once,
    interning its keys into one new dense index; returns the config, the
    index, the compiled instances, the transition slots and the gold paths."""
    if epochs < 1:
        raise RangeError("epochs must be >= 1")
    if C <= 0:
        raise RangeError("C must be positive")
    if len(instances) != len(golds):
        raise LengthMismatch("instances and gold labelings differ in count")
    for inst, gold in zip(instances, golds):
        if len(inst) != len(gold):
            raise LengthMismatch("gold labeling length must match its instance")
    config = config or FeatureConfig()
    index: dict[int, int] = {}
    compiled = _compile_slots(instances, config, index)
    return config, index, compiled, _bigram_slots(index), [_int_path(gold) for gold in golds]


def _mira(compiled, paths, bigram_slots, size, *, epochs, C, seed, average, on_update=None) -> list[float]:
    """The MIRA loop of ``mira_train`` over compiled instances and their gold
    paths; returns the final (or averaged) weight of every dense id."""
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
            t = _transition_scores(bigram_slots, w)
            _, pred, augmented = _forward(_unigram_scores(comp, w, gold), t)
            if pred == gold:
                continue
            violation = augmented - _path_score(comp, t, w, gold)
            if violation <= 0.0:
                continue

            # phi(gold) - phi(pred): unigrams differ only where the labels
            # do, transitions only there and one position after
            delta: dict[int, int] = {}
            moved = [i for i, g in enumerate(gold) if g != pred[i]]
            for i in moved:
                slots = comp[i]
                for j in slots[gold[i]]:
                    delta[j] = delta.get(j, 0) + 1
                for j in slots[pred[i]]:
                    delta[j] = delta.get(j, 0) - 1
            for i in {i for m in moved for i in (m, m + 1) if i < len(comp)}:
                j_g = bigram_slots[gold[i - 1] + 1 if i else 0][gold[i]]
                j_p = bigram_slots[pred[i - 1] + 1 if i else 0][pred[i]]
                if j_g != j_p:
                    delta[j_g] = delta.get(j_g, 0) + 1
                    delta[j_p] = delta.get(j_p, 0) - 1

            sq_norm = sum(count * count for count in delta.values())
            if sq_norm == 0:
                continue  # degenerate update (feature collision), skip
            tau = min(C, violation / sq_norm)
            if on_update is not None:
                on_update(tau)
            for j, count in delta.items():
                if count == 0:
                    continue
                if average:
                    acc[j] += w[j] * (step - 1 - last[j])
                    last[j] = step - 1
                w[j] += tau * count

    if not average or not step:
        return w
    return [(a + v * (step - l)) / step for a, v, l in zip(acc, w, last)]


# ---------------------------------------------------------------------------
# Probability output and jackknifing
# ---------------------------------------------------------------------------


def predict(
    instances: Sequence[SequenceInstance], model: LinearModel, gamma: float = 1.0
) -> tuple[list[list[bool]], list[list[float]]]:
    """Viterbi tags and P(BAD) for every instance (as ``viterbi`` and
    ``predict_probs`` give them), each instance compiled once."""
    w = _model_weights(model)
    lengths = np.fromiter(map(len, instances), np.int64, len(instances))
    scores = _corpus_scores(instances, model.config, w, int(lengths.sum()))
    t = np.array(_transition_scores(_bigram_slots(), w))
    return _decode(scores, lengths, np.repeat(t[:, :, None], lengths.size, axis=2), gamma)


def predict_probs(inst: SequenceInstance, model: LinearModel, gamma: float = 1.0) -> list[float]:
    """P(BAD) per position from max-marginal margins through a logistic link:
    ``p_i = logistic(gamma * (maxscore(y_i=BAD) - maxscore(y_i=OK)))``."""
    return predict([inst], model, gamma)[1][0]


def _jackknife_fold(compiled, paths, bigram_slots, size, lo, hi, **options):
    """Trains on every fold but ``[lo, hi)``; returns the unigram scores of
    the held-out positions, shape (2, positions), and the transition
    scores."""
    w = _mira(compiled[:lo] + compiled[hi:], paths[:lo] + paths[hi:], bigram_slots, size, **options)
    scores = np.array(list(chain.from_iterable(_unigram_scores(slots, w) for slots in compiled[lo:hi])))
    return scores.T, _transition_scores(bigram_slots, w)


_WORKER_FOLD = None  # a worker process's fold function, set once by the pool initializer


def _init_worker(fold):
    global _WORKER_FOLD
    _WORKER_FOLD = fold


def _worker_fold(bounds):
    return _WORKER_FOLD(*bounds)


def jackknife(
    instances: Sequence[SequenceInstance],
    golds: Sequence[Sequence[bool]],
    k: int,
    *,
    epochs: int = 5,
    C: float = 1.0,
    seed: int = 1,
    config: FeatureConfig | None = None,
    average: bool = True,
    gamma: float = 1.0,
    jobs: int = 1,
) -> tuple[list[list[bool]], list[list[float]]]:
    """Out-of-fold predictions for every instance: fold i is predicted, as by
    ``predict``, with the model ``mira_train`` fits with the same options on
    the other k-1 contiguous folds. The corpus is compiled once and each fold
    trains on index ranges of it; with ``jobs > 1`` every worker process
    receives it once. The folds return their held-out scores and the corpus
    is decoded once, each sentence under its fold's transition scores. The
    result covers each instance exactly once, in corpus order."""
    bounds = fold_bounds(len(instances), k)
    config, index, compiled, bigram_slots, paths = _compile_training(instances, golds, epochs, C, config)
    fold = functools.partial(
        _jackknife_fold, compiled, paths, bigram_slots, len(index),
        epochs=epochs, C=C, seed=seed, average=average,
    )
    if jobs > 1:
        spawn = multiprocessing.get_context("spawn")  # fork is unsafe in a process with threads
        with ProcessPoolExecutor(jobs, mp_context=spawn, initializer=_init_worker, initargs=(fold,)) as pool:
            results = list(pool.map(_worker_fold, bounds))
    else:
        results = [fold(lo, hi) for lo, hi in bounds]
    scores, t = zip(*results)
    lengths = np.fromiter(map(len, compiled), np.int64, len(compiled))
    t = np.repeat(np.array(t).transpose(1, 2, 0), [hi - lo for lo, hi in bounds], axis=2)
    return _decode(np.concatenate(scores, axis=1), lengths, t, gamma)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def save_model(model: LinearModel, path):
    """Plain-text model: one ``featurekey<TAB>weight`` line, sorted by key."""
    _write_lines(path, (f"{key}\t{model.weights[key]!r}" for key in sorted(model.weights)))


# load_model reads this many lines a column at a time; one block's strings
# are all the read holds at once besides the lines and the weights
_MODEL_BLOCK = 1024


def load_model(path, config: FeatureConfig | None = None) -> LinearModel:
    """The weights ``save_model`` writes, read a block of lines at a time and
    a column at a time; only a file that fails that read is walked line by
    line, to name its first bad line."""
    lines = _read_lines(path)
    weights = _Weights()
    for start in range(0, len(lines), _MODEL_BLOCK):
        keys, seps, values = zip(*map(methodcaller("partition", "\t"), lines[start:start + _MODEL_BLOCK]))
        if not all(seps) or not all(map(str.isdecimal, keys)):
            break
        ints = list(map(int, keys))
        if max(ints) > _MASK64:
            break
        try:
            weights.update(zip(ints, map(float, values)))
        except ValueError:
            break
    else:
        return LinearModel(weights=weights, config=config or FeatureConfig())
    for i, line in enumerate(lines, 1):
        key, sep, value = line.partition("\t")
        if not sep or not key.isdecimal():
            raise ParseError("malformed model line", file=str(path), line=i)
        if int(key) > _MASK64:
            raise ParseError("model key beyond 64 bits", file=str(path), line=i)
        _parse_float(value, file=str(path), line=i)
    raise AssertionError(f"{path} holds no malformed line")


# ---------------------------------------------------------------------------
# Corpus -> instances for each stream
# ---------------------------------------------------------------------------


def _aligned_word_rows(other_rows, pairs, offsets, key_index, other_index, key_lengths) -> list[tuple[str, ...]]:
    """Each position's aligned other-side words, in the order of their
    indices, for every line of an alignment table at once: line i has
    ``key_lengths[i]`` positions and the other-side tokens ``other_rows[i]``,
    and its pairs lie within both. Returns the positions' words, flat over
    the lines, from one lexsort of the (position, other index) pairs."""
    per_line = np.diff(offsets)
    other_lengths = _lengths(other_rows)
    key = np.repeat(np.cumsum(key_lengths) - key_lengths, per_line) + pairs[:, key_index]
    other = np.repeat(np.cumsum(other_lengths) - other_lengths, per_line) + pairs[:, other_index]
    order = np.lexsort((other, key))
    tokens = list(chain.from_iterable(other_rows))
    words = list(map(tokens.__getitem__, other[order].tolist()))
    counts = np.bincount(key, minlength=int(key_lengths.sum()))
    ends = np.cumsum(counts)
    # Each position's tuple is picked from one pool: (), then every word
    # alone (most positions hold one), then the runs of two words or more.
    runs = np.flatnonzero(counts > 1)
    run_slices = map(slice, (ends - counts)[runs].tolist(), ends[runs].tolist())
    pool = [(), *zip(words), *map(tuple, map(words.__getitem__, run_slices))]
    pick = np.where(counts == 1, ends, 0)
    pick[runs] = len(words) + 1 + np.arange(runs.size)
    return list(map(pool.__getitem__, pick.tolist()))


def _entry_aligned_words(corpus: TaggedCorpus, stream: Stream) -> list[tuple[tuple[str, ...], ...]]:
    """Per entry, the aligned words of each position of the WORDS stream
    (source words per MT token) or the SOURCE stream (MT words per source
    token); () for every entry of a corpus without alignments."""
    if corpus.alignments is None:
        return [()] * len(corpus)
    mt = [sentence.tokens for sentence in corpus.mt]
    src = [sentence.tokens for sentence in corpus.src]
    keys, others, key_index = (mt, src, 1) if stream is Stream.WORDS else (src, mt, 0)
    key_lengths = _lengths(keys)
    words = _aligned_word_rows(others, *corpus.alignments, key_index, 1 - key_index, key_lengths)
    bounds = [0, *np.cumsum(key_lengths).tolist()]
    return [tuple(words[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def build_instances(
    corpus: TaggedCorpus,
    stream: Stream,
    *,
    predictions: Sequence[PredictionSet] = (),
    extra_columns: Sequence[Sequence[Sequence[str]]] = (),
) -> list[SequenceInstance]:
    """Turn corpus entries into tagging instances for one stream.

    WORDS tags the MT tokens with aligned source words as context; GAPS tags
    the N+1 gap positions, each represented by its flanking MT words; SOURCE
    tags the source tokens with aligned MT words as context. ``extra_columns``
    supplies one annotation column per element, each a per-sentence list of
    per-position strings. Stacked probabilities are taken from the matching
    stream of each prediction set that provides it.
    """
    stacked_rows = [
        (pred.system_id, pred.stream(stream).rows())
        for pred in predictions
        if pred.stream(stream) is not None
    ]
    if stream is Stream.SOURCE and corpus.src is None:
        raise MissingStream("source stream needs source sentences")
    if stream is Stream.WORDS:
        token_rows = [sentence.tokens for sentence in corpus.mt]
    elif stream is Stream.GAPS:
        token_rows = [
            tuple(
                f"{mt[i - 1] if i > 0 else _LEFT_SENTINEL}|{mt[i] if i < len(mt) else _RIGHT_SENTINEL}"
                for i in range(len(mt) + 1)
            )
            for mt in (sentence.tokens for sentence in corpus.mt)
        ]
    elif stream is Stream.SOURCE:
        token_rows = [sentence.tokens for sentence in corpus.src]
    else:
        raise MissingStream(f"unknown stream {stream!r}")
    aligned_rows = [()] * len(corpus) if stream is Stream.GAPS else _entry_aligned_words(corpus, stream)
    return [
        SequenceInstance(
            tokens=tokens,
            aligned=aligned,
            extra=tuple(tuple(column[idx]) for column in extra_columns),
            stacked=tuple((system_id, tuple(rows[idx])) for system_id, rows in stacked_rows),
        )
        for idx, (tokens, aligned) in enumerate(zip(token_rows, aligned_rows))
    ]


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
