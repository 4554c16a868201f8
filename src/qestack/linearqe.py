"""Feature-based first-order sequential word-level QE model.

The tagger scores a label sequence y over an instance as
``sum_i w . phi(x, i, y_i, y_{i-1})`` with unigram templates (current/left/
right token, aligned other-side words, extra annotation columns, binned
stacked probabilities, bias) conjoined with the current label, plus a single
bigram indicator over the label pair. Decoding is exact dynamic programming
over the two labels; weights are learned with max-loss MIRA and averaged over
all post-update vectors.

Feature keys are hashed to 64 bits (FNV-1a); collisions are tolerated, they
merely share a weight. Gap and source streams are trained as independent
sequence models over their own position sequences.
"""

from __future__ import annotations

import functools
import multiprocessing
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from math import exp
from typing import Callable, Sequence

from .corpus import PredictionSet, Stream, TaggedCorpus, Tag
from .ensemble import FoldPlan
from .errors import ParseError, RangeError

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

_LABELS = (Tag.OK, Tag.BAD)
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
    """Template toggles and the bin count for stacked probabilities."""

    bins: int = 10
    use_bias: bool = True
    use_word: bool = True
    use_context: bool = True
    use_aligned: bool = True
    use_extra: bool = True
    use_stacked: bool = True
    use_bigram: bool = True

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
            raise ValueError("instance needs at least one token")
        if self.aligned and len(self.aligned) != n:
            raise ValueError("aligned words must cover every position")
        for column in self.extra:
            if len(column) != n:
                raise ValueError("extra column length must match the token count")
        for _, probs in self.stacked:
            if len(probs) != n:
                raise ValueError("stacked probabilities must cover every position")

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass
class LinearModel:
    """Hashed feature weights plus the template configuration that produced
    them. Serialization keeps only the weights; supply the same config when
    loading."""

    weights: dict[int, float]
    config: FeatureConfig = field(default_factory=FeatureConfig)


def _prob_bin(p: float, bins: int) -> int:
    return min(int(bins * p), bins - 1)


def feature_strings(
    inst: SequenceInstance, i: int, label: Tag, prev: Tag | None, config: FeatureConfig
) -> list[str]:
    """Human-readable feature names for position ``i`` with ``label`` and the
    previous label ``prev`` (None means sequence start)."""
    feats = _unigram_strings(inst, i, label, config)
    if config.use_bigram:
        feats.append(_bigram_string(prev, label))
    return feats


def _unigram_strings(
    inst: SequenceInstance, i: int, label: Tag, config: FeatureConfig
) -> list[str]:
    """The templates conjoined with the current label alone."""
    y = label.value
    feats = []
    if config.use_bias:
        feats.append(f"b∧{y}")
    if config.use_word:
        feats.append(f"w0={inst.tokens[i]}∧{y}")
    if config.use_context:
        left = inst.tokens[i - 1] if i > 0 else _LEFT_SENTINEL
        right = inst.tokens[i + 1] if i + 1 < len(inst.tokens) else _RIGHT_SENTINEL
        feats.append(f"w-1={left}∧{y}")
        feats.append(f"w+1={right}∧{y}")
    if config.use_aligned:
        words = inst.aligned[i] if inst.aligned else ()
        if words:
            feats.extend(f"a={word}∧{y}" for word in words)
        else:
            feats.append(f"a={_NO_ALIGNMENT}∧{y}")
    if config.use_extra:
        for c, column in enumerate(inst.extra):
            feats.append(f"x{c}={column[i]}∧{y}")
    if config.use_stacked:
        for system_id, probs in inst.stacked:
            feats.append(f"s:{system_id}:b{_prob_bin(probs[i], config.bins)}∧{y}")
    return feats


def _bigram_string(prev: Tag | None, label: Tag) -> str:
    return f"g={_START if prev is None else prev.value}∧{label.value}"


def extract_features(
    inst: SequenceInstance, i: int, label: Tag, prev: Tag | None, config: FeatureConfig
) -> list[int]:
    """Hashed sparse feature vector (a multiset of 64-bit keys)."""
    return [fnv1a64(s) for s in feature_strings(inst, i, label, prev, config)]


# ---------------------------------------------------------------------------
# Compiled form: unigram keys are position/label-local and never change while
# the weights do, so they are hashed once per instance.
# ---------------------------------------------------------------------------


class _Compiled:
    __slots__ = ("ukeys", "n")

    def __init__(self, inst: SequenceInstance, config: FeatureConfig):
        self.n = len(inst)
        self.ukeys = [
            tuple(
                tuple(fnv1a64(s) for s in _unigram_strings(inst, i, label, config))
                for label in _LABELS
            )
            for i in range(self.n)
        ]


def _bigram_keys(config: FeatureConfig):
    """Transition keys indexed [prev][cur]; prev 0 is the start sentinel."""
    if not config.use_bigram:
        return None
    prevs = (None, Tag.OK, Tag.BAD)
    return tuple(
        tuple(fnv1a64(_bigram_string(p, label)) for label in _LABELS) for p in prevs
    )


def _unigram_scores(compiled: _Compiled, weights, cost_gold=None):
    scores = []
    for i in range(compiled.n):
        pair = []
        for l_idx, label in enumerate(_LABELS):
            s = 0.0
            for key in compiled.ukeys[i][l_idx]:
                w = weights.get(key)
                if w is not None:
                    s += w
            if cost_gold is not None and label is not cost_gold[i]:
                s += 1.0
            pair.append(s)
        scores.append(pair)
    return scores


def _transition_scores(bigram_keys, weights):
    if bigram_keys is None:
        return ((0.0, 0.0),) * 3
    return tuple(
        tuple(weights.get(key, 0.0) for key in row) for row in bigram_keys
    )


def _forward(u, t):
    """The max-product forward pass and its backtrace: ``delta[i][l]`` is the
    best score of a prefix ending in label ``l`` at position ``i``. Returns
    ``delta``, the Viterbi path and its score; ties break toward OK."""
    n = len(u)
    delta = [[0.0, 0.0] for _ in range(n)]
    back = [[0, 0] for _ in range(n)]
    for l_idx in range(2):
        delta[0][l_idx] = u[0][l_idx] + t[0][l_idx]
    for i in range(1, n):
        for l_idx in range(2):
            best = delta[i - 1][0] + t[1][l_idx]
            best_prev = 0
            other = delta[i - 1][1] + t[2][l_idx]
            if other > best:
                best = other
                best_prev = 1
            delta[i][l_idx] = u[i][l_idx] + best
            back[i][l_idx] = best_prev

    last = 0 if delta[n - 1][0] >= delta[n - 1][1] else 1
    path = [0] * n
    path[n - 1] = last
    for i in range(n - 1, 0, -1):
        path[i - 1] = back[i][path[i]]
    return delta, [_LABELS[l] for l in path], delta[n - 1][last]


def _viterbi_compiled(compiled, bigram_keys, weights, cost_gold=None):
    u = _unigram_scores(compiled, weights, cost_gold)
    return _forward(u, _transition_scores(bigram_keys, weights))[1:]


def _decode(compiled, bigram_keys, weights, gamma):
    """Viterbi tags and max-marginal P(BAD) of every compiled instance, from
    one forward and one backward pass each."""
    t = _transition_scores(bigram_keys, weights)
    tags_rows: list[list[Tag]] = []
    probs_rows: list[list[float]] = []
    for comp in compiled:
        u = _unigram_scores(comp, weights)
        delta, tags, _ = _forward(u, t)
        n = comp.n
        bwd = [[0.0, 0.0] for _ in range(n)]
        for i in range(n - 2, -1, -1):
            for l_idx in range(2):
                bwd[i][l_idx] = max(
                    t[l_idx + 1][0] + u[i + 1][0] + bwd[i + 1][0],
                    t[l_idx + 1][1] + u[i + 1][1] + bwd[i + 1][1],
                )
        probs = []
        for i in range(n):
            margin = (delta[i][1] + bwd[i][1]) - (delta[i][0] + bwd[i][0])
            probs.append(1.0 / (1.0 + exp(-gamma * margin)))
        tags_rows.append(tags)
        probs_rows.append(probs)
    return tags_rows, probs_rows


def _score_sequence_compiled(compiled, bigram_keys, weights, labels):
    t = _transition_scores(bigram_keys, weights)
    total = 0.0
    prev_idx = 0
    for i, label in enumerate(labels):
        l_idx = 0 if label is Tag.OK else 1
        for key in compiled.ukeys[i][l_idx]:
            w = weights.get(key)
            if w is not None:
                total += w
        total += t[prev_idx][l_idx]
        prev_idx = l_idx + 1
    return total


def viterbi(
    inst: SequenceInstance, model: LinearModel, cost_gold: Sequence[Tag] | None = None
) -> tuple[list[Tag], float]:
    """Exact argmax tag sequence and its score. With ``cost_gold`` the score
    is Hamming-augmented (loss-augmented decoding). Ties break toward OK."""
    compiled = _Compiled(inst, model.config)
    return _viterbi_compiled(compiled, _bigram_keys(model.config), model.weights, cost_gold)


def score_sequence(inst: SequenceInstance, model: LinearModel, labels: Sequence[Tag]) -> float:
    """Model score of one labeling (no loss augmentation)."""
    compiled = _Compiled(inst, model.config)
    return _score_sequence_compiled(compiled, _bigram_keys(model.config), model.weights, labels)


# ---------------------------------------------------------------------------
# Max-loss MIRA
# ---------------------------------------------------------------------------


def mira_train(
    instances: Sequence[SequenceInstance],
    golds: Sequence[Sequence[Tag]],
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
    config, compiled = _compile_training(instances, golds, epochs, C, config)
    weights = _mira(
        compiled, golds, _bigram_keys(config),
        epochs=epochs, C=C, seed=seed, average=average, on_update=on_update,
    )
    return LinearModel(weights=weights, config=config)


def _compile_training(instances, golds, epochs, C, config):
    """Checks the training arguments and compiles every instance once."""
    if epochs < 1:
        raise RangeError("epochs must be >= 1")
    if C <= 0:
        raise RangeError("C must be positive")
    if len(instances) != len(golds):
        raise ValueError("instances and gold labelings differ in count")
    for inst, gold in zip(instances, golds):
        if len(inst) != len(gold):
            raise ValueError("gold labeling length must match its instance")
    config = config or FeatureConfig()
    return config, [_Compiled(inst, config) for inst in instances]


def _mira(compiled, golds, bigram_keys, *, epochs, C, seed, average, on_update=None) -> dict[int, float]:
    """The MIRA loop of ``mira_train`` over compiled instances; returns the
    final (or averaged) nonzero weights."""
    weights: dict[int, float] = {}
    acc: dict[int, float] = {}
    last: dict[int, int] = {}
    rng = random.Random(seed)
    order = list(range(len(compiled)))
    step = 0

    for _ in range(epochs):
        rng.shuffle(order)
        for idx in order:
            step += 1
            comp = compiled[idx]
            gold = golds[idx]
            pred, augmented = _viterbi_compiled(comp, bigram_keys, weights, cost_gold=gold)
            if pred == list(gold):
                continue
            gold_score = _score_sequence_compiled(comp, bigram_keys, weights, gold)
            violation = augmented - gold_score
            if violation <= 0.0:
                continue

            delta: dict[int, int] = {}
            prev_g = prev_p = 0
            for i in range(comp.n):
                g_idx = 0 if gold[i] is Tag.OK else 1
                p_idx = 0 if pred[i] is Tag.OK else 1
                if g_idx != p_idx:
                    for key in comp.ukeys[i][g_idx]:
                        delta[key] = delta.get(key, 0) + 1
                    for key in comp.ukeys[i][p_idx]:
                        delta[key] = delta.get(key, 0) - 1
                if bigram_keys is not None:
                    key_g = bigram_keys[prev_g][g_idx]
                    key_p = bigram_keys[prev_p][p_idx]
                    if key_g != key_p:
                        delta[key_g] = delta.get(key_g, 0) + 1
                        delta[key_p] = delta.get(key_p, 0) - 1
                prev_g, prev_p = g_idx + 1, p_idx + 1

            sq_norm = sum(c * c for c in delta.values())
            if sq_norm == 0:
                continue  # degenerate update (feature collision), skip
            tau = min(C, violation / sq_norm)
            if on_update is not None:
                on_update(tau)
            for key, count in delta.items():
                if count == 0:
                    continue
                if average:
                    acc[key] = acc.get(key, 0.0) + weights.get(key, 0.0) * (step - 1 - last.get(key, 0))
                    last[key] = step - 1
                weights[key] = weights.get(key, 0.0) + tau * count

    if not average:
        return {k: w for k, w in weights.items() if w != 0.0}

    averaged: dict[int, float] = {}
    for key, w in weights.items():
        total = acc.get(key, 0.0) + w * (step - last.get(key, 0))
        value = total / step if step else 0.0
        if value != 0.0:
            averaged[key] = value
    return averaged


# ---------------------------------------------------------------------------
# Probability output and jackknifing
# ---------------------------------------------------------------------------


def predict(
    instances: Sequence[SequenceInstance], model: LinearModel, gamma: float = 1.0
) -> tuple[list[list[Tag]], list[list[float]]]:
    """Viterbi tags and P(BAD) for every instance (as ``viterbi`` and
    ``predict_probs`` give them), each instance compiled once."""
    compiled = (_Compiled(inst, model.config) for inst in instances)
    return _decode(compiled, _bigram_keys(model.config), model.weights, gamma)


def predict_probs(inst: SequenceInstance, model: LinearModel, gamma: float = 1.0) -> list[float]:
    """P(BAD) per position from max-marginal margins through a logistic link:
    ``p_i = logistic(gamma * (maxscore(y_i=BAD) - maxscore(y_i=OK)))``."""
    return predict([inst], model, gamma)[1][0]


def _jackknife_fold(compiled, golds, bigram_keys, gamma, lo, hi, **options):
    weights = _mira(compiled[:lo] + compiled[hi:], golds[:lo] + golds[hi:], bigram_keys, **options)
    return _decode(compiled[lo:hi], bigram_keys, weights, gamma)


_WORKER_FOLD = None  # a worker process's fold function, set once by the pool initializer


def _init_worker(fold):
    global _WORKER_FOLD
    _WORKER_FOLD = fold


def _worker_fold(bounds):
    return _WORKER_FOLD(*bounds)


def jackknife(
    instances: Sequence[SequenceInstance],
    golds: Sequence[Sequence[Tag]],
    k: int,
    *,
    epochs: int = 5,
    C: float = 1.0,
    seed: int = 1,
    config: FeatureConfig | None = None,
    average: bool = True,
    gamma: float = 1.0,
    jobs: int = 1,
) -> tuple[list[list[Tag]], list[list[float]]]:
    """Out-of-fold predictions for every instance: fold i is predicted, as by
    ``predict``, with the model ``mira_train`` fits with the same options on
    the other k-1 contiguous folds. The corpus is compiled once and each fold
    trains on index ranges of it; with ``jobs > 1`` every worker process
    receives it once. The concatenation covers each instance exactly once, in
    corpus order."""
    bounds = FoldPlan.contiguous(len(instances), k).bounds()
    config, compiled = _compile_training(instances, golds, epochs, C, config)
    fold = functools.partial(
        _jackknife_fold, compiled, list(golds), _bigram_keys(config), gamma,
        epochs=epochs, C=C, seed=seed, average=average,
    )
    if jobs > 1:
        spawn = multiprocessing.get_context("spawn")  # fork is unsafe in a process with threads
        with ProcessPoolExecutor(jobs, mp_context=spawn, initializer=_init_worker, initargs=(fold,)) as pool:
            results = list(pool.map(_worker_fold, bounds))
    else:
        results = [fold(lo, hi) for lo, hi in bounds]
    return [row for tags, _ in results for row in tags], [row for _, probs in results for row in probs]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def save_model(model: LinearModel, path):
    """Plain-text model: one ``featurekey<TAB>weight`` line, sorted by key."""
    with open(path, "w", encoding="utf-8") as handle:
        for key in sorted(model.weights):
            handle.write(f"{key}\t{model.weights[key]!r}\n")


def load_model(path, config: FeatureConfig | None = None) -> LinearModel:
    weights: dict[int, float] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for i, line in enumerate(handle, 1):
            fields = line.split()
            try:
                key, value = fields
                weights[int(key)] = float(value)
            except ValueError:
                raise ParseError("malformed model line", file=str(path), line=i) from None
    return LinearModel(weights=weights, config=config or FeatureConfig())


# ---------------------------------------------------------------------------
# Corpus -> instances for each stream
# ---------------------------------------------------------------------------


def _aligned_words(other_tokens, pairs, key_index, other_index, n) -> list[tuple[str, ...]]:
    by_pos: dict[int, list[int]] = {}
    for pair in pairs or ():
        by_pos.setdefault(pair[key_index], []).append(pair[other_index])
    return [
        tuple(other_tokens[j] for j in sorted(by_pos.get(i, ()))) for i in range(n)
    ]


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
        (pred.system_id, pred.stream(stream))
        for pred in predictions
        if pred.stream(stream) is not None
    ]
    instances = []
    for idx, entry in enumerate(corpus):
        if stream is Stream.WORDS:
            tokens = entry.mt.tokens
            aligned = (
                tuple(_aligned_words(entry.src.tokens, entry.alignments, 1, 0, len(tokens)))
                if entry.src is not None and entry.alignments is not None
                else ()
            )
        elif stream is Stream.GAPS:
            mt = entry.mt.tokens
            tokens = tuple(
                f"{mt[i - 1] if i > 0 else _LEFT_SENTINEL}|{mt[i] if i < len(mt) else _RIGHT_SENTINEL}"
                for i in range(len(mt) + 1)
            )
            aligned = ()
        elif stream is Stream.SOURCE:
            if entry.src is None:
                raise ValueError("source stream needs source sentences")
            tokens = entry.src.tokens
            aligned = (
                tuple(_aligned_words(entry.mt.tokens, entry.alignments, 0, 1, len(tokens)))
                if entry.alignments is not None
                else ()
            )
        else:
            raise ValueError(f"unknown stream {stream!r}")

        extra = tuple(tuple(column[idx]) for column in extra_columns)
        instances.append(
            SequenceInstance(
                tokens=tuple(tokens),
                aligned=aligned,
                extra=extra,
                stacked=tuple((system_id, tuple(rows[idx])) for system_id, rows in stacked_rows),
            )
        )
    return instances


def gold_tags(corpus: TaggedCorpus, stream: Stream) -> list[list[Tag]]:
    """Gold labelings for one stream; every entry must carry them."""
    out = []
    for i, entry in enumerate(corpus, 1):
        if stream is Stream.SOURCE:
            if entry.source_tags is None:
                raise ValueError(f"entry {i} has no source tags")
            out.append(list(entry.source_tags.tags))
        else:
            if entry.target_tags is None:
                raise ValueError(f"entry {i} has no target tags")
            tags = entry.target_tags
            out.append(list(tags.word_tags if stream is Stream.WORDS else tags.gap_tags))
    return out
