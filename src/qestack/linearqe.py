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

import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from math import exp
from typing import Callable, Sequence

from .corpus import PredictionSet, Stream, TaggedCorpus, Tag
from .ensemble import FoldPlan
from .errors import QEStackError

__all__ = [
    "FeatureConfig",
    "SequenceInstance",
    "LinearModel",
    "extract_features",
    "feature_strings",
    "viterbi",
    "score_sequence",
    "mira_train",
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
            raise ValueError("bins must be >= 1")


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


def _viterbi_compiled(compiled, bigram_keys, weights, cost_gold=None):
    u = _unigram_scores(compiled, weights, cost_gold)
    t = _transition_scores(bigram_keys, weights)
    n = compiled.n

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
    score = delta[n - 1][last]
    path = [0] * n
    path[n - 1] = last
    for i in range(n - 1, 0, -1):
        path[i - 1] = back[i][path[i]]
    return [_LABELS[l] for l in path], score


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
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if C <= 0:
        raise ValueError("C must be positive")
    if len(instances) != len(golds):
        raise ValueError("instances and gold labelings differ in count")
    for inst, gold in zip(instances, golds):
        if len(inst) != len(gold):
            raise ValueError("gold labeling length must match its instance")

    config = config or FeatureConfig()
    compiled = [_Compiled(inst, config) for inst in instances]
    bigram_keys = _bigram_keys(config)

    weights: dict[int, float] = {}
    acc: dict[int, float] = {}
    last: dict[int, int] = {}
    rng = random.Random(seed)
    order = list(range(len(instances)))
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
        final = {k: w for k, w in weights.items() if w != 0.0}
        return LinearModel(weights=final, config=config)

    averaged: dict[int, float] = {}
    for key, w in weights.items():
        total = acc.get(key, 0.0) + w * (step - last.get(key, 0))
        value = total / step if step else 0.0
        if value != 0.0:
            averaged[key] = value
    return LinearModel(weights=averaged, config=config)


# ---------------------------------------------------------------------------
# Probability output and jackknifing
# ---------------------------------------------------------------------------


def predict_probs(inst: SequenceInstance, model: LinearModel, gamma: float = 1.0) -> list[float]:
    """P(BAD) per position from max-marginal margins through a logistic link:
    ``p_i = logistic(gamma * (maxscore(y_i=BAD) - maxscore(y_i=OK)))``."""
    compiled = _Compiled(inst, model.config)
    bigram_keys = _bigram_keys(model.config)
    weights = model.weights
    u = _unigram_scores(compiled, weights)
    t = _transition_scores(bigram_keys, weights)
    n = compiled.n

    fwd = [[0.0, 0.0] for _ in range(n)]
    for l_idx in range(2):
        fwd[0][l_idx] = u[0][l_idx] + t[0][l_idx]
    for i in range(1, n):
        for l_idx in range(2):
            fwd[i][l_idx] = u[i][l_idx] + max(
                fwd[i - 1][0] + t[1][l_idx], fwd[i - 1][1] + t[2][l_idx]
            )

    bwd = [[0.0, 0.0] for _ in range(n)]
    for i in range(n - 2, -1, -1):
        for l_idx in range(2):
            bwd[i][l_idx] = max(
                t[l_idx + 1][0] + u[i + 1][0] + bwd[i + 1][0],
                t[l_idx + 1][1] + u[i + 1][1] + bwd[i + 1][1],
            )

    probs = []
    for i in range(n):
        margin = (fwd[i][1] + bwd[i][1]) - (fwd[i][0] + bwd[i][0])
        probs.append(1.0 / (1.0 + exp(-gamma * margin)))
    return probs


def _predict_fold(model, instances, gamma):
    tags = []
    probs = []
    for inst in instances:
        tags.append(viterbi(inst, model)[0])
        probs.append(predict_probs(inst, model, gamma=gamma))
    return tags, probs


def _jackknife_fold(args):
    instances, golds, lo, hi, train_fn, gamma = args
    train_insts = list(instances[:lo]) + list(instances[hi:])
    train_golds = list(golds[:lo]) + list(golds[hi:])
    model = train_fn(train_insts, train_golds)
    return _predict_fold(model, instances[lo:hi], gamma)


def jackknife(
    instances: Sequence[SequenceInstance],
    golds: Sequence[Sequence[Tag]],
    k: int,
    train_fn: Callable[[list[SequenceInstance], list[Tag]], LinearModel],
    *,
    gamma: float = 1.0,
    jobs: int = 1,
) -> tuple[list[list[Tag]], list[list[float]]]:
    """Out-of-fold predictions for every instance: fold i is predicted by a
    model trained on the other k-1 contiguous folds. The concatenation covers
    each instance exactly once, in corpus order."""
    bounds = FoldPlan.contiguous(len(instances), k).bounds()
    work = [(list(instances), list(golds), lo, hi, train_fn, gamma) for lo, hi in bounds]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_jackknife_fold, work))
    else:
        results = [_jackknife_fold(item) for item in work]
    all_tags: list[list[Tag]] = []
    all_probs: list[list[float]] = []
    for tags, probs in results:
        all_tags.extend(tags)
        all_probs.extend(probs)
    return all_tags, all_probs


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
            if len(fields) != 2:
                raise QEStackError(f"{path}:{i}: malformed model line")
            weights[int(fields[0])] = float(fields[1])
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
