"""Feature-based first-order sequential word-level QE model.

The tagger scores a label sequence y over an instance as
``sum_i w . phi(x, i, y_i, y_{i-1})`` with unigram templates (current/left/
right token, aligned other-side words, extra annotation columns, binned
stacked probabilities, bias) conjoined with the current label, plus a single
bigram indicator over the label pair. Decoding is exact dynamic programming
over the two labels; weights are learned with max-loss MIRA and averaged over
all post-update vectors.

Feature strings are hashed to 64-bit keys (FNV-1a); collisions are tolerated,
they merely share a weight. Each ``mira_train`` or ``jackknife`` call interns
the keys of its corpus into dense ids, so colliding strings share one id, and
trains on weight lists indexed by id; models and their files keep the keys.
Gap and source streams are trained as independent sequence models over their
own position sequences.
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
    """Feature weights by 64-bit key (training maps its dense ids back to the
    keys) plus the template configuration that produced them. Serialization
    keeps only the weights; supply the same config when loading."""

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
# the weights do, so they are hashed once per instance. Scores read
# ``w[slot]``: training interns each key into a dense id and ``w`` is a list,
# prediction keeps the keys and ``w`` is the model's ``_Weights``. Every score
# is a left-to-right sum in slot order; an unseen slot adds 0.0, a no-op.
# ---------------------------------------------------------------------------


class _Compiled:
    """``slots[i]`` holds position ``i``'s (OK, BAD) unigram slots. With an
    ``index`` a slot is the key's dense id (a new key takes the next one);
    without, it is the 64-bit key itself."""

    __slots__ = ("slots", "n")

    def __init__(self, inst: SequenceInstance, config: FeatureConfig, index: dict[int, int] | None = None):
        self.n = len(inst)
        self.slots = [
            tuple(_slots(_unigram_strings(inst, i, label, config), index) for label in _LABELS)
            for i in range(self.n)
        ]


def _slots(strings, index):
    keys = tuple(fnv1a64(s) for s in strings)
    return keys if index is None else tuple(index.setdefault(key, len(index)) for key in keys)


def _bigram_slots(config: FeatureConfig, index=None):
    """Transition slots indexed [prev][cur]; prev 0 is the start sentinel."""
    if not config.use_bigram:
        return None
    prevs = (None, Tag.OK, Tag.BAD)
    return tuple(_slots([_bigram_string(p, label) for label in _LABELS], index) for p in prevs)


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


def _path(tags) -> list[int]:
    return [0 if tag is Tag.OK else 1 for tag in tags]


def _unigram_scores(compiled: _Compiled, w, cost=None):
    """Per-position (OK, BAD) scores; with a ``cost`` path the label that
    differs from it gains 1.0 (Hamming-augmented)."""
    scores = []
    for i, (ok, bad) in enumerate(compiled.slots):
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
    if bigram_slots is None:
        return ((0.0, 0.0),) * 3
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


def _path_score(compiled: _Compiled, t, w, path) -> float:
    total = 0.0
    prev = 0
    for slots, label in zip(compiled.slots, path):
        for j in slots[label]:
            total += w[j]
        total += t[prev][label]
        prev = label + 1
    return total


def _decode(compiled, bigram_slots, w, gamma):
    """Viterbi tags and max-marginal P(BAD) of every compiled instance, from
    one forward and one backward pass each."""
    t = _transition_scores(bigram_slots, w)
    tags_rows: list[list[Tag]] = []
    probs_rows: list[list[float]] = []
    for comp in compiled:
        u = _unigram_scores(comp, w)
        delta, path, _ = _forward(u, t)
        n = comp.n
        bwd = [(0.0, 0.0)] * n
        for i in range(n - 2, -1, -1):
            (a0, a1), (b0, b1) = u[i + 1], bwd[i + 1]
            bwd[i] = (
                max(t[1][0] + a0 + b0, t[1][1] + a1 + b1),
                max(t[2][0] + a0 + b0, t[2][1] + a1 + b1),
            )
        probs = []
        for (d0, d1), (b0, b1) in zip(delta, bwd):
            margin = (d1 + b1) - (d0 + b0)
            try:
                probs.append(1.0 / (1.0 + exp(-gamma * margin)))
            except OverflowError:  # 1 + exp(-gamma * margin) rounds to exp(-gamma * margin)
                probs.append(exp(gamma * margin))
        tags_rows.append([_LABELS[l] for l in path])
        probs_rows.append(probs)
    return tags_rows, probs_rows


def viterbi(
    inst: SequenceInstance, model: LinearModel, cost_gold: Sequence[Tag] | None = None
) -> tuple[list[Tag], float]:
    """Exact argmax tag sequence and its score. With ``cost_gold`` the score
    is Hamming-augmented (loss-augmented decoding). Ties break toward OK."""
    w = _model_weights(model)
    cost = None if cost_gold is None else _path(cost_gold)
    u = _unigram_scores(_Compiled(inst, model.config), w, cost)
    _, path, score = _forward(u, _transition_scores(_bigram_slots(model.config), w))
    return [_LABELS[l] for l in path], score


def score_sequence(inst: SequenceInstance, model: LinearModel, labels: Sequence[Tag]) -> float:
    """Model score of one labeling (no loss augmentation)."""
    w = _model_weights(model)
    t = _transition_scores(_bigram_slots(model.config), w)
    return _path_score(_Compiled(inst, model.config), t, w, _path(labels))


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
        raise ValueError("instances and gold labelings differ in count")
    for inst, gold in zip(instances, golds):
        if len(inst) != len(gold):
            raise ValueError("gold labeling length must match its instance")
    config = config or FeatureConfig()
    index: dict[int, int] = {}
    compiled = [_Compiled(inst, config, index) for inst in instances]
    return config, index, compiled, _bigram_slots(config, index), [_path(gold) for gold in golds]


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
                slots = comp.slots[i]
                for j in slots[gold[i]]:
                    delta[j] = delta.get(j, 0) + 1
                for j in slots[pred[i]]:
                    delta[j] = delta.get(j, 0) - 1
            if bigram_slots is not None:
                for i in {i for m in moved for i in (m, m + 1) if i < comp.n}:
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
) -> tuple[list[list[Tag]], list[list[float]]]:
    """Viterbi tags and P(BAD) for every instance (as ``viterbi`` and
    ``predict_probs`` give them), each instance compiled once."""
    compiled = (_Compiled(inst, model.config) for inst in instances)
    return _decode(compiled, _bigram_slots(model.config), _model_weights(model), gamma)


def predict_probs(inst: SequenceInstance, model: LinearModel, gamma: float = 1.0) -> list[float]:
    """P(BAD) per position from max-marginal margins through a logistic link:
    ``p_i = logistic(gamma * (maxscore(y_i=BAD) - maxscore(y_i=OK)))``."""
    return predict([inst], model, gamma)[1][0]


def _jackknife_fold(compiled, paths, bigram_slots, size, gamma, lo, hi, **options):
    w = _mira(compiled[:lo] + compiled[hi:], paths[:lo] + paths[hi:], bigram_slots, size, **options)
    return _decode(compiled[lo:hi], bigram_slots, w, gamma)


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
    config, index, compiled, bigram_slots, paths = _compile_training(instances, golds, epochs, C, config)
    fold = functools.partial(
        _jackknife_fold, compiled, paths, bigram_slots, len(index), gamma,
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
    weights = _Weights()
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
