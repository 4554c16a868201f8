"""Spans and counters around the public functions of each ``qestack`` module,
installed from outside the program.

:func:`instrument` replaces module attributes with timing wrappers, in the
defining module and in every module that imported the same function by name
(``ensemble`` binds ``metrics.f1_mult``, ``doclevel`` binds
``ensemble.ridge_fit``), and restores them on exit. A wrapped call records a
span ``(name, start, end, parent)``; a call made while a span of the same name
is open is counted but not recorded again, so ``load_corpus`` ->
``read_sentences`` is one ``corpus.read`` span. Spans stay in memory and are
reduced to metrics by :func:`layer_metrics` when the run ends.

Functions called once per token or feature (``feature_strings``,
``fnv1a64``) are deliberately not wrapped: their cost shows as self time of
the enclosing span.
"""

from __future__ import annotations

import builtins
import contextlib
import functools
import os
import statistics
import time
from collections import defaultdict

LAYERS = ("cli", "corpus", "labeler", "linearqe", "ensemble", "metrics", "doclevel")

SUBCOMMANDS = (
    "make-labels", "linear-train", "linear-jackknife", "linear-predict",
    "ensemble-word-fit", "ensemble-word-kfold", "ensemble-word-apply",
    "ensemble-sent-fit", "ensemble-sent-apply", "evaluate",
    "doc-tags", "doc-spans", "doc-mqm", "doc-features", "doc-fit", "doc-apply", "doc-eval",
)

# Counts that must repeat exactly for one seed; later changes may cite them
# as count claims.
EXACT_COUNTS = (
    "labeler.dp_cells",
    "linearqe.mira.updates",
    "linearqe.mira.visits",
    "linearqe.viterbi.calls",
    "ensemble.objective.evals",
)


class Tracer:
    """In-memory span recorder; one per traced sequence."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)
        self.fit_size = 0  # systems x tokens of the innermost word-ensemble fit
        self.read_paths: set[str] = set()  # files sized in the current corpus.read span

    def is_open(self, name: str) -> bool:
        return self._open[name] > 0

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(index)
        self._open[name] += 1
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
            self._open[name] -= 1


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


# ---------------------------------------------------------------------------
# Hooks: optional pre(tracer, args, kwargs) -> (args, kwargs) and
# post(tracer, args, kwargs, result) per wrapped function
# ---------------------------------------------------------------------------


def _write_post(tracer, args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[1]
    tracer.counts["corpus.write.bytes"] += os.path.getsize(path)


def _align_pre(tracer, args, kwargs):
    mt, pe = args[0], args[1]
    tracer.counts["labeler.align.calls"] += 1
    tracer.counts["labeler.dp_cells"] += (len(mt) + 1) * (len(pe) + 1)
    return args, kwargs


def _mira_pre(tracer, args, kwargs):
    instances = args[0]
    tracer.counts["linearqe.mira.calls"] += 1
    tracer.counts["linearqe.mira.visits"] += kwargs.get("epochs", 5) * len(instances)
    tracer.counts["linearqe.mira.train_tokens"] += sum(len(inst) for inst in instances)
    chained = kwargs.get("on_update")

    def on_update(tau):
        tracer.counts["linearqe.mira.updates"] += 1
        if chained is not None:
            chained(tau)

    return args, {**kwargs, "on_update": on_update}


def _decode_pre(kind):
    def pre(tracer, args, kwargs):
        tracer.counts[f"linearqe.{kind}.calls"] += 1
        tracer.counts["linearqe.decode.tokens"] += len(args[0])
        return args, kwargs

    return pre


def _fit_pre(tracer, args, kwargs):
    preds, gold = args[0], args[1]
    tracer.counts["ensemble.fit.calls"] += 1
    tracer.fit_size = len(preds) * sum(len(row) for row in gold)
    return args, kwargs


def _powell_pre(tracer, args, kwargs):
    objective = args[0]
    size = tracer.fit_size

    def counted(z):
        tracer.counts["ensemble.objective.evals"] += 1
        tracer.counts["ensemble.objective.values"] += size
        with tracer.span("ensemble.objective"):
            return objective(z)

    return (counted, *args[1:]), kwargs


def _ridge_pre(tracer, args, kwargs):
    tracer.counts["ensemble.ridge.fits"] += 1
    return args, kwargs


def _metric_pre(tracer, args, kwargs):
    tracer.counts["metrics.calls"] += 1
    return args, kwargs


def _scored_pre(tracer, args, kwargs):
    tracer.counts["metrics.calls"] += 1
    tracer.counts["metrics.tags"] += len(args[0])
    return args, kwargs


def _annotations_post(tracer, args, kwargs, result):
    if isinstance(result, dict):
        tracer.counts["doclevel.annotations"] += sum(len(v) for v in result.values())
    else:
        tracer.counts["doclevel.annotations"] += len(result)


_CORPUS_READERS = (
    "load_corpus", "load_predictions", "read_manifest", "read_sentences", "read_tag_lines",
    "read_score_lines", "read_prob_lines", "read_alignment_lines", "_tags_as_probs", "_read_lines",
)

# (module, function, span name, pre hook, post hook)
SPECS = (
    *(("corpus", f, "corpus.read", None, None) for f in _CORPUS_READERS),
    ("corpus", "write_tags", "corpus.write", None, _write_post),
    ("corpus", "write_probs", "corpus.write", None, _write_post),
    ("corpus", "write_scores", "corpus.write", None, _write_post),
    ("labeler", "label_corpus", "labeler.label", None, None),
    ("labeler", "align_edit", "labeler.align", _align_pre, None),
    ("linearqe", "build_instances", "linearqe.build", None, None),
    ("linearqe", "gold_tags", "linearqe.build", None, None),
    ("linearqe", "mira_train", "linearqe.mira", _mira_pre, None),
    ("linearqe", "jackknife", "linearqe.jackknife", None, None),
    ("linearqe", "viterbi", "linearqe.viterbi", _decode_pre("viterbi"), None),
    ("linearqe", "predict_probs", "linearqe.predict_probs", _decode_pre("predict_probs"), None),
    ("linearqe", "save_model", "linearqe.model_io", None, None),
    ("linearqe", "load_model", "linearqe.model_io", None, None),
    ("ensemble", "fit_word_ensemble", "ensemble.fit", _fit_pre, None),
    ("ensemble", "powell_optimize", "ensemble.powell", _powell_pre, None),
    ("ensemble", "kfold_estimate", "ensemble.kfold", None, None),
    ("ensemble", "combine_word", "ensemble.combine", None, None),
    ("ensemble", "ridge_cv", "ensemble.ridge", None, None),
    ("ensemble", "ridge_fit", "ensemble.ridge", _ridge_pre, None),
    ("ensemble", "sentence_features", "ensemble.features", None, None),
    ("ensemble", "save_weights", "ensemble.io", None, None),
    ("ensemble", "load_weights", "ensemble.io", None, None),
    ("ensemble", "save_ridge_model", "ensemble.io", None, None),
    ("ensemble", "load_ridge_model", "ensemble.io", None, None),
    ("metrics", "f1_mult", "metrics", _scored_pre, None),
    ("metrics", "mcc", "metrics", _scored_pre, None),
    ("metrics", "pearson", "metrics", _metric_pre, None),
    ("metrics", "threshold", "metrics", _metric_pre, None),
    ("doclevel", "annotations_to_tags", "doclevel.to_tags", None, None),
    ("doclevel", "tags_to_annotations", "doclevel.to_spans", None, _annotations_post),
    ("doclevel", "annotation_f1", "doclevel.ann_f1", None, None),
    ("doclevel", "read_annotations", "doclevel.io", None, _annotations_post),
    ("doclevel", "write_annotations", "doclevel.io", None, None),
    ("doclevel", "read_document_manifest", "doclevel.io", None, None),
    ("doclevel", "mqm_closed_form", "doclevel.mqm", None, None),
    ("doclevel", "doc_mqm_features", "doclevel.mqm", None, None),
    ("doclevel", "fit_doc_mqm", "doclevel.mqm", None, None),
    ("doclevel", "predict_doc_mqm", "doclevel.mqm", None, None),
)


def _wrap(tracer: Tracer, fn, name, pre, post):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if pre is not None:
            args, kwargs = pre(tracer, args, kwargs)
        if tracer.is_open(name):
            result = fn(*args, **kwargs)
        else:
            if name == "corpus.read":
                tracer.read_paths = set()
            with tracer.span(name):
                result = fn(*args, **kwargs)
        if post is not None:
            post(tracer, args, kwargs, result)
        return result

    return wrapper


def _counting_open(tracer: Tracer):
    """``open`` for the corpus module: sizes each file a reader opens, once
    per outermost ``corpus.read`` span."""

    def open_(file, mode="r", *args, **kwargs):
        if "r" in mode and tracer.is_open("corpus.read") and file not in tracer.read_paths:
            tracer.read_paths.add(file)
            tracer.counts["corpus.read.bytes"] += os.path.getsize(file)
        return builtins.open(file, mode, *args, **kwargs)

    return open_


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers of :data:`SPECS` for the duration of the block."""
    import importlib

    modules = {m: importlib.import_module(f"qestack.{m}") for m in LAYERS}
    patched: list[tuple[object, str, object]] = []
    try:
        for module_name, fn_name, name, pre, post in SPECS:
            original = getattr(modules[module_name], fn_name)
            wrapper = _wrap(tracer, original, name, pre, post)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patched.append((module, attr, value))
                        setattr(module, attr, wrapper)
        setattr(modules["corpus"], "open", _counting_open(tracer))
        yield tracer
    finally:
        for module, attr, value in reversed(patched):
            setattr(module, attr, value)
        if "open" in vars(modules["corpus"]):
            delattr(modules["corpus"], "open")


# ---------------------------------------------------------------------------
# Reduction to the per-layer metrics
# ---------------------------------------------------------------------------


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, sentences: int, mt_tokens: int) -> dict[str, float]:
    """Per-layer metrics of one traced sequence (see ``layers.json``)."""
    spans = tracer.spans
    selfs = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    for (name, start, end, parent), self_time in zip(spans, selfs):
        total[name] += end - start
        own[name] += self_time
        layer_self[name.split(".")[0]] += self_time
    c = tracer.counts
    m: dict[str, float] = {}
    for sub in SUBCOMMANDS:
        m[f"cli.{sub}.s"] = total[f"cli.{sub}"]
    for layer in LAYERS:
        m[f"{layer}.self.s"] = layer_self[layer]

    m["corpus.read.s"] = total["corpus.read"]
    m["corpus.read.mb"] = c["corpus.read.bytes"] / 1e6
    m["corpus.read.mb_per_s"] = _ratio(m["corpus.read.mb"], m["corpus.read.s"])
    m["corpus.write.s"] = total["corpus.write"]
    m["corpus.write.mb"] = c["corpus.write.bytes"] / 1e6

    m["labeler.align.s"] = total["labeler.align"]
    m["labeler.align.calls"] = c["labeler.align.calls"]
    m["labeler.dp_cells"] = c["labeler.dp_cells"]
    m["labeler.cells_per_s"] = _ratio(c["labeler.dp_cells"], total["labeler.align"])
    m["labeler.label.s"] = total["labeler.label"]

    decode_s = total["linearqe.viterbi"] + total["linearqe.predict_probs"]
    m["linearqe.build.s"] = total["linearqe.build"]
    m["linearqe.mira.s"] = total["linearqe.mira"]
    m["linearqe.mira.calls"] = c["linearqe.mira.calls"]
    m["linearqe.mira.visits"] = c["linearqe.mira.visits"]
    m["linearqe.mira.updates"] = c["linearqe.mira.updates"]
    m["linearqe.mira.update_ratio"] = _ratio(c["linearqe.mira.updates"], c["linearqe.mira.visits"])
    m["linearqe.mira.train_tokens_per_corpus_token"] = _ratio(
        c["linearqe.mira.train_tokens"], mt_tokens
    )
    m["linearqe.viterbi.s"] = total["linearqe.viterbi"]
    m["linearqe.viterbi.calls"] = c["linearqe.viterbi.calls"]
    m["linearqe.predict_probs.s"] = total["linearqe.predict_probs"]
    m["linearqe.predict_probs.calls"] = c["linearqe.predict_probs.calls"]
    m["linearqe.decode.calls_per_sentence"] = _ratio(
        c["linearqe.viterbi.calls"] + c["linearqe.predict_probs.calls"], sentences
    )
    m["linearqe.decode.tokens_per_s"] = _ratio(c["linearqe.decode.tokens"], decode_s)
    m["linearqe.model_io.s"] = total["linearqe.model_io"]

    m["ensemble.fit.s"] = total["ensemble.fit"]
    m["ensemble.fit.calls"] = c["ensemble.fit.calls"]
    m["ensemble.powell.s"] = total["ensemble.powell"]
    m["ensemble.powell.self.s"] = own["ensemble.powell"]
    m["ensemble.objective.evals"] = c["ensemble.objective.evals"]
    m["ensemble.objective.evals_per_fit"] = _ratio(
        c["ensemble.objective.evals"], c["ensemble.fit.calls"]
    )
    m["ensemble.objective.s"] = total["ensemble.objective"]
    m["ensemble.objective.values_per_s"] = _ratio(
        c["ensemble.objective.values"], total["ensemble.objective"]
    )
    m["ensemble.kfold.s"] = total["ensemble.kfold"]
    m["ensemble.kfold.self.s"] = own["ensemble.kfold"]
    m["ensemble.combine.s"] = total["ensemble.combine"]
    m["ensemble.ridge.s"] = total["ensemble.ridge"]
    m["ensemble.ridge.fits"] = c["ensemble.ridge.fits"]
    m["ensemble.features.s"] = total["ensemble.features"]

    m["metrics.s"] = total["metrics"]
    m["metrics.calls"] = c["metrics.calls"]
    m["metrics.tags"] = c["metrics.tags"]

    m["doclevel.to_tags.s"] = total["doclevel.to_tags"]
    m["doclevel.to_spans.s"] = total["doclevel.to_spans"]
    m["doclevel.ann_f1.s"] = total["doclevel.ann_f1"]
    m["doclevel.io.s"] = total["doclevel.io"]
    m["doclevel.annotations"] = c["doclevel.annotations"]
    return m


def median_metrics(per_run: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(run[key] for run in per_run) for key in per_run[0]}
