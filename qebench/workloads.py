"""The three workloads: their inputs, prerequisites, CLI sequences and output
checks.

A workload directory holds ``in/`` (generated inputs and the manifests that
name them), ``pre/`` (program-made prerequisites, built during set-up) and
``out/`` (everything the timed sequence writes). Every path given to the
program is relative to the workload directory, which is the working
directory of the process that runs the sequence, so ``.run.cfg`` snapshots
do not depend on where the checkout lives.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import gen

WORKLOADS = tuple(gen.SHAPES)


@dataclass
class Call:
    """One CLI invocation: ``name`` is the subcommand path joined by '-'
    (``linear-jackknife``), ``outputs`` the files and directories it writes
    and ``check`` validates them and returns a list of problems."""

    name: str
    argv: list[str]
    outputs: list[str] = field(default_factory=list)
    check: Callable[["Context", str], list[str]] | None = None
    after: Callable[["Context"], None] | None = None  # untimed glue for later calls


@dataclass
class Context:
    """Facts the checks compare outputs against, read from the inputs."""

    mt_lengths: list[int]
    src_lengths: list[int]
    systems: int  # systems in the test manifest
    synthetic: int  # of which supply sentence scores as well
    doc_sizes: dict[str, list[int]] = field(default_factory=dict)  # doc -> token counts
    doc_chars: dict[str, list[int]] = field(default_factory=dict)  # doc -> sentence lengths
    scores: dict[str, float] = field(default_factory=dict)  # re-scored quality metrics


def _lines(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read().splitlines()


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _count_problems(path, rows, expected, what):
    if len(rows) != len(expected):
        return [f"{path}: {len(rows)} lines, expected {len(expected)}"]
    for i, (row, n) in enumerate(zip(rows, expected), 1):
        if len(row) != n:
            return [f"{path}:{i}: {len(row)} {what}, expected {n}"]
    return []


def check_tags(path, expected):
    rows = [line.split() for line in _lines(path)]
    problems = _count_problems(path, rows, expected, "tags")
    if not problems and any(t not in ("OK", "BAD") for row in rows for t in row):
        problems.append(f"{path}: entry other than OK/BAD")
    return problems


def check_probs(path, expected):
    rows = [line.split() for line in _lines(path)]
    problems = _count_problems(path, rows, expected, "values")
    if problems:
        return problems
    values = np.array([float(v) for row in rows for v in row])
    if values.size and not (np.all(values >= 0.0) and np.all(values <= 1.0)):
        problems.append(f"{path}: probability outside [0, 1]")
    return problems


def check_scores(path, n, lo=None, hi=None):
    rows = [line.split() for line in _lines(path)]
    problems = _count_problems(path, rows, [1] * n, "values")
    if problems or lo is None:
        return problems
    values = np.array([float(row[0]) for row in rows])
    if not (np.all(values >= lo) and np.all(values <= hi)):
        problems.append(f"{path}: value outside [{lo}, {hi}]")
    return problems


def check_table(path, keys, columns):
    problems = []
    rows = [line.split("\t") for line in _lines(path)]
    if [row[0] for row in rows] != list(keys):
        problems.append(f"{path}: rows do not list the expected keys in order")
    for i, row in enumerate(rows, 1):
        if len(row) != columns + 1:
            return problems + [f"{path}:{i}: {len(row) - 1} values, expected {columns}"]
        try:
            [float(v) for v in row[1:]]
        except ValueError:
            return problems + [f"{path}:{i}: value is not a number"]
    return problems


def _stdout_values(stdout):
    values = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            values[key.strip()] = value.strip()
    return values


def f1_mult_numpy(gold_bad: np.ndarray, pred_bad: np.ndarray) -> float:
    """F1-MULT from BAD-indicator arrays, written apart from the program's
    own metric code; the degenerate-class rules follow ``metrics``."""
    tp = int(np.sum(gold_bad & pred_bad))
    fp = int(np.sum(~gold_bad & pred_bad))
    fn = int(np.sum(gold_bad & ~pred_bad))
    tn = int(gold_bad.size) - tp - fp - fn

    def f1(hits, predicted, actual):
        if predicted == 0 and actual == 0:
            return 1.0
        precision = hits / predicted if predicted else 0.0
        recall = hits / actual if actual else 0.0
        if precision + recall == 0.0:
            return 0.0
        return 2.0 * precision * recall / (precision + recall)

    return f1(tn, tn + fn, tn + fp) * f1(tp, tp + fp, tp + fn)


def rescore_words(gold_path, pred_path, threshold=0.5) -> float:
    gold = np.array([t == "BAD" for line in _lines(gold_path) for t in line.split()[1::2]])
    pred = np.array([float(v) >= threshold for line in _lines(pred_path) for v in line.split()])
    if gold.size != pred.size:
        raise ValueError(f"{gold_path} and {pred_path} hold {gold.size} and {pred.size} words")
    return f1_mult_numpy(gold, pred)


def rescore_sentences(gold_path, pred_path) -> float:
    gold = np.array([float(v) for v in _lines(gold_path)])
    pred = np.array([float(v) for v in _lines(pred_path)])
    return float(np.corrcoef(gold, pred)[0, 1])


def _check_evaluate_words(gold, pred):
    def check(ctx, stdout):
        printed = _stdout_values(stdout).get("f1_mult")
        mine = rescore_words(gold, pred)
        ctx.scores["f1_mult"] = mine
        if printed != f"{mine:.6f}":
            return [f"evaluate printed f1_mult={printed}, numpy re-scoring gives {mine:.6f}"]
        return []

    return check


def _check_evaluate_sentences(gold, pred):
    def check(ctx, stdout):
        printed = _stdout_values(stdout).get("pearson")
        mine = rescore_sentences(gold, pred)
        ctx.scores["pearson"] = mine
        if printed is None or abs(float(printed) - mine) > 1.5e-6:
            return [f"evaluate printed pearson={printed}, numpy gives {mine:.6f}"]
        return []

    return check


def _check_labels(prefix):
    def check(ctx, _):
        return (
            check_tags(f"{prefix}.tags", [2 * n + 1 for n in ctx.mt_lengths])
            + check_scores(f"{prefix}.hter", len(ctx.mt_lengths), 0.0, 1.0)
            + check_tags(f"{prefix}.source_tags", ctx.src_lengths)
        )

    return check


def _check_stream_predictions(prefix):
    def check(ctx, _):
        return check_tags(f"{prefix}.tags", ctx.mt_lengths) + check_probs(
            f"{prefix}.probs", ctx.mt_lengths
        )

    return check


def _check_model(path):
    def check(ctx, _):
        lines = _lines(path)
        if not lines:
            return [f"{path}: empty model"]
        for i, line in enumerate(lines, 1):
            key, _, weight = line.partition("\t")
            try:
                int(key), float(weight)
            except ValueError:
                return [f"{path}:{i}: malformed model line"]
        return []

    return check


def _check_weights(path):
    def check(ctx, stdout):
        problems = []
        rows = [line.split("\t") for line in _lines(path)]
        if len(rows) != ctx.systems:
            problems.append(f"{path}: {len(rows)} weights for {ctx.systems} systems")
        elif not all(0.0 <= float(w) <= 1.0 for _, w in rows):
            problems.append(f"{path}: weight outside [0, 1]")
        if "dev_f1_mult" not in _stdout_values(stdout):
            problems.append("ensemble-word fit printed no dev_f1_mult")
        return problems

    return check


def _check_kfold(ctx, stdout):
    value = _stdout_values(stdout).get("kfold_f1_mult")
    if value is None or not 0.0 <= float(value) <= 1.0:
        return [f"kfold printed kfold_f1_mult={value}"]
    return []


def _check_ridge(path, n_features):
    def check(ctx, _):
        keys = [line.split("\t")[0] for line in _lines(path)]
        coefs = [k for k in keys if k.startswith("coef:")]
        if keys[:2] != ["intercept", "lambda"] or len(coefs) != n_features(ctx):
            return [f"{path}: expected intercept, lambda and {n_features(ctx)} coefficients"]
        return []

    return check


def _sentence_features(ctx):
    # one words-mean per system plus a score for each synthetic system
    return ctx.systems + ctx.synthetic


# ---------------------------------------------------------------------------
# Document-level glue and checks (score-long)
# ---------------------------------------------------------------------------


def write_doc_predictions(ctx: Context):
    """Split the final word predictions and sentence scores by document the
    way a user's script would: thresholded word tags interleaved with OK gaps
    under ``out/doc_pred_tags`` and sentence MQM = 100 * (1 - HTER) under
    ``out/sentmqm``."""
    probs = _lines("out/word.probs")
    hter = _lines("out/sent.hter")
    os.makedirs("out/doc_pred_tags", exist_ok=True)
    os.makedirs("out/sentmqm", exist_ok=True)
    first = 0
    for doc_id, sizes in ctx.doc_sizes.items():
        tags, mqms = [], []
        for k in range(len(sizes)):
            words = ["BAD" if float(p) >= 0.5 else "OK" for p in probs[first + k].split()]
            tags.append("OK " + " ".join(w + " OK" for w in words))
            mqms.append(repr(100.0 * (1.0 - float(hter[first + k]))))
        first += len(sizes)
        with open(f"out/doc_pred_tags/{doc_id}.tags", "w", encoding="utf-8") as handle:
            handle.write("".join(t + "\n" for t in tags))
        with open(f"out/sentmqm/{doc_id}.mqm", "w", encoding="utf-8") as handle:
            handle.write("".join(m + "\n" for m in mqms))


def _check_doc_tags(directory):
    def check(ctx, _):
        problems = []
        for doc_id, sizes in ctx.doc_sizes.items():
            problems += check_tags(f"{directory}/{doc_id}.tags", [2 * n + 1 for n in sizes])
        return problems[:5]

    return check


def _check_annotations(path):
    def check(ctx, _):
        for i, line in enumerate(_lines(path), 1):
            doc_id, severity, spans = line.split("\t")
            if doc_id not in ctx.doc_chars or severity not in ("minor", "major", "critical"):
                return [f"{path}:{i}: unknown document or severity"]
            for span in spans.split(","):
                sent, _, rest = span.partition(":")
                start, _, end = rest.partition("-")
                if not 0 <= int(start) <= int(end) <= ctx.doc_chars[doc_id][int(sent)]:
                    return [f"{path}:{i}: span {span} outside its sentence"]
        return []

    return check


def _check_doc_table(path, columns):
    def check(ctx, _):
        return check_table(path, list(ctx.doc_sizes), columns)

    return check


def _check_doc_eval(ctx, stdout):
    values = _stdout_values(stdout)
    f1_ann = float(values.get("f1_ann", "nan"))
    mqm_r = float(values.get("mqm_pearson", "nan"))
    if not (0.0 <= f1_ann <= 1.0 and -1.0 <= mqm_r <= 1.0):
        return [f"doc eval printed f1_ann={f1_ann}, mqm_pearson={mqm_r}"]
    return []


# ---------------------------------------------------------------------------
# Sequences
# ---------------------------------------------------------------------------


def _word_tail(manifest, gold_tags, gold_hter, weights, sent_model):
    """ensemble-word apply, ensemble-sent (fit and) apply and both
    evaluations. ``sent_model`` None fits the ridge model in the sequence."""
    data = ["--manifest", manifest, "--mt", "in/test.mt"]
    fit = []
    if sent_model is None:
        sent_model = "out/sent.model"
        fit = [Call("ensemble-sent-fit", ["ensemble-sent", "fit", *data, "--gold-scores", gold_hter,
                    "--out", sent_model], [sent_model, f"{sent_model}.run.cfg"],
                    _check_ridge(sent_model, _sentence_features))]
    return [
        Call("ensemble-word-apply", ["ensemble-word", "apply", *data, "--weights", weights,
             "--out", "out/word.probs"], ["out/word.probs", "out/word.probs.run.cfg"],
             lambda ctx, _: check_probs("out/word.probs", ctx.mt_lengths)),
        *fit,
        Call("ensemble-sent-apply", ["ensemble-sent", "apply", *data, "--model", sent_model,
             "--out", "out/sent.hter"], ["out/sent.hter", "out/sent.hter.run.cfg"],
             lambda ctx, _: check_scores("out/sent.hter", len(ctx.mt_lengths), 0.0, 1.0)),
        Call("evaluate", ["evaluate", "--gold", gold_tags, "--pred", "out/word.probs",
             "--stream", "words"], [], _check_evaluate_words(gold_tags, "out/word.probs")),
        Call("evaluate", ["evaluate", "--gold", gold_hter, "--pred", "out/sent.hter",
             "--stream", "sentence"], [], _check_evaluate_sentences(gold_hter, "out/sent.hter")),
    ]


def _src_align(prefix):
    return ["--src", f"in/{prefix}.src", "--align", f"in/{prefix}.align"]


def _make_labels(prefix, out_prefix):
    return Call(
        "make-labels",
        ["make-labels", "--mt", f"in/{prefix}.mt", "--pe", f"in/{prefix}.pe",
         *_src_align(prefix), "--out-prefix", out_prefix],
        [f"{out_prefix}.{ext}" for ext in ("tags", "hter", "source_tags", "run.cfg")],
        _check_labels(out_prefix),
    )


def _linear(sub, prefix, extra, outputs, check=None):
    return Call(
        f"linear-{sub}",
        ["linear", sub, "--mt", f"in/{prefix}.mt", *_src_align(prefix), *extra],
        outputs,
        check,
    )


def _word_fit(sub, manifest, gold, mt="in/test.mt", out="out/word.weights"):
    """``ensemble-word fit`` writing ``out``, or ``ensemble-word kfold --k 10``."""
    argv = ["ensemble-word", sub, "--manifest", manifest, "--mt", mt, "--gold", gold]
    if sub == "kfold":
        return Call("ensemble-word-kfold", [*argv, "--k", "10"], [], _check_kfold)
    return Call("ensemble-word-fit", [*argv, "--out", out], [out, f"{out}.run.cfg"],
                _check_weights(out))


def sequence(workload: str) -> list[Call]:
    """The timed CLI sequence of ``workload``, in order."""
    if workload == "train-stack":
        manifest = "in/test.manifest"
        return [
            _make_labels("test", "out/lab"),
            _linear("train", "test", ["--tags", "out/lab.tags", "--epochs", "5", "--model",
                    "out/full.model"], ["out/full.model", "out/full.model.run.cfg"],
                    _check_model("out/full.model")),
            _linear("jackknife", "test", ["--tags", "out/lab.tags", "--epochs", "5", "--k", "10",
                    "--out-prefix", "out/jk"], ["out/jk.tags", "out/jk.probs", "out/jk.run.cfg"],
                    _check_stream_predictions("out/jk")),
            _word_fit("fit", manifest, "out/lab.tags"),
            _word_fit("kfold", manifest, "out/lab.tags"),
            *_word_tail(manifest, "out/lab.tags", "out/lab.hter", "out/word.weights", None),
        ]
    if workload == "score-long":
        return [
            _make_labels("test", "out/lab"),
            _linear("predict", "test", ["--model", "pre/linear.model", "--out-prefix", "out/lin"],
                    ["out/lin.tags", "out/lin.probs", "out/lin.run.cfg"],
                    _check_stream_predictions("out/lin")),
            *_word_tail("in/test.manifest", "out/lab.tags", "out/lab.hter", "pre/word.weights",
                        "pre/sent.model"),
            *_doc_stages(),
        ]
    if workload == "ensemble-wide":
        manifest, gold = "in/test.systems.tsv", "in/test.gold.tags"
        return [
            _word_fit("fit", manifest, gold),
            _word_fit("kfold", manifest, gold),
            *_word_tail(manifest, gold, "in/test.gold.hter", "out/word.weights", None),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _doc_stages():
    docs = ["--docs", "in/docs.tsv"]
    return [
        # the glue after doc tags splits the predictions by document for doc spans and features
        Call("doc-tags", ["doc", "tags", *docs, "--annotations", "in/gold.anns", "--out-dir",
             "out/doc_gold_tags"], ["out/doc_gold_tags"], _check_doc_tags("out/doc_gold_tags"),
             after=write_doc_predictions),
        Call("doc-spans", ["doc", "spans", *docs, "--tags-dir", "out/doc_pred_tags", "--out",
             "out/pred.anns"], ["out/pred.anns", "out/pred.anns.run.cfg"],
             _check_annotations("out/pred.anns")),
        Call("doc-mqm", ["doc", "mqm", *docs, "--annotations", "in/gold.anns", "--out",
             "out/gold.mqm"], ["out/gold.mqm", "out/gold.mqm.run.cfg"],
             _check_doc_table("out/gold.mqm", 1)),
        Call("doc-features", ["doc", "features", *docs, "--tags-dir", "out/doc_pred_tags",
             "--sent-mqm-dir", "out/sentmqm", "--out", "out/doc.features"],
             ["out/doc.features", "out/doc.features.run.cfg"], _check_doc_table("out/doc.features", 4)),
        Call("doc-fit", ["--config", "in/doc.cfg", "doc", "fit", "--features", "out/doc.features",
             "--gold", "out/gold.mqm", "--out", "out/doc.model"],
             ["out/doc.model", "out/doc.model.run.cfg"], _check_ridge("out/doc.model", lambda ctx: 4)),
        Call("doc-apply", ["doc", "apply", "--features", "out/doc.features", "--model",
             "out/doc.model", "--out", "out/pred.mqm"], ["out/pred.mqm", "out/pred.mqm.run.cfg"],
             _check_doc_table("out/pred.mqm", 1)),
        Call("doc-eval", ["doc", "eval", *docs, "--gold-annotations", "in/gold.anns",
             "--pred-annotations", "out/pred.anns", "--gold-mqm", "out/gold.mqm", "--pred-mqm",
             "out/pred.mqm"], [], _check_doc_eval),
    ]


def prerequisites(workload: str) -> list[Call]:
    """Program-made inputs built during set-up: for score-long the linear
    model (trained on the separate training corpus), and the word weights and
    ridge model fitted on the dev corpus."""
    if workload != "score-long":
        return []
    return [
        _make_labels("train", "pre/train"),
        _linear("train", "train", ["--tags", "pre/train.tags", "--epochs", "5", "--model",
                "pre/linear.model"], ["pre/linear.model"]),
        _make_labels("dev", "pre/dev"),
        _linear("predict", "dev", ["--model", "pre/linear.model", "--out-prefix", "pre/dev.lin"],
                ["pre/dev.lin.probs"]),
        _word_fit("fit", "in/dev.manifest", "pre/dev.tags", mt="in/dev.mt", out="pre/word.weights"),
        Call("ensemble-sent-fit", ["ensemble-sent", "fit", "--manifest", "in/dev.manifest", "--mt",
             "in/dev.mt", "--gold-scores", "pre/dev.hter", "--out", "pre/sent.model"],
             ["pre/sent.model"]),
    ]


def write_run_files(workload: str):
    """Manifests that put the program's own word predictions first, and the
    config of ``doc fit``: a ridge penalty, because the predicted gap tags
    are all OK, so the gap feature is constant."""
    if workload == "train-stack":
        _prepend("in/test.manifest", "jk\twords=../out/jk.probs", "in/test.systems.tsv")
    elif workload == "score-long":
        _prepend("in/test.manifest", "lin\twords=../out/lin.probs", "in/test.systems.tsv")
        _prepend("in/dev.manifest", "lin\twords=../pre/dev.lin.probs", "in/dev.systems.tsv")
        with open("in/doc.cfg", "w", encoding="utf-8") as handle:
            handle.write("lambda=0.1\n")


def _prepend(path, line, rest):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(line + "\n" + "".join(l + "\n" for l in _lines(rest)))


def context(workload: str) -> Context:
    mt_lengths = [len(line.split()) for line in _lines("in/test.mt")]
    src_lengths = (
        [len(line.split()) for line in _lines("in/test.src")] if workload != "ensemble-wide" else []
    )
    synthetic = gen.SHAPES[workload].systems
    systems = synthetic + (0 if workload == "ensemble-wide" else 1)
    ctx = Context(mt_lengths, src_lengths, systems, synthetic)
    if workload == "score-long":
        for line in _lines("in/docs.tsv"):
            doc_id, rel = line.split("\t")
            sentences = _lines(os.path.join("in", rel))
            ctx.doc_sizes[doc_id] = [len(s.split()) for s in sentences]
            ctx.doc_chars[doc_id] = [len(s) for s in sentences]
    return ctx


def digest(paths) -> str:
    """SHA-256 of the named files and of every file under named directories."""
    h = hashlib.sha256()
    for path in paths:
        if os.path.isdir(path):
            h.update(gen.tree_digest(path).encode())
        else:
            with open(path, "rb") as handle:
                h.update(handle.read())
        h.update(b"\0")
    return h.hexdigest()
