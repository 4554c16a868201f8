"""``qe-stack``: one binary binding all pipelines.

Every subcommand is a thin adapter over the library; no metric or
optimization logic lives here. Exit codes: 0 success, 1 validation/usage
error, 2 I/O error. All randomized steps consume one root seed and every
file-producing run writes an effective-config snapshot next to its outputs.

A --config file sets the keys of a command, a flag of the same name overrides
one, and a command without keys refuses every key.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

import numpy as np

from . import __version__, corpus, doclevel, ensemble, labeler, linearqe, metrics
from .config import load_config_file, resolve_config, write_snapshot
from .corpus import Stream
from .errors import DegenerateInput, InvalidInput, QEStackError, SingularSystem, SpanOutOfBounds


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _emit(pairs, fmt):
    if fmt == "kv":
        for key, value in pairs:
            print(f"{key}={value}")
    else:
        width = max(len(key) for key, _ in pairs)
        for key, value in pairs:
            print(f"{key:<{width}}  {value}")


@contextlib.contextmanager
def _ridge_data(path):
    """A ridge fit on data read from ``path``: normal equations it leaves
    singular, or no lambda it leaves usable, are errors naming ``path``."""
    try:
        yield
    except (SingularSystem, DegenerateInput) as exc:
        raise type(exc)(str(exc), file=path) from None


def _snapshot(path, command, values, extra=None):
    merged = dict(values)
    if extra:
        merged.update(extra)
    write_snapshot(path, command, merged, __version__)


_EVAL_STREAMS = ("target", "words", "gaps", "source", "sentence")


def _cmd_evaluate(args, values):
    if args.stream == "sentence":
        gold = corpus.read_score_lines(args.gold)
        pred = corpus.read_score_lines(args.pred)
        corpus.check_lengths(pred, len(gold), "prediction", file=args.pred)
        _emit([("pearson", f"{metrics.pearson(gold, pred, files=(args.gold, args.pred)):.6f}")], args.format)
        return 0

    gold = corpus.read_tag_stream(args.gold, args.stream)
    gold_lengths = np.diff(gold.offsets)
    # a prediction file holds either tags (the stream's own, or interleaved
    # and sliced like the gold) or per-stream probabilities
    if corpus.is_tag_file(args.pred):
        pred = corpus.read_tag_stream(args.pred, args.stream, gold_lengths)
        pred_bad = pred.values
    else:
        pred = corpus.read_prob_lines(args.pred)
        pred_bad = metrics.threshold(pred.values, values["threshold"])
    corpus.check_lengths(pred, gold_lengths, "prediction", file=args.pred)
    scores = metrics.f1_mult(gold.values, pred_bad)
    pairs = [
        ("f1_ok", f"{scores.f1_ok:.6f}"),
        ("f1_bad", f"{scores.f1_bad:.6f}"),
        ("f1_mult", f"{scores.f1_mult:.6f}"),
        ("mcc", f"{metrics.mcc(gold.values, pred_bad):.6f}"),
    ]
    _emit(pairs, args.format)
    return 0


def _cmd_make_labels(args, values):
    loaded = corpus.load_corpus(mt=args.mt, pe=args.pe, src=args.src, align=args.align)
    labeled = labeler.label_corpus(loaded)
    prefix = args.out_prefix
    corpus.write_tags(labeled.tags, f"{prefix}.tags")
    corpus.write_scores(labeled.hter.tolist(), f"{prefix}.hter")
    if labeled.source_tags is not None:
        corpus.write_tags(labeled.source_tags, f"{prefix}.source_tags")
    _snapshot(f"{prefix}.run.cfg", "make-labels", values, {"seed": args.seed})
    return 0


# ---------------------------------------------------------------------------
# linear train | predict | jackknife
# ---------------------------------------------------------------------------

_TRAIN_SCHEMA = {"epochs": ("int", 5), "C": ("float", 1.0)}
_PREDICT_SCHEMA = {"gamma": ("float", 1.0)}
_JACKKNIFE_SCHEMA = {**_TRAIN_SCHEMA, **_PREDICT_SCHEMA, "k": ("int", 10)}


def _training_options(args, values):
    """The keyword arguments ``mira_train`` and ``jackknife`` share."""
    return {"epochs": values["epochs"], "C": values["C"], "seed": args.seed}


def _linear_corpus(args):
    """The instance table of the chosen stream, with gold labelings unless predicting."""
    need_gold = args.subcommand != "predict"
    stream = Stream(args.stream)
    kwargs = {"mt": args.mt, "src": args.src, "align": args.align}
    if stream is Stream.SOURCE and args.src is None:
        raise QEStackError("the source stream needs --src")
    if need_gold:
        key = "source_tags" if stream is Stream.SOURCE else "tags"
        if getattr(args, key) is None:
            raise QEStackError(f"training needs --{key.replace('_', '-')} (gold tags)")
        kwargs[key] = getattr(args, key)
    loaded = corpus.load_corpus(**kwargs)
    predictions = corpus.read_manifest(args.stacked, loaded) if args.stacked else ()
    extra = []
    for path in args.extra or ():
        extra.append(corpus.read_sentences(path))
        corpus.check_lengths(extra[-1], corpus.stream_lengths(loaded, stream), "extra column", file=path)
    instances = linearqe.build_instances(loaded, stream, predictions=predictions, extra_columns=extra)
    golds = linearqe.gold_tags(loaded, stream) if need_gold else None
    return instances, golds


def _cmd_linear_train(args, values):
    instances, golds = _linear_corpus(args)
    model = linearqe.mira_train(instances, golds, **_training_options(args, values))
    linearqe.save_model(model, args.model)
    _snapshot(f"{args.model}.run.cfg", "linear train", values, {"stream": args.stream, "seed": args.seed})
    return 0


def _cmd_linear_decode(args, values):
    """``linear predict`` decodes with a saved model, ``linear jackknife`` with
    models trained on the other folds; both write word-only tags and P(BAD)."""
    instances, golds = _linear_corpus(args)
    if args.subcommand == "predict":
        model = linearqe.load_model(args.model)
        tags, probs = linearqe.predict(instances, model, values["gamma"])
    else:
        tags, probs = linearqe.jackknife(
            instances, golds, values["k"], **_training_options(args, values), gamma=values["gamma"], jobs=args.jobs
        )
    corpus.write_tags(tags, f"{args.out_prefix}.tags")
    corpus.write_probs(probs, f"{args.out_prefix}.probs")
    extra = {"stream": args.stream, "seed": args.seed}
    _snapshot(f"{args.out_prefix}.run.cfg", f"linear {args.subcommand}", values, extra)
    return 0


# ---------------------------------------------------------------------------
# ensemble-word fit | apply | kfold
# ---------------------------------------------------------------------------

_WORD_FIT_SCHEMA = {
    "threshold": ("float", 0.5),
    "optimize_threshold": ("bool", False),
    "tol": ("float", 1e-6),
    "max_cycles": ("int", 20),
}
_WORD_KFOLD_SCHEMA = {**_WORD_FIT_SCHEMA, "k": ("int", 10)}


def _ensemble_inputs(args, need_gold):
    stream = Stream(args.stream)
    loaded = corpus.load_corpus(mt=args.mt, src=args.src)
    preds = corpus.read_manifest(args.manifest, loaded)
    golds = None
    if need_gold:
        golds = corpus.read_tag_stream(args.gold, stream.value)
        lengths = corpus.stream_lengths(loaded, stream)
        corpus.check_lengths(golds, len(loaded) if lengths is None else lengths, "gold", file=args.gold)
    return stream, loaded, preds, golds


def _word_fit_options(values):
    """The keyword arguments ``fit_word_ensemble`` and ``kfold_estimate`` share."""
    return {key: values[key] for key in _WORD_FIT_SCHEMA}


def _cmd_ensemble_word_fit(args, values):
    stream, _, preds, golds = _ensemble_inputs(args, need_gold=True)
    fit = ensemble.fit_word_ensemble(preds, golds, stream, **_word_fit_options(values))
    ensemble.save_weights([p.system_id for p in preds], fit.weights, args.out)
    _snapshot(
        f"{args.out}.run.cfg",
        "ensemble-word fit",
        values,
        {"stream": args.stream, "fitted_threshold": fit.threshold, "dev_f1_mult": fit.f1, "seed": args.seed},
    )
    _emit([("dev_f1_mult", f"{fit.f1:.6f}"), ("threshold", fit.threshold)], args.format)
    return 0


def _cmd_ensemble_word_apply(args, values):
    stream, _, preds, _ = _ensemble_inputs(args, need_gold=False)
    ids, weights = ensemble.load_weights(args.weights, stream)
    systems = [p.system_id for p in preds]
    if ids != systems:
        message = f"lists systems {', '.join(ids)}, not {', '.join(systems)} of {args.manifest}"
        raise InvalidInput(message, file=args.weights)
    combined = ensemble.combine_word(preds, weights, stream)
    corpus.write_probs(combined, args.out)
    _snapshot(f"{args.out}.run.cfg", "ensemble-word apply", values, {"stream": args.stream, "weights": args.weights})
    return 0


def _cmd_ensemble_word_kfold(args, values):
    stream, _, preds, golds = _ensemble_inputs(args, need_gold=True)
    estimate = ensemble.kfold_estimate(preds, golds, values["k"], stream, **_word_fit_options(values))
    _emit([("kfold_f1_mult", f"{estimate:.6f}"), ("k", values["k"])], args.format)
    return 0


# ---------------------------------------------------------------------------
# ensemble-sent fit | apply
# ---------------------------------------------------------------------------

_ENSEMBLE_SENT_SCHEMA = {
    "lambda_grid": ("floats", (0.01, 0.1, 1.0, 10.0, 100.0)),
    "cv_k": ("int", 5),
}


def _cmd_ensemble_sent_fit(args, values):
    loaded = corpus.load_corpus(mt=args.mt, src=args.src, hter=args.gold_scores)
    preds = corpus.read_manifest(args.manifest, loaded)
    X, names = ensemble.sentence_features(preds)
    with _ridge_data(args.manifest):
        lam, model = ensemble.ridge_cv(
            X, loaded.hter, values["lambda_grid"], values["cv_k"], args.seed, feature_names=names
        )
    ensemble.save_ridge_model(model, args.out)
    _snapshot(f"{args.out}.run.cfg", "ensemble-sent fit", values, {"chosen_lambda": lam, "seed": args.seed})
    _emit([("chosen_lambda", lam)], args.format)
    return 0


def _cmd_ensemble_sent_apply(args, values):
    loaded = corpus.load_corpus(mt=args.mt, src=args.src)
    preds = corpus.read_manifest(args.manifest, loaded)
    model = ensemble.load_ridge_model(args.model)
    X, names = ensemble.sentence_features(preds)
    if names != model.feature_names:
        raise InvalidInput(f"the model's features differ from those of the manifest {args.manifest}", file=args.model)
    raw = model.predict(X).tolist()
    corpus.check_finite(raw, "score", file=args.out)
    predictions = [min(1.0, max(0.0, v)) for v in raw]
    corpus.write_scores(predictions, args.out)
    _snapshot(f"{args.out}.run.cfg", "ensemble-sent apply", values, {"model": args.model})
    return 0


# ---------------------------------------------------------------------------
# doc tags | spans | mqm | features | fit | apply | eval
# ---------------------------------------------------------------------------

_MQM_SCHEMA = {
    "minor_weight": ("float", 1.0),
    "major_weight": ("float", 5.0),
    "critical_weight": ("float", 10.0),
    "floor": ("optfloat", None),
}


def _severity_weights(values):
    return {
        doclevel.Severity.MINOR: values["minor_weight"],
        doclevel.Severity.MAJOR: values["major_weight"],
        doclevel.Severity.CRITICAL: values["critical_weight"],
    }


def _doc_tag_rows(tags_dir, doc_id, doc):
    path = os.path.join(tags_dir, f"{doc_id}.tags")
    tags = corpus.read_tag_stream(path, "target")
    corpus.check_lengths(tags, doc.tag_lengths(), f"document {doc_id} tags", file=path)
    return tags


def _doc_annotations(path, docs):
    """``path``'s annotations of each document in ``docs``, an empty table for
    a document the file does not list; documents the file lists and ``docs``
    does not are ignored. A span outside its document is an error naming the
    file, the span's line and the document."""
    annotations = doclevel.read_annotations(path)
    empty = doclevel.AnnotationTable.from_rows((), ())
    tables = {doc_id: annotations.get(doc_id, empty) for doc_id in docs}
    for doc_id, doc in docs.items():
        table = tables[doc_id]
        bad = doclevel.first_outside_span(doc, table)
        if bad is None:
            continue
        s, a, b = table.spans[bad].tolist()
        if s >= len(doc):
            message = f"document {doc_id}: span sentence {s} outside its {len(doc)} sentences"
        else:
            message = f"document {doc_id}: span {a}-{b} outside sentence {s} of length {len(doc.sentences[s])}"
        # the span's annotation is the document's k-th line in the file
        k = int(np.searchsorted(table.offsets, bad, "right")) - 1
        with open(path, encoding="utf-8") as handle:
            lines = [i for i, line in enumerate(handle.read().splitlines(), 1) if line.split("\t")[0] == doc_id]
        raise SpanOutOfBounds(message, file=str(path), line=lines[k])
    return tables


def _cmd_doc_tags(args, values):
    docs = doclevel.read_document_manifest(args.docs)
    annotations = _doc_annotations(args.annotations, docs)
    tags = {doc_id: doclevel.annotations_to_tags(doc, annotations[doc_id]) for doc_id, doc in docs.items()}
    os.makedirs(args.out_dir, exist_ok=True)
    for doc_id, rows in tags.items():
        corpus.write_tags(rows, os.path.join(args.out_dir, f"{doc_id}.tags"))
    _snapshot(os.path.join(args.out_dir, "run.cfg"), "doc tags", values)
    return 0


def _cmd_doc_spans(args, values):
    docs = doclevel.read_document_manifest(args.docs)
    severity = doclevel.Severity.parse(values["severity"])
    by_doc = {}
    for doc_id, doc in docs.items():
        tags = _doc_tag_rows(args.tags_dir, doc_id, doc)
        by_doc[doc_id] = doclevel.tags_to_annotations(doc, tags, default_severity=severity)
    doclevel.write_annotations(by_doc, args.out)
    _snapshot(f"{args.out}.run.cfg", "doc spans", values)
    return 0


def _cmd_doc_mqm(args, values):
    docs = doclevel.read_document_manifest(args.docs)
    annotations = _doc_annotations(args.annotations, docs)
    weights = _severity_weights(values)
    table = {}
    for doc_id, doc in docs.items():
        counts = doclevel.annotation_stats(annotations[doc_id]).severity_counts
        table[doc_id] = [doclevel.mqm_closed_form(counts, doc.n_words(), weights, floor=values["floor"])]
    doclevel.write_doc_table(table, args.out)
    _snapshot(f"{args.out}.run.cfg", "doc mqm", values)
    return 0


def _cmd_doc_features(args, values):
    docs = doclevel.read_document_manifest(args.docs)
    table = {}
    for doc_id, doc in docs.items():
        tags = _doc_tag_rows(args.tags_dir, doc_id, doc)
        mqm_path = os.path.join(args.sent_mqm_dir, f"{doc_id}.mqm")
        mqms = corpus.read_score_lines(mqm_path)
        corpus.check_lengths(mqms, len(doc), f"document {doc_id} sentence MQMs", file=mqm_path)
        table[doc_id] = doclevel.doc_mqm_features(tags, mqms)
    doclevel.write_doc_table(table, args.out)
    _snapshot(f"{args.out}.run.cfg", "doc features", values)
    return 0


def _same_documents(path_a, table_a, path_b, table_b):
    """Two doc tables of one document set; the first that lacks a document
    of the other is an InvalidInput naming it and the documents."""
    for path, table, other_path, other in ((path_a, table_a, path_b, table_b), (path_b, table_b, path_a, table_a)):
        missing = set(other) - set(table)
        if missing:
            raise InvalidInput(f"lacks documents {', '.join(sorted(missing))} of {other_path}", file=path)


def _cmd_doc_fit(args, values):
    features = doclevel.read_doc_table(args.features, n_columns=len(doclevel.DOC_FEATURES))
    gold = doclevel.read_doc_table(args.gold, n_columns=1)
    _same_documents(args.features, features, args.gold, gold)
    doc_ids = list(features)
    with _ridge_data(args.features):
        model = doclevel.fit_doc_mqm(
            [features[d] for d in doc_ids], [gold[d][0] for d in doc_ids], lam=values["lambda"]
        )
    ensemble.save_ridge_model(model, args.out)
    _snapshot(f"{args.out}.run.cfg", "doc fit", values)
    return 0


def _cmd_doc_apply(args, values):
    features = doclevel.read_doc_table(args.features, n_columns=len(doclevel.DOC_FEATURES))
    model = ensemble.load_ridge_model(args.model)
    if model.feature_names != list(doclevel.DOC_FEATURES):
        raise InvalidInput(f"the model's features are not {', '.join(doclevel.DOC_FEATURES)}", file=args.model)
    predictions = {doc_id: [doclevel.predict_doc_mqm(model, row)] for doc_id, row in features.items()}
    doclevel.write_doc_table(predictions, args.out)
    _snapshot(f"{args.out}.run.cfg", "doc apply", values, {"model": args.model})
    return 0


def _cmd_doc_eval(args, values):
    for kind in ("annotations", "mqm"):
        given = [side for side in ("gold", "pred") if getattr(args, f"{side}_{kind}") is not None]
        if len(given) == 1:
            raise QEStackError(f"--{given[0]}-{kind} needs --{'pred' if given == ['gold'] else 'gold'}-{kind}")
    if args.gold_annotations is not None and args.docs is None:
        raise QEStackError("--gold-annotations and --pred-annotations need --docs")
    pairs = []
    if args.gold_annotations is not None:
        docs = doclevel.read_document_manifest(args.docs)
        gold = _doc_annotations(args.gold_annotations, docs)
        pred = _doc_annotations(args.pred_annotations, docs)
        score = doclevel.annotation_f1(list(gold.values()), list(pred.values()), list(docs.values()))
        pairs.append(("f1_ann", f"{score:.6f}"))
    if args.gold_mqm is not None:
        gold = doclevel.read_doc_table(args.gold_mqm, n_columns=1)
        pred = doclevel.read_doc_table(args.pred_mqm, n_columns=1)
        _same_documents(args.gold_mqm, gold, args.pred_mqm, pred)
        x, y = ([table[d][0] for d in sorted(gold)] for table in (gold, pred))
        score = metrics.pearson(x, y, files=(args.gold_mqm, args.pred_mqm))
        pairs.append(("mqm_pearson", f"{score:.6f}"))
    if not pairs:
        raise QEStackError("nothing to evaluate: pass annotation files and/or MQM tables")
    _emit(pairs, args.format)
    return 0


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------


# registered on the root parser and on every subcommand's parser, so the flags
# are accepted on either side of the subcommand; the subcommand's copies have
# SUPPRESS defaults so they never overwrite a value parsed at the root
_GLOBAL_FLAGS = (
    ("--jobs", {"type": int, "default": 1, "help": "worker processes for the folds of linear jackknife"}),
    ("--seed", {"type": int, "default": 1, "help": "root seed for all randomized steps"}),
    ("--config", {"help": "key=value config file"}),
    ("--format", {"choices": ("text", "kv"), "default": "text", "help": "output format"}),
)

_REQUIRED = {"required": True}
_FLOAT = {"type": float}
_INT = {"type": int}
_STREAM = {"choices": ("words", "gaps", "source"), "default": "words"}
_SYSTEMS = (("--manifest", _REQUIRED), ("--mt", _REQUIRED), ("--src", {}))
_DECODE = (("--out-prefix", _REQUIRED), ("--gamma", _FLOAT))


def _required(*flags):
    return tuple((flag, _REQUIRED) for flag in flags)


def _linear(training, *rest):
    """The options of a linear command; training takes gold tags and the MIRA options."""
    gold = (("--tags", {}), ("--source-tags", {})) if training else ()
    mira = (("--epochs", _INT), ("--C", _FLOAT)) if training else ()
    return (
        ("--mt", _REQUIRED), ("--src", {}), ("--align", {}), *gold, ("--stream", _STREAM),
        ("--stacked", {"help": "manifest of stacked prediction features"}),
        ("--extra", {"action": "append", "help": "extra annotation column file (repeatable)"}),
        *mira, *rest,
    )


# command path -> (help, handler, options in usage order, config schema); a
# group has no handler and no schema and comes before its leaves
_COMMANDS = {
    ("evaluate",): ("score predictions against gold tags or scores", _cmd_evaluate, (
        *_required("--gold", "--pred"), ("--threshold", _FLOAT),
        ("--stream", {"choices": _EVAL_STREAMS, "default": "target"}),
    ), {"threshold": ("float", 0.5)}),
    ("make-labels",): ("derive tags, source tags and HTER from post-edits", _cmd_make_labels, (
        *_required("--mt", "--pe"), ("--src", {}), ("--align", {}), *_required("--out-prefix"),
    ), {}),
    ("linear",): ("linear sequential QE model", None, (), None),
    ("linear", "train"): (None, _cmd_linear_train, _linear(True, *_required("--model")), _TRAIN_SCHEMA),
    ("linear", "predict"): (
        None, _cmd_linear_decode, _linear(False, *_required("--model"), *_DECODE), _PREDICT_SCHEMA
    ),
    ("linear", "jackknife"): (None, _cmd_linear_decode, _linear(True, ("--k", _INT), *_DECODE), _JACKKNIFE_SCHEMA),
    ("ensemble-word",): ("convex-combination word-level ensembling", None, (), None),
    ("ensemble-word", "fit"): (None, _cmd_ensemble_word_fit, (
        *_SYSTEMS, *_required("--gold"), ("--stream", _STREAM), ("--threshold", _FLOAT), *_required("--out"),
    ), _WORD_FIT_SCHEMA),
    ("ensemble-word", "apply"): (None, _cmd_ensemble_word_apply, (
        *_SYSTEMS, *_required("--weights"), ("--stream", _STREAM), *_required("--out"),
    ), {}),
    ("ensemble-word", "kfold"): (None, _cmd_ensemble_word_kfold, (
        *_SYSTEMS, *_required("--gold"), ("--stream", _STREAM), ("--threshold", _FLOAT), ("--k", _INT),
    ), _WORD_KFOLD_SCHEMA),
    ("ensemble-sent",): ("sentence-level ridge stacking", None, (), None),
    ("ensemble-sent", "fit"): (
        None, _cmd_ensemble_sent_fit, (*_SYSTEMS, *_required("--gold-scores", "--out")), _ENSEMBLE_SENT_SCHEMA
    ),
    ("ensemble-sent", "apply"): (None, _cmd_ensemble_sent_apply, (*_SYSTEMS, *_required("--model", "--out")), {}),
    ("doc",): ("document-level pipeline", None, (), None),
    ("doc", "tags"): (None, _cmd_doc_tags, _required("--docs", "--annotations", "--out-dir"), {}),
    ("doc", "spans"): (
        None, _cmd_doc_spans, _required("--docs", "--tags-dir", "--out"), {"severity": ("str", "major")}
    ),
    ("doc", "mqm"): (None, _cmd_doc_mqm, _required("--docs", "--annotations", "--out"), _MQM_SCHEMA),
    ("doc", "features"): (None, _cmd_doc_features, _required("--docs", "--tags-dir", "--sent-mqm-dir", "--out"), {}),
    ("doc", "fit"): (None, _cmd_doc_fit, _required("--features", "--gold", "--out"), {"lambda": ("float", 0.0)}),
    ("doc", "apply"): (None, _cmd_doc_apply, _required("--features", "--model", "--out"), {}),
    ("doc", "eval"): (None, _cmd_doc_eval, tuple(
        (flag, {}) for flag in ("--docs", "--gold-annotations", "--pred-annotations", "--gold-mqm", "--pred-mqm")
    ), {}),
}


class _Commands(argparse._SubParsersAction):
    """One level of ``_COMMANDS``. Every name at the level is a choice, so
    help, usage and "invalid choice" errors list them all, but only the
    command argparse selects gets a parser, made and filled just before it
    parses: a run builds one path through the table, not the whole tree."""

    def __init__(self, option_strings, *, path=(), **kwargs):
        super().__init__(option_strings, **kwargs)
        self._path = path
        for key, (help_text, *_) in _COMMANDS.items():
            if key[:-1] == path:
                # what add_parser registers, without the parser
                self._name_parser_map[key[-1]] = None
                if help_text:
                    self._choices_actions.append(self._ChoicesPseudoAction(key[-1], (), help_text))

    def __call__(self, parser, namespace, values, option_string=None):
        name = values[0]
        path = (*self._path, name)
        _, handler, options, _ = _COMMANDS[path]
        chosen = self._name_parser_map[name] = self._parser_class(prog=f"{self._prog_prefix} {name}")
        for flag, kwargs in _GLOBAL_FLAGS:
            chosen.add_argument(flag, **{**kwargs, "default": argparse.SUPPRESS})
        for flag, kwargs in options:
            chosen.add_argument(flag, **kwargs)
        if handler is None:
            chosen.add_subparsers(dest="subcommand", required=True, action=_Commands, path=path)
        else:
            chosen.set_defaults(handler=handler)
        super().__call__(parser, namespace, values, option_string)


def main(argv=None) -> int:
    try:
        parser = _Parser(prog="qe-stack", description=__doc__)
        parser.add_argument("--version", action="version", version=f"qe-stack {__version__}")
        for flag, kwargs in _GLOBAL_FLAGS:
            parser.add_argument(flag, **kwargs)
        parser.add_subparsers(dest="command", required=True, action=_Commands)
        args = parser.parse_args(argv)
        *_, schema = _COMMANDS[(args.command, args.subcommand) if "subcommand" in args else (args.command,)]
        file_values = load_config_file(args.config) if args.config else {}
        # a flag named like a key overrides it; a command may lack the flag
        values = resolve_config(schema, file_values, {key: getattr(args, key, None) for key in schema})
        return args.handler(args, values)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1
    except QEStackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
