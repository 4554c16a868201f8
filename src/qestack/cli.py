"""``qe-stack``: one binary binding all pipelines.

Every subcommand is a thin adapter over the library; no metric or
optimization logic lives here. Exit codes: 0 success, 1 validation/usage
error, 2 I/O error. All randomized steps consume one root seed and every
file-producing run writes an effective-config snapshot next to its outputs.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__, corpus, doclevel, ensemble, labeler, linearqe, metrics
from .config import load_config_file, resolve_config, write_snapshot
from .corpus import Stream
from .errors import QEStackError


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


def _load_file_config(args):
    return load_config_file(args.config) if args.config else {}


def _snapshot(path, command, values, extra=None):
    merged = dict(values)
    if extra:
        merged.update(extra)
    write_snapshot(path, command, merged, __version__)


_EVAL_STREAMS = ("target", "words", "gaps", "source", "sentence")


def _cmd_evaluate(args):
    values = resolve_config(
        {"threshold": ("float", 0.5)}, _load_file_config(args), {"threshold": args.threshold}
    )
    if args.stream == "sentence":
        gold = corpus.read_score_lines(args.gold)
        pred = corpus.read_score_lines(args.pred)
        corpus.check_lengths(pred, len(gold), "prediction", file=args.pred)
        _emit([("pearson", f"{metrics.pearson(gold, pred):.6f}")], args.format)
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


def _cmd_make_labels(args):
    values = resolve_config({}, _load_file_config(args))
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

_LINEAR_SCHEMA = {
    "epochs": ("int", 5),
    "C": ("float", 1.0),
    "gamma": ("float", 1.0),
    "k": ("int", 10),
}


def _linear_values(args):
    # --k and --gamma exist only on the subcommands that use them
    overrides = {key: getattr(args, key, None) for key in ("epochs", "C", "k", "gamma")}
    return {**resolve_config(_LINEAR_SCHEMA, _load_file_config(args), overrides), "seed": args.seed}


def _training_options(values):
    """The keyword arguments ``mira_train`` and ``jackknife`` share."""
    return {key: values[key] for key in ("epochs", "C", "seed")}


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
        extra.append([sentence.tokens for sentence in corpus.read_sentences(path)])
        corpus.check_lengths(extra[-1], corpus.stream_lengths(loaded, stream), "extra column", file=path)
    instances = linearqe.build_instances(loaded, stream, predictions=predictions, extra_columns=extra)
    golds = linearqe.gold_tags(loaded, stream) if need_gold else None
    return instances, golds


def _cmd_linear_train(args):
    values = _linear_values(args)
    instances, golds = _linear_corpus(args)
    model = linearqe.mira_train(instances, golds, **_training_options(values))
    linearqe.save_model(model, args.model)
    _snapshot(f"{args.model}.run.cfg", "linear train", values, {"stream": args.stream})
    return 0


def _cmd_linear_decode(args):
    """``linear predict`` decodes with a saved model, ``linear jackknife`` with
    models trained on the other folds; both write word-only tags and P(BAD)."""
    values = _linear_values(args)
    instances, golds = _linear_corpus(args)
    if args.subcommand == "predict":
        model = linearqe.load_model(args.model)
        tags, probs = linearqe.predict(instances, model, values["gamma"])
    else:
        tags, probs = linearqe.jackknife(
            instances, golds, values["k"], **_training_options(values), gamma=values["gamma"], jobs=args.jobs
        )
    corpus.write_tags(tags, f"{args.out_prefix}.tags")
    corpus.write_probs(probs, f"{args.out_prefix}.probs")
    _snapshot(f"{args.out_prefix}.run.cfg", f"linear {args.subcommand}", values, {"stream": args.stream})
    return 0


# ---------------------------------------------------------------------------
# ensemble-word fit | apply | kfold
# ---------------------------------------------------------------------------

_ENSEMBLE_WORD_SCHEMA = {
    "threshold": ("float", 0.5),
    "optimize_threshold": ("bool", False),
    "tol": ("float", 1e-6),
    "max_cycles": ("int", 20),
    "k": ("int", 10),
}


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
    return {key: values[key] for key in ("threshold", "optimize_threshold", "tol", "max_cycles")}


def _cmd_ensemble_word_fit(args):
    values = resolve_config(
        _ENSEMBLE_WORD_SCHEMA, _load_file_config(args), {"threshold": args.threshold}
    )
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


def _cmd_ensemble_word_apply(args):
    stream, _, preds, _ = _ensemble_inputs(args, need_gold=False)
    ids, weights = ensemble.load_weights(args.weights, stream)
    if ids != [p.system_id for p in preds]:
        raise QEStackError("weights file lists different systems than the manifest")
    combined = ensemble.combine_word(preds, weights, stream)
    corpus.write_probs(combined, args.out)
    _snapshot(f"{args.out}.run.cfg", "ensemble-word apply", {}, {"stream": args.stream, "weights": args.weights})
    return 0


def _cmd_ensemble_word_kfold(args):
    values = resolve_config(
        _ENSEMBLE_WORD_SCHEMA, _load_file_config(args), {"threshold": args.threshold, "k": args.k}
    )
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


def _cmd_ensemble_sent_fit(args):
    values = {**resolve_config(_ENSEMBLE_SENT_SCHEMA, _load_file_config(args), {}), "seed": args.seed}
    loaded = corpus.load_corpus(mt=args.mt, src=args.src, hter=args.gold_scores)
    preds = corpus.read_manifest(args.manifest, loaded)
    X, names = ensemble.sentence_features(preds)
    lam, model = ensemble.ridge_cv(
        X, loaded.hter, values["lambda_grid"], values["cv_k"], values["seed"], feature_names=names
    )
    ensemble.save_ridge_model(model, args.out)
    _snapshot(f"{args.out}.run.cfg", "ensemble-sent fit", values, {"chosen_lambda": lam})
    _emit([("chosen_lambda", lam)], args.format)
    return 0


def _cmd_ensemble_sent_apply(args):
    loaded = corpus.load_corpus(mt=args.mt, src=args.src)
    preds = corpus.read_manifest(args.manifest, loaded)
    model = ensemble.load_ridge_model(args.model)
    X, names = ensemble.sentence_features(preds)
    if names != model.feature_names:
        raise QEStackError("manifest features do not match the fitted model")
    raw = model.predict(X).tolist()
    corpus.check_finite(raw, "score", file=args.out)
    predictions = [min(1.0, max(0.0, v)) for v in raw]
    corpus.write_scores(predictions, args.out)
    _snapshot(f"{args.out}.run.cfg", "ensemble-sent apply", {}, {"model": args.model})
    return 0


# ---------------------------------------------------------------------------
# doc tags | spans | mqm | features | fit | apply | eval
# ---------------------------------------------------------------------------

_DOC_SCHEMA = {
    "severity": ("str", "major"),
    "minor_weight": ("float", 1.0),
    "major_weight": ("float", 5.0),
    "critical_weight": ("float", 10.0),
    "floor": ("optfloat", None),
    "lambda": ("float", 0.0),
}


def _doc_values(args):
    return resolve_config(_DOC_SCHEMA, _load_file_config(args), {})


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


def _cmd_doc_tags(args):
    values = _doc_values(args)
    docs = doclevel.read_document_manifest(args.docs)
    annotations = doclevel.read_annotations(args.annotations)
    os.makedirs(args.out_dir, exist_ok=True)
    for doc_id, doc in docs.items():
        tags = doclevel.annotations_to_tags(doc, annotations.get(doc_id, []))
        corpus.write_tags(tags, os.path.join(args.out_dir, f"{doc_id}.tags"))
    _snapshot(os.path.join(args.out_dir, "run.cfg"), "doc tags", values)
    return 0


def _cmd_doc_spans(args):
    values = _doc_values(args)
    docs = doclevel.read_document_manifest(args.docs)
    severity = doclevel.Severity.parse(values["severity"])
    by_doc = {}
    for doc_id, doc in docs.items():
        tags = _doc_tag_rows(args.tags_dir, doc_id, doc)
        by_doc[doc_id] = doclevel.tags_to_annotations(doc, tags, default_severity=severity)
    doclevel.write_annotations(by_doc, args.out)
    _snapshot(f"{args.out}.run.cfg", "doc spans", values)
    return 0


def _cmd_doc_mqm(args):
    values = _doc_values(args)
    docs = doclevel.read_document_manifest(args.docs)
    annotations = doclevel.read_annotations(args.annotations)
    weights = _severity_weights(values)
    table = {}
    for doc_id, doc in docs.items():
        counts = doclevel.annotation_stats(annotations.get(doc_id, [])).severity_counts
        table[doc_id] = [doclevel.mqm_closed_form(counts, doc.n_words(), weights, floor=values["floor"])]
    doclevel.write_doc_table(table, args.out)
    _snapshot(f"{args.out}.run.cfg", "doc mqm", values)
    return 0


def _cmd_doc_features(args):
    values = _doc_values(args)
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


def _cmd_doc_fit(args):
    values = _doc_values(args)
    features = doclevel.read_doc_table(args.features, n_columns=len(doclevel.DOC_FEATURES))
    gold = doclevel.read_doc_table(args.gold, n_columns=1)
    missing = set(features) ^ set(gold)
    if missing:
        raise QEStackError(f"documents missing from features or gold: {', '.join(sorted(missing))}")
    doc_ids = list(features)
    model = doclevel.fit_doc_mqm(
        [features[d] for d in doc_ids], [gold[d][0] for d in doc_ids], lam=values["lambda"]
    )
    ensemble.save_ridge_model(model, args.out)
    _snapshot(f"{args.out}.run.cfg", "doc fit", values)
    return 0


def _cmd_doc_apply(args):
    features = doclevel.read_doc_table(args.features, n_columns=len(doclevel.DOC_FEATURES))
    model = ensemble.load_ridge_model(args.model)
    if model.feature_names != list(doclevel.DOC_FEATURES):
        raise QEStackError(f"{args.model}: the model's features are not {', '.join(doclevel.DOC_FEATURES)}")
    predictions = {doc_id: [doclevel.predict_doc_mqm(model, row)] for doc_id, row in features.items()}
    doclevel.write_doc_table(predictions, args.out)
    _snapshot(f"{args.out}.run.cfg", "doc apply", {}, {"model": args.model})
    return 0


def _cmd_doc_eval(args):
    pairs = []
    if args.gold_annotations and args.pred_annotations:
        docs = doclevel.read_document_manifest(args.docs)
        gold = doclevel.read_annotations(args.gold_annotations)
        pred = doclevel.read_annotations(args.pred_annotations)
        doc_ids = list(docs)
        score = doclevel.annotation_f1(
            [gold.get(d, []) for d in doc_ids],
            [pred.get(d, []) for d in doc_ids],
            [docs[d] for d in doc_ids],
        )
        pairs.append(("f1_ann", f"{score:.6f}"))
    if args.gold_mqm and args.pred_mqm:
        gold = doclevel.read_doc_table(args.gold_mqm, n_columns=1)
        pred = doclevel.read_doc_table(args.pred_mqm, n_columns=1)
        if set(gold) != set(pred):
            raise QEStackError("gold and predicted MQM tables list different documents")
        doc_ids = sorted(gold)
        score = metrics.pearson([gold[d][0] for d in doc_ids], [pred[d][0] for d in doc_ids])
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
_LINEAR = (
    ("--mt", _REQUIRED), ("--src", {}), ("--align", {}), ("--tags", {}), ("--source-tags", {}),
    ("--stream", _STREAM),
    ("--stacked", {"help": "manifest of stacked prediction features"}),
    ("--extra", {"action": "append", "help": "extra annotation column file (repeatable)"}),
    ("--epochs", _INT), ("--C", _FLOAT),
)
_DECODE = (("--out-prefix", _REQUIRED), ("--gamma", _FLOAT))


def _required(*flags):
    return tuple((flag, _REQUIRED) for flag in flags)


# command path -> (help, handler, options in usage order); a group has no
# handler and comes before its leaves
_COMMANDS = {
    ("evaluate",): ("score predictions against gold tags or scores", _cmd_evaluate, (
        *_required("--gold", "--pred"), ("--threshold", _FLOAT),
        ("--stream", {"choices": _EVAL_STREAMS, "default": "target"}),
    )),
    ("make-labels",): ("derive tags, source tags and HTER from post-edits", _cmd_make_labels, (
        *_required("--mt", "--pe"), ("--src", {}), ("--align", {}), *_required("--out-prefix"),
    )),
    ("linear",): ("linear sequential QE model", None, ()),
    ("linear", "train"): (None, _cmd_linear_train, (*_LINEAR, *_required("--model"))),
    ("linear", "predict"): (None, _cmd_linear_decode, (*_LINEAR, *_required("--model"), *_DECODE)),
    ("linear", "jackknife"): (None, _cmd_linear_decode, (*_LINEAR, ("--k", _INT), *_DECODE)),
    ("ensemble-word",): ("convex-combination word-level ensembling", None, ()),
    ("ensemble-word", "fit"): (None, _cmd_ensemble_word_fit, (
        *_SYSTEMS, *_required("--gold"), ("--stream", _STREAM), ("--threshold", _FLOAT), *_required("--out"),
    )),
    ("ensemble-word", "apply"): (None, _cmd_ensemble_word_apply, (
        *_SYSTEMS, *_required("--weights"), ("--stream", _STREAM), *_required("--out"),
    )),
    ("ensemble-word", "kfold"): (None, _cmd_ensemble_word_kfold, (
        *_SYSTEMS, *_required("--gold"), ("--stream", _STREAM), ("--threshold", _FLOAT), ("--k", _INT),
    )),
    ("ensemble-sent",): ("sentence-level ridge stacking", None, ()),
    ("ensemble-sent", "fit"): (None, _cmd_ensemble_sent_fit, (*_SYSTEMS, *_required("--gold-scores", "--out"))),
    ("ensemble-sent", "apply"): (None, _cmd_ensemble_sent_apply, (*_SYSTEMS, *_required("--model", "--out"))),
    ("doc",): ("document-level pipeline", None, ()),
    ("doc", "tags"): (None, _cmd_doc_tags, _required("--docs", "--annotations", "--out-dir")),
    ("doc", "spans"): (None, _cmd_doc_spans, _required("--docs", "--tags-dir", "--out")),
    ("doc", "mqm"): (None, _cmd_doc_mqm, _required("--docs", "--annotations", "--out")),
    ("doc", "features"): (None, _cmd_doc_features, _required("--docs", "--tags-dir", "--sent-mqm-dir", "--out")),
    ("doc", "fit"): (None, _cmd_doc_fit, _required("--features", "--gold", "--out")),
    ("doc", "apply"): (None, _cmd_doc_apply, _required("--features", "--model", "--out")),
    ("doc", "eval"): (None, _cmd_doc_eval, tuple(
        (flag, {}) for flag in ("--docs", "--gold-annotations", "--pred-annotations", "--gold-mqm", "--pred-mqm")
    )),
}


class _Commands(argparse._SubParsersAction):
    """One level of ``_COMMANDS``. Every name at the level is a choice, so
    help, usage and "invalid choice" errors list them all, but only the
    command argparse selects gets a parser, made and filled just before it
    parses: a run builds one path through the table, not the whole tree."""

    def __init__(self, option_strings, *, path=(), **kwargs):
        super().__init__(option_strings, **kwargs)
        self._path = path
        for key, (help_text, _, _) in _COMMANDS.items():
            if key[:-1] == path:
                # what add_parser registers, without the parser
                self._name_parser_map[key[-1]] = None
                if help_text:
                    self._choices_actions.append(self._ChoicesPseudoAction(key[-1], (), help_text))

    def __call__(self, parser, namespace, values, option_string=None):
        name = values[0]
        path = (*self._path, name)
        _, handler, options = _COMMANDS[path]
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
        return args.handler(args)
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
