"""``qe-stack``: one binary binding all pipelines.

Every subcommand is a thin adapter over the library; no metric or
optimization logic lives here. Exit codes: 0 success, 1 validation/usage
error, 2 I/O error. All randomized steps consume one root seed and every
file-producing run writes an effective-config snapshot next to its outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

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
        corpus.check_lengths(pred, [None] * len(gold), args.pred, "prediction")
        _emit([("pearson", f"{metrics.pearson(gold, pred):.6f}")], args.format)
        return 0

    gold = corpus.read_tag_stream(args.gold, args.stream)
    gold_lengths = [len(row) for row in gold]
    # a prediction file holds either tags (the stream's own, or interleaved
    # and sliced like the gold) or per-stream probabilities
    if corpus.is_tag_file(args.pred):
        pred = corpus.read_tag_stream(args.pred, args.stream, gold_lengths)
        pred_bad = pred.values
    else:
        pred = corpus.read_prob_lines(args.pred)
        pred_bad = metrics.threshold(pred.values, values["threshold"])
    corpus.check_lengths(pred, gold_lengths, args.pred, "prediction")
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
    values = resolve_config(
        {"cap_hter": ("bool", True)},
        _load_file_config(args),
        {"cap_hter": False if args.no_cap else None},
    )
    loaded = corpus.load_corpus(mt=args.mt, pe=args.pe, src=args.src, align=args.align)
    labeled = labeler.label_corpus(loaded, cap=values["cap_hter"])
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
    "bins": ("int", 10),
    "average": ("bool", True),
    "gamma": ("float", 1.0),
    "k": ("int", 10),
    "use_bias": ("bool", True),
    "use_word": ("bool", True),
    "use_context": ("bool", True),
    "use_aligned": ("bool", True),
    "use_extra": ("bool", True),
    "use_stacked": ("bool", True),
    "use_bigram": ("bool", True),
}


def _linear_values(args):
    # --k and --gamma exist only on the subcommands that use them
    overrides = {key: getattr(args, key, None) for key in ("epochs", "C", "k", "gamma")}
    return {**resolve_config(_LINEAR_SCHEMA, _load_file_config(args), overrides), "seed": args.seed}


def _feature_config(values) -> linearqe.FeatureConfig:
    return linearqe.FeatureConfig(**{f.name: values[f.name] for f in dataclasses.fields(linearqe.FeatureConfig)})


def _training_options(values):
    """The keyword arguments ``mira_train`` and ``jackknife`` share."""
    options = {key: values[key] for key in ("epochs", "C", "seed", "average")}
    return {**options, "config": _feature_config(values)}


def _linear_corpus(args):
    """Instances of the chosen stream, with gold labelings unless predicting."""
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
        corpus.check_lengths(extra[-1], corpus.stream_lengths(loaded, stream), path, "extra column")
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
        model = linearqe.load_model(args.model, config=_feature_config(values))
        tags_rows, probs_rows = linearqe.predict(instances, model, values["gamma"])
    else:
        tags_rows, probs_rows = linearqe.jackknife(
            instances, golds, values["k"], **_training_options(values), gamma=values["gamma"], jobs=args.jobs
        )
    corpus.write_tags(tags_rows, f"{args.out_prefix}.tags")
    corpus.write_probs(probs_rows, f"{args.out_prefix}.probs")
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
        corpus.check_lengths(golds, [None] * len(loaded) if lengths is None else lengths, args.gold, "gold")
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
    predictions = [min(1.0, max(0.0, float(v))) for v in model.predict(X)]
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
    corpus.check_lengths(tags, doc.tag_lengths(), path, f"document {doc_id} tags")
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
        corpus.check_lengths(mqms, [None] * len(doc), mqm_path, f"document {doc_id} sentence MQMs")
        table[doc_id] = doclevel.doc_mqm_features(tags, mqms)
    doclevel.write_doc_table(table, args.out)
    _snapshot(f"{args.out}.run.cfg", "doc features", values)
    return 0


def _cmd_doc_fit(args):
    values = _doc_values(args)
    features = doclevel.read_doc_table(args.features, n_columns=4)
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
    features = doclevel.read_doc_table(args.features, n_columns=4)
    model = ensemble.load_ridge_model(args.model)
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


def _add_global_flags(parser, *, suppress=False):
    # registered on the root parser and on every subparser so the flags are
    # accepted on either side of the subcommand; the subparser copies use
    # SUPPRESS defaults so they never overwrite a value parsed at the root
    kwargs = {"default": argparse.SUPPRESS} if suppress else {}
    parser.add_argument(
        "--jobs", type=int, help="worker processes for fold-parallel steps",
        **(kwargs if suppress else {"default": 1}),
    )
    parser.add_argument(
        "--seed", type=int, help="root seed for all randomized steps",
        **(kwargs if suppress else {"default": 1}),
    )
    parser.add_argument("--config", help="key=value config file", **kwargs)
    parser.add_argument(
        "--format", choices=("text", "kv"), help="output format",
        **(kwargs if suppress else {"default": "text"}),
    )


def _leaf(group, name, **kwargs):
    sub = group.add_parser(name, **kwargs)
    _add_global_flags(sub, suppress=True)
    return sub


def build_parser() -> _Parser:
    parser = _Parser(prog="qe-stack", description=__doc__)
    parser.add_argument("--version", action="version", version=f"qe-stack {__version__}")
    _add_global_flags(parser)
    parser.set_defaults(config=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = _leaf(sub, "evaluate", help="score predictions against gold tags or scores")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--stream", choices=_EVAL_STREAMS, default="target")
    p.set_defaults(handler=_cmd_evaluate)

    p = _leaf(sub, "make-labels", help="derive tags, source tags and HTER from post-edits")
    p.add_argument("--mt", required=True)
    p.add_argument("--pe", required=True)
    p.add_argument("--src")
    p.add_argument("--align")
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--no-cap", action="store_true", help="do not clamp HTER to [0, 1]")
    p.set_defaults(handler=_cmd_make_labels)

    linear = _leaf(sub, "linear", help="linear sequential QE model").add_subparsers(
        dest="subcommand", required=True
    )
    for name, handler in (
        ("train", _cmd_linear_train),
        ("predict", _cmd_linear_decode),
        ("jackknife", _cmd_linear_decode),
    ):
        p = _leaf(linear, name)
        p.add_argument("--mt", required=True)
        p.add_argument("--src")
        p.add_argument("--align")
        p.add_argument("--tags")
        p.add_argument("--source-tags")
        p.add_argument("--stream", choices=("words", "gaps", "source"), default="words")
        p.add_argument("--stacked", help="manifest of stacked prediction features")
        p.add_argument("--extra", action="append", help="extra annotation column file (repeatable)")
        p.add_argument("--epochs", type=int, default=None)
        p.add_argument("--C", type=float, default=None)
        if name == "jackknife":
            p.add_argument("--k", type=int, default=None)
        else:
            p.add_argument("--model", required=True)
        if name != "train":
            p.add_argument("--out-prefix", required=True)
            p.add_argument("--gamma", type=float, default=None)
        p.set_defaults(handler=handler)

    word = _leaf(sub, "ensemble-word", help="convex-combination word-level ensembling").add_subparsers(
        dest="subcommand", required=True
    )
    p = _leaf(word, "fit")
    p.add_argument("--manifest", required=True)
    p.add_argument("--mt", required=True)
    p.add_argument("--src")
    p.add_argument("--gold", required=True)
    p.add_argument("--stream", choices=("words", "gaps", "source"), default="words")
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_ensemble_word_fit)
    p = _leaf(word, "apply")
    p.add_argument("--manifest", required=True)
    p.add_argument("--mt", required=True)
    p.add_argument("--src")
    p.add_argument("--weights", required=True)
    p.add_argument("--stream", choices=("words", "gaps", "source"), default="words")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_ensemble_word_apply)
    p = _leaf(word, "kfold")
    p.add_argument("--manifest", required=True)
    p.add_argument("--mt", required=True)
    p.add_argument("--src")
    p.add_argument("--gold", required=True)
    p.add_argument("--stream", choices=("words", "gaps", "source"), default="words")
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(handler=_cmd_ensemble_word_kfold)

    sent = _leaf(sub, "ensemble-sent", help="sentence-level ridge stacking").add_subparsers(
        dest="subcommand", required=True
    )
    p = _leaf(sent, "fit")
    p.add_argument("--manifest", required=True)
    p.add_argument("--mt", required=True)
    p.add_argument("--src")
    p.add_argument("--gold-scores", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_ensemble_sent_fit)
    p = _leaf(sent, "apply")
    p.add_argument("--manifest", required=True)
    p.add_argument("--mt", required=True)
    p.add_argument("--src")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_ensemble_sent_apply)

    doc = _leaf(sub, "doc", help="document-level pipeline").add_subparsers(
        dest="subcommand", required=True
    )
    p = _leaf(doc, "tags")
    p.add_argument("--docs", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=_cmd_doc_tags)
    p = _leaf(doc, "spans")
    p.add_argument("--docs", required=True)
    p.add_argument("--tags-dir", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_doc_spans)
    p = _leaf(doc, "mqm")
    p.add_argument("--docs", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_doc_mqm)
    p = _leaf(doc, "features")
    p.add_argument("--docs", required=True)
    p.add_argument("--tags-dir", required=True)
    p.add_argument("--sent-mqm-dir", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_doc_features)
    p = _leaf(doc, "fit")
    p.add_argument("--features", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_doc_fit)
    p = _leaf(doc, "apply")
    p.add_argument("--features", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_doc_apply)
    p = _leaf(doc, "eval")
    p.add_argument("--docs")
    p.add_argument("--gold-annotations")
    p.add_argument("--pred-annotations")
    p.add_argument("--gold-mqm")
    p.add_argument("--pred-mqm")
    p.set_defaults(handler=_cmd_doc_eval)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
