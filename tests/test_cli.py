import subprocess
import sys

import pytest

from qestack.cli import main
from qestack.corpus import Tag, load_corpus, read_prob_lines, read_score_lines
from qestack.labeler import label_corpus

from conftest import random_corpus, random_sentence

OK, BAD = Tag.OK, Tag.BAD


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- evaluate -----------------------------------------------------------------


def test_evaluate_prints_all_metrics(tmp_path, capsys):
    gold = write(tmp_path / "g.tags", "OK OK OK BAD OK\nOK OK OK\n")
    pred = write(tmp_path / "p.tags", "OK OK OK BAD OK\nOK BAD OK\n")
    code, out, _ = run(capsys, "--format", "kv", "evaluate", "--gold", gold, "--pred", pred)
    assert code == 0
    values = dict(line.split("=") for line in out.strip().splitlines())
    assert set(values) == {"f1_ok", "f1_bad", "f1_mult", "mcc"}
    assert 0.0 <= float(values["f1_mult"]) <= 1.0


def test_evaluate_slices_streams_from_interleaved_files(tmp_path, capsys):
    gold = write(tmp_path / "g.tags", "OK BAD OK OK BAD\n")
    pred = write(tmp_path / "p.tags", "OK BAD OK OK OK\n")
    code, out, _ = run(capsys, "--format", "kv", "evaluate", "--gold", gold, "--pred", pred, "--stream", "words")
    assert code == 0
    # word stream is identical in both files
    assert "f1_mult=1.000000" in out
    code, out, _ = run(capsys, "--format", "kv", "evaluate", "--gold", gold, "--pred", pred, "--stream", "gaps")
    assert "f1_mult=1.000000" not in out


def test_evaluate_thresholds_probability_predictions(tmp_path, capsys):
    gold = write(tmp_path / "g.tags", "OK BAD OK\n")
    pred = write(tmp_path / "p.probs", "0.1 0.9 0.2\n")
    code, out, _ = run(capsys, "--format", "kv", "evaluate", "--gold", gold, "--pred", pred)
    assert code == 0
    assert "f1_mult=1.000000" in out


def test_evaluate_sentence_stream_reports_pearson(tmp_path, capsys):
    gold = write(tmp_path / "g.hter", "0.0\n0.5\n1.0\n")
    pred = write(tmp_path / "p.scores", "0.1\n0.4\n0.9\n")
    code, out, _ = run(capsys, "--format", "kv", "evaluate", "--gold", gold, "--pred", pred, "--stream", "sentence")
    assert code == 0
    assert out.startswith("pearson=")


def test_length_mismatch_exits_one_and_names_file_and_line(tmp_path, capsys):
    gold = write(tmp_path / "g.tags", "OK BAD OK\n")
    pred = write(tmp_path / "p.tags", "OK BAD\n")
    code, _, err = run(capsys, "evaluate", "--gold", gold, "--pred", pred)
    assert code == 1
    assert "p.tags" in err
    assert "1" in err


def test_missing_file_exits_two(tmp_path, capsys):
    gold = write(tmp_path / "g.tags", "OK BAD OK\n")
    code, _, err = run(capsys, "evaluate", "--gold", gold, "--pred", str(tmp_path / "none.tags"))
    assert code == 2


def test_usage_error_exits_one(capsys):
    assert main([]) == 1
    assert main(["evaluate"]) == 1
    assert main(["no-such-command"]) == 1


def test_version_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "qestack", "--version"], capture_output=True, text=True
    )
    assert result.returncode == 0
    assert result.stdout.strip().startswith("qe-stack")


# --- make-labels -----------------------------------------------------------------


def corpus_files(tmp_path, rng, n=12):
    corpus = random_corpus(rng, n)
    paths = {
        "mt": write(tmp_path / "c.mt", "".join(e.mt.text + "\n" for e in corpus)),
        "pe": write(tmp_path / "c.pe", "".join(e.pe.text + "\n" for e in corpus)),
        "src": write(tmp_path / "c.src", "".join(e.src.text + "\n" for e in corpus)),
        "align": write(
            tmp_path / "c.align",
            "".join(" ".join(f"{i}-{j}" for i, j in sorted(e.alignments)) + "\n" for e in corpus),
        ),
    }
    return corpus, paths


def test_make_labels_outputs_match_the_library(tmp_path, capsys, rng):
    corpus, paths = corpus_files(tmp_path, rng)
    prefix = tmp_path / "labels"
    code, _, _ = run(
        capsys,
        "make-labels",
        "--mt", paths["mt"], "--pe", paths["pe"],
        "--src", paths["src"], "--align", paths["align"],
        "--out-prefix", prefix,
    )
    assert code == 0
    reloaded = load_corpus(
        mt=paths["mt"], src=paths["src"],
        tags=f"{prefix}.tags", source_tags=f"{prefix}.source_tags", hter=f"{prefix}.hter",
        align=paths["align"],
    )
    expected = label_corpus(load_corpus(mt=paths["mt"], pe=paths["pe"], src=paths["src"], align=paths["align"]))
    for got, want in zip(reloaded, expected):
        assert got.target_tags == want.target_tags
        assert got.source_tags == want.source_tags
        assert got.hter == want.hter
    assert (tmp_path / "labels.run.cfg").exists()


def test_reruns_are_byte_identical(tmp_path, capsys, rng):
    _, paths = corpus_files(tmp_path, rng)
    outputs = {}
    for attempt in ("a", "b"):
        prefix = tmp_path / f"out{attempt}"
        code, _, _ = run(
            capsys, "--seed", "9",
            "make-labels", "--mt", paths["mt"], "--pe", paths["pe"], "--out-prefix", prefix,
        )
        assert code == 0
        outputs[attempt] = (prefix.with_suffix(".tags").read_bytes(), (tmp_path / f"out{attempt}.hter").read_bytes())
    assert outputs["a"] == outputs["b"]


# --- linear ----------------------------------------------------------------------


def label_files(tmp_path, capsys, rng, n=30):
    corpus, paths = corpus_files(tmp_path, rng, n)
    prefix = tmp_path / "gold"
    assert run(
        capsys, "make-labels",
        "--mt", paths["mt"], "--pe", paths["pe"],
        "--src", paths["src"], "--align", paths["align"],
        "--out-prefix", prefix,
    )[0] == 0
    paths["tags"] = f"{prefix}.tags"
    paths["source_tags"] = f"{prefix}.source_tags"
    paths["hter"] = f"{prefix}.hter"
    return paths


def test_linear_train_predict_jackknife(tmp_path, capsys, rng):
    paths = label_files(tmp_path, capsys, rng)
    model = tmp_path / "model.txt"
    code, _, _ = run(
        capsys, "linear", "train",
        "--mt", paths["mt"], "--src", paths["src"], "--align", paths["align"],
        "--tags", paths["tags"], "--model", model, "--epochs", "2",
    )
    assert code == 0
    assert model.exists()

    out = tmp_path / "pred"
    code, _, _ = run(
        capsys, "linear", "predict",
        "--mt", paths["mt"], "--src", paths["src"], "--align", paths["align"],
        "--model", model, "--out-prefix", out,
    )
    assert code == 0
    mt_lengths = [len(line.split()) for line in open(paths["mt"])]
    probs = read_prob_lines(f"{out}.probs")
    assert [len(row) for row in probs] == mt_lengths

    jk = tmp_path / "jk"
    code, _, _ = run(
        capsys, "linear", "jackknife",
        "--mt", paths["mt"], "--src", paths["src"], "--align", paths["align"],
        "--tags", paths["tags"], "--out-prefix", jk, "--epochs", "1", "--k", "3",
    )
    assert code == 0
    assert [len(row) for row in read_prob_lines(f"{jk}.probs")] == mt_lengths


def test_jackknife_with_more_folds_than_sentences_is_one_error_line(tmp_path, capsys, rng):
    paths = label_files(tmp_path, capsys, rng, n=2)
    code, _, err = run(
        capsys, "linear", "jackknife",
        "--mt", paths["mt"], "--tags", paths["tags"], "--out-prefix", tmp_path / "jk", "--k", "5",
    )
    assert code == 1
    assert err == "error: cannot split 2 sentences into 5 folds\n"


def assert_one_error_line(code, err, *fragments):
    assert code == 1
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    for fragment in fragments:
        assert fragment in lines[0]


def test_jackknife_with_two_jobs_writes_the_files_of_one_job(tmp_path, capsys, rng):
    paths = label_files(tmp_path, capsys, rng, n=12)
    outputs = []
    for jobs in ("1", "2"):
        prefix = tmp_path / f"jk{jobs}"
        code, _, _ = run(
            capsys, "--jobs", jobs, "linear", "jackknife",
            "--mt", paths["mt"], "--src", paths["src"], "--align", paths["align"],
            "--tags", paths["tags"], "--out-prefix", prefix, "--epochs", "2", "--k", "3",
        )
        assert code == 0
        outputs.append([(tmp_path / f"jk{jobs}{suffix}").read_bytes() for suffix in (".tags", ".probs", ".run.cfg")])
    assert outputs[0] == outputs[1]


def test_evaluate_scores_the_word_and_gap_tags_linear_predict_writes(tmp_path, capsys, rng):
    paths = label_files(tmp_path, capsys, rng, n=12)
    for stream in ("words", "gaps"):
        model = tmp_path / f"{stream}.model"
        out = tmp_path / f"{stream}.pred"
        common = ["--mt", paths["mt"], "--src", paths["src"], "--align", paths["align"], "--stream", stream]
        assert run(capsys, "linear", "train", *common, "--tags", paths["tags"], "--model", model, "--epochs", "1")[0] == 0
        assert run(capsys, "linear", "predict", *common, "--model", model, "--out-prefix", out)[0] == 0
        rows = [line.split() for line in (tmp_path / f"{stream}.pred.tags").read_text().splitlines()]
        # the same predictions interleaved with constant tags for the other stream
        if stream == "words":
            interleaved = [["OK"] + [t for tag in row for t in (tag, "OK")] for row in rows]
        else:
            interleaved = [[row[0]] + [t for tag in row[1:] for t in ("OK", tag)] for row in rows]
        full = write(tmp_path / f"{stream}.full.tags", "".join(" ".join(r) + "\n" for r in interleaved))
        code, own, err = run(capsys, "evaluate", "--gold", paths["tags"], "--pred", f"{out}.tags", "--stream", stream)
        assert code == 0, err
        assert run(capsys, "evaluate", "--gold", paths["tags"], "--pred", full, "--stream", stream)[1] == own


def test_extra_column_with_a_wrong_token_count_names_file_and_line(tmp_path, capsys, rng):
    paths = label_files(tmp_path, capsys, rng, n=6)
    lines = [" ".join("X" for _ in line.split()) for line in (tmp_path / "c.mt").read_text().splitlines()]
    good = write(tmp_path / "good.extra", "".join(line + "\n" for line in lines))
    lines[2] += " X"
    bad = write(tmp_path / "bad.extra", "".join(line + "\n" for line in lines))
    common = ["linear", "train", "--mt", paths["mt"], "--tags", paths["tags"], "--epochs", "1"]
    assert run(capsys, *common, "--extra", good, "--model", tmp_path / "m1")[0] == 0
    code, _, err = run(capsys, *common, "--extra", bad, "--model", tmp_path / "m2")
    assert_one_error_line(code, err, f"{bad}:3:")


def test_zero_epochs_is_one_error_line(tmp_path, capsys, rng):
    paths = label_files(tmp_path, capsys, rng, n=4)
    code, _, err = run(
        capsys, "linear", "train", "--mt", paths["mt"], "--tags", paths["tags"],
        "--model", tmp_path / "m", "--epochs", "0",
    )
    assert_one_error_line(code, err, "epochs")


def test_threshold_outside_the_unit_interval_is_one_error_line(tmp_path, capsys):
    gold = write(tmp_path / "g.tags", "OK BAD OK\n")
    pred = write(tmp_path / "p.probs", "0.1 0.9 0.2\n")
    code, _, err = run(capsys, "evaluate", "--gold", gold, "--pred", pred, "--threshold", "2")
    assert_one_error_line(code, err, "threshold 2.0")


def test_malformed_linear_model_line_names_file_and_line(tmp_path, capsys, rng):
    paths = label_files(tmp_path, capsys, rng, n=4)
    model = write(tmp_path / "m.model", "12\t0.5\nabc\t1.0\n")
    code, _, err = run(
        capsys, "linear", "predict", "--mt", paths["mt"], "--model", model, "--out-prefix", tmp_path / "p",
    )
    assert_one_error_line(code, err, f"{model}:2:")


def test_linear_predict_with_a_large_gamma_keeps_probabilities_in_the_unit_interval(tmp_path, capsys):
    mt = write(tmp_path / "c.mt", "a b c d\nb c e\na d e f\n")
    pe = write(tmp_path / "c.pe", "a x c d\nb c e\ny d e f\n")
    assert run(capsys, "make-labels", "--mt", mt, "--pe", pe, "--out-prefix", tmp_path / "gold")[0] == 0
    model = tmp_path / "m.model"
    tags = tmp_path / "gold.tags"
    assert run(capsys, "linear", "train", "--mt", mt, "--tags", tags, "--model", model, "--epochs", "3")[0] == 0
    # OK margins reach far below -709 / 5000, where exp(-gamma * margin) overflows
    code, _, err = run(capsys, "linear", "predict", "--mt", mt, "--model", model, "--gamma", "5000", "--out-prefix", tmp_path / "p")
    assert code == 0, err
    probs = [p for row in read_prob_lines(tmp_path / "p.probs") for p in row]
    assert probs and all(0.0 <= p <= 1.0 for p in probs)


def test_linear_predict_on_the_source_stream_without_source_is_one_error_line(tmp_path, capsys, rng):
    paths = label_files(tmp_path, capsys, rng, n=4)
    model = write(tmp_path / "m.model", "12\t0.5\n")
    code, _, err = run(
        capsys, "linear", "predict", "--mt", paths["mt"], "--stream", "source",
        "--model", model, "--out-prefix", tmp_path / "p",
    )
    assert_one_error_line(code, err, "--src")


def test_linear_gap_and_source_streams(tmp_path, capsys, rng):
    paths = label_files(tmp_path, capsys, rng, n=16)
    gap_model = tmp_path / "gaps.model"
    code, _, _ = run(
        capsys, "linear", "train",
        "--mt", paths["mt"], "--tags", paths["tags"],
        "--stream", "gaps", "--model", gap_model, "--epochs", "1",
    )
    assert code == 0

    src_model = tmp_path / "source.model"
    code, _, _ = run(
        capsys, "linear", "train",
        "--mt", paths["mt"], "--src", paths["src"], "--align", paths["align"],
        "--source-tags", paths["source_tags"],
        "--stream", "source", "--model", src_model, "--epochs", "1",
    )
    assert code == 0

    out = tmp_path / "gap_pred"
    code, _, _ = run(
        capsys, "linear", "predict",
        "--mt", paths["mt"], "--model", gap_model, "--stream", "gaps", "--out-prefix", out,
    )
    assert code == 0
    mt_lengths = [len(line.split()) for line in open(paths["mt"])]
    assert [len(row) for row in read_prob_lines(f"{out}.probs")] == [n + 1 for n in mt_lengths]


def test_linear_train_is_deterministic(tmp_path, capsys, rng):
    paths = label_files(tmp_path, capsys, rng, n=14)
    models = []
    for name in ("m1", "m2"):
        model = tmp_path / name
        code, _, _ = run(
            capsys, "--seed", "5", "linear", "train",
            "--mt", paths["mt"], "--tags", paths["tags"], "--model", model, "--epochs", "2",
        )
        assert code == 0
        models.append(model.read_bytes())
    assert models[0] == models[1]


def test_config_file_sets_training_options(tmp_path, capsys, rng):
    paths = label_files(tmp_path, capsys, rng, n=10)
    config = write(tmp_path / "run.cfg", "epochs=1\nC=0.5\nbins=5\n# comment\n")
    model = tmp_path / "m.model"
    code, _, _ = run(
        capsys, "--config", config, "linear", "train",
        "--mt", paths["mt"], "--tags", paths["tags"], "--model", model,
    )
    assert code == 0
    snapshot = (tmp_path / "m.model.run.cfg").read_text()
    assert "epochs=1" in snapshot
    assert "C=0.5" in snapshot
    assert "bins=5" in snapshot


def test_unknown_config_key_is_rejected(tmp_path, capsys, rng):
    paths = label_files(tmp_path, capsys, rng, n=10)
    config = write(tmp_path / "run.cfg", "epoochs=1\n")
    code, _, err = run(
        capsys, "--config", config, "linear", "train",
        "--mt", paths["mt"], "--tags", paths["tags"], "--model", tmp_path / "m",
    )
    assert code == 1
    assert "epoochs" in err


# --- ensembles ---------------------------------------------------------------------


def prediction_files(tmp_path, rng, mt_path, n_systems=3):
    lengths = [len(line.split()) for line in open(mt_path)]
    lines = []
    for s in range(n_systems):
        rows = [[round(rng.random(), 4) for _ in range(n)] for n in lengths]
        path = tmp_path / f"sys{s}.probs"
        write(path, "".join(" ".join(repr(p) for p in row) + "\n" for row in rows))
        scores = [round(rng.random(), 4) for _ in lengths]
        score_path = tmp_path / f"sys{s}.scores"
        write(score_path, "".join(f"{v!r}\n" for v in scores))
        lines.append(f"sys{s}\twords={path.name}\tsentences={score_path.name}")
    return write(tmp_path / "manifest.tsv", "".join(line + "\n" for line in lines))


def test_ensemble_word_fit_apply_kfold(tmp_path, capsys, rng):
    paths = label_files(tmp_path, capsys, rng, n=20)
    manifest = prediction_files(tmp_path, rng, paths["mt"])
    weights = tmp_path / "weights.tsv"
    code, out, _ = run(
        capsys, "--format", "kv", "ensemble-word", "fit",
        "--manifest", manifest, "--mt", paths["mt"], "--gold", paths["tags"],
        "--stream", "words", "--out", weights,
    )
    assert code == 0
    assert "dev_f1_mult=" in out
    assert weights.exists()

    combined = tmp_path / "combined.probs"
    code, _, _ = run(
        capsys, "ensemble-word", "apply",
        "--manifest", manifest, "--mt", paths["mt"], "--weights", weights,
        "--stream", "words", "--out", combined,
    )
    assert code == 0
    mt_lengths = [len(line.split()) for line in open(paths["mt"])]
    assert [len(r) for r in read_prob_lines(combined)] == mt_lengths

    code, out, _ = run(
        capsys, "--format", "kv", "ensemble-word", "kfold",
        "--manifest", manifest, "--mt", paths["mt"], "--gold", paths["tags"],
        "--stream", "words", "--k", "4",
    )
    assert code == 0
    assert "kfold_f1_mult=" in out


@pytest.mark.parametrize(
    "line, fragment",
    [("sys0\t1.5", "weight 1.5 outside [0, 1]"), ("sys0\tabc", "malformed"), ("sys0", "malformed")],
)
def test_bad_weights_line_names_file_and_line(tmp_path, capsys, rng, line, fragment):
    paths = label_files(tmp_path, capsys, rng, n=4)
    manifest = prediction_files(tmp_path, rng, paths["mt"], n_systems=2)
    weights = write(tmp_path / "w.tsv", "sys1\t0.5\n" + line + "\n")
    code, _, err = run(
        capsys, "ensemble-word", "apply", "--manifest", manifest, "--mt", paths["mt"],
        "--weights", weights, "--out", tmp_path / "out.probs",
    )
    assert_one_error_line(code, err, f"{weights}:2:", fragment)


def test_kfold_with_more_folds_than_sentences_is_one_error_line(tmp_path, capsys, rng):
    paths = label_files(tmp_path, capsys, rng, n=2)
    manifest = prediction_files(tmp_path, rng, paths["mt"])
    code, _, err = run(
        capsys, "ensemble-word", "kfold",
        "--manifest", manifest, "--mt", paths["mt"], "--gold", paths["tags"], "--k", "5",
    )
    assert code == 1
    assert err == "error: cannot split 2 sentences into 5 folds\n"


def test_ensemble_sent_fit_apply(tmp_path, capsys, rng):
    paths = label_files(tmp_path, capsys, rng, n=20)
    manifest = prediction_files(tmp_path, rng, paths["mt"])
    model = tmp_path / "sent.model"
    code, out, _ = run(
        capsys, "--format", "kv", "ensemble-sent", "fit",
        "--manifest", manifest, "--mt", paths["mt"], "--gold-scores", paths["hter"],
        "--out", model,
    )
    assert code == 0
    assert "chosen_lambda=" in out

    scores = tmp_path / "sent.scores"
    code, _, _ = run(
        capsys, "ensemble-sent", "apply",
        "--manifest", manifest, "--mt", paths["mt"], "--model", model, "--out", scores,
    )
    assert code == 0
    values = read_score_lines(scores)
    assert len(values) == 20
    assert all(0.0 <= v <= 1.0 for v in values)


@pytest.mark.parametrize("command", ["ensemble-sent", "doc"])
def test_ridge_model_with_an_unparsable_lambda_is_one_error_line(tmp_path, capsys, rng, command):
    model = write(tmp_path / "r.model", "intercept\t0.5\nlambda\tx\ncoef:f0\t0.1\n")
    if command == "ensemble-sent":
        paths = label_files(tmp_path, capsys, rng, n=4)
        manifest = prediction_files(tmp_path, rng, paths["mt"])
        argv = ["ensemble-sent", "apply", "--manifest", manifest, "--mt", paths["mt"]]
    else:
        features = write(tmp_path / "f.tsv", "doc0\t0.1\t0.2\t0.3\t0.4\n")
        argv = ["doc", "apply", "--features", features]
    code, _, err = run(capsys, *argv, "--model", model, "--out", tmp_path / "out")
    assert_one_error_line(code, err, f"{model}:2:")


# --- doc pipeline ---------------------------------------------------------------------


def doc_fixture(tmp_path, rng, n_docs=6, with_annotations=True):
    lines = []
    annotation_lines = []
    for d in range(n_docs):
        doc_id = f"doc{d}"
        sentences = [
            " ".join(random_sentence(rng, 2, 6).tokens) for _ in range(rng.randint(1, 3))
        ]
        write(tmp_path / f"{doc_id}.txt", "".join(s + "\n" for s in sentences))
        lines.append(f"{doc_id}\t{doc_id}.txt")
        if with_annotations:
            for sent_idx, sentence in enumerate(sentences):
                tokens = sentence.split()
                if rng.random() < 0.8:
                    annotation_lines.append(
                        f"{doc_id}\tmajor\t{sent_idx}:0-{len(tokens[0])}"
                    )
                if len(tokens) > 1 and rng.random() < 0.5:
                    # whitespace-border span marks the gap between tokens 0 and 1
                    gap_start = len(tokens[0])
                    annotation_lines.append(
                        f"{doc_id}\tminor\t{sent_idx}:{gap_start}-{gap_start + 1}"
                    )
    manifest = write(tmp_path / "docs.tsv", "".join(line + "\n" for line in lines))
    annotations = write(tmp_path / "anns.tsv", "".join(line + "\n" for line in annotation_lines))
    return manifest, annotations


def test_doc_pipeline_round_trip(tmp_path, capsys, rng):
    manifest, annotations = doc_fixture(tmp_path, rng)
    tags_dir = tmp_path / "tags"
    assert run(capsys, "doc", "tags", "--docs", manifest, "--annotations", annotations, "--out-dir", tags_dir)[0] == 0

    spans = tmp_path / "pred.anns"
    assert run(capsys, "doc", "spans", "--docs", manifest, "--tags-dir", tags_dir, "--out", spans)[0] == 0

    code, out, _ = run(
        capsys, "--format", "kv", "doc", "eval",
        "--docs", manifest, "--gold-annotations", annotations, "--pred-annotations", spans,
    )
    assert code == 0
    # single-token major annotations survive the round trip exactly
    assert "f1_ann=1.000000" in out


def test_doc_mqm_features_fit_apply_eval(tmp_path, capsys, rng):
    manifest, annotations = doc_fixture(tmp_path, rng, n_docs=8)
    tags_dir = tmp_path / "tags"
    run(capsys, "doc", "tags", "--docs", manifest, "--annotations", annotations, "--out-dir", tags_dir)

    mqm_dir = tmp_path / "sentmqm"
    mqm_dir.mkdir()
    for line in open(manifest):
        doc_id, rel = line.strip().split("\t")
        n_sentences = len(open(tmp_path / rel).read().splitlines())
        write(mqm_dir / f"{doc_id}.mqm", "".join(f"{rng.uniform(0, 100)!r}\n" for _ in range(n_sentences)))

    gold_mqm = tmp_path / "gold.mqm"
    assert run(capsys, "doc", "mqm", "--docs", manifest, "--annotations", annotations, "--out", gold_mqm)[0] == 0

    features = tmp_path / "features.tsv"
    assert run(
        capsys, "doc", "features",
        "--docs", manifest, "--tags-dir", tags_dir, "--sent-mqm-dir", mqm_dir, "--out", features,
    )[0] == 0

    model = tmp_path / "doc.model"
    assert run(capsys, "doc", "fit", "--features", features, "--gold", gold_mqm, "--out", model)[0] == 0

    pred_mqm = tmp_path / "pred.mqm"
    assert run(capsys, "doc", "apply", "--features", features, "--model", model, "--out", pred_mqm)[0] == 0

    code, out, _ = run(
        capsys, "--format", "kv", "doc", "eval",
        "--gold-mqm", gold_mqm, "--pred-mqm", pred_mqm,
    )
    assert code == 0
    assert out.startswith("mqm_pearson=")
