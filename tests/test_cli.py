import hashlib
import math
import random
import subprocess
import sys

from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qestack import cli, linearqe
from qestack.cli import main
from qestack.config import _parse_bool, _parse_floats, _parse_optional_float
from qestack.corpus import load_corpus, read_prob_lines, read_score_lines
from qestack.doclevel import DOC_FEATURES
from qestack.errors import DegenerateInput, InvalidInput
from qestack.labeler import label_corpus
from qestack.metrics import pearson

from conftest import TABLE_DEFECTS, random_corpus, random_sentence, table_defect

OK, BAD = False, True


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def text_lines(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read().splitlines()


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


def test_evaluate_on_a_file_that_is_not_utf8_is_one_error_line(tmp_path, capsys):
    gold = write(tmp_path / "g.tags", "OK BAD OK\nOK OK OK\n")
    pred = tmp_path / "p.tags"
    pred.write_bytes(b"OK BAD OK\nOK B\xffD OK\n")
    code, _, err = run(capsys, "evaluate", "--gold", gold, "--pred", pred)
    assert_one_error_line(code, err, f"{pred}:2:", "not UTF-8")
    code, _, err = run(capsys, "evaluate", "--gold", pred, "--pred", gold)
    assert_one_error_line(code, err, f"{pred}:2:", "not UTF-8")


def test_config_file_that_is_not_utf8_is_one_error_line(tmp_path, capsys):
    gold = write(tmp_path / "g.tags", "OK BAD OK\n")
    pred = write(tmp_path / "p.probs", "0.1 0.9 0.2\n")
    config = tmp_path / "run.cfg"
    config.write_bytes(b"threshold=0.5\n# \xe9t\xe9\n")
    code, _, err = run(capsys, "--config", config, "evaluate", "--gold", gold, "--pred", pred)
    assert_one_error_line(code, err, f"{config}:2:", "not UTF-8")


# --- make-labels -----------------------------------------------------------------


def corpus_files(tmp_path, rng, n=12):
    corpus = random_corpus(rng, n)
    paths = {
        name: write(tmp_path / f"c.{name}", "".join(s.text + "\n" for s in getattr(corpus, name)))
        for name in ("mt", "pe", "src")
    }
    pairs, offsets = corpus.alignments
    fields = [f"{i}-{j}" for i, j in pairs.tolist()]
    paths["align"] = write(
        tmp_path / "c.align", "".join(" ".join(fields[lo:hi]) + "\n" for lo, hi in zip(offsets, offsets[1:]))
    )
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
    assert reloaded.tags == expected.tags
    assert reloaded.source_tags == expected.source_tags
    assert reloaded.hter.tolist() == expected.hter.tolist()
    assert (tmp_path / "labels.run.cfg").exists()


def alignment_argv(tmp_path, command, text, align):
    """``make-labels`` or ``linear predict`` with ``text`` as every sentence file."""
    if command == "make-labels":
        return ["make-labels", "--mt", text, "--pe", text, "--src", text, "--align", align,
                "--out-prefix", tmp_path / "labels"]
    model = write(tmp_path / "m.model", "12\t0.5\n")
    return ["linear", "predict", "--mt", text, "--src", text, "--align", align,
            "--model", model, "--out-prefix", tmp_path / "p"]


_ALIGNMENT_ERRORS = {
    "out-of-range": ("0-0 2-1", "alignment 2-1 out of range for lengths 2/2"),
    # the first of the line's pairs in sorted order
    "two-out-of-range": ("0-0 3-1 2-0", "alignment 2-0 out of range for lengths 2/2"),
    "colon": ("0:0", "invalid alignment pair '0:0'"),
    "no-right-index": ("0-0 3-", "invalid alignment pair '3-'"),
    "no-left-index": ("-3", "invalid alignment pair '-3'"),
    # str.isdigit takes both, int() the Arabic-Indic one
    "arabic-indic-one": ("١-0", "invalid alignment pair '١-0'"),
    "superscript-two": ("1-²", "invalid alignment pair '1-²'"),
    "beyond-int64": ("0-0 99999999999999999999-1", "alignment 99999999999999999999-1 out of range for lengths 2/2"),
}


@pytest.mark.parametrize("command", ["make-labels", "linear predict"])
@pytest.mark.parametrize("line, message", _ALIGNMENT_ERRORS.values(), ids=_ALIGNMENT_ERRORS.keys())
def test_a_bad_alignment_line_is_one_error_line_naming_the_first(tmp_path, capsys, command, line, message):
    text = write(tmp_path / "c.mt", "a b\nc d\ne f\n")
    # line 3 is out of range too: the first bad line in file order gives the error
    align = write(tmp_path / "c.align", f"0-0 1-1\n{line}\n0-7\n")
    code, out, err = run(capsys, *alignment_argv(tmp_path, command, text, align))
    assert (code, out, err) == (1, "", f"error: {align}:2: {message}\n")


def test_duplicate_alignment_pairs_collapse(tmp_path, capsys):
    mt = write(tmp_path / "c.mt", "a b c\n")
    pe = write(tmp_path / "c.pe", "a x c\n")
    src = write(tmp_path / "c.src", "u v w\n")
    outputs = []
    for name, line in (("dup", "0-0 1-1 0-0 2-2 1-1"), ("plain", "0-0 1-1 2-2")):
        align = write(tmp_path / f"{name}.align", line + "\n")
        prefix = tmp_path / name
        argv = ["make-labels", "--mt", mt, "--pe", pe, "--src", src, "--align", align, "--out-prefix", prefix]
        assert run(capsys, *argv)[0] == 0
        outputs.append((tmp_path / f"{name}.source_tags").read_text())
    assert outputs == ["OK BAD OK\n"] * 2


@pytest.mark.parametrize(
    "data, message",
    [
        (b"a b\n\nc d\n", "empty line"),
        ("a b\n\u3000\xa0\t\x1f\nc d\n".encode(), "empty line"),  # Unicode whitespace only
        (b"a b\nc \xff\nc d\n", "not UTF-8: invalid start byte (byte 0xff)"),
    ],
    ids=["blank", "whitespace", "not-utf8"],
)
def test_a_bad_sentence_line_is_one_error_line_naming_it(tmp_path, capsys, data, message):
    mt = tmp_path / "c.mt"
    mt.write_bytes(data)
    pe = write(tmp_path / "c.pe", "a b\nc d\ne f\n")
    code, out, err = run(capsys, "make-labels", "--mt", mt, "--pe", pe, "--out-prefix", tmp_path / "labels")
    assert (code, out, err) == (1, "", f"error: {mt}:2: {message}\n")


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
    mt_lengths = [len(line.split()) for line in text_lines(paths["mt"])]
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


@pytest.mark.parametrize(
    "command, option, value, fragment",
    [
        ("train", "--C", "nan", "C must be positive"),
        ("jackknife", "--C", "nan", "C must be positive"),
        ("predict", "--gamma", "nan", "gamma must be finite"),
        ("jackknife", "--gamma", "inf", "gamma must be finite"),
    ],
)
def test_a_linear_option_that_is_not_a_number_in_range_is_one_error_line(
    tmp_path, capsys, rng, command, option, value, fragment
):
    paths = label_files(tmp_path, capsys, rng, n=6)
    common = ["--mt", paths["mt"], "--tags", paths["tags"], "--epochs", "1"]
    model = tmp_path / "m.model"
    assert run(capsys, "linear", "train", *common, "--model", model)[0] == 0
    outputs = {"train": ["--model", tmp_path / "m2.model"], "predict": ["--model", model, "--out-prefix", tmp_path / "p"]}
    argv = ["linear", command, *common, *outputs.get(command, ["--out-prefix", tmp_path / "p", "--k", "2"])]
    code, _, err = run(capsys, *argv, option, value)
    assert_one_error_line(code, err, fragment)
    assert not (tmp_path / "m2.model").exists() and not (tmp_path / "p.probs").exists()


def test_a_model_weight_that_is_not_finite_is_one_error_line(tmp_path, capsys, rng, monkeypatch):
    paths = label_files(tmp_path, capsys, rng, n=4)
    model = write(tmp_path / "m.model", "12\t0.5\n13\tnan\n")
    code, _, err = run(
        capsys, "linear", "predict", "--mt", paths["mt"], "--model", model, "--out-prefix", tmp_path / "p",
    )
    assert_one_error_line(code, err)
    assert err == f"error: {model}:2: value nan is not finite\n"
    monkeypatch.setattr(linearqe, "mira_train", lambda *args, **kwargs: linearqe.LinearModel({12: math.inf}))
    model = tmp_path / "inf.model"
    code, _, err = run(capsys, "linear", "train", "--mt", paths["mt"], "--tags", paths["tags"], "--model", model)
    assert_one_error_line(code, err)
    assert err == f"error: {model}:1: value inf is not finite\n"
    assert not model.exists()


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
    mt_lengths = [len(line.split()) for line in text_lines(paths["mt"])]
    assert [len(row) for row in read_prob_lines(f"{out}.probs")] == [n + 1 for n in mt_lengths]


def test_linear_train_and_predict_with_stacked_systems_keep_their_bytes(tmp_path, capsys):
    rng = random.Random(31)
    paths = label_files(tmp_path, capsys, rng, n=16)
    manifest = prediction_files(tmp_path, rng, paths["mt"], n_systems=2)
    common = ["--mt", paths["mt"], "--src", paths["src"], "--align", paths["align"]]
    train = ["linear", "train", *common, "--tags", paths["tags"], "--epochs", "3"]
    model = tmp_path / "stacked.model"
    assert run(capsys, *train, "--stacked", manifest, "--model", model)[0] == 0
    out = tmp_path / "stacked"
    assert run(capsys, "linear", "predict", *common, "--stacked", manifest, "--model", model, "--out-prefix", out)[0] == 0
    # the stacked probabilities are features: without them the model differs
    assert run(capsys, *train, "--model", tmp_path / "plain.model")[0] == 0
    assert (tmp_path / "plain.model").read_bytes() != model.read_bytes()
    # sha256 of the bytes written while the streams were tuples of tuples
    assert hashlib.sha256(model.read_bytes()).hexdigest() == (
        "3f1ccc70ba9fb50e695780f16c1b72e86bf205e4778b6a2c232b3e14920942df"
    )
    assert hashlib.sha256(Path(f"{out}.probs").read_bytes()).hexdigest() == (
        "e58eaa6f58997fc4c0cd2265a4be97e633220a895fd8289e93786a6ff5020bff"
    )


def stream_files(tmp_path, rng, paths):
    """A manifest of one system with a words, a gaps and a source stream,
    and one extra column per stream, over the corpus of ``paths``."""
    mt, src = ([len(line.split()) for line in text_lines(paths[side])] for side in ("mt", "src"))
    fields, extra = [], {}
    for stream, counts in (("words", mt), ("gaps", [n + 1 for n in mt]), ("source", src)):
        probs = "".join(" ".join(repr(round(rng.random(), 4)) for _ in range(n)) + "\n" for n in counts)
        fields.append(f"{stream}={Path(write(tmp_path / f'sys.{stream}', probs)).name}")
        column = "".join(" ".join(rng.choice("PQ") for _ in range(n)) + "\n" for n in counts)
        extra[stream] = write(tmp_path / f"{stream}.extra", column)
    return write(tmp_path / "streams.tsv", "sys\t" + "\t".join(fields) + "\n"), extra


@pytest.mark.parametrize("stream", ["words", "gaps", "source"])
def test_linear_commands_build_no_table_from_rows(tmp_path, capsys, monkeypatch, stream):
    # the linear commands read and write columns: build_instances makes the
    # corpus one instance table without a row per sentence, and the tags and
    # probabilities are written from Raggeds
    import qestack.linearqe as linearqe

    built = []
    from_rows = linearqe.InstanceTable.from_rows

    def counting_from_rows(*args, **kwargs):
        built.append(args)
        return from_rows(*args, **kwargs)

    monkeypatch.setattr(linearqe.InstanceTable, "from_rows", counting_from_rows)
    rng = random.Random(41)
    paths = label_files(tmp_path, capsys, rng, n=16)
    manifest, extra = stream_files(tmp_path, rng, paths)
    gold = ["--source-tags", paths["source_tags"]] if stream == "source" else ["--tags", paths["tags"]]
    common = ["--mt", paths["mt"], "--src", paths["src"], "--align", paths["align"], "--stream", stream]
    common += ["--stacked", manifest, "--extra", extra[stream]]
    model, out, jk = tmp_path / "m", tmp_path / "p", tmp_path / "jk"
    assert run(capsys, "linear", "train", *common, *gold, "--epochs", "2", "--model", model)[0] == 0
    assert run(capsys, "linear", "predict", *common, "--model", model, "--out-prefix", out)[0] == 0
    assert run(capsys, "linear", "jackknife", *common, *gold, "--epochs", "2", "--k", "3", "--out-prefix", jk)[0] == 0
    assert built == []
    want = [len(line.split()) for line in text_lines(extra[stream])]
    for prefix in (out, jk):
        assert [len(row) for row in read_prob_lines(f"{prefix}.probs")] == want
        assert [len(line.split()) for line in text_lines(f"{prefix}.tags")] == want


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
    config = write(tmp_path / "run.cfg", "epochs=1\nC=0.5\ngamma=2.0\n# comment\n")
    model = tmp_path / "m.model"
    code, _, _ = run(
        capsys, "--config", config, "linear", "train",
        "--mt", paths["mt"], "--tags", paths["tags"], "--model", model,
    )
    assert code == 0
    snapshot = (tmp_path / "m.model.run.cfg").read_text()
    assert "epochs=1" in snapshot
    assert "C=0.5" in snapshot
    assert "gamma=2.0" in snapshot
    assert not [line for line in snapshot.splitlines() if line.startswith(("use_", "bins", "average"))]


def test_unknown_config_key_is_rejected(tmp_path, capsys, rng):
    paths = label_files(tmp_path, capsys, rng, n=10)
    config = write(tmp_path / "run.cfg", "epoochs=1\n")
    code, _, err = run(
        capsys, "--config", config, "linear", "train",
        "--mt", paths["mt"], "--tags", paths["tags"], "--model", tmp_path / "m",
    )
    assert code == 1
    assert "epoochs" in err


def test_a_template_toggle_in_a_config_file_is_an_unknown_key(tmp_path, capsys, rng):
    # the linear tagger has one fixed template set; a model file holds only
    # hashed keys, so a toggle set differently at predict time gave wrong probabilities
    paths = label_files(tmp_path, capsys, rng, n=10)
    config = write(tmp_path / "run.cfg", "use_context=false\n")
    code, _, err = run(
        capsys, "--config", config, "linear", "train",
        "--mt", paths["mt"], "--tags", paths["tags"], "--model", tmp_path / "m",
    )
    assert code == 1
    assert err == "error: unknown config keys: use_context\n"


@pytest.mark.parametrize(
    "command, setting",
    [("linear", "bins=5"), ("linear", "average=false"), ("make-labels", "cap_hter=false")],
)
def test_a_retired_setting_in_a_config_file_is_an_unknown_key(tmp_path, capsys, rng, command, setting):
    # stacked probabilities always fall into 10 bins, MIRA always averages and
    # HTER is always clamped to [0, 1]; a model file does not record the bins,
    # and an unclamped HTER file was rejected by the toolkit's own readers
    paths = label_files(tmp_path, capsys, rng, n=10)
    config = write(tmp_path / "run.cfg", setting + "\n")
    if command == "linear":
        argv = ["linear", "train", "--mt", paths["mt"], "--tags", paths["tags"], "--model", tmp_path / "m"]
    else:
        argv = ["make-labels", "--mt", paths["mt"], "--pe", paths["pe"], "--out-prefix", tmp_path / "l"]
    code, _, err = run(capsys, "--config", config, *argv)
    assert code == 1
    assert err == f"error: unknown config keys: {setting.split('=')[0]}\n"


def test_make_labels_has_no_no_cap_flag(tmp_path, capsys, rng):
    paths = label_files(tmp_path, capsys, rng, n=10)
    code, _, err = run(
        capsys, "make-labels", "--mt", paths["mt"], "--pe", paths["pe"], "--out-prefix", tmp_path / "l", "--no-cap",
    )
    assert code == 1
    assert err.splitlines()[-1] == "error: unrecognized arguments: --no-cap"
    assert not (tmp_path / "l.hter").exists()


# --- ensembles ---------------------------------------------------------------------


def prediction_files(tmp_path, rng, mt_path, n_systems=3):
    lengths = [len(line.split()) for line in text_lines(mt_path)]
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
    mt_lengths = [len(line.split()) for line in text_lines(paths["mt"])]
    assert [len(r) for r in read_prob_lines(combined)] == mt_lengths

    code, out, _ = run(
        capsys, "--format", "kv", "ensemble-word", "kfold",
        "--manifest", manifest, "--mt", paths["mt"], "--gold", paths["tags"],
        "--stream", "words", "--k", "4",
    )
    assert code == 0
    assert "kfold_f1_mult=" in out


def test_ensemble_word_apply_keeps_a_combination_of_ones_in_the_unit_interval(tmp_path, capsys):
    # once, normalized weights that sum to just above 1 made apply write
    # 1.0000000000000002 where every system says 1.0, a line evaluate rejects
    mt = write(tmp_path / "c.mt", "a b\n")
    lines = []
    for s, row in enumerate(("1.0 0.5", "1.0 0.25", "1.0 0.125")):
        write(tmp_path / f"sys{s}.probs", row + "\n")
        lines.append(f"sys{s}\twords=sys{s}.probs")
    manifest = write(tmp_path / "manifest.tsv", "".join(line + "\n" for line in lines))
    weights = write(tmp_path / "weights.tsv", "sys0\t0.7\nsys1\t0.2\nsys2\t0.1\n")
    combined = tmp_path / "combined.probs"
    argv = ["ensemble-word", "apply", "--manifest", manifest, "--mt", mt, "--weights", weights, "--out", combined]
    assert run(capsys, *argv)[0] == 0
    assert read_prob_lines(combined)[0][0] == 1.0


@pytest.mark.parametrize(
    "line, fragment",
    [
        ("sys0\t1.5", "weight 1.5 outside [0, 1]"),
        ("sys0\tabc", "malformed number 'abc'"),
        ("sys0", "expected a non-empty name and 1 tab-separated value(s)"),
    ],
)
def test_bad_weights_line_names_file_and_line(tmp_path, capsys, rng, line, fragment):
    paths = label_files(tmp_path, capsys, rng, n=4)
    manifest = prediction_files(tmp_path, rng, paths["mt"], n_systems=2)
    weights = write(tmp_path / "w.tsv", "sys1\t0.5\n" + line + "\n")
    code, _, err = run(
        capsys, "ensemble-word", "apply", "--manifest", manifest, "--mt", paths["mt"],
        "--weights", weights, "--out", tmp_path / "out.probs",
    )
    assert_one_error_line(code, err)
    assert err == f"error: {weights}:2: {fragment}\n"


def test_ensemble_word_fit_on_a_probability_file_that_is_not_utf8_is_one_error_line(tmp_path, capsys, rng):
    paths = label_files(tmp_path, capsys, rng, n=4)
    manifest = prediction_files(tmp_path, rng, paths["mt"], n_systems=2)
    probs = tmp_path / "sys1.probs"
    lines = probs.read_bytes().splitlines(keepends=True)
    lines[2] = b"\xff" + lines[2]
    probs.write_bytes(b"".join(lines))
    code, _, err = run(
        capsys, "ensemble-word", "fit", "--manifest", manifest, "--mt", paths["mt"],
        "--gold", paths["tags"], "--out", tmp_path / "w.tsv",
    )
    assert_one_error_line(code, err, f"{probs}:3:", "not UTF-8")


def test_kfold_with_more_folds_than_sentences_is_one_error_line(tmp_path, capsys, rng):
    paths = label_files(tmp_path, capsys, rng, n=2)
    manifest = prediction_files(tmp_path, rng, paths["mt"])
    code, _, err = run(
        capsys, "ensemble-word", "kfold",
        "--manifest", manifest, "--mt", paths["mt"], "--gold", paths["tags"], "--k", "5",
    )
    assert code == 1
    assert err == "error: cannot split 2 sentences into 5 folds\n"


@pytest.mark.parametrize(
    "command, config, fragment",
    [
        ("ensemble-word fit --gold {tags} --out {out} --threshold 2", None, "threshold 2.0 outside [0, 1]"),
        ("ensemble-word kfold --gold {tags} --k 2 --threshold 2", None, "threshold 2.0 outside [0, 1]"),
        ("ensemble-word fit --gold {tags} --out {out}", "threshold=1.5", "threshold 1.5 outside [0, 1]"),
        # the line search is exact, so it has no grid size to configure
        ("ensemble-word kfold --gold {tags} --k 2", "line_samples=51", "error: unknown config keys: line_samples"),
        ("ensemble-sent fit --gold-scores {hter} --out {out}", "lambda_grid=-1,0.1", "lambda -1.0"),
    ],
    ids=["fit-threshold", "kfold-threshold", "fit-config-threshold", "kfold-line-samples", "sent-lambda-grid"],
)
def test_out_of_range_ensemble_option_is_one_error_line(tmp_path, capsys, rng, command, config, fragment):
    paths = label_files(tmp_path, capsys, rng, n=10)
    manifest = prediction_files(tmp_path, rng, paths["mt"])
    argv = [token.format(**paths, out=tmp_path / "out") for token in command.split()]
    if config is not None:
        argv = ["--config", write(tmp_path / "run.cfg", config + "\n"), *argv]
    code, _, err = run(capsys, *argv, "--manifest", manifest, "--mt", paths["mt"])
    assert_one_error_line(code, err, fragment)


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


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_a_sentence_score_that_is_not_finite_is_one_error_line(tmp_path, capsys, rng, value):
    # once, every cross-validation error came out NaN and ridge_cv passed lambda None on
    paths = label_files(tmp_path, capsys, rng, n=12)
    manifest = prediction_files(tmp_path, rng, paths["mt"])
    scores = tmp_path / "sys1.scores"
    lines = text_lines(scores)
    lines[2] = value
    write(scores, "".join(f"{line}\n" for line in lines))
    code, _, err = run(
        capsys, "ensemble-sent", "fit",
        "--manifest", manifest, "--mt", paths["mt"], "--gold-scores", paths["hter"],
        "--out", tmp_path / "sent.model",
    )
    assert_one_error_line(code, err, f"{scores}:3: ", "not finite")


def one_system_files(tmp_path, mt_path, prob, score):
    """A one-system manifest whose every word probability is ``prob`` and
    every sentence score ``score``."""
    lines = text_lines(mt_path)
    write(tmp_path / "one.probs", "".join(" ".join([repr(prob)] * len(line.split())) + "\n" for line in lines))
    write(tmp_path / "one.scores", f"{score!r}\n" * len(lines))
    return write(tmp_path / "one.tsv", "sys0\twords=one.probs\tsentences=one.scores\n")


def test_sentence_scores_whose_normal_equations_overflow_are_one_error_line(tmp_path, capsys, rng):
    # once, the fit warned of an overflow in matmul and wrote a model with a -0.0 coefficient
    paths = label_files(tmp_path, capsys, rng, n=20)
    manifest = one_system_files(tmp_path, paths["mt"], 0.5, 1e300)
    model = tmp_path / "sent.model"
    code, _, err = run(
        capsys, "ensemble-sent", "fit",
        "--manifest", manifest, "--mt", paths["mt"], "--gold-scores", paths["hter"], "--out", model,
    )
    assert_one_error_line(code, err, "normal equations are not finite")
    assert not model.exists()


def test_a_sentence_prediction_that_is_not_finite_is_one_error_line(tmp_path, capsys, rng):
    # once, every such prediction was clipped and written as 1.0 with exit 0
    paths = label_files(tmp_path, capsys, rng, n=6)
    manifest = one_system_files(tmp_path, paths["mt"], 1.0, 1.0)
    model = write(
        tmp_path / "sent.model", "intercept\t0.0\nlambda\t1.0\ncoef:sys0:score\t1e308\ncoef:sys0:words_mean\t1e308\n"
    )
    out = tmp_path / "sent.scores"
    code, _, err = run(capsys, "ensemble-sent", "apply", "--manifest", manifest, "--mt", paths["mt"], "--model", model, "--out", out)
    assert_one_error_line(code, err, f"{out}:1: score inf is not finite")
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("reader", ["evaluate gold", "evaluate pred", "doc features", "doc fit", "doc apply", "doc eval"])
def test_a_score_or_doc_table_value_that_is_not_finite_is_one_error_line(tmp_path, capsys, rng, reader, value):
    # once, evaluate --stream sentence printed "pearson  nan" with exit 0
    # and the doc commands read such values as numbers
    scores = "0.25\n0.5\n{}\n0.75\n"
    table = "doc0\t0.1\t0.2\t0.3\t0.4\ndoc1\t0.5\t{}\t0.7\t0.8\n"
    if reader.startswith("evaluate"):
        bad, good = tmp_path / "bad.hter", write(tmp_path / "good.hter", scores.format("1.0"))
        write(bad, scores.format(value))
        gold, pred = (bad, good) if reader == "evaluate gold" else (good, bad)
        argv = ["evaluate", "--stream", "sentence", "--gold", gold, "--pred", pred]
        line = 3
    elif reader == "doc features":
        manifest, annotations = doc_fixture(tmp_path, rng, n_docs=2)
        tags_dir, mqm_dir = tmp_path / "tags", tmp_path / "sentmqm"
        assert run(capsys, "doc", "tags", "--docs", manifest, "--annotations", annotations, "--out-dir", tags_dir)[0] == 0
        mqm_dir.mkdir()
        write(mqm_dir / "doc0.mqm", "".join("50.0\n" for _ in text_lines(tmp_path / "doc0.txt")))
        bad = mqm_dir / "doc1.mqm"
        write(bad, "".join(f"{value}\n" for _ in text_lines(tmp_path / "doc1.txt")))
        argv = ["doc", "features", "--docs", manifest, "--tags-dir", tags_dir, "--sent-mqm-dir", mqm_dir,
                "--out", tmp_path / "f.tsv"]
        line = 1
    elif reader == "doc eval":
        bad = write(tmp_path / "pred.mqm", f"doc0\t40.0\ndoc1\t{value}\n")
        gold = write(tmp_path / "gold.mqm", "doc0\t50.0\ndoc1\t60.0\n")
        argv = ["doc", "eval", "--gold-mqm", gold, "--pred-mqm", bad]
        line = 2
    else:
        bad = write(tmp_path / "f.tsv", table.format(value))
        if reader == "doc fit":
            gold = write(tmp_path / "gold.mqm", "doc0\t50.0\ndoc1\t60.0\n")
            argv = ["doc", "fit", "--features", bad, "--gold", gold, "--out", tmp_path / "doc.model"]
        else:
            model = write(tmp_path / "r.model", _TABLES["doc_model"])
            argv = ["doc", "apply", "--features", bad, "--model", model, "--out", tmp_path / "pred.mqm"]
        line = 2
    code, out, err = run(capsys, *argv)
    assert out == ""
    assert_one_error_line(code, err, f"{bad}:{line}: ", f"{value} is not finite")


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


@pytest.mark.parametrize("command", ["apply", "eval"])
def test_unparsable_doc_table_value_is_one_error_line(tmp_path, capsys, command):
    if command == "apply":
        table = write(tmp_path / "f.tsv", "doc0\t0.1\tx\t0.3\t0.4\n")
        model = write(tmp_path / "r.model", _TABLES["doc_model"])
        argv = ["doc", "apply", "--features", table, "--model", model, "--out", tmp_path / "out"]
    else:
        table = write(tmp_path / "gold.mqm", "doc0\t50.0\ndoc1\tabc\n")
        pred = write(tmp_path / "pred.mqm", "doc0\t40.0\ndoc1\t60.0\n")
        argv = ["doc", "eval", "--gold-mqm", table, "--pred-mqm", pred]
    code, _, err = run(capsys, *argv)
    assert_one_error_line(code, err, f"{table}:{1 if command == 'apply' else 2}:")


@pytest.mark.parametrize("command", ["fit", "apply", "eval"])
def test_a_duplicate_document_id_in_a_doc_table_is_one_error_line(tmp_path, capsys, command):
    # once, the second line's values silently replaced the first's
    rows = "".join(f"doc{i}\t0.{i}\t0.2\t0.3\t0.4\n" for i in (0, 1, 2, 1, 3, 4, 5))
    table = write(tmp_path / "f.tsv", rows)
    if command == "fit":
        mqm = write(tmp_path / "gold.mqm", "".join(f"doc{i}\t{10.0 * i}\n" for i in range(6)))
        argv = ["doc", "fit", "--features", table, "--gold", mqm, "--out", tmp_path / "r.model"]
    elif command == "apply":
        model = write(tmp_path / "r.model", _TABLES["doc_model"])
        argv = ["doc", "apply", "--features", table, "--model", model, "--out", tmp_path / "out"]
    else:
        table = write(tmp_path / "gold.mqm", "doc0\t50.0\ndoc1\t60.0\ndoc0\t70.0\n")
        pred = write(tmp_path / "pred.mqm", "doc0\t40.0\ndoc1\t60.0\n")
        argv = ["doc", "eval", "--gold-mqm", table, "--pred-mqm", pred]
    code, _, err = run(capsys, *argv)
    line = 3 if command == "eval" else 4
    doc_id = "doc0" if command == "eval" else "doc1"
    assert_one_error_line(code, err)
    assert err == f"error: {table}:{line}: duplicate name '{doc_id}'\n"


@pytest.mark.parametrize("command", [["linear", "train"], ["ensemble-sent", "fit"]], ids="-".join)
def test_seed_in_a_config_file_is_an_unknown_key(tmp_path, capsys, rng, command):
    paths = label_files(tmp_path, capsys, rng, n=10)
    config = write(tmp_path / "run.cfg", "seed=5\n")
    if command[0] == "linear":
        argv = ["--mt", paths["mt"], "--tags", paths["tags"], "--model", tmp_path / "m"]
    else:
        manifest = prediction_files(tmp_path, rng, paths["mt"])
        argv = ["--manifest", manifest, "--mt", paths["mt"], "--gold-scores", paths["hter"], "--out", tmp_path / "m"]
    code, _, err = run(capsys, "--config", config, *command, *argv)
    assert_one_error_line(code, err, "unknown config keys: seed")


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("ensemble-word fit --manifest m --mt x --gold g --out o", "optimize_threshold=maybe",
         "config key 'optimize_threshold': not a boolean: 'maybe'"),
        ("ensemble-word fit --manifest m --mt x --gold g --out o", "tol=x",
         "config key 'tol': could not convert string to float: 'x'"),
        ("ensemble-sent fit --manifest m --mt x --gold-scores g --out o", "lambda_grid=,",
         "config key 'lambda_grid': empty float list"),
        ("ensemble-sent fit --manifest m --mt x --gold-scores g --out o", "lambda_grid=0.1,x",
         "config key 'lambda_grid': could not convert string to float: 'x'"),
        ("doc mqm --docs d --annotations a --out o", "floor=low",
         "config key 'floor': could not convert string to float: 'low'"),
    ],
    ids=["bool", "float", "floats-empty", "floats", "optfloat"],
)
def test_unparsable_config_value_is_one_error_line(tmp_path, capsys, command, config, message):
    code, out, err = run(capsys, "--config", write(tmp_path / "run.cfg", config + "\n"), *command.split())
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_config_value_parsers_raise_invalid_input():
    for parse, text in ((_parse_bool, "maybe"), (_parse_floats, " , "), (_parse_floats, "0.1,x"),
                        (_parse_optional_float, "low")):
        with pytest.raises(InvalidInput):
            parse(text)


def test_doc_fit_on_fewer_than_five_documents_is_one_error_line(tmp_path, capsys):
    features = write(tmp_path / "f.tsv", "doc0\t50.0\t0.1\t0.2\t0.15\ndoc1\t60.0\t0.2\t0.1\t0.15\n")
    gold = write(tmp_path / "gold.mqm", "doc0\t55.0\ndoc1\t65.0\n")
    code, _, err = run(capsys, "doc", "fit", "--features", features, "--gold", gold, "--out", tmp_path / "doc.model")
    assert_one_error_line(code, err, "need at least 5 documents to fit")


SINGULAR = "normal equations are singular; add regularization or drop collinear features"


def test_doc_fit_on_collinear_features_names_the_features_file(tmp_path, capsys):
    # four equal feature columns leave the unregularized normal equations singular
    features = write(tmp_path / "f.tsv", "".join(f"doc{d}\t0.{d}\t0.{d}\t0.{d}\t0.{d}\n" for d in range(6)))
    gold = write(tmp_path / "gold.mqm", "".join(f"doc{d}\t{55 + 2 * d}.0\n" for d in range(6)))
    code, _, err = run(capsys, "doc", "fit", "--features", features, "--gold", gold, "--out", tmp_path / "doc.model")
    assert (code, err) == (1, f"error: {features}: {SINGULAR}\n")
    assert not (tmp_path / "doc.model").exists()


def test_ensemble_sent_fit_on_one_system_listed_twice_names_the_manifest(tmp_path, capsys, rng):
    paths = label_files(tmp_path, capsys, rng, n=10)
    streams = text_lines(prediction_files(tmp_path, rng, paths["mt"]))[0].split("\t", 1)[1]
    manifest = write(tmp_path / "twice.tsv", f"a\t{streams}\nb\t{streams}\n")
    config = write(tmp_path / "run.cfg", "lambda_grid=0\n")
    code, _, err = run(
        capsys, "--config", config, "ensemble-sent", "fit", "--manifest", manifest, "--mt", paths["mt"],
        "--gold-scores", paths["hter"], "--out", tmp_path / "sent.model",
    )
    assert (code, err) == (1, f"error: {manifest}: {SINGULAR}\n")
    assert not (tmp_path / "sent.model").exists()


def test_ridge_cv_errors_of_the_data_name_the_manifest(tmp_path, capsys, rng, monkeypatch):
    # no data the CLI reads makes every cross-validation error infinite, so
    # the ridge CV is made to fail as it does on such data
    def no_finite_error(*args, **kwargs):
        raise DegenerateInput("no lambda gives a finite cross-validation error")

    monkeypatch.setattr(cli.ensemble, "ridge_cv", no_finite_error)
    paths = label_files(tmp_path, capsys, rng, n=10)
    manifest = prediction_files(tmp_path, rng, paths["mt"])
    code, _, err = run(
        capsys, "ensemble-sent", "fit", "--manifest", manifest, "--mt", paths["mt"],
        "--gold-scores", paths["hter"], "--out", tmp_path / "sent.model",
    )
    assert (code, err) == (1, f"error: {manifest}: no lambda gives a finite cross-validation error\n")


# --- doc pipeline ---------------------------------------------------------------------


def test_negative_doc_lambda_is_one_error_line(tmp_path, capsys):
    features = write(tmp_path / "f.tsv", "".join(f"doc{d}\t{50 + d}.0\t0.{d}\t0.2\t0.15\n" for d in range(6)))
    gold = write(tmp_path / "gold.mqm", "".join(f"doc{d}\t{55 + 2 * d}.0\n" for d in range(6)))
    config = write(tmp_path / "run.cfg", "lambda=-1\n")
    code, _, err = run(
        capsys, "--config", config, "doc", "fit", "--features", features, "--gold", gold, "--out", tmp_path / "m"
    )
    assert_one_error_line(code, err, "lambda -1.0 must be nonnegative")


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
    for line in text_lines(manifest):
        doc_id, rel = line.strip().split("\t")
        n_sentences = len(text_lines(tmp_path / rel))
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


def span_files(tmp_path, annotations):
    """A manifest of d1 (two sentences) and d2 (one of five characters), and
    ``annotations`` as the annotation file."""
    write(tmp_path / "d1.txt", "ab cd\nef gh ij\n")
    write(tmp_path / "d2.txt", "x y z\n")
    manifest = write(tmp_path / "docs.tsv", "d1\td1.txt\nd2\td2.txt\n")
    return manifest, write(tmp_path / "gold.anns", annotations)


# d3 is not in the manifest, so its span past its sentences is not checked
_BAD_SPAN = "d1\tmajor\t0:0-2\nd3\tminor\t9:0-1\nd2\tmajor\t0:0-1\nd2\tminor\t0:2-3,0:4-999\n"


def test_doc_tags_that_fails_writes_no_tags_and_no_config(tmp_path, capsys):
    # once, d1.tags was written before d2's bad span was found
    manifest, annotations = span_files(tmp_path, _BAD_SPAN)
    out_dir = tmp_path / "tags"
    out_dir.mkdir()
    (out_dir / "d1.tags").write_bytes(b"stale tags\n")
    (out_dir / "run.cfg").write_bytes(b"stale config\n")
    code, _, err = run(capsys, "doc", "tags", "--docs", manifest, "--annotations", annotations, "--out-dir", out_dir)
    assert_one_error_line(code, err)
    assert sorted(p.name for p in out_dir.iterdir()) == ["d1.tags", "run.cfg"]
    assert (out_dir / "d1.tags").read_bytes() == b"stale tags\n"
    assert (out_dir / "run.cfg").read_bytes() == b"stale config\n"


_SPAN_COMMANDS = {
    "doc tags": "doc tags --docs {manifest} --annotations {anns} --out-dir {out}",
    "doc mqm": "doc mqm --docs {manifest} --annotations {anns} --out {out}",
    "doc eval --gold-annotations": "doc eval --docs {manifest} --gold-annotations {anns} --pred-annotations {good}",
    "doc eval --pred-annotations": "doc eval --docs {manifest} --gold-annotations {good} --pred-annotations {anns}",
}


@pytest.mark.parametrize("annotations,message", [
    (_BAD_SPAN, "4: document d2: span 4-999 outside sentence 0 of length 5"),
    ("d2\tmajor\t0:0-1\nd1\tmajor\t0:0-1,5:0-1\n", "2: document d1: span sentence 5 outside its 2 sentences"),
], ids=["past its sentence", "past its document"])
@pytest.mark.parametrize("command", list(_SPAN_COMMANDS))
def test_a_span_outside_its_document_is_an_error_naming_file_line_and_document(
    tmp_path, capsys, command, annotations, message
):
    # once, doc tags and doc eval named no file, line or document, and doc mqm
    # counted the span of a sentence that does not exist with exit 0
    manifest, anns = span_files(tmp_path, annotations)
    good = write(tmp_path / "good.anns", "d1\tmajor\t0:0-2\n")
    out = tmp_path / "out"
    argv = _SPAN_COMMANDS[command].format(manifest=manifest, anns=anns, good=good, out=out).split()
    code, _, err = run(capsys, *argv)
    assert_one_error_line(code, err)
    assert err == f"error: {anns}:{message}\n"
    assert not out.exists()


_DOC_EVAL_FLAGS = ("--docs", "--gold-annotations", "--pred-annotations", "--gold-mqm", "--pred-mqm")


def doc_eval_files(tmp_path):
    """A valid file for each flag of ``doc eval``, by flag."""
    manifest, anns = span_files(tmp_path, "d1\tmajor\t0:0-2\nd2\tminor\t0:2-3\n")
    pred = write(tmp_path / "pred.anns", "d1\tmajor\t0:0-2\n")
    gold_mqm = write(tmp_path / "gold.mqm", "d1\t10.0\nd2\t20.0\nd3\t5.0\n")
    pred_mqm = write(tmp_path / "pred.mqm", "d1\t12.0\nd2\t15.0\nd3\t9.0\n")
    return dict(zip(_DOC_EVAL_FLAGS, (manifest, anns, pred, gold_mqm, pred_mqm)))


@pytest.mark.parametrize("subset", range(32), ids=lambda subset: "+".join(
    flag[2:] for k, flag in enumerate(_DOC_EVAL_FLAGS) if subset >> k & 1
) or "none")
def test_doc_eval_with_any_subset_of_its_flags_is_a_result_or_one_error_line(tmp_path, capsys, subset):
    # once, annotation files without --docs ended in a traceback, and a
    # half-given pair was skipped without a word
    files = doc_eval_files(tmp_path)
    given = {flag for k, flag in enumerate(_DOC_EVAL_FLAGS) if subset >> k & 1}
    code, out, err = run(capsys, "doc", "eval", *(arg for flag in _DOC_EVAL_FLAGS if flag in given for arg in (flag, files[flag])))
    assert code in (0, 1) and "Traceback" not in err
    annotations = {"--gold-annotations", "--pred-annotations"} & given
    mqm = {"--gold-mqm", "--pred-mqm"} & given
    ok = len(annotations) != 1 and len(mqm) != 1 and (annotations or mqm) and (not annotations or "--docs" in given)
    if ok:
        assert code == 0 and err == ""
        printed = [line.split()[0] for line in out.splitlines()]
        assert printed == ["f1_ann"] * bool(annotations) + ["mqm_pearson"] * bool(mqm)
    else:
        assert_one_error_line(code, err)
        assert out == ""


@pytest.mark.parametrize("given,missing", [
    ("--gold-annotations", "--pred-annotations"), ("--pred-annotations", "--gold-annotations"),
    ("--gold-mqm", "--pred-mqm"), ("--pred-mqm", "--gold-mqm"),
])
def test_doc_eval_with_half_a_pair_names_the_missing_flag(tmp_path, capsys, given, missing):
    files = doc_eval_files(tmp_path)
    pairs = ("--gold-annotations", "--pred-annotations", "--gold-mqm", "--pred-mqm")
    argv = ["doc", "eval", "--docs", files["--docs"], *(a for f in pairs if f != missing for a in (f, files[f]))]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {given} needs {missing}\n")


def test_doc_eval_of_annotation_files_without_docs_is_one_error_line(tmp_path, capsys):
    files = doc_eval_files(tmp_path)
    argv = ["doc", "eval", "--gold-annotations", files["--gold-annotations"], "--pred-annotations", files["--pred-annotations"]]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", "error: --gold-annotations and --pred-annotations need --docs\n")


@pytest.mark.parametrize("constant", ["gold", "pred"])
@pytest.mark.parametrize("command", ["evaluate", "doc eval"])
def test_a_constant_score_file_is_an_error_naming_it(tmp_path, capsys, command, constant):
    # 0.1 three times has a mean that rounds, so its variance was not 0.0
    # and evaluate printed "pearson  0.000000" with exit 0
    values = {"gold": ["0.1"] * 3, "pred": ["0.0", repr(1 / 3), repr(2 / 3)]}
    if constant == "pred":
        values = {"gold": values["pred"], "pred": values["gold"]}
    if command == "evaluate":
        paths = {side: write(tmp_path / f"{side}.hter", "".join(f"{v}\n" for v in values[side])) for side in values}
        argv = ["evaluate", "--stream", "sentence", "--gold", paths["gold"], "--pred", paths["pred"]]
    else:
        paths = {
            side: write(tmp_path / f"{side}.mqm", "".join(f"doc{d}\t{v}\n" for d, v in enumerate(values[side])))
            for side in values
        }
        argv = ["doc", "eval", "--gold-mqm", paths["gold"], "--pred-mqm", paths["pred"]]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {paths[constant]}: correlation with a constant vector is undefined\n")


@pytest.mark.parametrize("scale", ["e200", "e308"])
@pytest.mark.parametrize("command", ["evaluate", "doc eval"])
def test_the_pearson_of_large_finite_scores_is_their_correlation(tmp_path, capsys, command, scale):
    # once, fsum met -inf + inf (1e200) or overflowed (1e308) and the run
    # ended in a traceback
    values = {"gold": ["0", "1" + scale, "1.7" + scale], "pred": ["0", "1.5" + scale, "1" + scale]}
    if command == "evaluate":
        paths = {side: write(tmp_path / f"{side}.hter", "".join(f"{v}\n" for v in values[side])) for side in values}
        argv = ["evaluate", "--stream", "sentence", "--gold", paths["gold"], "--pred", paths["pred"]]
    else:
        paths = {
            side: write(tmp_path / f"{side}.mqm", "".join(f"doc{d}\t{v}\n" for d, v in enumerate(values[side])))
            for side in values
        }
        argv = ["doc", "eval", "--gold-mqm", paths["gold"], "--pred-mqm", paths["pred"]]
    key = "pearson" if command == "evaluate" else "mqm_pearson"
    expected = f"{key}={pearson([0.0, 1.0, 1.7], [0.0, 1.5, 1.0]):.6f}\n"
    assert run(capsys, "--format", "kv", *argv) == (0, expected, "")


def test_ensemble_word_apply_with_weights_of_other_systems_names_the_weights_file(tmp_path, capsys, rng):
    paths = label_files(tmp_path, capsys, rng, n=4)
    manifest = prediction_files(tmp_path, rng, paths["mt"], n_systems=2)
    weights = write(tmp_path / "w.tsv", "sys0\t0.5\nsys9\t0.5\n")
    argv = ["--manifest", manifest, "--mt", paths["mt"], "--weights", weights, "--out", tmp_path / "c.probs"]
    code, out, err = run(capsys, "ensemble-word", "apply", *argv)
    assert (code, out, err) == (1, "", f"error: {weights}: lists systems sys0, sys9, not sys0, sys1 of {manifest}\n")


def test_ensemble_sent_apply_on_other_features_than_the_model_names_the_model(tmp_path, capsys, rng):
    paths = label_files(tmp_path, capsys, rng, n=12)
    manifest = prediction_files(tmp_path, rng, paths["mt"])
    model = tmp_path / "sent.model"
    argv = ["--manifest", manifest, "--mt", paths["mt"], "--gold-scores", paths["hter"], "--out", model]
    assert run(capsys, "ensemble-sent", "fit", *argv)[0] == 0
    fewer = write(tmp_path / "fewer.tsv", "".join(line + "\n" for line in text_lines(manifest)[:2]))
    argv = ["--manifest", fewer, "--mt", paths["mt"], "--model", model, "--out", tmp_path / "sent.scores"]
    code, out, err = run(capsys, "ensemble-sent", "apply", *argv)
    assert (code, out, err) == (1, "", f"error: {model}: the model's features differ from those of the manifest {fewer}\n")


@pytest.mark.parametrize("lacking", [0, 1])
@pytest.mark.parametrize("command", ["fit", "eval"])
def test_doc_tables_of_other_documents_name_the_table_that_lacks_some(tmp_path, capsys, command, lacking):
    # once, the error named neither table nor which one lacked the documents
    if command == "fit":
        rows = ("".join(f"doc{d}\t{50 + d}.0\t0.{d}\t0.2\t0.15\n" for d in range(7)),
                "".join(f"doc{d}\t{55 + 2 * d}.0\n" for d in range(7)))
        flags = ("--features", "--gold")
    else:
        rows = ("".join(f"doc{d}\t{10 * d}.0\n" for d in range(7)), "".join(f"doc{d}\t{d * d}.0\n" for d in range(7)))
        flags = ("--gold-mqm", "--pred-mqm")
    # the lacking table drops doc3 and doc5
    tables = [
        write(tmp_path / f"t{side}.tsv", "".join(row + "\n" for row in text.splitlines() if side != lacking or row[3] not in "35"))
        for side, text in enumerate(rows)
    ]
    argv = ["doc", command, *(arg for flag, table in zip(flags, tables) for arg in (flag, table))]
    if command == "fit":
        argv += ["--out", tmp_path / "doc.model"]
    code, out, err = run(capsys, *argv)
    message = f"{tables[lacking]}: lacks documents doc3, doc5 of {tables[1 - lacking]}"
    assert (code, out, err) == (1, "", f"error: {message}\n")


def _leaf_argv(path):
    """A leaf of the command table with a dummy value for each required flag."""
    _, _, options, _ = cli._COMMANDS[path]
    return [*path, *(arg for flag, kwargs in options if kwargs.get("required") for arg in (flag, "x"))]


@pytest.mark.parametrize("path", [path for path, row in cli._COMMANDS.items() if row[1] is not None], ids=" ".join)
def test_every_command_reads_its_config_file(tmp_path, capsys, path):
    # once, the apply commands and doc eval never opened --config
    missing = tmp_path / "none.cfg"
    code, out, err = run(capsys, "--config", missing, *_leaf_argv(path))
    assert (code, out) == (2, "") and err.startswith("I/O error: ") and str(missing) in err
    assert err.count("\n") == 1
    bogus = write(tmp_path / "bogus.cfg", "bogus=1\n")
    assert run(capsys, "--config", bogus, *_leaf_argv(path)) == (1, "", "error: unknown config keys: bogus\n")


def test_ensemble_word_apply_with_weights_that_sum_to_zero_names_the_weights_file(tmp_path, capsys, rng):
    paths = label_files(tmp_path, capsys, rng, n=4)
    manifest = prediction_files(tmp_path, rng, paths["mt"], n_systems=2)
    weights = write(tmp_path / "w.tsv", "sys0\t0.0\nsys1\t-0.0\n")
    out = tmp_path / "out.probs"
    argv = ["ensemble-word", "apply", "--manifest", manifest, "--mt", paths["mt"], "--weights", weights, "--out", out]
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout, err) == (1, "", f"error: {weights}: ensemble weights sum to zero\n")
    assert not out.exists()


# --- name<TAB>value tables ------------------------------------------------------------

# a valid table of each kind, for the three sentences of table_files' MT and its two systems
_TABLES = {
    "model": "12\t0.5\n13\t-0.25\n",
    "weights": "sys0\t0.5\nsys1\t0.25\n",
    "sent_model": "intercept\t0.5\nlambda\t1.0\n"
    + "".join(f"coef:sys{s}:{name}\t0.1\n" for s in range(2) for name in ("score", "words_mean")),
    "doc_model": "intercept\t0.5\nlambda\t0.0\n" + "".join(f"coef:{name}\t0.1\n" for name in DOC_FEATURES),
    "features": "".join(
        f"doc{d}\t{50.0 + 3 * d}\t0.{d}\t0.{(3 * d) % 7}\t0.{(5 * d) % 8}\n" for d in range(6)
    ),
    "mqm": "".join(f"doc{d}\t{10.0 * d}\n" for d in range(6)),
}

# each command option that reads a table -> (the table's kind, the command, {table} naming the table)
_TABLE_READERS = {
    "linear predict --model": ("model", "linear predict --mt {mt} --model {table} --out-prefix {out}"),
    "ensemble-word apply --weights": (
        "weights", "ensemble-word apply --manifest {manifest} --mt {mt} --weights {table} --out {out}"
    ),
    "ensemble-sent apply --model": (
        "sent_model", "ensemble-sent apply --manifest {manifest} --mt {mt} --model {table} --out {out}"
    ),
    "doc apply --model": ("doc_model", "doc apply --features {features} --model {table} --out {out}"),
    "doc apply --features": ("features", "doc apply --features {table} --model {doc_model} --out {out}"),
    "doc fit --features": ("features", "doc fit --features {table} --gold {mqm} --out {out}"),
    "doc fit --gold": ("mqm", "doc fit --features {features} --gold {table} --out {out}"),
    "doc eval --gold-mqm": ("mqm", "doc eval --gold-mqm {table} --pred-mqm {mqm}"),
    "doc eval --pred-mqm": ("mqm", "doc eval --gold-mqm {mqm} --pred-mqm {table}"),
}


def table_files(tmp_path):
    """A three-sentence MT file, a two-system manifest on it and a valid
    table of each kind, by name."""
    files = {"mt": write(tmp_path / "c.mt", "a b\nc d e\nf\n")}
    files["manifest"] = prediction_files(tmp_path, random.Random(3), files["mt"], n_systems=2)
    for kind, text in _TABLES.items():
        files[kind] = write(tmp_path / f"{kind}.tsv", text)
    return files


def table_command(reader, files, table, out):
    """The argv that runs ``reader`` on ``table``, writing to ``out``."""
    return [token.format(**files, table=table, out=out) for token in _TABLE_READERS[reader][1].split()]


@pytest.mark.parametrize("defect", [None, *TABLE_DEFECTS])
@pytest.mark.parametrize("reader", list(_TABLE_READERS))
def test_a_bad_table_line_is_one_error_line_and_no_output(tmp_path, capsys, reader, defect):
    # once, a nan intercept scored every sentence 0.0 and every document nan,
    # and a repeated model key or intercept was read with its last line winning
    files = table_files(tmp_path)
    kind = _TABLE_READERS[reader][0]
    table = files[kind]
    if defect is not None:
        text, line, message = table_defect(_TABLES[kind], defect)
        table = write(tmp_path / "bad.tsv", text)
    before = set(tmp_path.iterdir())
    code, _, err = run(capsys, *table_command(reader, files, table, tmp_path / "out"))
    if defect is None:
        assert (code, err) == (0, "")
    else:
        assert_one_error_line(code, err)
        assert err == f"error: {table}:{line}: {message}\n"
        assert set(tmp_path.iterdir()) == before


@pytest.mark.parametrize("coefficients", [4, 5])
def test_doc_apply_with_a_model_that_is_not_a_document_model_is_one_error_line(tmp_path, capsys, coefficients):
    # once, a 5-coefficient sentence model ended in a traceback, and a
    # 4-coefficient one scored the documents on features it was not fitted on
    files = table_files(tmp_path)
    coefs = "".join(f"coef:f{j}\t0.1\n" for j in range(coefficients))
    model = write(tmp_path / "sent.model", "intercept\t0.5\nlambda\t1.0\n" + coefs)
    out = tmp_path / "pred.mqm"
    code, _, err = run(capsys, "doc", "apply", "--features", files["features"], "--model", model, "--out", out)
    assert_one_error_line(code, err)
    assert err == f"error: {model}: the model's features are not {', '.join(DOC_FEATURES)}\n"
    assert not out.exists()


def test_doc_apply_refuses_a_prediction_that_is_not_finite(tmp_path, capsys):
    files = table_files(tmp_path)
    model = write(
        tmp_path / "huge.model",
        "intercept\t1e308\nlambda\t0.0\n" + "".join(f"coef:{name}\t1e308\n" for name in DOC_FEATURES),
    )
    out = tmp_path / "pred.mqm"
    code, _, err = run(capsys, "doc", "apply", "--features", files["features"], "--model", model, "--out", out)
    assert_one_error_line(code, err)
    assert err == f"error: {out}:1: value inf is not finite\n"
    assert not out.exists()


# --- fuzzed tag inputs ---------------------------------------------------------------

# tokens a fuzzed tag line may gain: tags, near-tags and numbers
_FUZZ_TOKENS = st.sampled_from(["OK", "BAD", "ok", "BAD,", "0.5", "1", "x", "ＯＫ"])
_EDITS = ("replace", "drop", "add", "drop line", "repeat line", "swap", "empty line")


@st.composite
def _fuzzed(draw, text, sep=None, tokens=_FUZZ_TOKENS):
    """``text`` after up to three edits (a token replaced, dropped or added,
    a line dropped, repeated, swapped with another or emptied), and
    sometimes cut short. Tokens are split at ``sep`` (whitespace if None)
    and drawn from ``tokens``."""
    lines = [line.split(sep) for line in text.splitlines()]
    for _ in range(draw(st.integers(0, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        row = lines[i]
        edit = draw(st.sampled_from(_EDITS))
        if edit == "replace" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(tokens)
        elif edit == "drop" and row:
            del row[draw(st.integers(0, len(row) - 1))]
        elif edit == "add":
            row.insert(draw(st.integers(0, len(row))), draw(tokens))
        elif edit == "drop line":
            del lines[i]
        elif edit == "repeat line":
            lines.insert(i, list(row))
        elif edit == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == "empty line":
            lines[i] = []
    out = "".join((sep or " ").join(row) + "\n" for row in lines)
    if draw(st.integers(0, 9)) == 0:
        out = out[: draw(st.integers(0, len(out)))]
    return out


def tag_fuzz_files(tmp_path):
    """Six sentences with gold tags, tag and probability predictions of every
    stream, and a two-system manifest."""
    rng = random.Random(41)
    mt = [rng.randint(1, 4) for _ in range(6)]
    src = [rng.randint(1, 4) for _ in range(6)]

    def tags(lengths):
        return "".join(" ".join(rng.choice(["OK", "BAD"]) for _ in range(n)) + "\n" for n in lengths)

    def probs(lengths):
        return "".join(" ".join(repr(round(rng.random(), 3)) for _ in range(n)) + "\n" for n in lengths)

    stream_lengths = {
        "target": [2 * n + 1 for n in mt], "words": mt, "gaps": [n + 1 for n in mt], "source": src,
    }
    files = {
        "mt": write(tmp_path / "f.mt", "".join(" ".join(["w"] * n) + "\n" for n in mt)),
        "src": write(tmp_path / "f.src", "".join(" ".join(["s"] * n) + "\n" for n in src)),
        "gold target": write(tmp_path / "gold.tags", tags(stream_lengths["target"])),
        "gold source": write(tmp_path / "gold.source_tags", tags(src)),
        "interleaved": write(tmp_path / "pred.tags", tags(stream_lengths["target"])),
    }
    for stream, lengths in stream_lengths.items():
        files[f"own {stream}"] = write(tmp_path / f"pred.{stream}.tags", tags(lengths))
        files[f"probs {stream}"] = write(tmp_path / f"pred.{stream}.probs", probs(lengths))
    manifest = []
    for s in range(2):
        fields = [f"sys{s}"]
        for stream in ("words", "gaps", "source"):
            fields.append(f"{stream}={write(tmp_path / f'sys{s}.{stream}', probs(stream_lengths[stream]))}")
        manifest.append("\t".join(fields) + "\n")
    files["manifest"] = write(tmp_path / "systems.tsv", "".join(manifest))
    return files


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), command=st.sampled_from(["evaluate", "fit", "kfold"]))
def test_fuzzed_tag_inputs_end_in_an_exit_code_and_at_most_one_error_line(tmp_path, capsys, data, command):
    files = tag_fuzz_files(tmp_path)

    def fuzzed(name):
        path = tmp_path / f"fuzzed.{name.replace(' ', '.')}"
        with open(files[name], encoding="utf-8") as handle:
            path.write_text(data.draw(_fuzzed(handle.read()), label=name), encoding="utf-8")
        return path

    if command == "evaluate":
        stream = data.draw(st.sampled_from(["target", "words", "gaps", "source"]), label="stream")
        pred = data.draw(st.sampled_from(["interleaved", f"own {stream}", f"probs {stream}"]), label="pred")
        gold = fuzzed("gold source" if stream == "source" else "gold target")
        argv = ["evaluate", "--gold", gold, "--pred", fuzzed(pred), "--stream", stream]
    else:
        stream = data.draw(st.sampled_from(["words", "gaps", "source"]), label="stream")
        gold = fuzzed("gold source" if stream == "source" else "gold target")
        argv = [
            "ensemble-word", command, "--manifest", files["manifest"], "--mt", files["mt"],
            "--src", files["src"], "--gold", gold, "--stream", stream,
            *(["--out", tmp_path / "w.tsv"] if command == "fit" else ["--k", "3"]),
        ]
    code, _, err = run(capsys, *argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code:
        lines = err.splitlines()
        assert len(lines) == 1 and "error:" in lines[0], err
    else:
        assert err == ""


def score_fuzz_files(tmp_path):
    """Twelve sentences with source, post-edit and a word alignment, gold
    HTER, and a two-system manifest of word probabilities and sentence
    scores, written with six decimals (the byte-level fast path) and by
    ``repr`` (the line readers)."""
    rng = random.Random(43)
    mt = [rng.randint(1, 4) for _ in range(12)]
    src = [rng.randint(1, 4) for _ in range(12)]

    def text(lengths, word):
        return "".join(" ".join([word] * n) + "\n" for n in lengths)

    def values(lengths, form):
        return "".join(" ".join(form(rng.random()) for _ in range(n)) + "\n" for n in lengths)

    six, long = "{:.6f}".format, repr
    align = "".join(" ".join(f"{i}-{rng.randrange(m)}" for i in range(s)) + "\n" for s, m in zip(src, mt))
    files = {
        "mt": write(tmp_path / "f.mt", text(mt, "w")),
        "pe": write(tmp_path / "f.pe", text(mt, "v")),
        "src": write(tmp_path / "f.src", text(src, "s")),
        "align": write(tmp_path / "f.align", align),
        "gold": write(tmp_path / "gold.hter", values([1] * 12, six)),
    }
    manifest = []
    for s, form in enumerate((six, long)):
        words = write(tmp_path / f"sys{s}.probs", values(mt, form))
        files[f"sys{s} scores"] = write(tmp_path / f"sys{s}.scores", values([1] * 12, form))
        manifest.append(f"sys{s}\twords={words}\tsentences={files[f'sys{s} scores']}\n")
    files["manifest"] = write(tmp_path / "systems.tsv", "".join(manifest))
    return files


# tokens a fuzzed score or alignment line may gain: numbers of every
# spelling, pairs and near-pairs
_SCORE_TOKENS = st.sampled_from(["0.5", "0.250000", "1e-05", "-0.5", "12.5", "nan", "inf", "1e999", ".5", "1.", "x",
                                 "0.123456789012345678", "１", "0-1", "OK"])
_PAIR_TOKENS = st.sampled_from(["0-0", "1-2", "00-01", "3-", "-3", "0:0", "1--2", "99999999999999999999-0", "١-0",
                                "0.5", "OK"])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), command=st.sampled_from(["evaluate", "fit", "make-labels"]))
def test_fuzzed_score_and_alignment_inputs_end_in_an_exit_code_and_at_most_one_error_line(
    tmp_path, capsys, data, command
):
    files = score_fuzz_files(tmp_path)

    def fuzzed(name, tokens):
        with open(files[name], encoding="utf-8") as handle:
            return write(Path(files[name]), data.draw(_fuzzed(handle.read(), tokens=tokens), label=name))

    if command == "make-labels":
        argv = ["make-labels", "--mt", files["mt"], "--pe", files["pe"], "--src", files["src"],
                "--align", fuzzed("align", _PAIR_TOKENS), "--out-prefix", tmp_path / "labels"]
    else:
        names = data.draw(st.sampled_from([("gold",), ("sys0 scores",), ("sys1 scores",), ("gold", "sys1 scores")]),
                          label="fuzzed")
        for name in names:
            fuzzed(name, _SCORE_TOKENS)
        if command == "evaluate":
            pred = files[data.draw(st.sampled_from(["sys0 scores", "sys1 scores"]), label="pred")]
            argv = ["evaluate", "--gold", files["gold"], "--pred", pred, "--stream", "sentence"]
        else:
            argv = ["ensemble-sent", "fit", "--manifest", files["manifest"], "--mt", files["mt"],
                    "--gold-scores", files["gold"], "--out", tmp_path / "sent.model"]
    code, _, err = run(capsys, *argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code:
        lines = err.splitlines()
        assert len(lines) == 1 and "error:" in lines[0], err
    else:
        assert err == ""


# fields a fuzzed table line may gain: values, names of every table kind, and
# values that are not finite or not numbers
_TABLE_TOKENS = st.sampled_from(["0.5", "-2.5", "nan", "-inf", "1e999", "x", "", "12", "012", "sys0", "intercept",
                                 "coef:sys0:score", "coef:bad_gap_frac", "doc0"])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), reader=st.sampled_from(list(_TABLE_READERS)))
def test_fuzzed_table_inputs_end_in_an_exit_code_and_at_most_one_error_line(tmp_path, capsys, data, reader):
    files = table_files(tmp_path)
    kind = _TABLE_READERS[reader][0]
    table = write(tmp_path / "fuzzed.tsv", data.draw(_fuzzed(_TABLES[kind], "\t", _TABLE_TOKENS), label=kind))
    code, _, err = run(capsys, *table_command(reader, files, table, tmp_path / "out"))
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code:
        lines = err.splitlines()
        assert len(lines) == 1 and "error:" in lines[0], err
    else:
        assert err == ""


# fields a fuzzed annotation or manifest line may gain: near-severities,
# lenient and malformed spans, and document ids and paths
_DOC_TOKENS = st.sampled_from(["MAJOR", "major", "0:+6-8", "0:5-2", "-1:0-1", "0:0-1,0:0-2", "", "1000000000000000000",
                               "0:0-1000000000000000000", "1:3-5", "2:0-1", "d1", "d2", "d1.txt", "missing.txt"])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), command=st.sampled_from(["tags", "mqm", "eval"]))
def test_fuzzed_annotation_and_manifest_inputs_end_in_an_exit_code_and_at_most_one_error_line(
    tmp_path, capsys, data, command
):
    manifest, annotations = span_files(tmp_path, "d1\tmajor\t0:0-2,1:3-5\nd2\tminor\t0:1-2\nd1\tcritical\t1:2-3\n")
    fuzzed = data.draw(st.sampled_from([("gold.anns",), ("docs.tsv",), ("docs.tsv", "gold.anns")]), label="fuzzed")
    for name in fuzzed:
        path = tmp_path / name
        path.write_text(data.draw(_fuzzed(path.read_text(encoding="utf-8"), "\t", _DOC_TOKENS), label=name),
                        encoding="utf-8")
    inputs = ["--docs", manifest]
    if command == "eval":
        argv = ["doc", "eval", *inputs, "--gold-annotations", annotations, "--pred-annotations", annotations]
    else:
        out = ["--out-dir", tmp_path / "tags"] if command == "tags" else ["--out", tmp_path / "out.mqm"]
        argv = ["doc", command, *inputs, "--annotations", annotations, *out]
    code, _, err = run(capsys, *argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code:
        lines = err.splitlines()
        assert len(lines) == 1 and "error:" in lines[0], err
    else:
        assert err == ""
