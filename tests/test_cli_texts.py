"""The CLI's help, usage and error texts and the namespace of every command.

``tests/cli_texts.json`` holds the exit code, stdout and stderr of each argv
in ``TEXT_CASES`` at 80 columns, and ``vars(namespace)`` (the handler by its
name) of each argv in ``NAMESPACE_CASES``. argparse words its texts slightly
differently from one Python minor version to the next, so the bytes are
compared only on the version the table was written with; the exit codes and
the namespaces are compared on every version. Each text case runs in a
directory that holds the input files of ``FILES``.

Regenerate the table after an intended change with
``PYTHONPATH=src python tests/test_cli_texts.py``.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

from pathlib import Path

import pytest

from qestack import cli

TABLE = Path(__file__).with_name("cli_texts.json")

GROUPS = {
    "linear": ("train", "predict", "jackknife"),
    "ensemble-word": ("fit", "apply", "kfold"),
    "ensemble-sent": ("fit", "apply"),
    "doc": ("tags", "spans", "mqm", "features", "fit", "apply", "eval"),
}
COMMANDS = [["evaluate"], ["make-labels"]] + [[group, leaf] for group, leaves in GROUPS.items() for leaf in leaves]

TEXT_CASES = (
    [[], ["--help"], ["--version"], ["no-such-command"], ["--bogus", "evaluate"]]
    + [[group, "--help"] for group in GROUPS]
    + [[group] for group in GROUPS]
    + [[group, "no-such-leaf"] for group in GROUPS]
    + [command + ["--help"] for command in COMMANDS]
    + [
        ["evaluate", "--gold", "g"],
        ["doc", "fit", "--features", "f", "--out", "o"],
        ["evaluate", "--gold", "g", "--pred", "p", "--bogus", "x"],
        ["evaluate", "--gold", "g", "--pred", "p", "--stream", "nope"],
        ["--seed", "x", "evaluate", "--gold", "g", "--pred", "p"],
        ["evaluate", "--seed", "x", "--gold", "g", "--pred", "p"],
        ["linear", "train", "--seed", "1.5", "--mt", "m", "--model", "x"],
        ["doc", "eval", "--gold-annotations", "g", "--pred-annotations", "p"],
        ["doc", "eval", "--docs", "d", "--gold-annotations", "g", "--gold-mqm", "m", "--pred-mqm", "q"],
        ["doc", "eval", "--pred-mqm", "q"],
        ["--config", "no-such.cfg", "doc", "eval"],
        ["doc", "fit", "--features", "collinear.features", "--gold", "gold.mqm", "--out", "doc.model"],
        ["--config", "zero.cfg", "ensemble-sent", "fit", "--manifest", "twice.tsv", "--mt", "s.mt",
         "--gold-scores", "s.hter", "--out", "sent.model"],
    ]
)

# the inputs of the text cases that reach a handler: four equal document
# features, and one system listed twice in a manifest, each with a ridge
# penalty of 0, leave the normal equations singular
FILES = {
    "collinear.features": "".join(f"doc{d}\t0.{d}\t0.{d}\t0.{d}\t0.{d}\n" for d in range(6)),
    "gold.mqm": "".join(f"doc{d}\t{55 + 2 * d}.0\n" for d in range(6)),
    "s.mt": "a b\nc d e\nf\ng h\ni j k\nl\n",
    "p.probs": "0.1 0.2\n0.3 0.4 0.5\n0.6\n0.7 0.8\n0.9 0.1 0.2\n0.3\n",
    "twice.tsv": "x\twords=p.probs\ny\twords=p.probs\n",
    "s.hter": "0.1\n0.2\n0.4\n0.3\n0.5\n0.6\n",
    "zero.cfg": "lambda_grid=0\n",
}

NAMESPACE_CASES = [
    ["evaluate", "--gold", "g", "--pred", "p"],
    ["--format", "kv", "evaluate", "--gold", "g", "--pred", "p", "--threshold", "0.25", "--stream", "sentence", "--seed", "4"],
    ["make-labels", "--mt", "m", "--pe", "e", "--out-prefix", "o"],
    ["--jobs", "2", "make-labels", "--mt", "m", "--pe", "e", "--src", "s", "--align", "a", "--out-prefix", "o"],
    ["linear", "train", "--mt", "m", "--tags", "t", "--model", "x", "--extra", "e1", "--extra", "e2", "--C", "0.5"],
    ["linear", "predict", "--mt", "m", "--src", "s", "--stream", "source", "--model", "x", "--out-prefix", "o", "--gamma", "2"],
    ["--seed", "9", "linear", "jackknife", "--mt", "m", "--tags", "t", "--k", "3", "--epochs", "2", "--out-prefix", "o", "--jobs", "2"],
    ["ensemble-word", "fit", "--manifest", "f", "--mt", "m", "--gold", "g", "--out", "o", "--threshold", "0.4"],
    ["ensemble-word", "apply", "--manifest", "f", "--mt", "m", "--weights", "w", "--stream", "gaps", "--out", "o"],
    ["ensemble-word", "kfold", "--manifest", "f", "--mt", "m", "--src", "s", "--gold", "g", "--k", "4", "--config", "c"],
    ["ensemble-sent", "fit", "--manifest", "f", "--mt", "m", "--gold-scores", "h", "--out", "o"],
    ["ensemble-sent", "apply", "--manifest", "f", "--mt", "m", "--model", "x", "--out", "o", "--format", "kv"],
    ["doc", "tags", "--docs", "d", "--annotations", "a", "--out-dir", "o"],
    ["doc", "spans", "--docs", "d", "--tags-dir", "t", "--out", "o"],
    ["doc", "mqm", "--docs", "d", "--annotations", "a", "--out", "o"],
    ["doc", "features", "--docs", "d", "--tags-dir", "t", "--sent-mqm-dir", "q", "--out", "o"],
    ["doc", "fit", "--features", "f", "--gold", "g", "--out", "o"],
    ["doc", "apply", "--features", "f", "--model", "x", "--out", "o"],
    ["doc", "eval", "--gold-mqm", "g", "--pred-mqm", "p"],
]


class _Parsed(Exception):
    """Stops ``cli.main`` after parsing, before the handler runs."""

    def __init__(self, namespace):
        super().__init__()
        self.namespace = namespace


def run_text(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def parse_namespace(argv, patch):
    """``vars`` of the namespace ``cli.main`` parses from ``argv``."""
    parse_args = cli._Parser.parse_args

    def stop_after_parsing(self, *args, **kwargs):
        raise _Parsed(parse_args(self, *args, **kwargs))

    patch(cli._Parser, "parse_args", stop_after_parsing)
    try:
        cli.main(list(argv))
    except _Parsed as parsed:
        values = dict(vars(parsed.namespace))
    else:
        raise AssertionError(f"{argv} did not parse")
    values["handler"] = values["handler"].__name__
    return {"argv": argv, "namespace": values}


def _version():
    return f"{sys.version_info.major}.{sys.version_info.minor}"


@pytest.fixture(scope="module")
def table():
    return json.loads(TABLE.read_text(encoding="utf-8"))


def write_files(directory):
    for name, text in FILES.items():
        Path(directory, name).write_text(text, encoding="utf-8")


@pytest.fixture
def columns(monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")
    write_files(tmp_path)
    monkeypatch.chdir(tmp_path)


def test_the_table_lists_every_case(table):
    assert [case["argv"] for case in table["texts"]] == TEXT_CASES
    assert [case["argv"] for case in table["namespaces"]] == NAMESPACE_CASES
    parsed = {(case["namespace"]["command"], case["namespace"].get("subcommand")) for case in table["namespaces"]}
    assert parsed == {(command[0], command[1] if len(command) > 1 else None) for command in COMMANDS}


@pytest.mark.parametrize("index", range(len(TEXT_CASES)), ids=[" ".join(argv) or "(none)" for argv in TEXT_CASES])
def test_exit_code_and_texts(table, columns, index):
    expected = table["texts"][index]
    got = run_text(expected["argv"])
    assert got["code"] == expected["code"]
    if _version() != table["python"]:
        pytest.skip(f"texts were written with Python {table['python']}; argparse on Python {_version()} words them differently")
    assert got["stdout"] == expected["stdout"]
    assert got["stderr"] == expected["stderr"]


@pytest.mark.parametrize("index", range(len(NAMESPACE_CASES)), ids=[" ".join(argv) for argv in NAMESPACE_CASES])
def test_namespace(table, columns, monkeypatch, index):
    expected = table["namespaces"][index]
    assert parse_namespace(expected["argv"], monkeypatch.setattr) == expected


def test_a_run_builds_only_the_parsers_on_its_command_path(monkeypatch):
    built = []
    init = cli._Parser.__init__

    def recording_init(self, *args, **kwargs):
        built.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", recording_init)
    parse_namespace(["doc", "fit", "--features", "f", "--gold", "g", "--out", "o"], monkeypatch.setattr)
    assert built == ["qe-stack", "qe-stack doc", "qe-stack doc fit"]


def _regenerate():
    os.environ["COLUMNS"] = "80"
    namespaces = []
    for argv in NAMESPACE_CASES:
        with pytest.MonkeyPatch.context() as patch:
            namespaces.append(parse_namespace(argv, patch.setattr))
    with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as patch:
        patch.chdir(directory)
        write_files(directory)
        texts = [run_text(argv) for argv in TEXT_CASES]
    data = {"python": _version(), "texts": texts, "namespaces": namespaces}
    TABLE.write_text(json.dumps(data, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
