"""Every CLI output of the benchmark's three workloads, pinned.

Each workload of ``qebench/workloads.py`` runs at scale 0.2 and seed 1 in a
temporary directory: ``gen.generate`` and ``write_run_files`` make its inputs,
then every prerequisite and sequence call runs through ``cli.main`` with the
benchmark worker's prefix ``--seed 1 --jobs 1 --format kv``. Each file the
calls write under ``pre/`` and ``out/`` (not the files that the sequence's
glue writes between calls) and each call's stdout is compared with
``workload_digests.txt``.

An entry is the sha256 of the bytes, except for the outputs that pass
through a BLAS product. numpy's OpenBLAS picks its kernels by CPU, so those
round differently from one machine to the next. They are the word ensemble's
weights and probabilities (``_combine``'s and the line search's products),
the ridge models (``ridge_fit``'s normal equations) and what they score:
``sent.hter``, ``doc.features`` (the mean of the sentence MQMs that the glue
derives from ``sent.hter``) and ``pred.mqm``, plus the stdout of the calls
that print such numbers (``CLOSE_CALLS``). Such an output is compared parsed:
its text with every number replaced by a mark of its format by sha256,
and its numbers
through three fixed positive-weighted sums, each within a relative
``RTOL`` of the table's.

Regenerate the table after an intended change with
``PYTHONPATH=src python tests/test_workload_digests.py``.
"""

import contextlib
import functools
import hashlib
import importlib.util
import io
import math
import os
import re
import sys
import tempfile
from pathlib import Path

import pytest

from qestack import cli

TABLE = Path(__file__).with_name("workload_digests.txt")
QEBENCH = Path(__file__).resolve().parents[1] / "qebench"
SCALE, SEED = 0.2, 1
PREFIX = ["--seed", str(SEED), "--jobs", "1", "--format", "kv"]

CLOSE_FILES = ("word.weights", "word.probs", "sent.model", "doc.model", "sent.hter", "doc.features", "pred.mqm")
CLOSE_CALLS = ("ensemble-word-fit", "ensemble-word-kfold", "ensemble-sent-fit", "evaluate", "doc-eval")
# Under seven OPENBLAS_CORETYPE kernels of one machine the outputs differed
# by at most 2.5e-12 relative per number (a ridge coefficient). A change of
# one number shows unless it is below 1e-10 of the sum's terms' magnitudes:
# about 4e-7 in score-long's word.probs, whose 6,560 values sum to 3,600
RTOL = 1e-10

_SEPARATOR = re.compile(r"([\s=]+)")


def _load(name):
    spec = importlib.util.spec_from_file_location(name, QEBENCH / f"{name}.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.cache
def _benchmark_modules():
    """``gen`` and ``workloads``, loaded by path; ``workloads`` imports
    ``gen`` by name, so ``qebench/`` is on ``sys.path`` while they load."""
    sys.path.insert(0, str(QEBENCH))
    try:
        return _load("gen"), _load("workloads")
    finally:
        sys.path.remove(str(QEBENCH))


def _files(root: Path) -> set[str]:
    return {
        path.relative_to(root).as_posix()
        for sub in ("pre", "out")
        for path in (root / sub).rglob("*")
        if path.is_file()
    }


def run_workload(workload: str, root: Path) -> dict[str, bytes]:
    """The bytes of every output of ``workload`` run in ``root``, by path,
    and of every call's stdout, by ``stdout:<call number>:<call name>``."""
    gen, workloads = _benchmark_modules()
    outputs, glue = {}, set()
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for sub in ("in", "pre", "out"):
            os.makedirs(sub)
        gen.generate(workload, SEED, "in", SCALE)
        workloads.write_run_files(workload)
        calls = workloads.prerequisites(workload) + workloads.sequence(workload)
        for number, call in enumerate(calls, 1):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([*PREFIX, *call.argv])
            assert (code, err.getvalue()) == (0, ""), call.argv
            outputs[f"stdout:{number}:{call.name}"] = out.getvalue().encode()
            if call.after is not None:
                before = _files(root)
                call.after(workloads.context(workload))
                glue |= _files(root) - before
    finally:
        os.chdir(cwd)
    for name in sorted(_files(root) - glue):
        outputs[name] = (root / name).read_bytes()
    return outputs


def is_close_output(name: str) -> bool:
    if name.startswith("stdout:"):
        return name.split(":")[2] in CLOSE_CALLS
    return name.rsplit("/", 1)[-1] in CLOSE_FILES


def _numbers(text: str) -> tuple[str, list[float]]:
    """``text`` with each number between separators replaced by ``#`` when
    it is written as ``repr`` writes it and by ``~`` otherwise, and the
    numbers in order."""
    parts, values = _SEPARATOR.split(text), []
    for i in range(0, len(parts), 2):
        try:
            values.append(float(parts[i]))
        except ValueError:
            continue
        parts[i] = "#" if repr(values[-1]) == parts[i] else "~"
    return "".join(parts), values


def _weight(k: int, i: int) -> float:
    """The weight of number ``i`` in sum ``k``, in [1, 2)."""
    return 1.0 + (i + 1) * (7919, 104729, 1299709)[k] % 1009 / 1009


def entry(name: str, data: bytes) -> list[str]:
    """The table fields of one output: its sha256, or for an output that
    passes through BLAS the sha256 of its text without its numbers and the
    three weighted sums of them."""
    if not is_close_output(name):
        return ["sha256", hashlib.sha256(data).hexdigest()]
    skeleton, values = _numbers(data.decode())
    sums = [math.fsum(_weight(k, i) * v for i, v in enumerate(values)) for k in range(3)]
    return ["close", hashlib.sha256(skeleton.encode()).hexdigest(), *map(repr, sums)]


def _matches(want: list[str], name: str, data: bytes) -> bool:
    got = entry(name, data)
    if want[0] != "close" or got[0] != "close":
        return got == want
    _, values = _numbers(data.decode())
    for k, (mine, theirs) in enumerate(zip(got[2:], want[2:])):
        scale = math.fsum(_weight(k, i) * abs(v) for i, v in enumerate(values))
        if not abs(float(mine) - float(theirs)) <= RTOL * scale:
            return False
    return got[1] == want[1]


def read_table() -> dict[str, dict[str, list[str]]]:
    table: dict[str, dict[str, list[str]]] = {}
    for line in TABLE.read_text(encoding="utf-8").splitlines():
        workload, name, *fields = line.split()
        table.setdefault(workload, {})[name] = fields
    return table


def workload_names() -> tuple[str, ...]:
    return _benchmark_modules()[1].WORKLOADS


@pytest.mark.parametrize("workload", workload_names())
def test_workload_outputs_keep_their_bytes(tmp_path, workload):
    want = read_table()[workload]
    outputs = run_workload(workload, tmp_path)
    assert sorted(outputs) == sorted(want)
    differ = [name for name, data in outputs.items() if not _matches(want[name], name, data)]
    assert not differ, f"{workload}: {differ} differ from {TABLE.name}"


def test_close_comparison_tells_rounding_from_a_change():
    data = b"a\t0.25\nb\t-3.0\nc\t7.5e-05\n"
    fields = entry("out/doc.model", data)
    assert fields[0] == "close"
    nudged = b"a\t0.25000000000000006\nb\t-3.0\nc\t7.5e-05\n"
    assert _matches(fields, "out/doc.model", nudged)
    for changed in (b"a\t0.2500001\nb\t-3.0\nc\t7.5e-05\n", b"a\t0.25\nb\t-3.0\nd\t7.5e-05\n",
                    b"a\t0.25\nc\t-3.0\nb\t7.5e-05\n", b"a\t0.25\nb\t-3.0\n",
                    b"a\t0.250\nb\t-3.0\nc\t7.5e-05\n"):
        assert not _matches(fields, "out/doc.model", changed), changed


def write_table():
    lines = []
    for workload in workload_names():
        with tempfile.TemporaryDirectory() as directory:
            outputs = run_workload(workload, Path(directory))
        lines += [" ".join([workload, name, *entry(name, data)]) for name, data in outputs.items()]
    TABLE.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


if __name__ == "__main__":
    write_table()
