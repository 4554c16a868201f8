"""The word-level CLI pipeline with word alignments, pinned byte for byte.

A fixed-seed corpus of 200 entries is written to files. Each post-edit is
redrawn as a random edit of its MT sentence, so that every stream holds both
tags, and the alignment lines are shuffled, with some pairs repeated and runs
of spaces and tabs between them.
``make-labels``, ``linear train``, ``linear predict`` and ``linear jackknife``
then run with ``--src --align`` on the words and source streams, and the
sha256 of every output is compared with ``pipeline_digests.sha256``. No BLAS
product is involved, so the digests hold on every machine.
"""

import hashlib
import random
from pathlib import Path

from qestack.cli import main

from conftest import alignment_sets, random_corpus, random_token

DIGESTS = Path(__file__).with_name("pipeline_digests.sha256")


def post_edit(rng: random.Random, tokens) -> list[str]:
    """``tokens`` with about one in five words substituted or deleted and
    words inserted between them; never empty."""
    out = []
    for token in tokens:
        if rng.random() < 0.1:
            out.append(random_token(rng))
        draw = rng.random()
        if draw >= 0.2:
            out.append(token)
        elif draw >= 0.1:
            out.append(random_token(rng))
    return out or [random_token(rng)]


def write_corpus(directory: Path) -> dict[str, str]:
    rng = random.Random(16)
    corpus = random_corpus(rng, 200)
    post_edits = [" ".join(post_edit(rng, s.tokens)) for s in corpus.mt]
    align_lines = []
    for pairs in alignment_sets(corpus.alignments):
        pairs = sorted(pairs)
        pairs += rng.sample(pairs, rng.randint(0, len(pairs)))
        rng.shuffle(pairs)
        fields = [f"{i}-{j}" for i, j in pairs]
        align_lines.append("".join(rng.choice((" ", "  ", "\t")) + f for f in fields).lstrip())
    texts = {
        "mt": [s.text for s in corpus.mt],
        "pe": post_edits,
        "src": [s.text for s in corpus.src],
        "align": align_lines,
    }
    paths = {}
    for name, lines in texts.items():
        paths[name] = str(directory / f"c.{name}")
        Path(paths[name]).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return paths


def run_pipeline(directory: Path) -> list[str]:
    """Run every command and return the names of the files to pin."""
    paths = write_corpus(directory)
    inputs = ["--mt", paths["mt"], "--src", paths["src"], "--align", paths["align"]]
    gold = directory / "gold"
    commands = [["make-labels", *inputs, "--pe", paths["pe"], "--out-prefix", gold]]
    outputs = ["gold.tags", "gold.hter", "gold.source_tags"]
    for stream, labels in (("words", "--tags"), ("source", "--source-tags")):
        common = [*inputs, "--stream", stream]
        gold_tags = f"{gold}.source_tags" if stream == "source" else f"{gold}.tags"
        model = directory / f"{stream}.model"
        commands += [
            ["linear", "train", *common, labels, gold_tags, "--epochs", "2", "--model", model],
            ["linear", "predict", *common, "--model", model, "--out-prefix", directory / f"{stream}.pred"],
            ["linear", "jackknife", *common, labels, gold_tags, "--epochs", "2", "--k", "3",
             "--out-prefix", directory / f"{stream}.jk"],
        ]
        outputs += [f"{stream}.model", *(f"{stream}.{run}.{kind}" for run in ("pred", "jk") for kind in ("tags", "probs"))]
    for argv in commands:
        assert main([str(a) for a in argv]) == 0, argv
    return outputs


def test_pipeline_outputs_keep_their_bytes(tmp_path):
    names = run_pipeline(tmp_path)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in names}
    want = dict(line.split()[::-1] for line in DIGESTS.read_text().splitlines())
    assert got == want
