"""Seeded, WMT-shaped synthetic inputs for the benchmark workloads.

Everything here is a pure function of ``(workload, seed, scale)``: the same
arguments always give byte-identical files. The program under test only ever
sees the files written by :func:`generate`; the in-memory ``Corpus`` objects
stay on the benchmark side (they carry the intended edits, from which the
synthetic systems and the document annotations are derived).

Shape of the data:

* Vocabularies are Zipf-like (rank ``r`` drawn with probability
  proportional to ``1 / r**1.1``); word strings are built from syllables so
  that frequent words are short, as in natural text.
* ``train-stack`` and ``ensemble-wide`` draw MT lengths uniformly from 8-28
  tokens; ``score-long`` draws them from a clipped log-normal on 5-80
  (median about 36), a long tail like document-level test sets.
* Post-edits apply substitutions and deletions to about ``EDIT_RATE`` of the
  MT tokens plus insertions into about a third as many gaps.
* Alignments are near-diagonal: each MT token links to the proportionally
  placed source token, jittered by at most one, with a few left unaligned.
* Synthetic systems follow ``tests/conftest.py::complementary_systems``: each
  is accurate on its own blocks of sentences and noisy elsewhere, so a blend
  beats every single system.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

EDIT_RATE = 0.20
VOCAB_SIZE = 20000
ZIPF_EXPONENT = 1.1
SYSTEM_BLOCK = 10  # sentences per block of one system's strength
DOC_SENTENCES = 20

# Seed for claims: a later change is tuned on any seed but must also hold on
# this one, which is never used while writing it.
HELD_OUT_SEED = 7919

_ONSETS = ("", "b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z", "st", "tr", "sch")
_VOWELS = ("a", "e", "i", "o", "u", "ei", "au")


@dataclass(frozen=True)
class Shape:
    """Sizes of one workload at scale 1."""

    sentences: int
    length: str  # "uniform" (8-28) or "long" (5-80, long-tailed)
    systems: int
    train_sentences: int = 0  # score-long only: separate training corpus
    dev_sentences: int = 0  # score-long only: dev set for weights and ridge


SHAPES = {
    "train-stack": Shape(sentences=250, length="uniform", systems=2),
    "score-long": Shape(
        sentences=800, length="long", systems=2, train_sentences=300, dev_sentences=200
    ),
    "ensemble-wide": Shape(sentences=1500, length="uniform", systems=10),
}

_WORKLOAD_IDS = {name: i for i, name in enumerate(SHAPES)}


@dataclass
class Corpus:
    """One generated corpus: tokens, alignments and the intended edits."""

    mt: list[list[str]]
    src: list[list[str]]
    pe: list[list[str]]
    align: list[list[tuple[int, int]]]
    word_bad: list[np.ndarray]  # intended BAD words (substituted or deleted)
    gap_bad: list[np.ndarray]  # intended BAD gaps (an insertion lands there)
    hter: np.ndarray  # intended edits / post-edit length, capped at 1


def _word(rank: int) -> str:
    syllables = []
    r = rank + 1
    while r:
        r, digit = divmod(r, len(_ONSETS) * len(_VOWELS))
        onset, vowel = divmod(digit, len(_VOWELS))
        syllables.append(_ONSETS[onset] + _VOWELS[vowel])
    return "".join(syllables)


def _vocab(prefix: str) -> list[str]:
    return [prefix + _word(r) for r in range(VOCAB_SIZE)]


_TGT_VOCAB = _vocab("")
_SRC_VOCAB = _vocab("q")
_ZIPF = 1.0 / np.arange(1, VOCAB_SIZE + 1) ** ZIPF_EXPONENT
_ZIPF /= _ZIPF.sum()
_ZIPF_CDF = np.cumsum(_ZIPF)


def _zipf_ids(rng: np.random.Generator, n: int) -> np.ndarray:
    ids = np.searchsorted(_ZIPF_CDF, rng.random(n), side="right")
    return np.minimum(ids, VOCAB_SIZE - 1)


# MT length bounds and mean tokens per sentence of each length distribution
_LENGTHS = {"uniform": (8, 28, 18), "long": (5, 80, 41)}


def _lengths(rng: np.random.Generator, n: int, kind: str) -> np.ndarray:
    """Sentence lengths whose sum is exactly ``n`` times the distribution
    mean, so that every seed gives the program the same number of tokens."""
    lo, hi, mean = _LENGTHS[kind]
    if kind == "uniform":
        lengths = rng.integers(lo, hi + 1, size=n)
    else:
        raw = np.exp(rng.normal(np.log(36.0), 0.55, size=n))
        lengths = np.clip(np.rint(raw), lo, hi).astype(int)
    excess = int(lengths.sum()) - n * mean
    while excess:
        i = int(rng.integers(0, n))
        step = 1 if excess < 0 else -1
        if lo <= lengths[i] + step <= hi:
            lengths[i] += step
            excess += step
    return lengths


def make_corpus(rng: np.random.Generator, n: int, kind: str) -> Corpus:
    lengths = _lengths(rng, n, kind)
    mt, src, pe, align, word_bad, gap_bad = [], [], [], [], [], []
    hter = np.empty(n)
    for s, length in enumerate(lengths):
        length = int(length)
        mt_ids = _zipf_ids(rng, length)
        mt_tokens = [_TGT_VOCAB[i] for i in mt_ids]
        src_len = max(1, length + int(rng.integers(-2, 3)))
        src_tokens = [_SRC_VOCAB[i] for i in _zipf_ids(rng, src_len)]

        # near-diagonal alignment; at least one link so the line is not empty
        jitter = rng.integers(-1, 2, size=length)
        unaligned = rng.random(length) < 0.08
        pairs = []
        for j in range(length):
            if unaligned[j]:
                continue
            i = int(round(j * (src_len - 1) / max(1, length - 1))) + int(jitter[j])
            pairs.append((min(max(i, 0), src_len - 1), j))
        if not pairs:
            pairs.append((0, 0))

        # edits: substitute or delete MT words, insert into gaps
        edited = rng.random(length) < EDIT_RATE
        delete = rng.random(length) < 0.3
        inserted = rng.random(length + 1) < EDIT_RATE / 3.0
        pe_tokens = []
        edits = 0
        for j in range(length + 1):
            if inserted[j]:
                pe_tokens.append(_TGT_VOCAB[int(_zipf_ids(rng, 1)[0])])
                edits += 1
            if j == length:
                break
            if not edited[j]:
                pe_tokens.append(mt_tokens[j])
            elif delete[j]:
                edits += 1
            else:
                # a different word, so the edit is visible to the aligner
                new = (int(mt_ids[j]) + 1 + int(rng.integers(0, VOCAB_SIZE - 1))) % VOCAB_SIZE
                pe_tokens.append(_TGT_VOCAB[new])
                edits += 1
        if not pe_tokens:
            pe_tokens.append(mt_tokens[0])
            edits += 1
        mt.append(mt_tokens)
        src.append(src_tokens)
        pe.append(pe_tokens)
        align.append(pairs)
        word_bad.append(edited)
        gap_bad.append(inserted)
        hter[s] = min(1.0, edits / len(pe_tokens))
    return Corpus(mt, src, pe, align, word_bad, gap_bad, hter)


def make_systems(rng: np.random.Generator, corpus: Corpus, n_systems: int):
    """Per-system word P(BAD) rows and sentence scores with rotating strengths.

    System ``s`` is strong on the sentence blocks where ``block % n_systems ==
    s`` and noisy elsewhere."""
    lengths = np.array([len(row) for row in corpus.word_bad])
    bad = np.concatenate(corpus.word_bad)
    sentence_of = np.repeat(np.arange(len(lengths)), lengths)
    cuts = np.cumsum(lengths)[:-1]
    systems = []
    for s in range(n_systems):
        strong_sent = (np.arange(len(lengths)) // SYSTEM_BLOCK) % n_systems == s
        strong = strong_sent[sentence_of]
        sharp = np.where(bad, 0.8, 0.2) + rng.uniform(-0.15, 0.15, size=bad.size)
        vague = np.where(bad, 0.6, 0.4) + rng.uniform(-0.38, 0.38, size=bad.size)
        probs = np.clip(np.where(strong, sharp, vague), 0.0, 1.0)
        noise = np.where(strong_sent, 0.02, 0.06) * rng.standard_normal(len(lengths))
        scores = np.clip(corpus.hter + noise, 0.0, 1.0)
        systems.append((f"sys{s}", np.split(probs, cuts), scores))
    return systems


# ---------------------------------------------------------------------------
# Writers (plain text, one segment per line)
# ---------------------------------------------------------------------------


def _write(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("".join(line + "\n" for line in lines))


def _tags(bools) -> str:
    return " ".join("BAD" if b else "OK" for b in bools)


def _interleaved(word_bad, gap_bad) -> str:
    out = [gap_bad[0]]
    for w, g in zip(word_bad, gap_bad[1:]):
        out.append(w)
        out.append(g)
    return _tags(out)


def write_corpus(corpus: Corpus, prefix: str, *, mt_only=False):
    _write(f"{prefix}.mt", (" ".join(t) for t in corpus.mt))
    if mt_only:
        return
    _write(f"{prefix}.src", (" ".join(t) for t in corpus.src))
    _write(f"{prefix}.align", (" ".join(f"{i}-{j}" for i, j in sorted(p)) for p in corpus.align))
    _write(f"{prefix}.pe", (" ".join(t) for t in corpus.pe))


def write_systems(systems, directory: str, name: str):
    """One ``words=``/``sentences=`` pair per system and a manifest naming them."""
    lines = []
    for system_id, rows, scores in systems:
        words = f"{name}.{system_id}.probs"
        sentences = f"{name}.{system_id}.hter"
        _write(os.path.join(directory, words), (" ".join(f"{p:.6f}" for p in row) for row in rows))
        _write(os.path.join(directory, sentences), (f"{v:.6f}" for v in scores))
        lines.append(f"{system_id}\twords={words}\tsentences={sentences}")
    return lines


def _offsets(tokens):
    out, pos = [], 0
    for tok in tokens:
        out.append((pos, pos + len(tok)))
        pos += len(tok) + 1
    return out


def write_documents(corpus: Corpus, rng: np.random.Generator, directory: str):
    """Group MT sentences into documents of ``DOC_SENTENCES`` and annotate
    them from the intended edits: one span per run of BAD words, one border
    span per BAD gap, severities drawn minor/major/critical = 6/3/1."""
    os.makedirs(os.path.join(directory, "docs"), exist_ok=True)
    manifest, annotations = [], []
    n = len(corpus.mt)
    for d, first in enumerate(range(0, n, DOC_SENTENCES)):
        doc_id = f"doc{d:04d}"
        sentences = corpus.mt[first:first + DOC_SENTENCES]
        _write(os.path.join(directory, "docs", f"{doc_id}.txt"), (" ".join(t) for t in sentences))
        manifest.append(f"{doc_id}\tdocs/{doc_id}.txt")
        for k, tokens in enumerate(sentences):
            offsets = _offsets(tokens)
            word_bad = corpus.word_bad[first + k]
            gap_bad = corpus.gap_bad[first + k]
            spans = []
            run = None
            for t in range(len(tokens) + 1):
                bad = t < len(tokens) and word_bad[t]
                if bad and run is None:
                    run = t
                elif not bad and run is not None:
                    spans.append((offsets[run][0], offsets[t - 1][1]))
                    run = None
            end = offsets[-1][1]
            borders = [0] + [o for pair in offsets for o in pair] + [end]
            for g in np.flatnonzero(gap_bad):
                spans.append((borders[2 * g], borders[2 * g + 1]))
            for start, stop in sorted(spans):
                severity = ("minor", "major", "critical")[
                    int(np.searchsorted([0.6, 0.9], rng.random(), side="right"))
                ]
                annotations.append(f"{doc_id}\t{severity}\t{k}:{start}-{stop}")
    _write(os.path.join(directory, "docs.tsv"), manifest)
    _write(os.path.join(directory, "gold.anns"), annotations)
    return len(manifest)


def generate(workload: str, seed: int, directory: str, scale: float = 1.0) -> dict:
    """Write the inputs of ``workload`` for ``seed`` into ``directory``.

    Returns the sizes the result reports: sentences, MT tokens, systems,
    documents and input bytes (every file written here)."""
    shape = SHAPES[workload]
    rng = np.random.default_rng([_WORKLOAD_IDS[workload], seed])
    n = max(20, int(round(shape.sentences * scale)))
    os.makedirs(directory, exist_ok=True)
    corpus = make_corpus(rng, n, shape.length)
    systems = make_systems(rng, corpus, shape.systems)
    documents = 0
    join = os.path.join

    if workload == "ensemble-wide":
        # gold comes as files; the sequence never runs make-labels
        write_corpus(corpus, join(directory, "test"), mt_only=True)
        _write(join(directory, "test.gold.tags"),
               (_interleaved(w, g) for w, g in zip(corpus.word_bad, corpus.gap_bad)))
        _write(join(directory, "test.gold.hter"), (f"{v:.6f}" for v in corpus.hter))
    else:
        write_corpus(corpus, join(directory, "test"))
    lines = write_systems(systems, directory, "test")
    _write(join(directory, "test.systems.tsv"), lines)

    if workload == "score-long":
        documents = write_documents(corpus, rng, directory)
        for part, size in (("train", shape.train_sentences), ("dev", shape.dev_sentences)):
            extra = make_corpus(rng, max(20, int(round(size * scale))), "uniform")
            write_corpus(extra, join(directory, part))
            if part == "dev":
                _write(join(directory, "dev.systems.tsv"),
                       write_systems(make_systems(rng, extra, shape.systems), directory, "dev"))

    return {
        "sentences": n,
        "mt_tokens": int(sum(len(t) for t in corpus.mt)),
        "systems": shape.systems + (1 if workload != "ensemble-wide" else 0),
        "documents": documents,
        "input_bytes": tree_bytes(directory),
    }


def tree_bytes(directory: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, f)) for root, _, files in os.walk(directory) for f in files
    )


def tree_digest(directory: str, exclude=()) -> str:
    """SHA-256 over every file's relative path and bytes, in sorted order."""
    digest = hashlib.sha256()
    entries = []
    for root, _, files in os.walk(directory):
        for f in files:
            rel = os.path.relpath(os.path.join(root, f), directory)
            if not rel.startswith(tuple(exclude)):
                entries.append(rel)
    for rel in sorted(entries):
        digest.update(rel.encode() + b"\0")
        with open(os.path.join(directory, rel), "rb") as handle:
            digest.update(handle.read())
        digest.update(b"\0")
    return digest.hexdigest()
