import os
import random
import re
import string
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from qestack.corpus import Sentence, TaggedCorpus, Tag
from qestack.errors import LengthMismatch, ParseError

# CI (which GitHub Actions sets) runs the property tests on a fixed example
# sequence and without per-example deadlines on slow runners.
settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


# --- the Tag-object readers that bool BAD indicators replaced, kept as references ---


def reference_parse_tag(text, *, file=None, line=None):
    """``Tag.parse`` as it was."""
    if text == "OK":
        return Tag.OK
    if text == "BAD":
        return Tag.BAD
    raise ParseError(f"invalid tag {text!r} (expected OK or BAD)", file=file, line=line)


def reference_token_lines(path):
    """The fields of each line of a probability, score, tag or alignment
    file, read as text under the token-file rule: a byte that is not UTF-8,
    then an empty line (Unicode whitespace alone included), is a ParseError
    naming its line; a line ends in \\n or \\r\\n, and its fields are its runs
    between spaces and tabs."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the line as str.splitlines counts them, as for every other file
        line = len((data[: exc.start].decode("utf-8") + "?").splitlines())
        message = f"not UTF-8: {exc.reason} (byte 0x{data[exc.start]:02x})"
        raise ParseError(message, file=str(path), line=line) from None
    lines = re.split("\r?\n", text)
    if lines[-1] == "":
        lines.pop()
    for i, line in enumerate(lines, 1):
        if not line.strip():
            raise ParseError("empty line", file=str(path), line=i)
    return [re.findall("[^ \t]+", line) for line in lines]


def reference_read_tag_lines(path):
    """``corpus.read_tag_lines`` with the Tag reader it replaced: one
    ``Tag.parse`` per field of :func:`reference_token_lines`."""
    return [
        [reference_parse_tag(t, file=str(path), line=i) for t in fields]
        for i, fields in enumerate(reference_token_lines(path), 1)
    ]


def reference_read_tag_rows(path, stream, lengths=()):
    """Tag lines of a file; for the target, words and gaps streams every line
    must be interleaved, and words or gaps keep only that stream's tags. A
    words or gaps line whose length is already ``lengths[i]``, the stream's
    length on that line, is taken as it is."""
    rows = reference_read_tag_lines(path)
    if stream not in ("target", "words", "gaps"):
        return rows
    out = []
    for i, row in enumerate(rows, 1):
        if stream == "target" or i > len(lengths) or len(row) != lengths[i - 1]:
            if len(row) < 3 or len(row) % 2 == 0:
                message = f"interleaved tag line must hold 2N+1 entries, got {len(row)}"
                raise LengthMismatch(message, file=str(path), line=i)
            row = row if stream == "target" else row[1::2] if stream == "words" else row[0::2]
        out.append(row)
    return out


def reference_flatten_bad(tags):
    """``ensemble._flatten_bad`` as it was, reading any tag by ``bool(tag)``."""
    return np.fromiter(
        (bool(tag) for sentence in tags for tag in sentence), dtype=bool
    )


def random_token(rng: random.Random, alphabet=string.ascii_lowercase) -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))


def random_sentence(rng: random.Random, min_len=1, max_len=8, alphabet=string.ascii_lowercase) -> Sentence:
    return Sentence(tuple(random_token(rng, alphabet) for _ in range(rng.randint(min_len, max_len))))


def random_tags(rng: random.Random, n: int, p_bad=0.3) -> tuple[bool, ...]:
    return tuple(rng.random() < p_bad for _ in range(n))


def interleave(words, gaps) -> tuple:
    """The interleaved tag row of N word tags and N+1 gap tags: gap 0, word
    1, gap 1, ..., word N, gap N."""
    row = [None] * (len(words) + len(gaps))
    row[0::2] = gaps
    row[1::2] = words
    return tuple(row)


def random_target_tags(rng: random.Random, n: int) -> tuple[bool, ...]:
    """2N+1 interleaved tags, the N word tags drawn before the N+1 gap tags."""
    words = random_tags(rng, n)
    return interleave(words, random_tags(rng, n + 1))


def random_alignments(rng: random.Random, src_len: int, mt_len: int) -> frozenset:
    # at least one pair: empty alignment lines are not serializable
    pairs = {(rng.randrange(src_len), rng.randrange(mt_len))}
    for _ in range(rng.randint(0, src_len + mt_len)):
        pairs.add((rng.randrange(src_len), rng.randrange(mt_len)))
    return frozenset(pairs)


CORPUS_COLUMNS = ("mt", "src", "pe", "tags", "source_tags", "hter", "alignments")


def random_row(rng: random.Random) -> dict:
    """One segment's value in every column, drawn in ``CORPUS_COLUMNS`` order."""
    mt = random_sentence(rng)
    src = random_sentence(rng)
    return {
        "mt": mt,
        "src": src,
        "pe": random_sentence(rng),
        "tags": random_target_tags(rng, len(mt)),
        "source_tags": random_tags(rng, len(src)),
        "hter": round(rng.random(), 6),
        "alignments": random_alignments(rng, len(src), len(mt)),
    }


def random_corpus(rng: random.Random, n_sentences: int) -> TaggedCorpus:
    rows = [random_row(rng) for _ in range(n_sentences)]
    return TaggedCorpus.from_rows(**{name: [row[name] for row in rows] for name in CORPUS_COLUMNS})


def alignment_sets(table) -> list[frozenset]:
    """Each line of an alignment table ``(pairs, offsets)`` as a frozenset of
    ``(src, mt)`` pairs."""
    pairs, offsets = table
    bounds = offsets.tolist()
    return [frozenset(map(tuple, pairs[lo:hi].tolist())) for lo, hi in zip(bounds, bounds[1:])]


def _comparable(corpus: TaggedCorpus, name: str):
    column = getattr(corpus, name)
    if column is None or name in ("mt", "src", "pe"):
        return column
    if name == "alignments":
        return [part.tolist() for part in column]
    return column.rows() if name in ("tags", "source_tags") else column.tolist()


def assert_same_corpus(got: TaggedCorpus, want: TaggedCorpus):
    """The two corpora hold the same columns: equal sentences, tag rows, HTER
    values and alignment tables, and None in the same places."""
    assert len(got) == len(want)
    for name in CORPUS_COLUMNS:
        assert _comparable(got, name) == _comparable(want, name), name


def complementary_systems(rng: random.Random, n_sentences=60, max_len=8, n_systems=3):
    """Synthetic word-level systems whose strengths rotate across sentence
    blocks, so a blend beats every single system."""
    from qestack.corpus import PredictionSet

    gold = []
    lengths = []
    for _ in range(n_sentences):
        n = rng.randint(2, max_len)
        lengths.append(n)
        gold.append([rng.random() < 0.35 for _ in range(n)])

    systems = []
    for s in range(n_systems):
        rows = []
        for idx, tags in enumerate(gold):
            accurate = idx % n_systems == s
            row = []
            for tag in tags:
                if accurate:
                    base = 0.85 if tag else 0.15
                    row.append(min(1.0, max(0.0, base + rng.uniform(-0.1, 0.1))))
                else:
                    signal = 0.6 if tag else 0.4
                    row.append(min(1.0, max(0.0, signal + rng.uniform(-0.38, 0.38))))
            rows.append(tuple(row))
        systems.append(PredictionSet(system_id=f"sys{s}", word_probs=tuple(rows)))
    return systems, gold


def fold_specialist_systems(rng: random.Random, n_sentences=60, max_len=7, k=10, n_systems=3):
    """Systems whose reliability varies by fold block: the locally best system
    rotates across the k contiguous blocks."""
    from qestack.corpus import PredictionSet

    gold = []
    for _ in range(n_sentences):
        n = rng.randint(2, max_len)
        gold.append([rng.random() < 0.35 for _ in range(n)])

    def block(idx):
        return min(k - 1, idx * k // n_sentences)

    systems = []
    for s in range(n_systems):
        rows = []
        for idx, tags in enumerate(gold):
            strong = block(idx) % n_systems == s
            row = []
            for tag in tags:
                if strong:
                    base = 0.8 if tag else 0.2
                    row.append(min(1.0, max(0.0, base + rng.uniform(-0.15, 0.15))))
                else:
                    row.append(min(1.0, max(0.0, rng.uniform(0.1, 0.9))))
            rows.append(tuple(row))
        systems.append(PredictionSet(system_id=f"sys{s}", word_probs=tuple(rows)))
    return systems, gold


@pytest.fixture
def rng():
    return random.Random(20240817)


# --- name<TAB>value tables: the linear model, weights, ridge models, doc tables ---

TABLE_DEFECTS = ("value not finite", "wrong value count", "empty name", "repeated name")


def table_defect(text, defect):
    """A table of at least two lines with ``defect`` made on its first line,
    the line its reader must name and the message it must give. A repeated
    name is the first line's again on the second."""
    lines = text.splitlines()
    name, *values = lines[0].split("\t")
    line, message = 1, f"expected a non-empty name and {len(values)} tab-separated value(s)"
    if defect == "value not finite":
        lines[0] = "\t".join([name, "nan", *values[1:]])
        message = "value nan is not finite"
    elif defect == "wrong value count":
        lines[0] += "\t0.5"
    elif defect == "empty name":
        lines[0] = "\t".join(["", *values])
    else:
        lines.insert(1, lines[0])
        line, message = 2, f"duplicate name {name!r}"
    return "".join(f"{row}\n" for row in lines), line, message
