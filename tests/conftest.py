import os
import random
import string

import pytest
from hypothesis import settings

from qestack.corpus import Entry, Sentence, SourceTags, TaggedCorpus, Tag, TargetTags

# CI (which GitHub Actions sets) runs the property tests on a fixed example
# sequence and without per-example deadlines on slow runners.
settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


def random_token(rng: random.Random, alphabet=string.ascii_lowercase) -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))


def random_sentence(rng: random.Random, min_len=1, max_len=8, alphabet=string.ascii_lowercase) -> Sentence:
    return Sentence(tuple(random_token(rng, alphabet) for _ in range(rng.randint(min_len, max_len))))


def random_tags(rng: random.Random, n: int, p_bad=0.3) -> tuple[Tag, ...]:
    return tuple(Tag.BAD if rng.random() < p_bad else Tag.OK for _ in range(n))


def random_target_tags(rng: random.Random, n: int) -> TargetTags:
    return TargetTags(word_tags=random_tags(rng, n), gap_tags=random_tags(rng, n + 1))


def random_alignments(rng: random.Random, src_len: int, mt_len: int) -> frozenset:
    # at least one pair: empty alignment lines are not serializable
    pairs = {(rng.randrange(src_len), rng.randrange(mt_len))}
    for _ in range(rng.randint(0, src_len + mt_len)):
        pairs.add((rng.randrange(src_len), rng.randrange(mt_len)))
    return frozenset(pairs)


def random_entry(rng: random.Random) -> Entry:
    mt = random_sentence(rng)
    src = random_sentence(rng)
    return Entry(
        mt=mt,
        src=src,
        pe=random_sentence(rng),
        target_tags=random_target_tags(rng, len(mt)),
        source_tags=SourceTags(random_tags(rng, len(src))),
        hter=round(rng.random(), 6),
        alignments=random_alignments(rng, len(src), len(mt)),
    )


def random_corpus(rng: random.Random, n_sentences: int) -> TaggedCorpus:
    return TaggedCorpus(tuple(random_entry(rng) for _ in range(n_sentences)))


def complementary_systems(rng: random.Random, n_sentences=60, max_len=8, n_systems=3):
    """Synthetic word-level systems whose strengths rotate across sentence
    blocks, so a blend beats every single system."""
    from qestack.corpus import PredictionSet

    gold = []
    lengths = []
    for _ in range(n_sentences):
        n = rng.randint(2, max_len)
        lengths.append(n)
        gold.append([Tag.BAD if rng.random() < 0.35 else Tag.OK for _ in range(n)])

    systems = []
    for s in range(n_systems):
        rows = []
        for idx, tags in enumerate(gold):
            accurate = idx % n_systems == s
            row = []
            for tag in tags:
                if accurate:
                    base = 0.85 if tag is Tag.BAD else 0.15
                    row.append(min(1.0, max(0.0, base + rng.uniform(-0.1, 0.1))))
                else:
                    signal = 0.6 if tag is Tag.BAD else 0.4
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
        gold.append([Tag.BAD if rng.random() < 0.35 else Tag.OK for _ in range(n)])

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
                    base = 0.8 if tag is Tag.BAD else 0.2
                    row.append(min(1.0, max(0.0, base + rng.uniform(-0.15, 0.15))))
                else:
                    row.append(min(1.0, max(0.0, rng.uniform(0.1, 0.9))))
            rows.append(tuple(row))
        systems.append(PredictionSet(system_id=f"sys{s}", word_probs=tuple(rows)))
    return systems, gold


@pytest.fixture
def rng():
    return random.Random(20240817)
