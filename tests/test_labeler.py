import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qestack import labeler
from qestack.corpus import Sentence, TaggedCorpus
from qestack.errors import InconsistentScript, InvalidInput, LengthMismatch, MissingStream, RangeError
from qestack.labeler import (
    EditKind,
    EditStep,
    align_edit,
    edit_cost,
    hter,
    label_corpus,
    source_tags_from_target,
    tags_from_edits,
)

from conftest import assert_same_corpus, interleave, random_corpus, random_sentence

OK, BAD = False, True


def sent(text) -> Sentence:
    return Sentence(tuple(text.split()))


def levenshtein(a, b):
    """Independent DP oracle, cost only."""
    prev = list(range(len(b) + 1))
    for i, tok in enumerate(a, 1):
        cur = [i]
        for j, other in enumerate(b, 1):
            cur.append(min(prev[j - 1] + (tok != other), prev[j] + 1, cur[-1] + 1))
        prev = cur
    return prev[-1]


def kinds(script):
    return [s.kind for s in script]


# --- alignment --------------------------------------------------------------


def test_identical_sentences_align_as_matches():
    script = align_edit(sent("a b"), sent("a b"))
    assert kinds(script) == [EditKind.MATCH, EditKind.MATCH]
    assert edit_cost(script) == 0


def test_deletion_from_mt():
    script = align_edit(sent("a b c"), sent("a c"))
    assert kinds(script) == [EditKind.MATCH, EditKind.DEL_FROM_MT, EditKind.MATCH]
    assert script[1].mt_index == 1
    assert edit_cost(script) == 1


def test_insertion_into_gap():
    script = align_edit(sent("a c"), sent("a b c"))
    assert kinds(script) == [EditKind.MATCH, EditKind.INS_INTO_MT_GAP, EditKind.MATCH]
    assert script[1].pe_index == 1
    assert edit_cost(script) == 1


def test_alignment_cost_equals_levenshtein_oracle():
    rng = random.Random(3)
    for _ in range(400):
        mt = random_sentence(rng, 1, 10, alphabet="abcd")
        pe = random_sentence(rng, 1, 10, alphabet="abcd")
        script = align_edit(mt, pe)
        assert edit_cost(script) == levenshtein(list(mt), list(pe))
        # projected index sequences must be 0..N-1 / 0..M-1 in order
        assert [s.mt_index for s in script if s.mt_index is not None] == list(range(len(mt)))
        assert [s.pe_index for s in script if s.pe_index is not None] == list(range(len(pe)))


_PREFERENCE = (EditKind.MATCH, EditKind.SUB, EditKind.DEL_FROM_MT, EditKind.INS_INTO_MT_GAP)


def min_align_edit(mt: Sentence, pe: Sentence) -> list[EditStep]:
    """The cell-by-cell min()-based DP and backtrace that ``align_edit``
    replaced, kept verbatim as the reference of the block core."""
    mt_tokens = list(mt)
    pe_tokens = list(pe)
    n, m = len(mt_tokens), len(pe_tokens)

    dist = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        dist[i][0] = i
    for j in range(1, m + 1):
        dist[0][j] = j
    for i in range(1, n + 1):
        row = dist[i]
        prev = dist[i - 1]
        mt_tok = mt_tokens[i - 1]
        for j in range(1, m + 1):
            diag = prev[j - 1] + (0 if mt_tok == pe_tokens[j - 1] else 1)
            row[j] = min(diag, prev[j] + 1, row[j - 1] + 1)

    steps: list[EditStep] = []
    i, j = n, m
    while i > 0 or j > 0:
        here = dist[i][j]
        for kind in _PREFERENCE:
            if kind is EditKind.MATCH:
                if i > 0 and j > 0 and mt_tokens[i - 1] == pe_tokens[j - 1] and here == dist[i - 1][j - 1]:
                    steps.append(EditStep(EditKind.MATCH, mt_index=i - 1, pe_index=j - 1))
                    i, j = i - 1, j - 1
                    break
            elif kind is EditKind.SUB:
                if i > 0 and j > 0 and mt_tokens[i - 1] != pe_tokens[j - 1] and here == dist[i - 1][j - 1] + 1:
                    steps.append(EditStep(EditKind.SUB, mt_index=i - 1, pe_index=j - 1))
                    i, j = i - 1, j - 1
                    break
            elif kind is EditKind.DEL_FROM_MT:
                if i > 0 and here == dist[i - 1][j] + 1:
                    steps.append(EditStep(EditKind.DEL_FROM_MT, mt_index=i - 1))
                    i -= 1
                    break
            else:
                if j > 0 and here == dist[i][j - 1] + 1:
                    steps.append(EditStep(EditKind.INS_INTO_MT_GAP, pe_index=j - 1))
                    j -= 1
                    break
    steps.reverse()
    return steps


@st.composite
def sentence_pairs(draw):
    alphabet = draw(st.sampled_from(["ab", "abc", "abcd"]))
    tokens = st.lists(st.sampled_from(alphabet), min_size=1, max_size=30)
    return Sentence(tuple(draw(tokens))), Sentence(tuple(draw(tokens)))


@settings(max_examples=300, deadline=None)
@given(sentence_pairs())
def test_alignment_script_equals_the_min_based_oracle(pair):
    mt, pe = pair
    assert align_edit(mt, pe) == min_align_edit(mt, pe)


# --- tags from edits --------------------------------------------------------


def test_all_match_means_all_ok():
    script = align_edit(sent("a b"), sent("a b"))
    tags = tags_from_edits(script, 2)
    assert tags[1::2] == (OK, OK)
    assert tags[0::2] == (OK, OK, OK)


def test_deleted_word_is_bad():
    tags = tags_from_edits(align_edit(sent("a b c"), sent("a c")), 3)
    assert tags[1::2] == (OK, BAD, OK)
    assert tags[0::2] == (OK, OK, OK, OK)


def test_insertion_marks_enclosing_gap():
    tags = tags_from_edits(align_edit(sent("a c"), sent("a b c")), 2)
    assert tags[1::2] == (OK, OK)
    assert tags[0::2] == (OK, BAD, OK)


def test_insertion_before_first_token_marks_gap_zero():
    tags = tags_from_edits(align_edit(sent("b"), sent("a b")), 1)
    assert tags == (BAD, OK, OK)


def test_inconsistent_script_is_rejected():
    with pytest.raises(InconsistentScript):
        tags_from_edits([EditStep(EditKind.MATCH, mt_index=1)], 2)
    with pytest.raises(InconsistentScript):
        tags_from_edits([EditStep(EditKind.MATCH, mt_index=0)], 2)


def test_tag_counts_and_edit_cost_bound():
    rng = random.Random(4)
    for _ in range(300):
        mt = random_sentence(rng, 1, 9, alphabet="abc")
        pe = random_sentence(rng, 1, 9, alphabet="abc")
        script = align_edit(mt, pe)
        tags = tags_from_edits(script, len(mt))
        assert len(tags[1::2]) == len(mt)
        assert len(tags[0::2]) == len(mt) + 1
        bad = sum(t is BAD for t in tags)
        assert bad <= edit_cost(script)
        gaps_hit = [s.pe_index for s in script if s.kind is EditKind.INS_INTO_MT_GAP]
        if len(gaps_hit) == sum(t is BAD for t in tags[0::2]):
            assert bad == edit_cost(script)


# --- HTER -------------------------------------------------------------------


def test_hter_zero_iff_identical():
    rng = random.Random(5)
    for _ in range(200):
        mt = random_sentence(rng, 1, 8, alphabet="ab")
        pe = random_sentence(rng, 1, 8, alphabet="ab")
        value = hter(align_edit(mt, pe), len(pe))
        assert (value == 0.0) == (list(mt) == list(pe))


def test_hter_worked_examples():
    assert hter(align_edit(sent("a b c"), sent("a c")), 2) == 0.5
    assert hter(align_edit(sent("a b"), sent("x y z")), 3) == 1.0


def test_hter_is_clamped_to_one():
    script = align_edit(sent("a b c d"), sent("x"))  # 4 edits for 1 post-edit word
    assert edit_cost(script) == 4
    assert hter(script, 1) == 1.0


# --- source projection ------------------------------------------------------


def test_all_ok_target_gives_all_ok_source():
    tags = interleave((OK, OK), (OK, OK, OK))
    assert source_tags_from_target(tags, {(0, 0), (1, 1)}, 2) == (OK, OK)


def test_bad_word_projects_through_alignment():
    tags = interleave((OK, BAD), (OK, OK, OK))
    assert source_tags_from_target(tags, {(0, 0), (1, 1)}, 2) == (OK, BAD)


def test_bad_gap_implicates_source_between_flanking_alignments():
    tags = interleave((OK, OK), (OK, BAD, OK))
    result = source_tags_from_target(tags, {(0, 0), (2, 1)}, 3)
    assert result == (OK, BAD, OK)


def test_bad_edge_gap_implicates_nothing():
    tags = interleave((OK,), (BAD, BAD))
    assert source_tags_from_target(tags, {(0, 0)}, 2) == (OK, OK)


def test_unaligned_source_stays_ok():
    tags = interleave((BAD,), (OK, OK))
    assert source_tags_from_target(tags, set(), 2) == (OK, OK)


def test_out_of_range_alignment_raises():
    tags = interleave((OK,), (OK, OK))
    with pytest.raises(RangeError):
        source_tags_from_target(tags, {(5, 0)}, 2)


def test_target_tags_of_even_length_are_a_length_mismatch():
    with pytest.raises(LengthMismatch, match="^interleaved target tags must be 2N\\+1, got 2$"):
        source_tags_from_target((OK, OK), {(0, 0)}, 2)


def reference_source_tags(target_tags, alignments, src_len):
    """``source_tags_from_target`` as it was: a dict of each MT word's
    aligned source indices, walked word by word and gap by gap, over one
    row of interleaved target tags."""
    word_tags, gap_tags = target_tags[1::2], target_tags[0::2]
    n_mt = len(word_tags)
    by_mt = {}
    for s_idx, m_idx in alignments or ():
        if s_idx >= src_len or s_idx < 0 or m_idx >= n_mt or m_idx < 0:
            raise RangeError(f"alignment {s_idx}-{m_idx} out of range ({src_len}/{n_mt})")
        by_mt.setdefault(m_idx, []).append(s_idx)
    tags = [False] * src_len
    for m_idx, bad in enumerate(word_tags):
        if bad:
            for s_idx in by_mt.get(m_idx, ()):
                tags[s_idx] = True
    for gap_idx, bad in enumerate(gap_tags):
        left, right = by_mt.get(gap_idx - 1), by_mt.get(gap_idx)
        if not bad or gap_idx == 0 or gap_idx == n_mt or not left or not right:
            continue
        for s_idx in range(max(left) + 1, min(right)):
            tags[s_idx] = True
    return tuple(tags)


@st.composite
def alignments(draw, src_len, mt_len, spill=0):
    """No pairs, some pairs, or every MT word aligned; with ``spill``, an
    index may lie up to that far outside either sentence."""
    kind = draw(st.sampled_from(["none", "some", "every word"]))
    if kind == "none" or not mt_len + spill:
        return frozenset()
    src, mt = st.integers(-spill, src_len - 1 + spill), st.integers(-spill, mt_len - 1 + spill)
    pairs = draw(st.lists(st.tuples(src, mt), max_size=3 * (src_len + mt_len)))
    if kind == "every word":
        pairs += [(draw(src), m_idx) for m_idx in range(mt_len)]
    return draw(st.sampled_from([frozenset(pairs), pairs]))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_source_projection_equals_the_dict_of_lists_reference(data):
    src_len, mt_len = data.draw(st.integers(1, 12)), data.draw(st.integers(0, 12))
    tags = interleave(
        data.draw(st.lists(st.booleans(), min_size=mt_len, max_size=mt_len)),
        data.draw(st.lists(st.booleans(), min_size=mt_len + 1, max_size=mt_len + 1)),
    )
    pairs = data.draw(alignments(src_len, mt_len, spill=data.draw(st.sampled_from([0, 0, 2]))))
    try:
        want = reference_source_tags(tags, pairs, src_len)
    except RangeError:
        with pytest.raises(RangeError, match="out of range"):
            source_tags_from_target(tags, pairs, src_len)
    else:
        assert source_tags_from_target(tags, pairs, src_len) == want


# --- corpus-level labeling --------------------------------------------------


def test_label_corpus_fills_tags_hter_and_source(rng):
    corpus = random_corpus(rng, 30)
    labeled = label_corpus(corpus)
    assert labeled.mt == corpus.mt
    assert ((0.0 <= labeled.hter) & (labeled.hter <= 1.0)).all()
    assert [len(row[1::2]) for row in labeled.tags] == list(map(len, labeled.mt))
    assert labeled.source_tags is not None
    assert list(map(len, labeled.source_tags)) == list(map(len, labeled.src))


def reference_label(columns: dict) -> dict:
    """The columns labeled through the reference DP, cell by cell, one entry
    at a time."""
    labeled = {**columns, "tags": [], "hter": []}
    aligned = columns.get("src") is not None and columns.get("alignments") is not None
    if aligned:
        labeled["source_tags"] = []
        labeled["alignments"] = list(map(frozenset, columns["alignments"]))
    for i, (mt, pe) in enumerate(zip(columns["mt"], columns["pe"])):
        script = min_align_edit(mt, pe)
        target = tags_from_edits(script, len(mt))
        labeled["tags"].append(target)
        labeled["hter"].append(hter(script, len(pe)))
        if aligned:
            source = reference_source_tags(target, columns["alignments"][i], len(columns["src"][i]))
            labeled["source_tags"].append(source)
    return labeled


def assert_labeled_like_the_reference(columns: dict):
    labeled = label_corpus(TaggedCorpus.from_rows(**columns))
    want = reference_label(columns)
    assert len(labeled) == len(columns["mt"])
    assert labeled.tags.rows() == [list(row) for row in want["tags"]]
    if "source_tags" in want:
        assert labeled.source_tags.rows() == [list(row) for row in want["source_tags"]]
    else:
        assert labeled.source_tags is None
    assert [value.hex() for value in labeled.hter.tolist()] == [value.hex() for value in want["hter"]]
    assert_same_corpus(labeled, TaggedCorpus.from_rows(**want))


@st.composite
def labelable_columns(draw):
    """The 1 to 25 rows of one corpus: every one with a source sentence and
    alignments, every one with a source sentence only, or none with
    either."""
    alphabet = draw(st.sampled_from(["ab", "abc", "abcdefgh"]))
    length = st.integers(1, 40)
    kind = draw(st.sampled_from(["no source", "no source", "source only", "aligned", "aligned", "aligned"]))

    def tokens(n):
        return Sentence(tuple(draw(st.lists(st.sampled_from(alphabet), min_size=n, max_size=n))))

    names = {
        "no source": ("mt", "pe"),
        "source only": ("mt", "pe", "src"),
        "aligned": ("mt", "pe", "src", "alignments"),
    }
    columns = {name: [] for name in names[kind]}
    for _ in range(draw(st.integers(1, 25))):
        mt, pe = tokens(draw(length)), tokens(draw(length))
        columns["mt"].append(mt)
        columns["pe"].append(pe)
        if kind == "no source":
            continue
        src = tokens(draw(length))
        columns["src"].append(src)
        if kind == "aligned":
            columns["alignments"].append(draw(alignments(len(src), len(mt))))
    return columns


# (cell budget, longest sentence of an int16 table): the real ones; a budget
# of a few cells, so every pair is a block of its own and blocks of one
# length border each other; and the int32 table of very long sentences
_BLOCKINGS = [
    (labeler._CELL_BUDGET, labeler._INT16_LENGTH),
    (7, labeler._INT16_LENGTH),
    (labeler._CELL_BUDGET, 0),
]


@pytest.mark.parametrize("budget,int16_length", _BLOCKINGS)
@settings(max_examples=60, deadline=None)
@given(columns=labelable_columns())
def test_block_labeling_equals_the_reference_per_entry(budget, int16_length, columns):
    with mock.patch.object(labeler, "_CELL_BUDGET", budget), mock.patch.object(
        labeler, "_INT16_LENGTH", int16_length
    ):
        assert_labeled_like_the_reference(columns)


def test_a_pair_larger_than_the_cell_budget_is_a_block_of_its_own():
    rng = random.Random(14)
    columns = {"mt": [], "pe": []}
    for n, m in ((4, 6), (300, 320), (3, 2), (12, 9)):
        columns["mt"].append(random_sentence(rng, n, n, alphabet="abcd"))
        columns["pe"].append(random_sentence(rng, m, m, alphabet="abcd"))
    with mock.patch.object(labeler, "_CELL_BUDGET", 1 << 16):
        assert 301 * 321 > labeler._CELL_BUDGET
        lengths = [(len(mt), len(pe)) for mt, pe in zip(columns["mt"], columns["pe"])]
        assert [1] in list(labeler._blocks(sorted(range(4), key=lengths.__getitem__), lengths))
        assert_labeled_like_the_reference(columns)


@settings(max_examples=100, deadline=None)
@given(
    lengths=st.lists(st.tuples(st.integers(1, 60), st.integers(1, 60)), min_size=1, max_size=40),
    budget=st.sampled_from([7, 500, 5000, labeler._CELL_BUDGET]),
)
def test_blocks_cut_the_sorted_pairs_within_the_cell_budget(lengths, budget):
    order = sorted(range(len(lengths)), key=lengths.__getitem__)
    with mock.patch.object(labeler, "_CELL_BUDGET", budget):
        blocks = list(labeler._blocks(order, lengths))
    assert [k for block in blocks for k in block] == order
    for block in blocks:
        n, m = (max(side) for side in zip(*(lengths[k] for k in block)))
        assert len(block) == 1 or len(block) * (n + 1) * (m + 1) <= budget


def _corpus_with(bad_alignment_at: int | None = None, no_post_edit_at=()) -> TaggedCorpus:
    rng = random.Random(15)
    columns = {"mt": [], "src": [], "pe": [], "alignments": []}
    for k in range(7):
        mt, src = random_sentence(rng, 2, 6), random_sentence(rng, 2, 6)
        columns["mt"].append(mt)
        columns["src"].append(src)
        columns["alignments"].append(frozenset({(len(src) + 3, 0)} if k == bad_alignment_at else {(0, 0)}))
        columns["pe"].append(None if k in no_post_edit_at else random_sentence(rng, 2, 6))
    if len(no_post_edit_at) == 7:
        del columns["pe"]
    return TaggedCorpus.from_rows(**columns)


def test_label_corpus_raises_the_error_of_the_first_entry_in_file_order():
    # a corpus is checked when it is built: a missing post-edit, then
    # alignments out of range, each named by its first entry
    with pytest.raises(InvalidInput, match="^entry 6 has no pe$"):
        _corpus_with(bad_alignment_at=2, no_post_edit_at=(5,))
    with pytest.raises(RangeError, match=r"^entry 3: alignment \d+-0 out of range"):
        _corpus_with(bad_alignment_at=2)
    with pytest.raises(MissingStream):
        label_corpus(_corpus_with(no_post_edit_at=range(7)))
