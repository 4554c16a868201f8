"""Word/gap/source tags and HTER from (pseudo-)post-edits.

The alignment is plain Levenshtein under unit costs (no block shifts): the
labeling convention only needs a deterministic minimum-cost script, and ties
are broken during backtrace by preferring MATCH > SUB > DEL_FROM_MT >
INS_INTO_MT_GAP. The DP fills each cell by compare-and-assign, without a
builtin call per cell.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Sequence

from .corpus import Entry, Sentence, SourceTags, TaggedCorpus, TargetTags
from .errors import InconsistentScript, MissingStream, RangeError

__all__ = [
    "EditKind",
    "EditStep",
    "align_edit",
    "tags_from_edits",
    "hter",
    "source_tags_from_target",
    "label_corpus",
]


class EditKind(enum.Enum):
    MATCH = "MATCH"
    SUB = "SUB"
    DEL_FROM_MT = "DEL_FROM_MT"
    INS_INTO_MT_GAP = "INS_INTO_MT_GAP"


@dataclass(frozen=True)
class EditStep:
    kind: EditKind
    mt_index: int | None = None
    pe_index: int | None = None


# Backtrace preference when several predecessors give the optimal cost.
_PREFERENCE = (EditKind.MATCH, EditKind.SUB, EditKind.DEL_FROM_MT, EditKind.INS_INTO_MT_GAP)


def align_edit(mt: Sentence, pe: Sentence) -> list[EditStep]:
    """Minimum-cost edit script turning ``mt`` into ``pe`` (sub=del=ins=1)."""
    mt_tokens = list(mt)
    pe_tokens = list(pe)
    n, m = len(mt_tokens), len(pe_tokens)

    # Each cell is min(diag, up + 1, left + 1), written as min(diag,
    # min(up, left) + 1) by compare-and-assign: the same ints as min(),
    # without a builtin call per cell. ``left`` ends as the cell itself.
    dist = [list(range(m + 1))]
    for i, mt_tok in enumerate(mt_tokens, 1):
        prev = dist[-1]
        row = [i]
        left = i
        for pe_tok, diag, up in zip(pe_tokens, prev, prev[1:]):
            if mt_tok != pe_tok:
                diag += 1
            if up < left:
                left = up
            left += 1
            if diag < left:
                left = diag
            row.append(left)
        dist.append(row)

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


def edit_cost(script: Sequence[EditStep]) -> int:
    return sum(1 for step in script if step.kind is not EditKind.MATCH)


def tags_from_edits(script: Sequence[EditStep], n_mt: int) -> TargetTags:
    """MT word is BAD when substituted or deleted; gap i is BAD when at least
    one insertion lands between MT tokens i-1 and i (gap 0 precedes token 0).
    BAD is true."""
    word_tags = [False] * n_mt
    gap_tags = [False] * (n_mt + 1)
    mt_pos = 0
    for step in script:
        if step.kind is EditKind.INS_INTO_MT_GAP:
            gap_tags[mt_pos] = True
            continue
        if step.mt_index != mt_pos:
            raise InconsistentScript(
                f"edit script visits MT index {step.mt_index}, expected {mt_pos}"
            )
        if mt_pos >= n_mt:
            raise InconsistentScript(f"edit script overruns MT length {n_mt}")
        if step.kind is not EditKind.MATCH:
            word_tags[mt_pos] = True
        mt_pos += 1
    if mt_pos != n_mt:
        raise InconsistentScript(f"edit script covers {mt_pos} MT tokens, expected {n_mt}")
    return TargetTags(word_tags=tuple(word_tags), gap_tags=tuple(gap_tags))


def hter(script: Sequence[EditStep], pe_len: int, cap: bool = True) -> float:
    """Edit count divided by post-edit length, clamped to [0, 1] unless
    ``cap`` is disabled."""
    if pe_len < 1:
        raise RangeError("post-edit length must be >= 1")
    value = edit_cost(script) / pe_len
    if cap:
        value = min(1.0, max(0.0, value))
    return value


def source_tags_from_target(
    target_tags: TargetTags,
    alignments,
    src_len: int,
) -> SourceTags:
    """Project target tags onto the source.

    A source token is BAD when aligned to a BAD MT word. A BAD gap i
    additionally implicates the source tokens lying strictly between
    max(aligned src of MT token i-1) and min(aligned src of MT token i); when
    either flanking token is missing or unaligned, the gap implicates nothing.
    Unaligned source tokens stay OK.
    """
    n_mt = len(target_tags.word_tags)
    by_mt: dict[int, list[int]] = {}
    for s_idx, m_idx in alignments or ():
        if s_idx >= src_len or s_idx < 0 or m_idx >= n_mt or m_idx < 0:
            raise RangeError(f"alignment {s_idx}-{m_idx} out of range ({src_len}/{n_mt})")
        by_mt.setdefault(m_idx, []).append(s_idx)

    tags = [False] * src_len
    for m_idx, bad in enumerate(target_tags.word_tags):
        if bad:
            for s_idx in by_mt.get(m_idx, ()):
                tags[s_idx] = True

    for gap_idx, bad in enumerate(target_tags.gap_tags):
        if not bad:
            continue
        left = by_mt.get(gap_idx - 1)
        right = by_mt.get(gap_idx)
        if gap_idx == 0 or gap_idx == n_mt or not left or not right:
            continue
        for s_idx in range(max(left) + 1, min(right)):
            tags[s_idx] = True
    return SourceTags(tuple(tags))


def label_entry(entry: Entry, cap: bool = True) -> Entry:
    if entry.pe is None:
        raise MissingStream("cannot label an entry without a post-edit")
    script = align_edit(entry.mt, entry.pe)
    target = tags_from_edits(script, len(entry.mt))
    score = hter(script, len(entry.pe), cap=cap)
    source = None
    if entry.src is not None and entry.alignments is not None:
        source = source_tags_from_target(target, entry.alignments, len(entry.src))
    return replace(entry, target_tags=target, source_tags=source, hter=score)


def label_corpus(corpus: TaggedCorpus, cap: bool = True) -> TaggedCorpus:
    """Label every entry from its post-edit (deterministic sentence order)."""
    return TaggedCorpus(tuple(label_entry(e, cap=cap) for e in corpus))
