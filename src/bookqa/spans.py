"""Weak extractive span labels and paragraph-level answer coverage.

All comparisons happen on ``normalize_eval`` token sequences (lowercase,
punctuation-only tokens dropped); span offsets index into that normalized
sequence.  This is what makes the two coverage notions consistent: a
paragraph contains an answer verbatim exactly when its best same-length
window reaches a Rouge-L of 1.0.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Sequence

from .corpus import Paragraph
from .errors import EvalError
from .metrics import ROUGE_BETA, lcs_with_masks, position_masks, rouge_from_lcs
from .records import record
from .text import normalize_eval, normalize_eval_tokens


@record
class WeakSpanLabel:
    question_id: str
    book_id: str
    para_index: int
    start: int  # token offsets into the normalized paragraph, half-open
    end: int
    score: float

    def to_json_line(self) -> str:
        return (
            f'{{"question_id": {json.dumps(self.question_id)}, '
            f'"book_id": {json.dumps(self.book_id)}, '
            f'"para_index": {self.para_index}, "start": {self.start}, '
            f'"end": {self.end}, "score": {self.score:.6f}}}'
        )


def best_span_tokens(
    para_tokens: Sequence[str], answer_tokens: Sequence[str], beta: float = ROUGE_BETA
) -> tuple[int, int, float]:
    """Best contiguous window of length ``min(|answer|, |paragraph|)`` by
    Rouge-L against the answer; ties break on the smallest start offset.

    Both inputs must already be normalized.  Returns ``(start, end, score)``;
    a paragraph that normalized to nothing yields ``(0, 0, 0.0)``.

    Every window has the same width ``w`` and the answer length ``a`` is
    fixed, so Rouge-L ``(1+beta^2)*L / (w + beta^2*a)`` strictly increases in
    the window's LCS ``L``: windows are compared by integer LCS and the score
    is computed once, by the same float expression as ``rouge_l``.  The
    multiset overlap between window and answer bounds ``L`` from above and
    is kept as the window slides; a window whose overlap is no more than the
    best LCS so far could at most tie, and a tie keeps the earlier start, so
    its LCS is never computed.
    """
    width = min(len(answer_tokens), len(para_tokens))
    if width == 0:
        return 0, 0, 0.0
    ref_len = len(answer_tokens)
    masks = position_masks(answer_tokens)
    need = Counter(answer_tokens)
    held = dict.fromkeys(need, 0)
    overlap = 0
    best_start, best_lcs = 0, 0
    for end, tok in enumerate(para_tokens):
        if tok in held:
            held[tok] += 1
            if held[tok] <= need[tok]:
                overlap += 1
        start = end + 1 - width
        if start < 0:
            continue
        if overlap > best_lcs:
            lcs = lcs_with_masks(para_tokens[start : end + 1], masks, ref_len)
            if lcs > best_lcs:
                best_start, best_lcs = start, lcs
                if lcs == width:  # no window can beat a full-width LCS
                    break
        gone = para_tokens[start]
        if gone in held:
            if held[gone] <= need[gone]:
                overlap -= 1
            held[gone] -= 1
    score = rouge_from_lcs(best_lcs, width, ref_len, beta)
    return best_start, best_start + width, score


def best_span(paragraph: Paragraph, answer: str, question_id: str = "") -> WeakSpanLabel:
    """Weak label for one (paragraph, reference answer) pair."""
    answer_tokens = normalize_eval(answer).tokens
    if not answer_tokens:
        raise EvalError(f"answer normalizes to nothing: {answer!r}")
    para_tokens = normalize_eval_tokens(paragraph.tokens.tokens)
    start, end, score = best_span_tokens(para_tokens, answer_tokens)
    return WeakSpanLabel(
        question_id=question_id,
        book_id=paragraph.book_id,
        para_index=paragraph.para_index,
        start=start,
        end=end,
        score=score,
    )


def _usable_answer_tokens(answers: Sequence[str]) -> list[tuple[str, ...]]:
    return [t for t in (normalize_eval(a).tokens for a in answers) if t]


def coverage_rouge(paragraphs: Sequence[Paragraph], answers: Sequence[str]) -> float:
    """Max best-span Rouge-L over every (paragraph, answer) pair; answers
    that normalize to nothing are skipped."""
    if not paragraphs or not answers:
        raise EvalError("coverage needs at least one paragraph and one answer")
    answer_tokens = _usable_answer_tokens(answers)
    if not answer_tokens:
        return 0.0
    best = 0.0
    for paragraph in paragraphs:
        para_tokens = normalize_eval_tokens(paragraph.tokens.tokens)
        for ans in answer_tokens:
            value = best_span_tokens(para_tokens, ans)[2]
            if value > best:
                best = value
                if best >= 1.0:
                    return best
    return best


def contains_answer(paragraph: Paragraph, answers: Sequence[str]) -> bool:
    """True iff some answer occurs contiguously in the normalized paragraph.

    The exact-match reference: the IR evaluation derives EM from
    ``coverage_rouge(...) == 1.0`` instead, and the tests hold the two equal.
    """
    para_tokens = normalize_eval_tokens(paragraph.tokens.tokens)
    for ans in _usable_answer_tokens(answers):
        width = len(ans)
        if width > len(para_tokens):
            continue
        target = list(ans)
        for start in range(len(para_tokens) - width + 1):
            if para_tokens[start : start + width] == target:
                return True
    return False
