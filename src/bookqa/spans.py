"""Weak extractive span labels and paragraph-level answer coverage.

All comparisons happen on ``normalize_eval`` token sequences (lowercase,
punctuation-only tokens dropped); span offsets index into that normalized
sequence.  This is what makes the two coverage notions consistent: a
paragraph contains an answer verbatim exactly when its best same-length
window reaches a Rouge-L of 1.0.

The bit-parallel LCS kernel lives here, and ``metrics`` takes it from here
for Rouge-L, so that the stages that search spans never load ``metrics``.
"""

from __future__ import annotations

import sys
from collections import Counter
from typing import Iterable, Sequence

from .corpus import Paragraph, load_paragraphs, load_qa
from .errors import CorpusError, EvalError, FormatError
from .fileio import iter_jsonl, json_line, map_grouped, write_lines, write_sidecar
from .records import record
from .text import normalize_eval, normalize_eval_tokens

ROUGE_BETA = 1.2


def position_masks(reference: Sequence[str]) -> dict[str, int]:
    """Map each token to a bitmask of its positions in ``reference``."""
    masks: dict[str, int] = {}
    for i, tok in enumerate(reference):
        masks[tok] = masks.get(tok, 0) | (1 << i)
    return masks


def lcs_with_masks(candidate: Sequence[str], masks: dict[str, int], ref_len: int) -> int:
    """LCS length of ``candidate`` against the reference of length
    ``ref_len`` whose ``position_masks`` are ``masks``.

    Bit-parallel recurrence (Allison & Dix 1986; Hyyro 2004): ``v`` holds
    the current row of the LCS table in difference form, bit ``j`` cleared
    where the row steps up by one at column ``j``, so the LCS is the number
    of cleared bits.  One pass over ``candidate`` costs O(|candidate|)
    big-int operations of ``ref_len`` bits.
    """
    full = (1 << ref_len) - 1
    v = full
    for tok in candidate:
        mask = masks.get(tok)
        if mask:
            u = v & mask
            v = ((v + u) | (v - u)) & full
    return ref_len - v.bit_count()


def rouge_from_lcs(lcs: int, cand_len: int, ref_len: int) -> float:
    """Rouge-L F-measure, recall weighted by ``ROUGE_BETA``, from an LCS
    length and the two sequence lengths."""
    if lcs == 0:
        return 0.0
    precision = lcs / cand_len
    recall = lcs / ref_len
    beta_sq = ROUGE_BETA * ROUGE_BETA
    return (1.0 + beta_sq) * precision * recall / (recall + beta_sq * precision)


@record
class WeakSpanLabel:
    question_id: str
    book_id: str
    para_index: int
    start: int  # token offsets into the normalized paragraph, half-open
    end: int
    score: float

    def to_json_line(self) -> str:
        return json_line({**vars(self), "score": float(self.score)})  # fields in order


def best_span_tokens(
    para_tokens: Sequence[str], answer_tokens: Sequence[str]
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
    score = rouge_from_lcs(best_lcs, width, ref_len)
    return best_start, best_start + width, score


def best_span(paragraph: Paragraph, answer: str, question_id: str = "") -> WeakSpanLabel:
    """Weak label for one (paragraph, reference answer) pair."""
    coverage = AnswerCoverage([paragraph], [answer])
    if not coverage.answers:
        raise EvalError(f"answer normalizes to nothing: {answer!r}")
    [span] = coverage.spans(0)
    return WeakSpanLabel(question_id, paragraph.book_id, paragraph.para_index, *span)


def answer_tokens(answers: Sequence[str]) -> list[tuple[str, ...]]:
    """Each answer's normalized tokens; answers that normalize to nothing
    are dropped."""
    return [t for t in (normalize_eval(a).tokens for a in answers) if t]


class AnswerCoverage:
    """How one book's paragraphs score against one question's answers: for
    ``supervise`` (``rouge``), ``eval-ir`` and ``coverage_rouge`` (``best``)
    and ``span-oracle`` (``spans``).  The answers are normalized once, here,
    and ``rouge`` keeps each paragraph's value.  ``paragraphs`` is indexed
    by position: a book's list is dense from 0."""

    def __init__(self, paragraphs: Sequence[Paragraph], answers: Sequence[str]) -> None:
        self.paragraphs = paragraphs
        self.answers = answer_tokens(answers)
        self._rouge: dict[int, float] = {}

    def _tokens(self, para_index: int) -> list[str]:
        if not 0 <= para_index < len(self.paragraphs):
            raise CorpusError(f"retrieved para_index {para_index} missing from paragraphs")
        return normalize_eval_tokens(self.paragraphs[para_index].tokens.tokens)

    def spans(self, para_index: int) -> list[tuple[int, int, float]]:
        """The paragraph's best span against each answer, in answer order."""
        para = self._tokens(para_index)
        return [best_span_tokens(para, ans) for ans in self.answers]

    def rouge(self, para_index: int) -> float:
        """The paragraph's largest best-span Rouge-L over the answers (0.0
        if there are none); the scan stops at 1.0, which nothing beats."""
        score = self._rouge.get(para_index)
        if score is None:
            para = self._tokens(para_index)
            score = 0.0
            for ans in self.answers:
                score = max(score, best_span_tokens(para, ans)[2])
                if score >= 1.0:
                    break
            self._rouge[para_index] = score
        return score

    def best(self, para_indexes: Iterable[int]) -> float:
        """The largest ``rouge`` over ``para_indexes``, stopping at 1.0."""
        best = 0.0
        for p in para_indexes:
            best = max(best, self.rouge(p))
            if best >= 1.0:
                break
        return best


def coverage_rouge(paragraphs: Sequence[Paragraph], answers: Sequence[str]) -> float:
    """Max best-span Rouge-L over every (paragraph, answer) pair; answers
    that normalize to nothing are skipped."""
    if not paragraphs or not answers:
        raise EvalError("coverage needs at least one paragraph and one answer")
    return AnswerCoverage(paragraphs, answers).best(range(len(paragraphs)))


def contains_answer(paragraph: Paragraph, answers: Sequence[str]) -> bool:
    """True iff some answer occurs contiguously in the normalized paragraph.

    The exact-match reference: the IR evaluation derives EM from a best-span
    Rouge-L of 1.0 instead, and the tests hold the two equal.
    """
    para_tokens = normalize_eval_tokens(paragraph.tokens.tokens)
    for ans in answer_tokens(answers):
        width = len(ans)
        if width > len(para_tokens):
            continue
        target = list(ans)
        for start in range(len(para_tokens) - width + 1):
            if para_tokens[start : start + width] == target:
                return True
    return False


# ---------------------------------------------------------------------------
# the span-oracle subcommand (dispatched by ``cli.main``)


def _cmd_span_oracle(args) -> int:
    # Not at module level: ``metrics`` imports this module, and ``eval-qa``
    # has no use for ``bm25``.
    from .bm25 import retrieval_from_record

    grouped_paras = load_paragraphs(args.paragraphs)
    qa = load_qa(args.qa)
    by_id = {q.question_id: q for q in qa}
    selections = []
    for lineno, obj in iter_jsonl(args.selections):
        try:
            result = retrieval_from_record(obj)
        except FormatError as exc:
            raise FormatError(f"{args.selections}: line {lineno}: {exc}") from exc
        if result.question_id not in by_id:
            raise EvalError(
                f"{args.selections}: line {lineno}: unknown question "
                f"{result.question_id!r}"
            )
        selections.append((by_id[result.question_id], result))
    for q, _ in selections:
        if q.book_id not in grouped_paras:
            raise CorpusError(f"no paragraphs for book {q.book_id!r}")

    def labels(selection):
        q, result = selection
        paragraphs = grouped_paras[q.book_id]  # dense from 0, in order
        coverage = AnswerCoverage(paragraphs, q.answers)
        lines = []
        for para_index in result.para_indexes()[: args.top]:
            if not 0 <= para_index < len(paragraphs):
                raise CorpusError(
                    f"selection references unknown para_index {para_index} "
                    f"in book {q.book_id!r}"
                )
            for span in coverage.spans(para_index):
                label = WeakSpanLabel(q.question_id, q.book_id, para_index, *span)
                lines.append(label.to_json_line())
        return lines

    done = map_grouped(labels, selections, [q.book_id for q, _ in selections], args.jobs)
    ordered = [line for lines in done for line in lines]
    write_lines(args.out, ordered)
    config = {
        "paragraphs": str(args.paragraphs),
        "qa": str(args.qa),
        "selections": str(args.selections),
        "top": args.top,
        "out": str(args.out),
    }
    write_sidecar(args.out, "span-oracle", config, [args.paragraphs, args.qa, args.selections])
    print(f"wrote {len(ordered)} weak labels", file=sys.stderr)
    return 0
