"""Weak extractive span labels and paragraph-level answer coverage.

All comparisons happen on ``normalize_eval`` token sequences (lowercase,
punctuation-only tokens dropped); span offsets index into that normalized
sequence.  This is what makes the two coverage notions consistent: a
paragraph contains an answer verbatim exactly when its best same-length
window reaches a Rouge-L of 1.0.

Span search runs the bit-parallel LCS recurrence for all of a paragraph's
windows at once.  It takes ``position_masks`` and ``rouge_from_lcs`` from
``lcs``, as ``metrics`` does, so that the stages that search spans never
load ``metrics`` and ``eval-qa`` never loads this module.
"""

from __future__ import annotations

import sys
from typing import Iterable, Sequence

from .corpus import Paragraph, load_paragraphs, load_qa, release_tokens, require_book_coverage
from .errors import CorpusError, EvalError, FormatError
from .fileio import iter_jsonl, json_line, map_grouped, stage_output, write_lines
from .lcs import position_masks, rouge_from_lcs
from .records import record
from .selections import retrieval_from_record
from .text import normalize_eval, normalize_eval_tokens

# The number of set bits of each byte value, for ``bytes.translate``.
_BYTE_POPCOUNT = bytes(i.bit_count() for i in range(256))


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
    the window's LCS ``L``: the first window with the largest ``L`` wins, and
    the score is computed once, by the same float expression as ``rouge_l``.

    One pass of ``w`` bit-parallel LCS steps (Allison & Dix 1986; Hyyro
    2004) scores every window.  Window ``j`` owns field ``j`` of ``v``: the
    ``a`` bits of its LCS row, bit ``i`` cleared where the row steps up at
    answer position ``i``, and a carry bit, in whole bytes so that ``bytes``
    methods pack and unpack the fields.  Field ``j`` of ``g`` holds the
    answer positions of token ``j``, and after ``t`` shifts those of token
    ``j + t``, the ``t``-th of window ``j``.  A sum carries only into its
    field's carry bit, which ``full`` clears, and ``u`` is a subset of
    ``v``, so the difference borrows nothing: each field runs the exact
    integer recurrence alone, and ``L = a - popcount(field)``.
    """
    width = min(len(answer_tokens), len(para_tokens))
    if width == 0:
        return 0, 0, 0.0
    ref_len = len(answer_tokens)
    nbytes = ref_len // 8 + 1  # a state bits and a carry bit
    windows = len(para_tokens) - width + 1
    masks = {t: m.to_bytes(nbytes, "little") for t, m in position_masks(answer_tokens).items()}
    zero = bytes(nbytes)
    g = int.from_bytes(b"".join([masks.get(t, zero) for t in para_tokens]), "little")
    full = v = int.from_bytes(((1 << ref_len) - 1).to_bytes(nbytes, "little") * windows, "little")
    for _ in range(width):
        u = v & g
        v = ((v + u) | (v - u)) & full
        g >>= 8 * nbytes
    fields = v.to_bytes(nbytes * windows, "little")
    if ref_len < 256:
        # Times 0x0101...01, a field's byte popcounts add up in its top byte;
        # no byte carries, as nbytes bytes in a row hold at most ref_len set bits.
        ones = int.from_bytes(b"\x01" * nbytes, "little")
        sums = int.from_bytes(fields.translate(_BYTE_POPCOUNT), "little") * ones
        counts = sums.to_bytes(len(fields) + nbytes - 1, "little")[nbytes - 1 :: nbytes]
    else:
        step = range(0, len(fields), nbytes)
        counts = [int.from_bytes(fields[i : i + nbytes], "little").bit_count() for i in step]
    fewest = ref_len - width  # the count of a window whose LCS is its width
    while fewest not in counts:  # a byte search, faster than min(counts)
        fewest += 1
    start = counts.index(fewest)
    return start, start + width, rouge_from_lcs(ref_len - fewest, width, ref_len)


def best_span(paragraph: Paragraph, answer: str, question_id: str = "") -> WeakSpanLabel:
    """Weak label for one (paragraph, reference answer) pair."""
    coverage = AnswerCoverage([paragraph], answer_tokens([answer]))
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
    and ``span-oracle`` (``spans``).  ``answers`` are the question's
    ``answer_tokens``, and ``rouge`` keeps each paragraph's value.
    ``paragraphs`` is indexed by position: a book's list is dense from 0,
    and callers have checked that every index they pass is in range."""

    def __init__(
        self, paragraphs: Sequence[Paragraph], answers: Sequence[tuple[str, ...]]
    ) -> None:
        self.paragraphs = paragraphs
        self.answers = answers
        self._rouge: dict[int, float] = {}

    def _tokens(self, para_index: int) -> list[str]:
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
    return AnswerCoverage(paragraphs, answer_tokens(answers)).best(range(len(paragraphs)))


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
    grouped_paras = load_paragraphs(args.paragraphs)
    qa = load_qa(args.qa)
    require_book_coverage(None, qa, grouped_paras)
    by_id = {q.question_id: q for q in qa}
    selections = {}  # question id -> (question, the paragraphs to label)
    for lineno, obj in iter_jsonl(args.selections):
        try:
            result = retrieval_from_record(obj)
        except FormatError as exc:
            raise FormatError(f"{args.selections}: line {lineno}: {exc}") from exc
        qid = result.question_id
        where = f"{args.selections}: line {lineno}"
        if qid not in by_id:
            raise EvalError(f"{where}: unknown question {qid!r}")
        if qid in selections:
            raise EvalError(f"{where}: question {qid!r} is selected twice")
        q, top = by_id[qid], result.para_indexes()[: args.top]
        for para_index in top:
            if not 0 <= para_index < len(grouped_paras[q.book_id]):
                raise CorpusError(
                    f"selection references unknown para_index {para_index} "
                    f"in book {q.book_id!r}"
                )
        selections[qid] = q, top
    if not selections:
        raise FormatError(f"{args.selections}: no selection records")

    def labels(selection):
        q, top = selection
        coverage = AnswerCoverage(grouped_paras[q.book_id], answer_tokens(q.answers))
        lines = []
        for para_index in top:
            for span in coverage.spans(para_index):
                label = WeakSpanLabel(q.question_id, q.book_id, para_index, *span)
                lines.append(label.to_json_line())
        return lines

    def release(book):
        release_tokens(grouped_paras[book])

    chosen = list(selections.values())
    done = map_grouped(labels, chosen, [q.book_id for q, _ in chosen], args.jobs, release)
    ordered = [line for lines in done for line in lines]
    with stage_output(args, args.out, [args.paragraphs, args.qa, args.selections]):
        write_lines(args.out, ordered)
    print(f"wrote {len(ordered)} weak labels", file=sys.stderr)
    return 0
