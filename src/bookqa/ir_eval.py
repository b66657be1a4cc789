"""Answer-coverage evaluation of paragraph selections and the ranker ablation.

The ablation scores four selections per question: the BM25 baseline top-k,
the reranked top-k drawn from the baseline's top candidate pool, the full
candidate pool itself (the upper bound for any reranker over it), and the
question+answer oracle retrieval top-k.  Coverage is reported two ways per
selection: the mean best same-length-span Rouge-L, and the fraction of
questions whose answer occurs verbatim in some selected paragraph (EM).  A
verbatim occurrence is exactly a best-span Rouge-L of 1.0, so EM is derived
from the span score, which is computed once per (question, paragraph).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .bm25 import Bm25Index, oracle_query, question_query, retrieve
from .corpus import (
    DEFAULT_K_BASE,
    DEFAULT_K_TOP,
    MODE_QUESTION,
    MODE_QUESTION_ANSWER,
    Paragraph,
    QaExample,
    group_by_book,
)
from .errors import EvalError
from .fileio import parallel_map
from .reranker import (
    IdentityReranker,
    LexicalReranker,
    RerankCandidate,
    RerankRequest,
    Scorer,
    apply_scores,
)
from .spans import coverage_rouge


@dataclass(frozen=True)
class CoverageReport:
    selection: str
    em_coverage: float
    rouge_coverage: float
    n_questions: int

    def to_dict(self) -> dict:
        return {
            "selection": self.selection,
            "em_coverage": round(self.em_coverage, 6),
            "rouge_coverage": round(self.rouge_coverage, 6),
            "model_selection_score": round(model_selection_score(self), 6),
            "n_questions": self.n_questions,
        }


def model_selection_score(report: CoverageReport) -> float:
    """Average of EM and Rouge-L coverage, the ranker model-selection signal."""
    return (report.em_coverage + report.rouge_coverage) / 2.0


def evaluate_selection(
    examples: Sequence[QaExample],
    selections: Mapping[str, Sequence[Paragraph]],
    selection_label: str,
) -> CoverageReport:
    """Coverage of per-question paragraph selections; every question must
    have at least one selected paragraph."""
    if not examples:
        raise EvalError("no questions to evaluate")
    em_sum = 0.0
    rouge_sum = 0.0
    for q in examples:
        selected = selections.get(q.question_id)
        if not selected:
            raise EvalError(f"question {q.question_id!r} has no selected paragraphs")
        rouge = coverage_rouge(selected, q.answers)
        em_sum += float(rouge == 1.0)
        rouge_sum += rouge
    n = len(examples)
    return CoverageReport(selection_label, em_sum / n, rouge_sum / n, n)


def row_labels(k_base: int, k_top: int) -> tuple[str, str, str, str]:
    return (
        f"bm25_top{k_top}",
        f"reranked_top{k_top}",
        f"upperbound_top{k_base}",
        f"oracle_top{k_top}",
    )


@dataclass(frozen=True)
class QuestionAblation:
    """Per-question (EM, Rouge-L) coverage for the four ablation rows, and
    the rerank request that was scored."""

    rows: tuple[tuple[bool, float], ...]
    request: RerankRequest


def ablation_for_question(
    index: Bm25Index,
    paragraphs: Sequence[Paragraph],
    example: QaExample,
    scorer: Scorer,
    k_base: int = DEFAULT_K_BASE,
    k_top: int = DEFAULT_K_TOP,
) -> QuestionAblation:
    """Retrieve the pool, score its request, and cover the four rows: each
    row is the maximum of its paragraphs' coverage, computed once each."""
    by_index = {p.para_index: p for p in paragraphs}

    baseline = retrieve(
        index, question_query(example), k_base, example.question_id, MODE_QUESTION
    )
    if not baseline.ranked:
        raise EvalError(
            f"question {example.question_id!r} has no BM25 candidates; "
            "its query shares no terms with the book"
        )
    unknown = [p for p in baseline.para_indexes() if p not in by_index]
    if unknown:
        raise EvalError(
            f"index for book {example.book_id!r} references paragraphs missing "
            f"from the paragraphs file: {unknown[:5]}"
        )
    candidates = [by_index[p] for p in baseline.para_indexes()]

    request = RerankRequest(
        question_id=example.question_id,
        question=example.question,
        candidates=tuple(
            RerankCandidate(p.para_index, p.text()) for p in candidates
        ),
    )
    try:
        reranked = apply_scores(request, scorer.score(request))
    except Exception as exc:
        raise EvalError(
            f"reranker failed on question {example.question_id!r}: {exc}"
        ) from exc
    reranked_paras = [by_index[c.para_index] for c in reranked[:k_top]]

    oracle = retrieve(
        index, oracle_query(example), k_top, example.question_id, MODE_QUESTION_ANSWER
    )
    if not oracle.ranked:
        raise EvalError(
            f"question {example.question_id!r} has no oracle candidates"
        )
    oracle_paras = [by_index[p] for p in oracle.para_indexes()]

    rouge_by_para: dict[int, float] = {}

    def cover(selected: Sequence[Paragraph]) -> tuple[bool, float]:
        best = 0.0
        for p in selected:
            if p.para_index not in rouge_by_para:
                rouge_by_para[p.para_index] = coverage_rouge([p], example.answers)
            best = max(best, rouge_by_para[p.para_index])
            if best >= 1.0:
                break
        return best == 1.0, best

    base_cov = cover(candidates[:k_top])
    rerank_cov = cover(reranked_paras)
    upper_cov = cover(candidates)
    oracle_cov = cover(oracle_paras)

    # Selecting from within the pool can never beat the pool itself.
    for label, cov in (("baseline", base_cov), ("reranked", rerank_cov)):
        if (cov[0] and not upper_cov[0]) or cov[1] > upper_cov[1] + 1e-12:
            raise EvalError(
                f"coverage invariant violated for question {example.question_id!r}: "
                f"{label} top-{k_top} exceeds its top-{k_base} superset"
            )

    return QuestionAblation((base_cov, rerank_cov, upper_cov, oracle_cov), request)


@dataclass(frozen=True)
class AblationResult:
    rows: tuple[CoverageReport, ...]
    requests: tuple[RerankRequest, ...] = ()  # in question order

    def to_dict(self) -> dict:
        return {"rows": [r.to_dict() for r in self.rows]}

    def format_table(self) -> str:
        width = max(len(r.selection) for r in self.rows) + 2
        lines = [f"{'Selection':<{width}}{'EM':>8}{'Rouge-L':>10}"]
        for r in self.rows:
            lines.append(
                f"{r.selection:<{width}}"
                f"{100.0 * r.em_coverage:>8.2f}{100.0 * r.rouge_coverage:>10.2f}"
            )
        return "\n".join(lines)


def aggregate_ablation(
    items: Sequence[QuestionAblation], k_base: int, k_top: int
) -> AblationResult:
    if not items:
        raise EvalError("no questions to evaluate")
    labels = row_labels(k_base, k_top)
    n = len(items)
    reports = []
    for row, label in enumerate(labels):
        em = sum(float(item.rows[row][0]) for item in items) / n
        rouge = sum(item.rows[row][1] for item in items) / n
        reports.append(CoverageReport(label, em, rouge, n))
    return AblationResult(tuple(reports), tuple(item.request for item in items))


def _book_worker(task) -> list[QuestionAblation]:
    index, paragraphs, examples, scorer, k_base, k_top = task
    return [
        ablation_for_question(index, paragraphs, q, scorer, k_base, k_top)
        for q in examples
    ]


def run_ablation(
    indexes: Mapping[str, Bm25Index],
    paragraphs_by_book: Mapping[str, Sequence[Paragraph]],
    examples: Sequence[QaExample],
    scorer: Scorer,
    k_base: int = DEFAULT_K_BASE,
    k_top: int = DEFAULT_K_TOP,
    jobs: int = 1,
) -> AblationResult:
    for q in examples:
        if q.book_id not in indexes:
            raise EvalError(f"no index for book {q.book_id!r}")
    # The built-in scorers are cheap to pickle and run in one worker task per
    # book.  Any other scorer stays in this process and sees the questions
    # one at a time, in order: a subprocess cannot be pickled into a task,
    # and a scores file would be copied into every one.
    if isinstance(scorer, (IdentityReranker, LexicalReranker)):
        by_book = group_by_book(examples)
        tasks = [
            (indexes[b], paragraphs_by_book[b], qs, scorer, k_base, k_top)
            for b, qs in by_book.items()
        ]
        done = parallel_map(_book_worker, tasks, jobs)
        per_book = {b: iter(items) for b, items in zip(by_book, done)}
        items = [next(per_book[q.book_id]) for q in examples]
    else:
        items = [
            ablation_for_question(
                indexes[q.book_id],
                paragraphs_by_book[q.book_id],
                q,
                scorer,
                k_base,
                k_top,
            )
            for q in examples
        ]
    return aggregate_ablation(items, k_base, k_top)
