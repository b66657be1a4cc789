"""Answer-coverage evaluation of paragraph selections and the ranker ablation.

The ablation scores four selections per question: the BM25 baseline top-k,
the reranked top-k drawn from the baseline's top candidate pool, the full
candidate pool itself (the upper bound for any reranker over it), and the
question+answer oracle retrieval top-k.  Coverage is reported two ways per
selection: the mean best same-length-span Rouge-L, and the fraction of
questions whose answer occurs verbatim in some selected paragraph (EM).

Each question's paragraphs get one cached best-span Rouge-L each, and every
row is the maximum of those values over its paragraphs.  A verbatim
occurrence is exactly a Rouge-L of 1.0, so EM is the share of questions whose
row value is 1.0.  The baseline and reranked rows are drawn from the pool and
read the same cached values, so they never exceed the upper-bound row.
Callers check first that each book's index covers exactly its paragraphs.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

from .bm25 import Bm25Index, load_indexes, oracle_query, question_query, retrieve
from .corpus import (
    DEFAULT_K_BASE,
    DEFAULT_K_TOP,
    MODE_QUESTION,
    MODE_QUESTION_ANSWER,
    Paragraph,
    QaExample,
    load_paragraphs,
    load_qa,
    release_tokens,
    require_book_coverage,
)
from .errors import ConfigError, EvalError, ProtocolError
from .fileio import map_grouped, rounded, sidecar_path, stage_output, write_lines
from .reranker import (
    ExternalProcessReranker,
    FileReranker,
    RerankCandidate,
    RerankRequest,
    Scorer,
    apply_scores,
    open_scorer,
    write_requests_file,
)
from .spans import AnswerCoverage


def coverage_report(label: str, rouges: Sequence[float]) -> dict:
    """One row of the table from each question's best-span Rouge-L: EM is
    the share of questions at exactly 1.0, and the mean of EM and Rouge-L
    is the ranker model-selection signal."""
    if not rouges:
        raise EvalError("no questions to evaluate")
    n = len(rouges)
    em, rouge = sum(r == 1.0 for r in rouges) / n, sum(rouges) / n
    return {
        "selection": label,
        "em_coverage": em,
        "rouge_coverage": rouge,
        "model_selection_score": (em + rouge) / 2.0,
        "n_questions": n,
    }


def row_labels(k_base: int, k_top: int) -> tuple[str, str, str, str]:
    return (
        f"bm25_top{k_top}",
        f"reranked_top{k_top}",
        f"upperbound_top{k_base}",
        f"oracle_top{k_top}",
    )


class QuestionAblation:
    """One question's rerank request and its rows' best-span Rouge-L.

    ``rouges`` holds the four rows in table order.  ``cover_unscored`` fills
    in the three that the scores do not change, and ``cover_reranked`` the
    reranked row from the candidates in scored order.  Each row is the
    maximum over its paragraphs of one cached coverage per paragraph."""

    def __init__(
        self,
        request: RerankRequest,
        coverage: AnswerCoverage,
        pool: list[int],
        oracle: list[int],
        k_top: int,
    ) -> None:
        self.request = request
        self.rouges = [0.0] * 4
        self._cover, self._pool, self._oracle, self._k_top = coverage.best, pool, oracle, k_top

    def cover_unscored(self) -> None:
        cover, pool = self._cover, self._pool
        self.rouges[0], self.rouges[2] = cover(pool[: self._k_top]), cover(pool)
        self.rouges[3] = cover(self._oracle)

    def cover_reranked(self, ranked: Sequence[RerankCandidate]) -> None:
        self.rouges[1] = self._cover([c.para_index for c in ranked[: self._k_top]])


def ablation_for_question(
    index: Bm25Index,
    paragraphs: Sequence[Paragraph],
    example: QaExample,
    k_base: int = DEFAULT_K_BASE,
    k_top: int = DEFAULT_K_TOP,
) -> QuestionAblation:
    """One question's two BM25 retrievals and its rerank request, with
    nothing covered yet.

    ``paragraphs`` is the book's list, dense from 0, which ``index`` covers,
    so a paragraph is found by its index.  Every term of the question is in
    the q+a query and weighs more than 0, so a question with BM25
    candidates has oracle candidates."""
    baseline = retrieve(
        index, question_query(example), k_base, example.question_id, MODE_QUESTION
    )
    if not baseline.ranked:
        raise EvalError(
            f"question {example.question_id!r} has no BM25 candidates; "
            "its query shares no terms with the book"
        )
    oracle = retrieve(
        index, oracle_query(example), k_top, example.question_id, MODE_QUESTION_ANSWER
    )
    pool = baseline.para_indexes()
    request = RerankRequest(
        question_id=example.question_id,
        question=example.question,
        candidates=tuple(RerankCandidate(p, paragraphs[p].text()) for p in pool),
    )
    coverage = AnswerCoverage(paragraphs, example.answers)
    return QuestionAblation(request, coverage, pool, oracle.para_indexes(), k_top)


@contextmanager
def scoring(question: QuestionAblation) -> Iterator[None]:
    """Any fault raised in the body is the reranker's on ``question``."""
    try:
        yield
    except Exception as exc:
        # A scorer that breaks the wire protocol keeps the protocol code.
        error = ProtocolError if isinstance(exc, ProtocolError) else EvalError
        raise error(
            f"reranker failed on question {question.request.question_id!r}: {exc}"
        ) from exc


def scored(question: QuestionAblation, scorer: Scorer) -> QuestionAblation:
    """``question`` with its four rows covered, its request scored in one
    call."""
    with scoring(question):
        ranked = apply_scores(question.request, scorer.score(question.request))
    question.cover_unscored()
    question.cover_reranked(ranked)
    return question


def pipelined(
    scorer: ExternalProcessReranker,
    begin: Callable[[QaExample], QuestionAblation],
    examples: Sequence[QaExample],
) -> Callable[[QaExample], QuestionAblation]:
    """A function that takes ``examples`` one at a time, each book's in
    order, to their ``begin`` results, each request sent to ``scorer`` as
    soon as the response before it has been read.

    While a question's request is in flight, the previous question's
    reranked row, the question's own three score-free rows, and the next
    question's retrievals and request line run.  So a question is returned
    without its reranked row, which it gets once the next question of its
    book has sent its request.  A book's last question is returned
    finished, so nothing is in flight across a book boundary.  If a
    question fails while the one before it is in flight, that one's
    response is read first, and any fault in it is the one raised."""
    last = {q.book_id: q for q in examples}
    sent: QuestionAblation | None = None  # the question whose request is in flight

    def received(question: QuestionAblation) -> list[RerankCandidate]:
        with scoring(question):
            return apply_scores(question.request, scorer.receive(question.request))

    def take(q: QaExample) -> QuestionAblation:
        nonlocal sent
        before, sent = sent, None
        try:
            question = begin(q)
        except Exception:
            if before is not None:
                received(before)
            raise
        question.request.to_json_line()  # encoded, and kept, while the request before is in flight
        ranked = None if before is None else received(before)
        with scoring(question):
            scorer.send(question.request)
        if before is not None:
            before.cover_reranked(ranked)
        question.cover_unscored()
        if last[q.book_id] is q:
            question.cover_reranked(received(question))
        else:
            sent = question
        return question

    return take


def aggregate_ablation(
    rouges: Sequence[Sequence[float]], k_base: int, k_top: int
) -> list[dict]:
    """The four rows from each question's ``QuestionAblation.rouges``."""
    return [
        coverage_report(label, [question[i] for question in rouges])
        for i, label in enumerate(row_labels(k_base, k_top))
    ]


def format_table(rows: Sequence[dict]) -> str:
    """The table ``eval-ir`` prints: each row's EM and Rouge-L in percent."""
    width = max(len(r["selection"]) for r in rows) + 2
    lines = [f"{'Selection':<{width}}{'EM':>8}{'Rouge-L':>10}"]
    for r in rows:
        lines.append(
            f"{r['selection']:<{width}}"
            f"{100.0 * r['em_coverage']:>8.2f}{100.0 * r['rouge_coverage']:>10.2f}"
        )
    return "\n".join(lines)


def run_ablation(
    indexes: Mapping[str, Bm25Index],
    paragraphs_by_book: Mapping[str, Sequence[Paragraph]],
    examples: Sequence[QaExample],
    scorer: Scorer,
    k_base: int = DEFAULT_K_BASE,
    k_top: int = DEFAULT_K_TOP,
    jobs: int = 1,
    keep_requests: bool = False,
) -> tuple[list[dict], list[str] | None]:
    """The four rows, and with ``keep_requests`` the rerank requests' lines
    in question order (None without it).  A request is kept as its line, the
    one an ``exec:`` scorer was sent: the requests file needs nothing else.

    The questions are mapped per book, and a book's lazily loaded tokens
    are released once its last question is done.  Every scorer but
    ``exec:`` maps over forked workers, each question scored in one call.
    An ``exec:`` scorer is one process with one request in flight, which
    forked workers must not share, so it sees the questions one at a time,
    book by book in the order the books first appear, each book's
    pipelined (``pipelined``)."""

    def begin(q: QaExample) -> QuestionAblation:
        book = q.book_id
        return ablation_for_question(indexes[book], paragraphs_by_book[book], q, k_base, k_top)

    if isinstance(scorer, ExternalProcessReranker):
        take, jobs = pipelined(scorer, begin, examples), 1
    else:

        def take(q: QaExample) -> QuestionAblation:
            return scored(begin(q), scorer)

    def ablation(q: QaExample) -> tuple[list[float], str | None]:
        # An exec: question's rows are finished before the map returns.
        question = take(q)
        return question.rouges, question.request.to_json_line() if keep_requests else None

    def release(book):
        release_tokens(paragraphs_by_book[book])

    keys = [q.book_id for q in examples]
    items = map_grouped(ablation, examples, keys, jobs, release)
    rows = aggregate_ablation([rouges for rouges, _ in items], k_base, k_top)
    return rows, [line for _, line in items] if keep_requests else None


# ---------------------------------------------------------------------------
# the eval-ir subcommand (dispatched by ``cli.main``)


def _cmd_eval_ir(args) -> int:
    if args.top > args.candidates:  # the bm25 and reranked rows select from the pool
        raise ConfigError(f"--top {args.top} exceeds --candidates {args.candidates}")
    requests = args.emit_rerank_requests
    if requests and args.out:
        # One output would replace the other, or the other's sidecar.
        requests_path, out_path = Path(requests).resolve(), Path(args.out).resolve()
        if requests_path == out_path:
            raise ConfigError(f"--emit-rerank-requests and --out name the same file: {args.out}")
        if requests_path == sidecar_path(args.out).resolve():
            raise ConfigError(f"--emit-rerank-requests names the sidecar of --out: {requests}")
        if out_path == sidecar_path(requests).resolve():
            raise ConfigError(f"--out names the sidecar of --emit-rerank-requests: {args.out}")
    inputs = [args.index, args.paragraphs, args.qa]
    # An exec: scorer starts up while the inputs load; its handshake is read,
    # and any fault of the spec raised, only once they have loaded.
    with open_scorer(args.reranker) as ready_scorer:
        indexes = load_indexes(args.index)
        grouped_paras = load_paragraphs(args.paragraphs)
        qa = load_qa(args.qa)
        require_book_coverage(indexes, qa, grouped_paras)
        scorer = ready_scorer()
        rows, lines = run_ablation(
            indexes,
            grouped_paras,
            qa,
            scorer,
            args.candidates,
            args.top,
            jobs=args.jobs,
            keep_requests=bool(requests),
        )
        if isinstance(scorer, ExternalProcessReranker):
            # It exits while the outputs are written, and is reaped after.
            scorer.end_requests()
        if lines is not None:
            # Its sidecar keeps only the options that shape the requests, so
            # it is the same whichever reranker scored them.
            unused = ("top", "reranker", "emit_rerank_requests")
            with stage_output(args, requests, inputs, "eval-ir-requests", unused, out=requests):
                write_requests_file(requests, lines)
        if isinstance(scorer, FileReranker):
            inputs.append(scorer.scores_path)
        if args.out:
            payload = json.dumps(
                {"rows": [rounded(row, 6) for row in rows]}, sort_keys=True, indent=2
            )
            with stage_output(args, args.out, inputs, omit=("emit_rerank_requests",)):
                write_lines(args.out, [payload])
    print(format_table(rows))
    return 0
