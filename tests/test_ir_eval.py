import json
from collections import Counter

import pytest

from bookqa.bm25 import build_index, oracle_query, question_query, retrieve
from bookqa.corpus import QaExample, chunk_book
from bookqa.errors import EvalError
from bookqa.oracles import brute_best_span
from bookqa.fileio import rounded
from bookqa.ir_eval import (
    ablation_for_question,
    aggregate_ablation,
    coverage_report,
    format_table,
    pipelined,
    row_labels,
    run_ablation,
)
from bookqa.reranker import IdentityReranker, LexicalReranker, RerankRequest, Scorer
from bookqa.spans import coverage_rouge
from bookqa.synth import synth_corpus
from bookqa.text import normalize_eval, normalize_eval_tokens

from conftest import make_paragraph


def _setup(seed=4, **kwargs):
    kwargs.setdefault("n_books", 2)
    kwargs.setdefault("paras_per_book", 10)
    kwargs.setdefault("questions_per_book", 3)
    kwargs.setdefault("width", 40)
    books, qa, truths = synth_corpus(seed=seed, **kwargs)
    paragraphs = {b.book_id: chunk_book(b, width=kwargs["width"]) for b in books}
    indexes = {b.book_id: build_index(paragraphs[b.book_id]) for b in books}
    return paragraphs, indexes, qa, truths


def ablated(indexes, paragraphs, q, scorer):
    """``q``'s ablation with its four rows covered, through the question
    loop every scorer takes, on a one-question list."""

    def begin(example):
        return ablation_for_question(indexes[example.book_id], paragraphs[example.book_id], example)

    return pipelined(scorer, begin, [q])(q)


class OracleScorer(Scorer):
    """Scores each candidate by its span coverage of the gold answers."""

    def __init__(self, qa):
        self.answers = {q.question_id: q.answers for q in qa}

    def score(self, request: RerankRequest):
        from bookqa.text import tokenize
        from bookqa.corpus import Paragraph

        answers = self.answers[request.question_id]
        out = []
        for cand in request.candidates:
            para = Paragraph("x", cand.para_index, tokenize(cand.text))
            out.append(coverage_rouge([para], answers))
        return out


def test_coverage_report_trivial_cases():
    p_hit = make_paragraph("b", 0, ["the", "falcon", "flies"])
    p_miss = make_paragraph("b", 1, ["stone", "wall"])
    answers = ["falcon"]
    report = coverage_report("test_sel", [coverage_rouge([p_hit, p_miss], answers)])
    assert report["em_coverage"] == 1.0
    assert report["rouge_coverage"] == 1.0
    assert report["n_questions"] == 1
    assert report["selection"] == "test_sel"

    report = coverage_report("test_sel", [coverage_rouge([p_miss], answers)])
    assert report["em_coverage"] == 0.0
    assert report["rouge_coverage"] == 0.0


def test_coverage_report_single_question_equals_raw_values():
    p = make_paragraph("b", 0, ["gold", "grey", "stone"])
    rouge = coverage_rouge([p], ["gold stone"])
    report = coverage_report("one", [rouge])
    assert report["rouge_coverage"] == rouge
    assert report["em_coverage"] == 0.0


def test_model_selection_score():
    """A row's model-selection score is the mean of its EM and Rouge-L."""
    assert coverage_report("s", [1.0])["model_selection_score"] == 1.0
    assert coverage_report("s", [0.5])["model_selection_score"] == 0.25
    # 1,899 questions at 1.0, 5,698 at 0.5 and 2,403 at 0.0: EM 0.1899, Rouge-L 0.4748.
    row = coverage_report("s", [1.0] * 1899 + [0.5] * 5698 + [0.0] * 2403)
    assert (row["em_coverage"], row["rouge_coverage"]) == pytest.approx((0.1899, 0.4748))
    assert row["model_selection_score"] == pytest.approx(0.33235)


def test_identity_reranker_reproduces_baseline_row_exactly():
    paragraphs, indexes, qa, _ = _setup(seed=10)
    rows, _ = run_ablation(indexes, paragraphs, qa, IdentityReranker())
    labels = row_labels(32, 5)
    baseline = rows[0]
    reranked = rows[1]
    assert baseline["selection"] == labels[0]
    assert reranked["selection"] == labels[1]
    assert reranked["em_coverage"] == baseline["em_coverage"]
    assert reranked["rouge_coverage"] == baseline["rouge_coverage"]


def test_top5_never_beats_top32_and_oracle_dominates_baseline():
    for seed in (1, 6, 9):
        paragraphs, indexes, qa, _ = _setup(seed=seed)
        (base, _, upper, oracle), _ = run_ablation(indexes, paragraphs, qa, IdentityReranker())
        assert base["em_coverage"] <= upper["em_coverage"] + 1e-12
        assert base["rouge_coverage"] <= upper["rouge_coverage"] + 1e-12
        assert oracle["em_coverage"] >= base["em_coverage"] - 1e-12
        assert oracle["rouge_coverage"] >= base["rouge_coverage"] - 1e-12


def test_oracle_score_reranker_matches_upperbound_and_dominates_others():
    paragraphs, indexes, qa, _ = _setup(seed=12)
    oracle_rows, _ = run_ablation(indexes, paragraphs, qa, OracleScorer(qa))
    upper = oracle_rows[2]
    reranked = oracle_rows[1]
    # Picking the best-covering candidates from the pool achieves the pool's
    # own coverage.
    assert reranked["em_coverage"] == pytest.approx(upper["em_coverage"])
    assert reranked["rouge_coverage"] == pytest.approx(upper["rouge_coverage"])

    for scorer in (IdentityReranker(), LexicalReranker()):
        other = run_ablation(indexes, paragraphs, qa, scorer)[0][1]
        assert reranked["em_coverage"] >= other["em_coverage"] - 1e-12
        assert reranked["rouge_coverage"] >= other["rouge_coverage"] - 1e-12


def test_reranker_failure_aborts_with_question_named():
    paragraphs, indexes, qa, _ = _setup(seed=2, n_books=1)

    class Exploding(Scorer):
        def score(self, request):
            raise RuntimeError("boom")

    with pytest.raises(EvalError, match=qa[0].question_id):
        run_ablation(indexes, paragraphs, qa, Exploding())


def test_one_question_tokenizes_its_question_and_each_answer_once(tokenize_calls):
    paragraphs, indexes, qa, _ = _setup()
    q = qa[0]
    ablated(indexes, paragraphs, q, IdentityReranker())
    assert tokenize_calls == Counter([q.question, *q.answers])


def test_question_with_no_candidates_errors():
    paras = [make_paragraph("b", 0, ["stone", "wall"])]
    indexes = {"b": build_index(paras)}
    qa = [QaExample("q1", "b", "zebra quagga", ("okapi",))]
    with pytest.raises(EvalError, match="no BM25 candidates"):
        run_ablation(indexes, {"b": paras}, qa, IdentityReranker())


def test_fewer_candidates_than_k_base_is_fine():
    paras = [
        make_paragraph("b", 0, ["falcon", "stone"]),
        make_paragraph("b", 1, ["wall", "moss"]),
    ]
    indexes = {"b": build_index(paras)}
    qa = [QaExample("q1", "b", "falcon", ("falcon",))]
    rows, _ = run_ablation(indexes, {"b": paras}, qa, IdentityReranker(), k_base=32, k_top=5)
    assert rows[0]["em_coverage"] == 1.0
    assert rows[2]["n_questions"] == 1


def test_format_table_shape():
    paragraphs, indexes, qa, _ = _setup(seed=3, n_books=1)
    rows, _ = run_ablation(indexes, paragraphs, qa, IdentityReranker())
    table = format_table(rows)
    lines = table.splitlines()
    assert len(lines) == 5
    assert "EM" in lines[0] and "Rouge-L" in lines[0]
    for label, line in zip(row_labels(32, 5), lines[1:]):
        assert line.startswith(label)

    payload = [rounded(row, 6) for row in rows]
    assert [r["selection"] for r in payload] == list(row_labels(32, 5))
    for row in payload:
        assert 0.0 <= row["em_coverage"] <= 1.0
        assert row["model_selection_score"] == pytest.approx(
            (row["em_coverage"] + row["rouge_coverage"]) / 2, abs=1e-6
        )


def test_run_ablation_keeps_requests_only_when_asked():
    """Without ``keep_requests`` the requests are dropped once scored; with
    it their lines come back in question order, and the rows are the same."""
    paragraphs, indexes, qa, _ = _setup(seed=6)
    rows, requests = run_ablation(indexes, paragraphs, qa, LexicalReranker())
    assert requests is None
    kept_rows, kept = run_ablation(indexes, paragraphs, qa, LexicalReranker(), keep_requests=True)
    assert kept_rows == rows
    assert [json.loads(line)["question_id"] for line in kept] == [q.question_id for q in qa]
    for q, line in zip(qa, kept):
        expected = ablation_for_question(indexes[q.book_id], paragraphs[q.book_id], q).request
        assert line == expected.to_json_line()


def test_aggregate_requires_items():
    with pytest.raises(EvalError):
        aggregate_ablation([], 32, 5)


def test_baseline_row_equals_direct_retrieval_coverage():
    """Each row equals the brute-force coverage of its own selections: the
    baseline top-k, the identity-reranked top-k (the same paragraphs), the
    top-32 pool and the q+a top-k, each question scored by the best window
    sweep over its normalized paragraph and answer tokens.  EM matches
    exactly and Rouge-L to 1e-12, as criterion 1 compares.  The paraphrased
    corpus has partial coverage, and a top-1 that is below the pool's."""
    for seed, paraphrase, k_top in ((15, False, 5), (5, True, 1)):
        paragraphs, indexes, qa, _ = _setup(seed=seed, paraphrase=paraphrase)
        rows, _ = run_ablation(indexes, paragraphs, qa, IdentityReranker(), k_top=k_top)
        per_row = [[], [], [], []]
        for q in qa:
            book = paragraphs[q.book_id]
            pool = retrieve(indexes[q.book_id], question_query(q), 32).para_indexes()
            oracle = retrieve(indexes[q.book_id], oracle_query(q), k_top).para_indexes()
            answers = [normalize_eval(a).tokens for a in q.answers]
            selections = (pool[:k_top], pool[:k_top], pool, oracle)
            for rouges, selected in zip(per_row, selections):
                rouges.append(max(
                    brute_best_span(normalize_eval_tokens(book[p].tokens.tokens), answer)[2]
                    for p in selected
                    for answer in answers
                    if answer
                ))
        for row, rouges, label in zip(rows, per_row, row_labels(32, k_top)):
            assert row["selection"] == label
            assert row["n_questions"] == len(qa)
            assert row["em_coverage"] == sum(r == 1.0 for r in rouges) / len(qa)
            assert row["rouge_coverage"] == pytest.approx(sum(rouges) / len(qa), abs=1e-12, rel=0)


@pytest.mark.parametrize(
    "make_scorer",
    [lambda qa: IdentityReranker(), lambda qa: LexicalReranker(), OracleScorer],
    ids=["identity", "lexical", "oracle"],
)
def test_pool_rows_never_exceed_the_upper_bound_per_question(make_scorer):
    """The baseline and reranked top-5 are drawn from the top-32 pool, so
    for every question their coverage is at most the pool's."""
    for seed in (1, 6, 9, 12):
        paragraphs, indexes, qa, _ = _setup(seed=seed)
        scorer = make_scorer(qa)
        for q in qa:
            base, reranked, upper, _ = ablated(indexes, paragraphs, q, scorer).rouges
            assert base <= upper
            assert reranked <= upper
