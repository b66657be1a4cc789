"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them as they complete).

Criterion 4 needs the NarrativeQA dev split prepared as books/qa JSONL files
and is skipped unless BOOKQA_NARRATIVEQA_BOOKS and BOOKQA_NARRATIVEQA_QA are
set; see README for the expected schemas.  It runs the stages users run, and
a tier-1 test holds those stages' rows equal to the in-memory ablation's on
generated corpora.
"""

import json
import os
import shutil
import time
from pathlib import Path

import pytest

import bookqa.fileio
from bookqa.bm25 import build_index, oracle_query, question_query, retrieve
from bookqa.cli import main as cli_main
from bookqa.corpus import chunk_book, load_books, load_qa
from bookqa.fileio import rounded
from bookqa.ir_eval import run_ablation
from bookqa.metrics import bleu_corpus, meteor_exact, rouge_l, token_f1
from bookqa.reranker import IdentityReranker
from bookqa.supervision import (
    LABEL_NEGATIVE,
    LABEL_POSITIVE,
    POOL_UNION_MINUS_INTERSECTION,
    POOL_WHOLE_BOOK,
    SupervisionConfig,
    generate_pairs,
)
from bookqa.synth import synth_corpus
from test_oracles import run_oracle_checks


def _report(number, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}{suffix}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_oracle_equivalence():
    sizes = {"lcs_cases": 10000, "span_cases": 1000, "bm25_cases": 500, "meteor_cases": 500}
    started = time.perf_counter()
    mismatch = None
    try:
        run_oracle_checks(seed=20240811, **sizes)
    except AssertionError as exc:
        mismatch = str(exc)
    elapsed = time.perf_counter() - started
    _report(
        1,
        mismatch is None and elapsed < 60.0,
        f"{sum(sizes.values())} instances, {mismatch or 'no mismatch'}, {elapsed:.2f}s",
    )


def test_criterion_2_metric_analytic_fixtures():
    checks = {
        "rouge_l three-token": (rouge_l(["the", "cat", "sat"], ["the", "cat"]), 0.8299),
        "meteor identity pair": (meteor_exact(["the", "cat"], ["the", "cat"]), 0.9375),
        "meteor swapped pair": (meteor_exact(["b", "a"], ["a", "b"]), 0.5),
        "bleu1 brevity": (bleu_corpus([["a", "b"]], [[["a", "b", "c", "d"]]], 1), 0.3679),
        "token_f1 subset answer": (token_f1("a boarding school in france", ["france"]), 0.4),
    }
    failures = [
        f"{name}: got {got:.6f}, want {want:.4f}"
        for name, (got, want) in checks.items()
        if round(got, 4) != want
    ]
    _report(2, not failures, "; ".join(failures) or "all five fixtures at 4 decimals")


def test_criterion_3_pipeline_invariants_seed_sweep():
    started = time.perf_counter()
    seeds = range(20)
    width = 40
    for seed in seeds:
        paraphrase = seed % 5 == 4
        books, qa, truths = synth_corpus(
            seed=seed,
            n_books=2,
            paras_per_book=10,
            questions_per_book=3,
            paraphrase=paraphrase,
            width=width,
        )
        paragraphs = {b.book_id: chunk_book(b, width=width) for b in books}
        for b in books:
            assert tuple(t for p in paragraphs[b.book_id] for t in p.tokens.tokens) == b.tokens.tokens
        indexes = {b.book_id: build_index(paragraphs[b.book_id]) for b in books}

        configs = (
            SupervisionConfig(k_retrieve=32, negative_pool=POOL_WHOLE_BOOK, rng_seed=seed),
            SupervisionConfig(
                k_retrieve=4, negative_pool=POOL_UNION_MINUS_INTERSECTION, rng_seed=seed
            ),
        )
        for cfg in configs:
            for q in qa:
                index = indexes[q.book_id]
                pairs = generate_pairs(index, paragraphs[q.book_id], q, cfg)
                again = generate_pairs(index, paragraphs[q.book_id], q, cfg)
                assert pairs == again, "supervision must be deterministic"
                set_q = set(
                    retrieve(index, question_query(q), cfg.k_retrieve).para_indexes()
                )
                set_qa = set(
                    retrieve(index, oracle_query(q), cfg.k_retrieve).para_indexes()
                )
                for pair in pairs:
                    if pair.label == LABEL_POSITIVE:
                        assert pair.para_index in set_q & set_qa
                        assert pair.filter_score > cfg.pos_threshold
                    else:
                        assert pair.label == LABEL_NEGATIVE
                        assert pair.filter_score < cfg.neg_threshold

        (base, reranked, upper, oracle), _ = run_ablation(
            indexes, paragraphs, qa, IdentityReranker()
        )
        assert reranked["em_coverage"] == base["em_coverage"]
        assert reranked["rouge_coverage"] == base["rouge_coverage"]
        assert base["em_coverage"] <= upper["em_coverage"] + 1e-12
        assert base["rouge_coverage"] <= upper["rouge_coverage"] + 1e-12
        assert oracle["em_coverage"] >= base["em_coverage"] - 1e-12
        assert oracle["rouge_coverage"] >= base["rouge_coverage"] - 1e-12

    elapsed = time.perf_counter() - started
    _report(3, elapsed < 120.0, f"{len(seeds)} seeds in {elapsed:.1f}s")


NARRATIVEQA_DEV_REFERENCE = {
    # Expected top-5 coverage on the NarrativeQA dev split (percent).
    "bm25_top5": (18.99, 47.48),
    "upperbound_top32": (30.81, 61.40),
    "oracle_top5": (35.75, 63.92),
}
TOLERANCE_POINTS = 3.0


def stage_coverage_rows(books, qa, work: Path, jobs: int) -> list[dict]:
    """The coverage table's rows as the stages write them: ``chunk`` at
    width 200, ``index``, and ``eval-ir`` with no reranker, each run
    through ``cli.main`` at ``jobs``, with default BM25 parameters."""
    paras, index, table = work / "paras.jsonl", work / "index.jsonl", work / "table.json"
    for argv in (
        ["chunk", "--books", books, "--width", 200, "--out", paras],
        ["index", "--paragraphs", paras, "--out", index, "--jobs", jobs],
        ["eval-ir", "--index", index, "--paragraphs", paras, "--qa", qa,
         "--reranker", "none", "--jobs", jobs, "--out", table],
    ):
        assert cli_main([str(a) for a in argv]) == 0, argv[0]
    return json.loads(table.read_text(encoding="utf-8"))["rows"]


@pytest.mark.skipif(
    not (os.environ.get("BOOKQA_NARRATIVEQA_BOOKS") and os.environ.get("BOOKQA_NARRATIVEQA_QA")),
    reason=(
        "NarrativeQA dev split not supplied; set BOOKQA_NARRATIVEQA_BOOKS and "
        "BOOKQA_NARRATIVEQA_QA to prepared books/qa JSONL files to run the "
        "coverage reproduction"
    ),
)
def test_criterion_4_narrativeqa_dev_coverage(tmp_path):
    rows = stage_coverage_rows(
        os.environ["BOOKQA_NARRATIVEQA_BOOKS"],
        os.environ["BOOKQA_NARRATIVEQA_QA"],
        tmp_path,
        jobs=os.cpu_count() or 1,
    )
    rows = {r["selection"]: r for r in rows}
    failures = []
    for selection, (want_em, want_rouge) in NARRATIVEQA_DEV_REFERENCE.items():
        got_em = 100.0 * rows[selection]["em_coverage"]
        got_rouge = 100.0 * rows[selection]["rouge_coverage"]
        print(f"  {selection}: EM {got_em:.2f} (ref {want_em}), Rouge-L {got_rouge:.2f} (ref {want_rouge})")
        if abs(got_em - want_em) > TOLERANCE_POINTS:
            failures.append(f"{selection} EM {got_em:.2f} vs {want_em}")
        if abs(got_rouge - want_rouge) > TOLERANCE_POINTS:
            failures.append(f"{selection} Rouge-L {got_rouge:.2f} vs {want_rouge}")
    _report(4, not failures, "; ".join(failures) or "all rows within ±3.0 points")


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("seed, paraphrase", [(3, False), (5, True)], ids=["plain", "paraphrase"])
def test_criterion_4_stages_equal_the_in_memory_ablation(tmp_path, monkeypatch, seed, paraphrase, jobs):
    """Criterion 4's stage run writes the rows that ``run_ablation`` makes
    from the same books chunked and indexed in memory.  At ``--jobs 2`` every
    map forks at once, as a paper-sized run's would."""
    monkeypatch.setattr(bookqa.fileio, "FORK_AFTER_S", 0)
    corpus = tmp_path / "corpus"
    argv = ["synth", "--seed", seed, "--books", 4, "--paras-per-book", 60,
            "--questions-per-book", 6, "--out-dir", corpus]
    assert cli_main([str(a) for a in argv + ["--paraphrase"] * paraphrase]) == 0
    books, qa = corpus / "books.jsonl", corpus / "qa.jsonl"
    rows = stage_coverage_rows(books, qa, tmp_path, jobs)

    paragraphs = {b.book_id: chunk_book(b, width=200) for b in load_books(books)}
    indexes = {book: build_index(paras) for book, paras in paragraphs.items()}
    in_memory, _ = run_ablation(indexes, paragraphs, load_qa(qa), IdentityReranker())
    assert rows == [rounded(row, 6) for row in in_memory]


def _run_pipeline(work: Path, jobs: int) -> dict[str, bytes]:
    def run(*argv):
        code = cli_main([str(a) for a in argv])
        assert code == 0

    corpus = work / "corpus"
    run(
        "synth", "--seed", 11, "--books", 2, "--paras-per-book", 8,
        "--questions-per-book", 3, "--width", 30, "--out-dir", corpus,
    )
    books, qa = corpus / "books.jsonl", corpus / "qa.jsonl"
    paras, index = work / "paras.jsonl", work / "index.jsonl"
    run("chunk", "--books", books, "--width", 30, "--out", paras, "--jobs", jobs)
    run("index", "--paragraphs", paras, "--out", index, "--jobs", jobs)
    run("retrieve", "--index", index, "--qa", qa, "--k", 32, "--mode", "q",
        "--out", work / "rq.jsonl", "--jobs", jobs)
    run("retrieve", "--index", index, "--qa", qa, "--k", 32, "--mode", "qa",
        "--out", work / "rqa.jsonl", "--jobs", jobs)
    run("supervise", "--index", index, "--paragraphs", paras, "--qa", qa,
        "--seed", 5, "--negative-pool", "whole_book",
        "--out", work / "pairs.jsonl", "--jobs", jobs)
    run("span-oracle", "--paragraphs", paras, "--qa", qa,
        "--selections", work / "rq.jsonl", "--top", 5,
        "--out", work / "labels.jsonl", "--jobs", jobs)
    run("eval-ir", "--index", index, "--paragraphs", paras, "--qa", qa,
        "--reranker", "lexical", "--out", work / "ablation.json", "--jobs", jobs)
    preds = work / "preds.jsonl"
    records = [json.loads(line) for line in qa.read_text().splitlines()]
    preds.write_text(
        "\n".join(
            json.dumps({"question_id": r["question_id"], "answer": r["answers"][0]})
            for r in records
        )
        + "\n",
        encoding="utf-8",
    )
    run("eval-qa", "--predictions", preds, "--qa", qa, "--out", work / "report.json")
    return {
        str(p.relative_to(work)): p.read_bytes()
        for p in sorted(work.rglob("*"))
        if p.is_file()
    }


def test_criterion_5_byte_determinism(tmp_path, capsys):
    work = tmp_path / "work"
    first = _run_pipeline(work, jobs=1)
    shutil.rmtree(work)
    rerun = _run_pipeline(work, jobs=1)
    shutil.rmtree(work)
    parallel = _run_pipeline(work, jobs=2)
    capsys.readouterr()  # drop pipeline chatter before the verdict line

    mismatched = sorted(
        {n for n in first if first[n] != rerun.get(n)}
        | {n for n in first if first[n] != parallel.get(n)}
        | (set(rerun) ^ set(first))
        | (set(parallel) ^ set(first))
    )
    _report(
        5,
        not mismatched,
        f"{len(first)} artifacts compared across rerun and --jobs 1 vs 2"
        + (f"; differing: {', '.join(mismatched[:5])}" if mismatched else ""),
    )
