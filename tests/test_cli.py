import json
import os
import sys
from pathlib import Path

import pytest

import bookqa.fileio
from bookqa.cli import main

SCORERS = Path(__file__).parent / "scorers"


def run_ok(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured


def run_fail(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""  # nothing on the output stream
    assert captured.err.startswith("error[")
    return captured.err


def synth_args(out_dir, seed=7, paraphrase=False):
    args = [
        "synth",
        "--seed",
        seed,
        "--books",
        2,
        "--paras-per-book",
        8,
        "--questions-per-book",
        3,
        "--width",
        30,
        "--out-dir",
        out_dir,
    ]
    if paraphrase:
        args.append("--paraphrase")
    return args


def pipeline(capsys, work, jobs=1, seed=7):
    """synth -> chunk -> index -> retrieve(q,qa) -> supervise -> span-oracle -> eval-ir."""
    run_ok(capsys, *synth_args(work / "corpus", seed=seed))
    books = work / "corpus" / "books.jsonl"
    qa = work / "corpus" / "qa.jsonl"
    paras = work / "paras.jsonl"
    index = work / "index.jsonl"
    run_ok(capsys, "chunk", "--books", books, "--width", 30, "--out", paras, "--jobs", jobs)
    run_ok(capsys, "index", "--paragraphs", paras, "--out", index, "--jobs", jobs)
    run_ok(
        capsys,
        "retrieve", "--index", index, "--qa", qa, "--k", 32, "--mode", "q",
        "--out", work / "retrieved_q.jsonl", "--jobs", jobs,
    )
    run_ok(
        capsys,
        "retrieve", "--index", index, "--qa", qa, "--k", 32, "--mode", "qa",
        "--out", work / "retrieved_qa.jsonl", "--jobs", jobs,
    )
    run_ok(
        capsys,
        "supervise", "--index", index, "--paragraphs", paras, "--qa", qa,
        "--k", 32, "--seed", 3, "--negative-pool", "whole_book",
        "--out", work / "pairs.jsonl", "--jobs", jobs,
    )
    run_ok(
        capsys,
        "span-oracle", "--paragraphs", paras, "--qa", qa,
        "--selections", work / "retrieved_q.jsonl", "--top", 5,
        "--out", work / "labels.jsonl", "--jobs", jobs,
    )
    run_ok(
        capsys,
        "eval-ir", "--index", index, "--paragraphs", paras, "--qa", qa,
        "--reranker", "lexical", "--out", work / "ablation.json", "--jobs", jobs,
    )


def snapshot(work):
    return {
        str(p.relative_to(work)): p.read_bytes()
        for p in sorted(work.rglob("*"))
        if p.is_file()
    }


def test_full_pipeline_and_artifacts(tmp_path, capsys):
    work = tmp_path / "run"
    pipeline(capsys, work)

    paras = [json.loads(line) for line in (work / "paras.jsonl").read_text().splitlines()]
    assert len(paras) == 2 * 8
    assert all(len(p["text"].split()) == 30 for p in paras)

    pairs = [json.loads(line) for line in (work / "pairs.jsonl").read_text().splitlines()]
    assert pairs, "expected supervision pairs"
    assert all(p["label"] in ("positive", "negative") for p in pairs)

    labels = [json.loads(line) for line in (work / "labels.jsonl").read_text().splitlines()]
    retrieved = [
        json.loads(line) for line in (work / "retrieved_q.jsonl").read_text().splitlines()
    ]
    expected = sum(min(5, len(r["ranked"])) * 2 for r in retrieved)  # 2 references each
    assert len(labels) == expected > 0

    ablation = json.loads((work / "ablation.json").read_text())
    selections = [r["selection"] for r in ablation["rows"]]
    assert selections == ["bm25_top5", "reranked_top5", "upperbound_top32", "oracle_top5"]

    for artifact in ("paras.jsonl", "index.jsonl", "pairs.jsonl", "ablation.json"):
        sidecar = json.loads((work / f"{artifact}.meta.json").read_text())
        assert sidecar["tool"]["name"] == "bookqa"
        assert "config" in sidecar and "inputs" in sidecar
        assert "jobs" not in sidecar["config"]
        for digest in sidecar["inputs"].values():
            assert len(digest) == 64


def test_eval_ir_table_on_stdout(tmp_path, capsys):
    work = tmp_path / "run"
    pipeline(capsys, work)
    captured = run_ok(
        capsys,
        "eval-ir",
        "--index", work / "index.jsonl",
        "--paragraphs", work / "paras.jsonl",
        "--qa", work / "corpus" / "qa.jsonl",
        "--reranker", "none",
    )
    lines = captured.out.strip().splitlines()
    assert lines[0].startswith("Selection")
    assert len(lines) == 5
    # Oracle retrieval always finds the plant on this corpus.
    assert lines[4].startswith("oracle_top5")
    assert "100.00" in lines[4]


def test_eval_ir_refuses_top_above_candidates_before_reading_inputs(tmp_path, capsys):
    """A top-10 row drawn from a 3-paragraph pool would be mislabelled.  The
    inputs do not exist, so the refusal comes before any is read."""
    missing = [tmp_path / name for name in ("index.jsonl", "paras.jsonl", "qa.jsonl")]
    err = run_fail(
        capsys,
        "eval-ir", "--index", missing[0], "--paragraphs", missing[1], "--qa", missing[2],
        "--top", "10", "--candidates", "3",
    )
    assert err.startswith("error[config]")
    assert "--top 10" in err and "--candidates 3" in err

    work = tmp_path / "run"
    pipeline(capsys, work)
    captured = run_ok(
        capsys,
        "eval-ir",
        "--index", work / "index.jsonl",
        "--paragraphs", work / "paras.jsonl",
        "--qa", work / "corpus" / "qa.jsonl",
        "--top", "3", "--candidates", "3",
    )
    assert [line.split()[0] for line in captured.out.strip().splitlines()[1:]] == [
        "bm25_top3", "reranked_top3", "upperbound_top3", "oracle_top3",
    ]


def test_eval_ir_refuses_requests_and_table_in_one_file(tmp_path, capsys, monkeypatch):
    """The table would replace the requests, and its sidecar theirs.  The
    pair is refused however the two paths are spelled, before an exec:
    scorer is started, and no file is written."""
    paras, index, qa = tiny_corpus(tmp_path, capsys)
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    started = record_started_scorers(monkeypatch)
    err = run_fail(
        capsys,
        "eval-ir", "--index", index, "--paragraphs", paras, "--qa", qa,
        "--reranker", length_scorer_spec(),
        "--emit-rerank-requests", "same.json", "--out", tmp_path / "same.json",
    )
    assert err == (
        "error[config]: --emit-rerank-requests and --out name the same file: "
        f"{tmp_path / 'same.json'}\n"
    )
    assert started == []
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize(
    "requests, out, error",
    [
        ("t.json.meta.json", "t.json", "--emit-rerank-requests names the sidecar of --out: t.json.meta.json"),
        ("r.jsonl", "r.jsonl.meta.json", "--out names the sidecar of --emit-rerank-requests: {out}"),
    ],
    ids=["requests-on-the-tables-sidecar", "table-on-the-requests-sidecar"],
)
def test_eval_ir_refuses_an_output_on_the_other_outputs_sidecar(
    tmp_path, capsys, monkeypatch, requests, out, error
):
    """Either output would replace the other's sidecar, which would then
    describe the wrong file.  The pair is refused however the paths are
    spelled, before an exec: scorer is started, and no file is written."""
    paras, index, qa = tiny_corpus(tmp_path, capsys)
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    started = record_started_scorers(monkeypatch)
    err = run_fail(
        capsys,
        "eval-ir", "--index", index, "--paragraphs", paras, "--qa", qa,
        "--reranker", length_scorer_spec(),
        "--emit-rerank-requests", requests, "--out", tmp_path / out,
    )
    assert err == f"error[config]: {error.format(out=tmp_path / out)}\n"
    assert started == []
    assert sorted(tmp_path.rglob("*")) == before


def test_determinism_byte_identical_across_jobs(tmp_path, capsys):
    """With the default fork bound these maps are too short to fork."""
    assert_identical_across_jobs(tmp_path, capsys)


def test_determinism_byte_identical_across_jobs_when_forked(tmp_path, capsys, monkeypatch):
    """Every map at --jobs 2 forks before its first item."""
    monkeypatch.setattr(bookqa.fileio, "FORK_AFTER_S", 0)
    assert_identical_across_jobs(tmp_path, capsys)


def assert_identical_across_jobs(tmp_path, capsys):
    import shutil

    work = tmp_path / "run"
    pipeline(capsys, work, jobs=1)
    first = snapshot(work)
    shutil.rmtree(work)
    pipeline(capsys, work, jobs=2)
    second = snapshot(work)
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs across --jobs"


def test_eval_qa_cli_golden_percentages(tmp_path, capsys):
    qa_path = tmp_path / "qa.jsonl"
    qa_path.write_text(
        "\n".join(
            json.dumps(r)
            for r in [
                {
                    "question_id": "q1",
                    "book_id": "b",
                    "question": "where",
                    "answers": ["france", "a boarding school in france"],
                },
                {
                    "question_id": "q2",
                    "book_id": "b",
                    "question": "who",
                    "answers": ["Brother", "Morgan is Wyatt's brother"],
                },
                {
                    "question_id": "q3",
                    "book_id": "b",
                    "question": "what",
                    "answers": ["Tuberculosis", "Tuberculosis"],
                },
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    preds_path = tmp_path / "preds.jsonl"
    preds_path.write_text(
        "\n".join(
            json.dumps(r)
            for r in [
                {"question_id": "q1", "answer": "France."},
                {"question_id": "q2", "answer": "the brother"},
                {"question_id": "q3", "answer": "lung cancer"},
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "report.json"
    captured = run_ok(
        capsys, "eval-qa", "--predictions", preds_path, "--qa", qa_path, "--out", out
    )
    report = json.loads(captured.out)
    assert report == {
        "bleu1": 40.0,
        "bleu4": 0.0,
        "meteor": 31.82,
        "rouge_l": 56.98,
        "em": 66.67,
        "f1": 66.67,
        "n_questions": 3,
    }
    assert json.loads(out.read_text()) == report


def test_eval_qa_perfect_predictions(tmp_path, capsys):
    work = tmp_path / "run"
    run_ok(capsys, *synth_args(work / "corpus"))
    qa_path = work / "corpus" / "qa.jsonl"
    records = [json.loads(line) for line in qa_path.read_text().splitlines()]
    preds = tmp_path / "preds.jsonl"
    preds.write_text(
        "\n".join(
            json.dumps({"question_id": r["question_id"], "answer": r["answers"][0]})
            for r in records
        )
        + "\n",
        encoding="utf-8",
    )
    captured = run_ok(capsys, "eval-qa", "--predictions", preds, "--qa", qa_path)
    report = json.loads(captured.out)
    assert report["em"] == 100.0
    assert report["f1"] == 100.0
    assert report["rouge_l"] == 100.0
    assert report["bleu1"] == 100.0
    assert report["meteor"] < 100.0  # fragmentation penalty on exact matches


@pytest.mark.parametrize("filler", [0, 1000])
def test_eval_qa_aligns_a_long_prediction_as_its_tail(tmp_path, capsys, filler):
    qa_path = tmp_path / "qa.jsonl"
    qa_path.write_text(
        json.dumps({"question_id": "q1", "book_id": "b", "question": "q", "answers": ["a c a d"]}) + "\n",
        encoding="utf-8",
    )
    answer = " ".join([*(f"w{i}" for i in range(filler)), "d d b a d a d d a d"])
    preds = tmp_path / "preds.jsonl"
    preds.write_text(json.dumps({"question_id": "q1", "answer": answer}) + "\n", encoding="utf-8")
    report = json.loads(run_ok(capsys, "eval-qa", "--predictions", preds, "--qa", qa_path).out)
    # Words the reference lacks change only the length: the tail aligns with
    # "a c a d" in 3 matches and 2 chunks ("a d", "a").
    precision, recall = 3 / (filler + 10), 3 / 4
    fmean = 10.0 * precision * recall / (recall + 9.0 * precision)
    assert report["meteor"] == round(100.0 * fmean * (1.0 - 0.5 * (2 / 3) ** 3), 2)


def test_eval_ir_with_external_scorer(tmp_path, capsys):
    work = tmp_path / "run"
    pipeline(capsys, work)
    command = f"exec:{sys.executable} {SCORERS / 'length_scorer.py'}"
    captured = run_ok(
        capsys,
        "eval-ir",
        "--index", work / "index.jsonl",
        "--paragraphs", work / "paras.jsonl",
        "--qa", work / "corpus" / "qa.jsonl",
        "--reranker", command,
        "--out", tmp_path / "table.json",
    )
    assert "reranked_top5" in captured.out


def test_eval_ir_file_scorer_roundtrip(tmp_path, capsys):
    work = tmp_path / "run"
    pipeline(capsys, work)
    requests_path = tmp_path / "requests.jsonl"
    run_ok(
        capsys,
        "eval-ir",
        "--index", work / "index.jsonl",
        "--paragraphs", work / "paras.jsonl",
        "--qa", work / "corpus" / "qa.jsonl",
        "--reranker", "none",
        "--emit-rerank-requests", requests_path,
    )
    # Constant out-of-band scores: the file reranker must reproduce baseline.
    scores_path = tmp_path / "scores.jsonl"
    lines = []
    for line in requests_path.read_text().splitlines():
        req = json.loads(line)
        lines.append(
            json.dumps(
                {"question_id": req["question_id"], "scores": [0.0] * len(req["candidates"])}
            )
        )
    scores_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    captured = run_ok(
        capsys,
        "eval-ir",
        "--index", work / "index.jsonl",
        "--paragraphs", work / "paras.jsonl",
        "--qa", work / "corpus" / "qa.jsonl",
        "--reranker", f"file:{scores_path}",
    )
    rows = captured.out.strip().splitlines()
    baseline = rows[1].split()[1:]
    reranked = rows[2].split()[1:]
    assert baseline == reranked


def test_eval_ir_exec_scorer_string_scores_fail_with_protocol_error(tmp_path, capsys):
    work = tmp_path / "run"
    pipeline(capsys, work)
    spec = f"exec:{sys.executable} {SCORERS / 'broken_scorer.py'} string_scores"
    out = tmp_path / "table.json"
    err = run_fail(capsys, *eval_ir_args(work, spec, "--out", out))
    assert err.startswith("error[protocol]: reranker failed on question ")
    assert "bad rerank response record: score '1.5' is not a number" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "response, problem",
    [
        ({"scores": ["1.5"]}, "score '1.5' is not a number"),
        ({"scores": [True]}, "score True is not a number"),
        ({"question_id": 7, "scores": [1.5]}, "question_id 7 is not a string"),
    ],
)
def test_eval_ir_file_scores_unconverted_fail_with_protocol_error(
    tmp_path, capsys, response, problem
):
    work = tmp_path / "run"
    pipeline(capsys, work)
    qa = [json.loads(line) for line in (work / "corpus" / "qa.jsonl").read_text().splitlines()]
    scores_path = tmp_path / "scores.jsonl"
    scores_path.write_text(
        json.dumps({"question_id": qa[0]["question_id"], **response}) + "\n", encoding="utf-8"
    )
    out = tmp_path / "table.json"
    err = run_fail(capsys, *eval_ir_args(work, f"file:{scores_path}", "--out", out))
    assert err == f"error[protocol]: {scores_path}: line 1: bad rerank response record: {problem}\n"
    assert not out.exists()


def test_eval_ir_empty_file_scores_fail_where_they_load(tmp_path, capsys):
    """An empty scores file is refused as it loads, like every JSONL input,
    and an earlier table keeps its bytes."""
    work = tmp_path / "run"
    pipeline(capsys, work)
    scores_path = tmp_path / "scores.jsonl"
    scores_path.write_text("\n", encoding="utf-8")
    out = tmp_path / "table.json"
    out.write_text("earlier table\n", encoding="utf-8")
    code = main([str(a) for a in eval_ir_args(work, f"file:{scores_path}", "--out", out)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == f"error[protocol]: {scores_path}: no rerank response records\n"
    assert out.read_text(encoding="utf-8") == "earlier table\n"


def test_eval_ir_file_scores_missing_a_question_name_the_file(tmp_path, capsys):
    work = tmp_path / "run"
    pipeline(capsys, work)
    requests_path = tmp_path / "requests.jsonl"
    run_ok(capsys, *eval_ir_args(work, "none", "--emit-rerank-requests", requests_path))
    requests = [json.loads(line) for line in requests_path.read_text().splitlines()]
    scores_path = write_jsonl(
        tmp_path / "scores.jsonl",
        [{"question_id": r["question_id"], "scores": [0.0] * len(r["candidates"])} for r in requests[:-1]],
    )
    out = tmp_path / "table.json"
    code = main([str(a) for a in eval_ir_args(work, f"file:{scores_path}", "--out", out)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    missing = requests[-1]["question_id"]
    assert captured.err == (
        f"error[protocol]: reranker failed on question {missing!r}: "
        f"{scores_path}: no scores for question {missing!r}\n"
    )
    assert not out.exists()


def test_inconsistent_index_fails_with_format_error(tmp_path, capsys):
    """An index record whose ``n_docs`` disagrees with its ``doc_len`` is
    refused when loaded, before any retrieval runs."""
    run_ok(capsys, *synth_args(tmp_path / "corpus"))
    paras, index = tmp_path / "paras.jsonl", tmp_path / "index.jsonl"
    run_ok(capsys, "chunk", "--books", tmp_path / "corpus" / "books.jsonl", "--out", paras)
    run_ok(capsys, "index", "--paragraphs", paras, "--out", index)
    records = [json.loads(line) for line in index.read_text(encoding="utf-8").splitlines()]
    records[1]["n_docs"] += 1
    index.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    out = tmp_path / "retrieved.jsonl"
    err = run_fail(
        capsys, "retrieve", "--index", index, "--qa", tmp_path / "corpus" / "qa.jsonl", "--out", out
    )
    assert err.startswith(f"error[format]: {index}: line 2: bad index record for book ")
    assert "doc_len entries" in err
    assert not out.exists()


def test_index_posting_of_strings_fails_with_format_error(tmp_path, capsys):
    """A posting ``["3", 1]`` is refused when the index loads, not read as
    paragraph 3."""
    run_ok(capsys, *synth_args(tmp_path / "corpus"))
    paras, index = tmp_path / "paras.jsonl", tmp_path / "index.jsonl"
    run_ok(capsys, "chunk", "--books", tmp_path / "corpus" / "books.jsonl", "--out", paras)
    run_ok(capsys, "index", "--paragraphs", paras, "--out", index)
    records = [json.loads(line) for line in index.read_text(encoding="utf-8").splitlines()]
    term = sorted(records[0]["postings"])[0]
    records[0]["postings"][term].append(["3", 1])
    index.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    out = tmp_path / "retrieved.jsonl"
    err = run_fail(
        capsys, "retrieve", "--index", index, "--qa", tmp_path / "corpus" / "qa.jsonl", "--out", out
    )
    assert err.startswith(f"error[format]: {index}: line 1: bad index record for book ")
    assert "has posting ['3', 1], not a pair of ints" in err
    assert not out.exists()


def test_error_contracts(tmp_path, capsys):
    qa_path = tmp_path / "qa.jsonl"
    qa_path.write_text(
        json.dumps(
            {"question_id": "q1", "book_id": "ghost", "question": "x", "answers": ["y"]}
        )
        + "\n",
        encoding="utf-8",
    )
    books_path = tmp_path / "books.jsonl"
    books_path.write_text(
        json.dumps({"book_id": "b1", "title": "", "text": "stone wall"}) + "\n",
        encoding="utf-8",
    )
    paras = tmp_path / "paras.jsonl"
    index = tmp_path / "index.jsonl"
    run_ok(capsys, "chunk", "--books", books_path, "--out", paras)
    run_ok(capsys, "index", "--paragraphs", paras, "--out", index)

    err = run_fail(
        capsys, "retrieve", "--index", index, "--qa", qa_path, "--out", tmp_path / "r.jsonl"
    )
    assert err.startswith("error[corpus]")
    assert "ghost" in err

    err = run_fail(
        capsys,
        "supervise",
        "--index", index,
        "--paragraphs", paras,
        "--qa", qa_path,
        "--pos-threshold", "0.3",
        "--neg-threshold", "0.4",
        "--out", tmp_path / "p.jsonl",
    )
    assert err.startswith("error[")

    bad_books = tmp_path / "bad_books.jsonl"
    bad_books.write_text('{"book_id": "b"}\n', encoding="utf-8")
    err = run_fail(capsys, "chunk", "--books", bad_books, "--out", tmp_path / "x.jsonl")
    assert err.startswith("error[corpus]")
    assert "'text'" in err

    missing_preds = tmp_path / "missing.jsonl"
    missing_preds.write_text(json.dumps({"question_id": "zz", "answer": "a"}) + "\n")
    good_qa = tmp_path / "good_qa.jsonl"
    good_qa.write_text(
        json.dumps({"question_id": "q1", "book_id": "b1", "question": "x", "answers": ["y"]})
        + "\n",
        encoding="utf-8",
    )
    err = run_fail(capsys, "eval-qa", "--predictions", missing_preds, "--qa", good_qa)
    assert err.startswith("error[eval]")

    err = run_fail(
        capsys,
        "eval-ir",
        "--index", index,
        "--paragraphs", paras,
        "--qa", good_qa,
        "--reranker", "bogus",
    )
    assert err.startswith("error[config]")


def test_chunk_accepts_directory_of_txt_books(tmp_path, capsys):
    books_dir = tmp_path / "books"
    books_dir.mkdir()
    (books_dir / "alpha.txt").write_text("one two three four five", encoding="utf-8")
    (books_dir / "beta.txt").write_text("six seven eight", encoding="utf-8")
    out = tmp_path / "paras.jsonl"
    run_ok(capsys, "chunk", "--books", books_dir, "--width", 2, "--out", out)
    paras = [json.loads(line) for line in out.read_text().splitlines()]
    assert [p["book_id"] for p in paras] == ["alpha", "alpha", "alpha", "beta", "beta"]
    sidecar = json.loads((tmp_path / "paras.jsonl.meta.json").read_text())
    assert len(sidecar["inputs"]) == 2  # one digest per .txt file


def test_chunk_splits_600_stacked_clitics(tmp_path, capsys):
    books = tmp_path / "books.jsonl"
    text = "The cat" + "'s" * 600 + " sat."
    books.write_text(json.dumps({"book_id": "b", "title": "", "text": text}) + "\n", encoding="utf-8")
    out = tmp_path / "paras.jsonl"
    run_ok(capsys, "chunk", "--books", books, "--width", 1000, "--out", out)
    [para] = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert para["text"] == " ".join(["The", "cat", *["'s"] * 600, "sat", "."])


def test_retrieve_surfaces_empty_answer_corpus_error(tmp_path, capsys):
    qa_path = tmp_path / "qa.jsonl"
    qa_path.write_text(
        json.dumps({"question_id": "q1", "book_id": "b", "question": "x", "answers": ["", " "]})
        + "\n",
        encoding="utf-8",
    )
    books = tmp_path / "books.jsonl"
    books.write_text(json.dumps({"book_id": "b", "title": "", "text": "x y"}) + "\n")
    paras, index = tmp_path / "p.jsonl", tmp_path / "i.jsonl"
    run_ok(capsys, "chunk", "--books", books, "--out", paras)
    run_ok(capsys, "index", "--paragraphs", paras, "--out", index)
    err = run_fail(
        capsys, "retrieve", "--index", index, "--qa", qa_path, "--mode", "qa",
        "--out", tmp_path / "r.jsonl",
    )
    assert err.startswith("error[corpus]")
    assert "answers" in err


def test_synth_paraphrase_cli(tmp_path, capsys):
    run_ok(capsys, *synth_args(tmp_path / "c", seed=5, paraphrase=True))
    truth = [json.loads(l) for l in (tmp_path / "c" / "truth.jsonl").read_text().splitlines()]
    assert all({"question_id", "book_id", "para_index", "topic", "hard"} <= set(t) for t in truth)


def test_unknown_flag_exits_nonzero(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["chunk", "--nonsense"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage" in captured.err


@pytest.mark.parametrize(
    "flag, problem",
    [
        ("--k1=-1", "must be finite and >= 0"),
        ("--k1=nan", "must be finite and >= 0"),
        ("--k1=inf", "must be finite and >= 0"),
        ("--b=2", "must be in [0, 1]"),
    ],
)
def test_index_bm25_parameters_are_checked_at_parse_time(tmp_path, capsys, flag, problem):
    """Values every index-reading stage would refuse are usage errors."""
    index = tmp_path / "index.jsonl"
    with pytest.raises(SystemExit) as exc:
        main(["index", "--paragraphs", str(tmp_path / "paras.jsonl"), flag, "--out", str(index)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert problem in captured.err
    assert not index.exists()


def eval_ir_args(work, reranker, *extra):
    return [
        "eval-ir",
        "--index", work / "index.jsonl",
        "--paragraphs", work / "paras.jsonl",
        "--qa", work / "corpus" / "qa.jsonl",
        "--reranker", reranker,
        *extra,
    ]


def test_eval_ir_lexical_table_identical_across_jobs(tmp_path, capsys):
    work = tmp_path / "run"
    pipeline(capsys, work)
    outputs = []
    for jobs in (1, 2):
        table = tmp_path / f"table{jobs}.json"
        captured = run_ok(
            capsys, *eval_ir_args(work, "lexical", "--out", table, "--jobs", jobs)
        )
        outputs.append((captured.out, table.read_bytes()))
    assert outputs[0] == outputs[1]


def test_eval_ir_file_outputs_identical_across_jobs_when_forked(tmp_path, capsys, monkeypatch):
    """A file: scorer's questions are mapped per book over forked workers,
    which inherit its scores.  The table, its sidecar and stdout are the
    same at --jobs 1, in one process, and at --jobs 2, in two workers."""
    work = tmp_path / "run"
    pipeline(capsys, work)
    requests = tmp_path / "requests.jsonl"
    run_ok(capsys, *eval_ir_args(work, "none", "--emit-rerank-requests", requests))
    spec = f"file:{length_scores(requests, tmp_path / 'scores.jsonl')}"
    monkeypatch.setattr(bookqa.fileio, "FORK_AFTER_S", 0)
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    table = tmp_path / "table.json"
    outputs = []
    for jobs in (1, 2):
        captured = run_ok(capsys, *eval_ir_args(work, spec, "--out", table, "--jobs", jobs))
        outputs.append((captured.out, table.read_bytes(), Path(f"{table}.meta.json").read_bytes()))
        assert len(forks) == (0 if jobs == 1 else 2)
    assert outputs[0] == outputs[1]


def test_emitted_requests_identical_across_rerankers(tmp_path, capsys):
    work = tmp_path / "run"
    pipeline(capsys, work)
    requests_path = tmp_path / "requests.jsonl"
    sidecar = tmp_path / "requests.jsonl.meta.json"
    exec_spec = f"exec:{sys.executable} {SCORERS / 'length_scorer.py'}"
    emitted = []
    for spec in ("none", "lexical", exec_spec):
        run_ok(
            capsys,
            *eval_ir_args(work, spec, "--emit-rerank-requests", requests_path, "--jobs", 2),
        )
        emitted.append((requests_path.read_bytes(), sidecar.read_bytes()))
    assert emitted[0][0].count(b"\n") == 2 * 3  # one request per question
    assert emitted[0] == emitted[1] == emitted[2]


def test_exec_scorer_survives_pickled_tasks(tmp_path, capsys, monkeypatch):
    """Every parallel_map task must pickle, even at --jobs 1: the benchmark's
    tracer pickles them to count their bytes, and a scorer owning a
    subprocess cannot be pickled.  Nor may a forked worker inherit the
    scorer inside the mapped function: at --jobs 2 an exec: scorer scores
    in the stage's own process only."""
    import os
    import pickle

    import bookqa.bm25
    import bookqa.fileio
    import bookqa.reranker

    work = tmp_path / "run"
    pipeline(capsys, work)
    original = bookqa.fileio.parallel_map
    pickled = []

    def pickling_map(fn, items, jobs):
        pickled.extend(len(pickle.dumps(item)) for item in items)
        return original(fn, items, jobs)

    for module in (bookqa.fileio, bookqa.bm25):
        monkeypatch.setattr(module, "parallel_map", pickling_map)
    exec_spec = f"exec:{sys.executable} {SCORERS / 'length_scorer.py'}"
    for spec in ("lexical", exec_spec):
        captured = run_ok(capsys, *eval_ir_args(work, spec, "--jobs", 1))
        assert len(captured.out.splitlines()) == 5
    assert pickled, "the lexical run should have mapped per-book tasks"

    pids = tmp_path / "scoring_pids.txt"
    send = bookqa.reranker.ExternalProcessReranker.send

    def recording_send(self, request):
        with open(pids, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return send(self, request)

    monkeypatch.setattr(bookqa.reranker.ExternalProcessReranker, "send", recording_send)
    captured = run_ok(capsys, *eval_ir_args(work, exec_spec, "--jobs", 2))
    assert len(captured.out.splitlines()) == 5
    assert pids.read_text(encoding="utf-8").split() == [str(os.getpid())] * 6


@pytest.mark.parametrize("failure", ["raise", "exit"])
def test_worker_failure_exits_with_error_code(tmp_path, capsys, monkeypatch, failure):
    """A worker that raises a non-BookQaError, or dies, ends the stage with
    ``error[worker]`` and no traceback.  Pool workers are forked, so they
    see the patched ``build_index``; the main process never calls it."""
    import os

    import bookqa.bm25

    monkeypatch.setattr(bookqa.fileio, "FORK_AFTER_S", 0)

    run_ok(capsys, *synth_args(tmp_path / "corpus"))
    paras = tmp_path / "paras.jsonl"
    index = tmp_path / "index.jsonl"
    run_ok(capsys, "chunk", "--books", tmp_path / "corpus" / "books.jsonl", "--out", paras)

    def broken(*args, **kwargs):
        if failure == "exit":
            os._exit(3)
        raise ValueError("index builder broke")

    monkeypatch.setattr(bookqa.bm25, "build_index", broken)
    err = run_fail(capsys, "index", "--paragraphs", paras, "--out", index, "--jobs", 2)
    assert err.startswith("error[worker]")
    assert "Traceback" not in err
    if failure == "raise":
        assert "ValueError: index builder broke" in err
    assert not index.exists()


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return path


def length_scores(requests, scores):
    """Write to ``scores`` a score per candidate of each request in the file
    ``requests``: the length of its text, as tests/scorers/length_scorer.py
    scores."""
    return write_jsonl(
        scores,
        [
            {"question_id": r["question_id"], "scores": [len(c["text"]) for c in r["candidates"]]}
            for r in map(json.loads, requests.read_text(encoding="utf-8").splitlines())
        ],
    )


def tiny_corpus(tmp_path, capsys):
    """One book of three two-token paragraphs, its index, and one question."""
    books = write_jsonl(
        tmp_path / "books.jsonl", [{"book_id": "b", "title": "", "text": "stone wall red door blue sky"}]
    )
    qa = write_jsonl(
        tmp_path / "qa.jsonl",
        [{"question_id": "q1", "book_id": "b", "question": "what is red", "answers": ["door"]}],
    )
    paras, index = tmp_path / "paras.jsonl", tmp_path / "index.jsonl"
    run_ok(capsys, "chunk", "--books", books, "--width", 2, "--out", paras)
    run_ok(capsys, "index", "--paragraphs", paras, "--out", index)
    return paras, index, qa


def shift_index_keys(index, book, by):
    """Rewrite ``book``'s index record with every paragraph number moved by
    ``by``: a record consistent with itself, for paragraphs ``by..n-1+by``."""
    records = [json.loads(line) for line in index.read_text(encoding="utf-8").splitlines()]
    for record in records:
        if record["book_id"] == book:
            record["doc_len"] = {str(int(p) + by): n for p, n in record["doc_len"].items()}
            record["postings"] = {
                t: [[p + by, f] for p, f in plist] for t, plist in record["postings"].items()
            }
    write_jsonl(index, records)


def test_index_releases_each_books_tokens(tmp_path, capsys):
    """A book's tokens are dropped once its line is made, so an index map
    that runs in the stage process holds one book's tokens at a time."""
    import bookqa.bm25
    from bookqa.corpus import load_paragraphs

    paras, _, _ = tiny_corpus(tmp_path, capsys)
    book = load_paragraphs(paras)["b"]
    line = bookqa.bm25._index_worker((book, 1.2, 0.75))
    assert [p.tokens.__dict__.get("_tokens") for p in book] == [None] * len(book)
    assert line == (tmp_path / "index.jsonl").read_text(encoding="utf-8").rstrip("\n")


def interleaved_corpus(tmp_path, capsys):
    """Three books, chunked, indexed and retrieved for, and their nine
    questions in an order that interleaves the books (a a' b c ...), so that
    each book's last question comes at its own point of the qa file."""
    corpus = tmp_path / "corpus"
    run_ok(
        capsys, "synth", "--seed", 3, "--books", 3, "--paras-per-book", 8,
        "--questions-per-book", 3, "--width", 30, "--out-dir", corpus,
    )
    by_book = {}
    for line in (corpus / "qa.jsonl").read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        by_book.setdefault(record["book_id"], []).append(record)
    a, b, c = (by_book[book] for book in sorted(by_book))
    qa = write_jsonl(tmp_path / "qa.jsonl", [a[0], b[0], a[1], a[2], c[0], b[1], c[1], b[2], c[2]])
    paras, index = tmp_path / "paras.jsonl", tmp_path / "index.jsonl"
    selections = tmp_path / "selections.jsonl"
    run_ok(capsys, "chunk", "--books", corpus / "books.jsonl", "--width", 30, "--out", paras)
    run_ok(capsys, "index", "--paragraphs", paras, "--out", index)
    run_ok(capsys, "retrieve", "--index", index, "--qa", qa, "--out", selections)
    return paras, index, qa, selections


class TokenProbe:
    """Records, as each question starts, the question's book and the books
    whose loaded paragraphs hold cached tokens."""

    def __init__(self, monkeypatch):
        import bookqa.corpus
        import bookqa.ir_eval
        import bookqa.spans
        import bookqa.supervision

        self.grouped = None
        self.starts = []
        load = bookqa.corpus.load_paragraphs

        def loading(path):
            self.grouped = load(path)
            return self.grouped

        for module in (bookqa.supervision, bookqa.spans, bookqa.ir_eval):
            monkeypatch.setattr(module, "load_paragraphs", loading)

    def holding(self):
        return {
            book
            for book, paras in self.grouped.items()
            if any(p.tokens.__dict__.get("_tokens") is not None for p in paras)
        }

    def start(self, book):
        self.starts.append((book, self.holding()))


@pytest.mark.parametrize(
    "stage, reranker",
    [
        ("supervise", None),
        ("span-oracle", None),
        ("eval-ir", "none"),
        ("eval-ir", "lexical"),
        ("eval-ir", "exec"),
        ("eval-ir", "file"),
    ],
)
def test_question_stages_release_each_books_tokens_after_its_last_question(
    tmp_path, capsys, monkeypatch, stage, reranker
):
    """As ``index`` does per book, each question stage drops a book's
    cached tokens once the book's last question is done: when a question
    starts, no book whose questions are all done holds tokens, and none
    does at the end.  Every stage and scorer runs the books in the order
    they first appear, one at a time, so a question starts with no tokens
    cached but its own book's."""
    import bookqa.ir_eval
    import bookqa.spans
    import bookqa.supervision

    paras, index, qa, selections = interleaved_corpus(tmp_path, capsys)
    out = tmp_path / "out.jsonl"
    if stage == "span-oracle":
        argv = [stage, "--paragraphs", paras, "--qa", qa, "--selections", selections, "--out", out]
    else:
        argv = stage_argv(stage, paras, index, qa, out)
    if reranker == "exec":
        reranker = f"exec:{sys.executable} {SCORERS / 'length_scorer.py'}"
    elif reranker == "file":
        requests = tmp_path / "requests.jsonl"
        run_ok(capsys, *argv, "--reranker", "none", "--emit-rerank-requests", requests)
        reranker = f"file:{length_scores(requests, tmp_path / 'scores.jsonl')}"
    if reranker is not None:
        argv += ["--reranker", reranker]

    probe = TokenProbe(monkeypatch)
    if stage == "supervise":
        generate_pairs = bookqa.supervision.generate_pairs

        def starting(index, paragraphs, example, cfg):
            probe.start(example.book_id)
            return generate_pairs(index, paragraphs, example, cfg)

        monkeypatch.setattr(bookqa.supervision, "generate_pairs", starting)
    elif stage == "span-oracle":
        coverage = bookqa.spans.AnswerCoverage

        def starting(paragraphs, answers):
            probe.start(paragraphs[0].book_id)
            return coverage(paragraphs, answers)

        monkeypatch.setattr(bookqa.spans, "AnswerCoverage", starting)
    else:
        ablation = bookqa.ir_eval.ablation_for_question

        def starting(index, paragraphs, example, *rest):
            probe.start(example.book_id)
            return ablation(index, paragraphs, example, *rest)

        monkeypatch.setattr(bookqa.ir_eval, "ablation_for_question", starting)
    run_ok(capsys, *argv, "--jobs", 1)

    books = [book for book, _ in probe.starts]
    qa_order = [json.loads(line)["book_id"] for line in qa.read_text(encoding="utf-8").splitlines()]
    assert books == sorted(qa_order, key=qa_order.index)
    checked = 0
    for i, (book, holding) in enumerate(probe.starts):
        done = set(books[:i]) - set(books[i:])
        assert holding <= {book}, (i, book)
        checked += bool(done)
    assert checked >= 2  # books were done while later ones ran
    assert any(book in holding for book, holding in probe.starts)  # tokens were cached
    assert probe.holding() == set()


@pytest.mark.parametrize("jobs", [1, 2])
def test_exec_scorer_receives_interleaved_questions_book_by_book(
    tmp_path, capsys, monkeypatch, jobs
):
    """On a qa file that interleaves books, an exec: scorer is sent the
    questions from the stage process, book by book, the books in the order
    they first appear, even where a map at --jobs 2 would fork.  The
    requests file stays in qa order, and its bytes and its sidecar's are
    those of the ``none`` run."""
    import bookqa.reranker

    monkeypatch.setattr(bookqa.fileio, "FORK_AFTER_S", 0)
    paras, index, qa, _ = interleaved_corpus(tmp_path, capsys)
    requests = tmp_path / "requests.jsonl"
    argv = [*stage_argv("eval-ir", paras, index, qa, tmp_path / "table.json"),
            "--emit-rerank-requests", requests, "--jobs", jobs]
    emitted = []
    run_ok(capsys, *argv, "--reranker", "none")
    emitted.append((requests.read_bytes(), Path(f"{requests}.meta.json").read_bytes()))

    sent = []
    send = bookqa.reranker.ExternalProcessReranker.send

    def recording_send(self, request):
        sent.append(request.question_id)
        return send(self, request)

    monkeypatch.setattr(bookqa.reranker.ExternalProcessReranker, "send", recording_send)
    run_ok(capsys, *argv, "--reranker", length_scorer_spec())
    emitted.append((requests.read_bytes(), Path(f"{requests}.meta.json").read_bytes()))

    records = [json.loads(line) for line in qa.read_text(encoding="utf-8").splitlines()]
    books = [r["book_id"] for r in records]
    grouped = sorted(records, key=lambda r: books.index(r["book_id"]))
    assert sent == [r["question_id"] for r in grouped] != [r["question_id"] for r in records]
    lines = requests.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["question_id"] for line in lines] == [r["question_id"] for r in records]
    assert emitted[0] == emitted[1]


@pytest.mark.parametrize("jobs", [1, 2])
def test_exec_scorer_never_has_two_requests_in_flight(tmp_path, capsys, monkeypatch, jobs):
    """The strict scorer exits with code 5 if a second request can be read
    before it has answered the first.  eval-ir passes with it on the
    interleaved corpus, even where a map at --jobs 2 would fork, and writes
    the table and stdout of the length scorer, which scores alike."""
    monkeypatch.setattr(bookqa.fileio, "FORK_AFTER_S", 0)
    paras, index, qa, _ = interleaved_corpus(tmp_path, capsys)
    table = tmp_path / "table.json"
    argv = [*stage_argv("eval-ir", paras, index, qa, table), "--jobs", jobs]
    strict = f"exec:{sys.executable} {SCORERS / 'strict_scorer.py'}"
    started = record_started_scorers(monkeypatch)
    outputs = []
    for spec in (strict, length_scorer_spec()):
        printed = run_ok(capsys, *argv, "--reranker", spec).out
        outputs.append((printed, table.read_bytes()))
    assert [scorer.process.returncode for scorer in started] == [0, 0]
    assert outputs[0] == outputs[1]


def test_exec_scorer_overlaps_each_request_with_the_next_questions_retrieval(
    tmp_path, capsys, monkeypatch
):
    """With an exec: scorer, each question but a book's last has its
    successor in the book retrieved for between its request's send and its
    response's read.  A book's last response is read before its tokens are
    released and before the next book's first retrieval, and only one
    request is ever in flight."""
    import bookqa.ir_eval
    import bookqa.reranker

    paras, index, qa, _ = interleaved_corpus(tmp_path, capsys)
    events = []
    retrieve, release = bookqa.ir_eval.retrieve, bookqa.ir_eval.release_tokens
    send, receive = bookqa.reranker.ExternalProcessReranker.send, bookqa.reranker.ExternalProcessReranker.receive

    def retrieving(index, query, k, question_id, mode):
        events.append(("retrieve", question_id))
        return retrieve(index, query, k, question_id, mode)

    def releasing(paragraphs):
        events.append(("release", paragraphs[0].book_id))
        return release(paragraphs)

    def sending(self, request):
        events.append(("send", request.question_id))
        return send(self, request)

    def receiving(self, request):
        events.append(("receive", request.question_id))
        return receive(self, request)

    monkeypatch.setattr(bookqa.ir_eval, "retrieve", retrieving)
    monkeypatch.setattr(bookqa.ir_eval, "release_tokens", releasing)
    monkeypatch.setattr(bookqa.reranker.ExternalProcessReranker, "send", sending)
    monkeypatch.setattr(bookqa.reranker.ExternalProcessReranker, "receive", receiving)
    run_ok(capsys, *stage_argv("eval-ir", paras, index, qa, tmp_path / "t.json"),
           "--reranker", length_scorer_spec())

    exchanges = [e for e in events if e[0] in ("send", "receive")]
    assert exchanges == [(kind, e[1]) for e in exchanges[::2] for kind in ("send", "receive")]
    assert len(exchanges) == 2 * 9
    records = [json.loads(line) for line in qa.read_text(encoding="utf-8").splitlines()]
    by_book = {}
    for r in records:
        by_book.setdefault(r["book_id"], []).append(r["question_id"])
    for book, questions in by_book.items():
        for question, successor in zip(questions, questions[1:] + [None]):
            sent = events.index(("send", question))
            read = events.index(("receive", question), sent)
            in_flight = events[sent + 1 : read]
            if successor is not None:
                assert in_flight.count(("retrieve", successor)) == 2, (question, in_flight)
            else:
                released = events.index(("release", book))
                assert read < released
                assert all(kind != "retrieve" for kind, _ in events[read:released])
                assert in_flight == [], question
    assert [e for e in events if e[0] == "release"] == [("release", book) for book in by_book]


@pytest.mark.parametrize(
    "questions, mode, target, error",
    [
        (["red", "none"], "wrong_id", "q1", "error[protocol]: reranker failed on question 'q1': "
                                            "response for 'someone-else' does not match request 'q1'\n"),
        (["red", "none"], "short", "q1", "error[protocol]: reranker failed on question 'q1': "
                                         "question 'q1': got 0 scores for 1 candidates\n"),
        (["red", "none"], "die", "q1", "error[protocol]: reranker failed on question 'q1': "
                                       "scorer exited before sending response for 'q1' (code 3)\n"),
        (["red", "sky", "none"], "nan", "q2", "error[protocol]: reranker failed on question 'q2': "
                                              "bad rerank response record: non-finite score nan\n"),
        (["none", "sky"], "wrong_id", "q2", "error[eval]: question 'q1' has no BM25 candidates; "
                                            "its query shares no terms with the book\n"),
    ],
    ids=["bad-response", "short-scores", "scorer-died", "mid-book", "no-candidates-first"],
)
def test_exec_scorer_reports_the_earlier_of_two_faulty_questions(
    tmp_path, capsys, questions, mode, target, error
):
    """Of two faulty questions, the one earlier in the qa file is reported,
    with its own message and exit code.  A bad response, scores that do not
    fit the candidates, or a scorer gone is reported although the next
    question, retrieved for while that request was in flight, has no BM25
    candidates; and a question without candidates is reported before the
    next one's bad response."""
    paras, index, _ = tiny_corpus(tmp_path, capsys)
    texts = {"red": "what is red", "sky": "where is the sky", "none": "xqzv wqqp"}
    qa = write_jsonl(tmp_path / "qa.jsonl", [
        {"question_id": f"q{i}", "book_id": "b", "question": texts[q], "answers": ["door"]}
        for i, q in enumerate(questions, 1)
    ])
    out = tmp_path / "table.json"
    err = run_fail(
        capsys, "eval-ir", "--index", index, "--paragraphs", paras, "--qa", qa,
        "--reranker", f"{broken_scorer_spec(mode)} {target}", "--out", out,
    )
    assert err == error
    assert not out.exists()


def write_books_dir(directory, texts):
    directory.mkdir()
    for name, text in texts.items():
        (directory / f"{name}.txt").write_bytes(text if isinstance(text, bytes) else text.encode())
    return directory


BOOK_TEXTS = {
    "a": "\"Don't,\" she said -- the tower's falcon (grey) flew; it's late.",
    "b": "Stone walls, red doors... and the sky's edge? Yes!",
    "c": "One two three four five six seven eight nine ten eleven.",
}


@pytest.mark.parametrize("form", ["jsonl", "txt"])
def test_chunk_writes_the_paragraphs_of_all_books_chunked_together(tmp_path, capsys, form):
    """Chunking book by book writes the bytes that loading every book first
    and chunking them all together writes."""
    from bookqa.corpus import chunk_book, load_books, write_paragraphs

    if form == "jsonl":
        books = write_jsonl(
            tmp_path / "books.jsonl",
            [{"book_id": k, "title": k.upper(), "text": t} for k, t in BOOK_TEXTS.items()],
        )
    else:
        books = write_books_dir(tmp_path / "books", BOOK_TEXTS)
    out, expected = tmp_path / "paras.jsonl", tmp_path / "expected.jsonl"
    captured = run_ok(capsys, "chunk", "--books", books, "--width", 4, "--out", out)
    paragraphs = [p for book in load_books(books) for p in chunk_book(book, 4)]
    write_paragraphs(expected, paragraphs)
    assert out.read_bytes() == expected.read_bytes()
    assert captured.err == f"wrote {len(paragraphs)} paragraphs\n"
    assert len({p.book_id for p in paragraphs}) == 3


def test_chunk_holds_one_book_at_a_time(tmp_path, capsys, monkeypatch):
    """Each book is chunked before the next is tokenized, and by then every
    earlier book and its paragraphs are gone: only the output lines outlive
    their book."""
    import weakref

    import bookqa.corpus

    books = write_jsonl(
        tmp_path / "books.jsonl",
        [{"book_id": k, "title": "", "text": t} for k, t in BOOK_TEXTS.items()],
    )
    chunked = []  # a weak reference to each book and paragraph chunked
    tokenized = []  # per book tokenized: (books chunked so far, of those alive)
    chunk_book, tokenize = bookqa.corpus.chunk_book, bookqa.corpus.tokenize

    def chunking(book, width):
        paragraphs = chunk_book(book, width)
        chunked.append([weakref.ref(x) for x in [book, *paragraphs]])
        return paragraphs

    def tokenizing(text):
        alive = [ref for refs in chunked for ref in refs if ref() is not None]
        tokenized.append((len(chunked), alive))
        return tokenize(text)

    monkeypatch.setattr(bookqa.corpus, "chunk_book", chunking)
    monkeypatch.setattr(bookqa.corpus, "tokenize", tokenizing)
    run_ok(capsys, "chunk", "--books", books, "--width", 4, "--out", tmp_path / "paras.jsonl")
    assert tokenized == [(0, []), (1, []), (2, [])]


@pytest.mark.parametrize("form", ["jsonl", "txt"])
def test_chunk_bad_third_book_fails_and_keeps_the_output(tmp_path, capsys, form):
    """The third book fails after two were chunked, with the message the
    loader gave when it read every book first, and the output keeps its
    bytes: nothing is written until every book is read."""
    if form == "jsonl":
        books = write_jsonl(
            tmp_path / "books.jsonl",
            [
                {"book_id": "a", "text": BOOK_TEXTS["a"]},
                {"book_id": "b", "text": BOOK_TEXTS["b"]},
                {"book_id": "c", "text": " \n\t "},
            ],
        )
        message = f"error[corpus]: {books}: line 3: book 'c' has no tokens\n"
    else:
        books = write_books_dir(
            tmp_path / "books", {"a": BOOK_TEXTS["a"], "b": BOOK_TEXTS["b"], "c": b"falcon \xff"}
        )
        message = f"error[corpus]: {books / 'c.txt'}: not valid UTF-8 (invalid start byte)\n"
    out = tmp_path / "paras.jsonl"
    out.write_text("earlier output\n", encoding="utf-8")
    err = run_fail(capsys, "chunk", "--books", books, "--width", 4, "--out", out)
    assert err == message
    assert out.read_text(encoding="utf-8") == "earlier output\n"
    assert sorted(os.listdir(tmp_path)) == sorted([books.name, "paras.jsonl"])


HUGE_INT = 10**400  # a JSON integer beyond the largest float


@pytest.mark.parametrize(
    "field, problem",
    [
        ("k1", "k1 is an int too large for a float"),
        ("doc_len", "paragraph 0 has a doc_len too large for a float"),
        ("k1-digits", "invalid JSON (Exceeds the limit"),
    ],
)
def test_index_int_too_large_for_a_float_fails_with_format_error(tmp_path, capsys, field, problem):
    """Such an int would overflow the first float arithmetic that met it;
    one of more digits than Python parses fails when the line is decoded."""
    _, index, qa = tiny_corpus(tmp_path, capsys)
    line = index.read_text(encoding="utf-8")
    record = json.loads(line)
    if field == "k1":
        record["k1"] = HUGE_INT
    elif field == "doc_len":
        record["doc_len"]["0"] = HUGE_INT
    if field == "k1-digits":
        index.write_text(line.replace('"k1": 1.2', '"k1": 1' + "0" * 5000), encoding="utf-8")
    else:
        write_jsonl(index, [record])
    out = tmp_path / "retrieved.jsonl"
    err = run_fail(capsys, "retrieve", "--index", index, "--qa", qa, "--out", out)
    assert "Traceback" not in err
    if field == "k1-digits" and not hasattr(sys, "get_int_max_str_digits"):
        problem = "k1 is an int too large for a float"  # no digit limit before 3.10.7
    assert err.startswith(f"error[format]: {index}: line 1: ")
    assert problem in err
    assert not out.exists()


def test_index_line_nested_too_deeply_fails_with_format_error(tmp_path, capsys):
    """Arrays nested past the recursion limit make the JSON decoder raise
    ``RecursionError``, which must end the stage with the input's error
    code, not a traceback."""
    _, index, qa = tiny_corpus(tmp_path, capsys)
    index.write_text("[" * 200_000 + "]" * 200_000 + "\n", encoding="utf-8")
    out = tmp_path / "retrieved.jsonl"
    err = run_fail(capsys, "retrieve", "--index", index, "--qa", qa, "--out", out)
    assert "Traceback" not in err
    assert err == f"error[format]: {index}: line 1: invalid JSON (nested too deeply)\n"
    assert not out.exists()


def test_selection_score_too_large_for_a_float_fails_with_format_error(tmp_path, capsys):
    paras, _, qa = tiny_corpus(tmp_path, capsys)
    selections = write_jsonl(
        tmp_path / "selections.jsonl",
        [{"question_id": "q1", "mode": "question_only", "ranked": [{"para_index": 0, "score": HUGE_INT}]}],
    )
    out = tmp_path / "spans.jsonl"
    err = run_fail(
        capsys, "span-oracle", "--paragraphs", paras, "--qa", qa, "--selections", selections,
        "--out", out,
    )
    assert "Traceback" not in err
    assert err == (
        f"error[format]: {selections}: line 1: bad retrieval record: "
        "score is an int too large for a float\n"
    )
    assert not out.exists()


def test_rerank_score_too_large_for_a_float_fails_with_protocol_error(tmp_path, capsys):
    paras, index, qa = tiny_corpus(tmp_path, capsys)
    scores = write_jsonl(tmp_path / "scores.jsonl", [{"question_id": "q1", "scores": [HUGE_INT]}])
    out = tmp_path / "table.json"
    err = run_fail(
        capsys, "eval-ir", "--index", index, "--paragraphs", paras, "--qa", qa,
        "--reranker", f"file:{scores}", "--out", out,
    )
    assert "Traceback" not in err
    assert err == (
        f"error[protocol]: {scores}: line 1: bad rerank response record: "
        "score is an int too large for a float\n"
    )
    assert not out.exists()


def test_boolean_para_index_fails_with_corpus_error(tmp_path, capsys):
    """JSON ``true`` and ``false`` are no paragraph indexes, though Python's
    ``bool`` is an ``int``."""
    paras = write_jsonl(
        tmp_path / "paras.jsonl",
        [
            {"book_id": "b", "para_index": 0, "text": "stone wall"},
            {"book_id": "b", "para_index": True, "text": "red door"},
        ],
    )
    out = tmp_path / "index.jsonl"
    err = run_fail(capsys, "index", "--paragraphs", paras, "--out", out)
    assert err == f"error[corpus]: {paras}: line 2: field 'para_index' has wrong type\n"
    assert list(tmp_path.iterdir()) == [paras]


@pytest.mark.parametrize(
    "field, value, problem",
    [
        ("para_index", 1.9, "para_index 1.9 is not an int"),
        ("para_index", True, "para_index True is not an int"),
        ("para_index", "1", "para_index '1' is not an int"),
        ("score", "7", "score '7' is not a number"),
        ("score", False, "score False is not a number"),
        ("question_id", 1, "question_id 1 is not a string"),
        ("mode", None, "mode None is not a string"),
    ],
)
def test_selection_values_are_not_converted(tmp_path, capsys, field, value, problem):
    """A selection's values are refused unless they are of their type, not
    converted to it and labelled."""
    paras, _, qa = tiny_corpus(tmp_path, capsys)
    bad = {"question_id": "q1", "mode": "question_only", "ranked": [{"para_index": 1, "score": 1.5}]}
    if field in bad:
        bad[field] = value
    else:
        bad["ranked"][0][field] = value
    selections = write_jsonl(
        tmp_path / "selections.jsonl",
        [
            {"question_id": "q1", "mode": "question_only", "ranked": [{"para_index": 0, "score": 2}]},
            bad,
        ],
    )
    out = tmp_path / "spans.jsonl"
    err = run_fail(
        capsys, "span-oracle", "--paragraphs", paras, "--qa", qa, "--selections", selections,
        "--out", out,
    )
    assert err == f"error[format]: {selections}: line 2: bad retrieval record: {problem}\n"
    assert not out.exists()


def test_selection_of_non_finite_repeated_scores_fails(tmp_path, capsys):
    """``NaN`` and ``Infinity`` decode from JSON lines, but ``retrieve``
    never writes them, nor a paragraph twice; the line is refused and no
    weak labels are written."""
    paras, _, qa = tiny_corpus(tmp_path, capsys)
    selections = tmp_path / "selections.jsonl"
    selections.write_text(
        '{"question_id": "q1", "mode": "question_only", "ranked": '
        '[{"para_index": 0, "score": NaN}, {"para_index": 0, "score": Infinity}]}\n',
        encoding="utf-8",
    )
    out = tmp_path / "spans.jsonl"
    err = run_fail(
        capsys, "span-oracle", "--paragraphs", paras, "--qa", qa, "--selections", selections,
        "--out", out,
    )
    assert err == f"error[format]: {selections}: line 1: bad retrieval record: score nan is not finite\n"
    assert not out.exists()


def test_span_oracle_refuses_a_question_selected_twice(tmp_path, capsys):
    """A selections file that holds ``retrieve``'s lines twice would label
    every paragraph twice; its second line is refused."""
    paras, index, qa = tiny_corpus(tmp_path, capsys)
    selections = tmp_path / "selections.jsonl"
    run_ok(capsys, "retrieve", "--index", index, "--qa", qa, "--out", selections)
    selections.write_text(selections.read_text(encoding="utf-8") * 2, encoding="utf-8")
    out = tmp_path / "spans.jsonl"
    err = run_fail(
        capsys, "span-oracle", "--paragraphs", paras, "--qa", qa, "--selections", selections,
        "--out", out,
    )
    assert err == f"error[eval]: {selections}: line 2: question 'q1' is selected twice\n"
    assert not out.exists()


@pytest.mark.parametrize("jobs", [1, 2])
def test_span_oracle_refuses_an_empty_selections_file(tmp_path, capsys, jobs):
    """``retrieve`` refuses an empty qa file, so it never writes an empty
    selections file: one is a truncated artifact, refused before the
    labels it would replace are touched."""
    paras, _, qa = tiny_corpus(tmp_path, capsys)
    selections = tmp_path / "selections.jsonl"
    selections.write_text("\n", encoding="utf-8")
    out = tmp_path / "spans.jsonl"
    out.write_text("earlier labels\n", encoding="utf-8")
    err = run_fail(
        capsys, "span-oracle", "--paragraphs", paras, "--qa", qa, "--selections", selections,
        "--out", out, "--jobs", jobs,
    )
    assert err == f"error[format]: {selections}: no selection records\n"
    assert out.read_text(encoding="utf-8") == "earlier labels\n"
    assert not (tmp_path / "spans.jsonl.meta.json").exists()


def test_retrieve_refuses_a_negative_doc_len_key(tmp_path, capsys):
    """``retrieve`` reads no paragraphs to check the index against, so the
    index itself must hold no paragraph numbered below 0."""
    _, index, qa = tiny_corpus(tmp_path, capsys)
    shift_index_keys(index, "b", -1)
    out = tmp_path / "retrieved.jsonl"
    err = run_fail(capsys, "retrieve", "--index", index, "--qa", qa, "--out", out)
    assert err == (
        f"error[format]: {index}: line 1: bad index record for book 'b': "
        "doc_len key -1: para_index must be >= 0\n"
    )
    assert not out.exists()


def stage_argv(stage, paras, index, qa, out):
    """A question stage's arguments over the given inputs."""
    if stage == "retrieve":
        return ["retrieve", "--index", index, "--qa", qa, "--out", out]
    return [stage, "--index", index, "--paragraphs", paras, "--qa", qa, "--out", out]


@pytest.mark.parametrize("stage", ["retrieve", "supervise", "eval-ir"])
def test_index_naming_a_paragraph_twice_fails_with_format_error(tmp_path, capsys, stage):
    """A posting list naming paragraph 1 twice would count the paragraph
    twice in the term's df; every stage that reads the index refuses it as
    it loads, and an earlier output stays as it was."""
    paras, index, qa = tiny_corpus(tmp_path, capsys)
    record = json.loads(index.read_text(encoding="utf-8"))
    record["postings"]["door"] = [[1, 1], [1, 1]]
    write_jsonl(index, [record])
    out = tmp_path / "out.jsonl"
    out.write_text("earlier output\n", encoding="utf-8")
    err = run_fail(capsys, *stage_argv(stage, paras, index, qa, out))
    assert err == (
        f"error[format]: {index}: line 1: bad index record for book 'b': "
        "term 'door' names paragraph 1 twice\n"
    )
    assert out.read_text(encoding="utf-8") == "earlier output\n"


@pytest.mark.parametrize(
    "field, value, problem",
    [
        ("book_id", 7, "bad index record: book_id 7 is not a string"),
        ("n_docs", "3", "bad index record for book 'b': n_docs '3' is not an int"),
        ("k1", "1.2", "bad index record for book 'b': k1 '1.2' is not a number"),
        ("b", True, "bad index record for book 'b': b True is not a number"),
        (
            "avg_doc_len",
            99.0,
            "bad index record for book 'b': avg_doc_len 99.0 is not the mean of its 3 doc_len entries",
        ),
    ],
)
def test_index_scalars_are_not_converted(tmp_path, capsys, field, value, problem):
    """An index value of the wrong type, or a mean its lengths contradict,
    fails ``retrieve`` with the index path and line, and nothing is written."""
    _, index, qa = tiny_corpus(tmp_path, capsys)
    record = json.loads(index.read_text(encoding="utf-8"))
    record[field] = value
    write_jsonl(index, [record])
    before = sorted(tmp_path.iterdir())
    out = tmp_path / "retrieved.jsonl"
    err = run_fail(capsys, "retrieve", "--index", index, "--qa", qa, "--out", out)
    assert err == f"error[format]: {index}: line 1: {problem}\n"
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("bad_input, code", [("qa", "corpus"), ("paras", "corpus"), ("index", "format")])
def test_non_utf8_input_fails_with_its_line(tmp_path, capsys, bad_input, code):
    """A Latin-1 byte in any JSONL input fails with the input's error and
    the line that holds it, not a traceback.  The file decodes in chunks,
    so the reader fails before it reaches that line."""
    paras, index, qa = tiny_corpus(tmp_path, capsys)
    path = {"qa": qa, "paras": paras, "index": index}[bad_input]
    lines = path.read_bytes().splitlines(keepends=True)
    lines = [lines[0]] * 3 + [lines[0].replace(b'"b"', b'"caf\xe9"')] + lines[1:]
    path.write_bytes(b"".join(lines))
    out = tmp_path / "out.jsonl"
    stage = (
        ["index", "--paragraphs", paras]
        if bad_input == "paras"
        else ["retrieve", "--index", index, "--qa", qa]
    )
    err = run_fail(capsys, *stage, "--out", out)
    assert err == (
        f"error[{code}]: {path}: line 4: not valid UTF-8 (invalid continuation byte)\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("stage", ["index", "eval-ir"])
def test_negative_para_index_fails_with_corpus_error(tmp_path, capsys, stage):
    _, index, qa = tiny_corpus(tmp_path, capsys)
    paras = write_jsonl(
        tmp_path / "negative.jsonl", [{"book_id": "b", "para_index": -1, "text": "a b c"}]
    )
    out = tmp_path / "out.json"
    if stage == "index":
        argv = ["index", "--paragraphs", paras, "--out", out]
    else:
        argv = ["eval-ir", "--index", index, "--paragraphs", paras, "--qa", qa, "--out", out]
    err = run_fail(capsys, *argv)
    assert err == f"error[corpus]: {paras}: line 1: para_index must be >= 0\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "mismatch, error",
    [
        (
            "fewer",
            "error[corpus]: index for book 'b' covers 2 paragraphs numbered 0 to 1, "
            "but the paragraphs file has 1, numbered 0 to 0\n",
        ),
        (
            "more",
            "error[corpus]: index for book 'b' covers 2 paragraphs numbered 0 to 1, "
            "but the paragraphs file has 3, numbered 0 to 2\n",
        ),
        (
            "shifted",
            "error[corpus]: index for book 'b' covers 2 paragraphs numbered 1 to 2, "
            "but the paragraphs file has 2, numbered 0 to 1\n",
        ),
    ],
    ids=["fewer", "more", "shifted"],
)
@pytest.mark.parametrize("stage", ["supervise", "eval-ir"])
def test_index_naming_missing_paragraphs_fails_alike_at_any_jobs(
    tmp_path, capsys, monkeypatch, stage, mismatch, error
):
    """Book ``b`` is indexed with two paragraphs.  The paragraphs file then
    holds fewer or more of them, or the index numbers them from 1.  Book
    ``c`` is whole.  Every such stage fails with one message as it loads,
    before any question runs and before any worker forks: every map at
    ``--jobs 2`` would fork before its first item, and a last run makes
    each fork raise, which would end the stage in ``error[worker]``."""
    monkeypatch.setattr(bookqa.fileio, "FORK_AFTER_S", 0)
    book_b = [
        {"book_id": "b", "para_index": 0, "text": "tower falcon"},
        {"book_id": "b", "para_index": 1, "text": "lantern ember"},
    ]
    book_c = [{"book_id": "c", "para_index": 0, "text": "stone wall"}]
    index = tmp_path / "index.jsonl"
    run_ok(capsys, "index", "--paragraphs", write_jsonl(tmp_path / "full.jsonl", book_b + book_c), "--out", index)
    if mismatch == "fewer":
        book_b = book_b[:1]
    elif mismatch == "more":
        book_b = book_b + [{"book_id": "b", "para_index": 2, "text": "iron gate"}]
    else:
        shift_index_keys(index, "b", 1)
    paras = write_jsonl(tmp_path / "paras.jsonl", book_b + book_c)
    qa = write_jsonl(
        tmp_path / "qa.jsonl",
        [
            {"question_id": "q1", "book_id": "b", "question": "where is the tower falcon",
             "answers": ["tower falcon", "lantern ember"]},
            {"question_id": "q2", "book_id": "c", "question": "what stone", "answers": ["wall"]},
        ],
    )
    out = tmp_path / "out.jsonl"
    out.write_text("earlier output\n", encoding="utf-8")

    def fail(jobs):
        return run_fail(
            capsys, stage, "--index", index, "--paragraphs", paras, "--qa", qa,
            "--out", out, "--jobs", jobs,
        )

    errors = [fail(1), fail(2)]

    def no_fork():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", no_fork)
    errors.append(fail(2))
    assert errors == [error] * 3
    assert out.read_text(encoding="utf-8") == "earlier output\n"


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "stage, missing",
    [
        ("span-oracle", "paragraphs"),
        ("supervise", "index"),
        ("supervise", "paragraphs"),
        ("eval-ir", "index"),
        ("eval-ir", "paragraphs"),
    ],
)
def test_question_whose_book_is_missing_fails_every_question_stage_alike(
    tmp_path, capsys, stage, missing, jobs
):
    """Question q2 asks about book ``ghost``.  The index lacks it, or holds
    it while the paragraphs file does not.  Each question stage fails with
    one ``error[corpus]`` line naming the book as it loads, and an earlier
    output stays as it was."""
    book_b = [{"book_id": "b", "para_index": 0, "text": "tower falcon"}]
    ghost = [{"book_id": "ghost", "para_index": 0, "text": "stone wall"}]
    indexed = write_jsonl(tmp_path / "indexed.jsonl", book_b + (ghost if missing == "paragraphs" else []))
    index = tmp_path / "index.jsonl"
    run_ok(capsys, "index", "--paragraphs", indexed, "--out", index)
    paras = write_jsonl(tmp_path / "paras.jsonl", book_b)
    qa = write_jsonl(
        tmp_path / "qa.jsonl",
        [
            {"question_id": "q1", "book_id": "b", "question": "which tower", "answers": ["falcon"]},
            {"question_id": "q2", "book_id": "ghost", "question": "what stone", "answers": ["wall"]},
        ],
    )
    out = tmp_path / "out.jsonl"
    out.write_text("earlier output\n", encoding="utf-8")
    if stage == "span-oracle":
        ranked = [{"para_index": 0, "score": 1.0}]
        selections = write_jsonl(
            tmp_path / "selections.jsonl",
            [{"question_id": "q1", "mode": "question_only", "ranked": ranked}],
        )
        argv = [stage, "--paragraphs", paras, "--qa", qa, "--selections", selections, "--out", out]
    else:
        argv = stage_argv(stage, paras, index, qa, out)
    err = run_fail(capsys, *argv, "--jobs", jobs)
    assert err == f"error[corpus]: no {missing} for books: ghost\n"
    assert out.read_text(encoding="utf-8") == "earlier output\n"


def broken_scorer_spec(mode):
    return f"exec:{sys.executable} {SCORERS / 'broken_scorer.py'} {mode}"


@pytest.mark.parametrize(
    "spec, error",
    [
        (
            broken_scorer_spec("not_utf8"),
            "error[protocol]: reranker failed on question 'q1': "
            "scorer response for 'q1': not valid UTF-8 (invalid start byte)\n",
        ),
        (
            broken_scorer_spec("nested"),
            "error[protocol]: reranker failed on question 'q1': "
            "scorer response for 'q1': invalid JSON (nested too deeply)\n",
        ),
        (
            broken_scorer_spec("handshake_not_object"),
            "error[protocol]: scorer handshake is not a JSON object\n",
        ),
        (
            'exec:python3 "x',
            "error[protocol]: cannot split scorer command: No closing quotation\n",
        ),
    ],
    ids=["not-utf8-response", "nested-response", "handshake-not-object", "unsplittable-command"],
)
def test_misbehaving_exec_scorer_fails_with_protocol_error(tmp_path, capsys, spec, error):
    paras, index, qa = tiny_corpus(tmp_path, capsys)
    out = tmp_path / "table.json"
    err = run_fail(
        capsys, "eval-ir", "--index", index, "--paragraphs", paras, "--qa", qa,
        "--reranker", spec, "--out", out,
    )
    assert err == error
    assert not out.exists()


def length_scorer_spec():
    return f"exec:{sys.executable} {SCORERS / 'length_scorer.py'}"


def record_started_scorers(monkeypatch):
    """The ``exec:`` scorers started from now on, in a list."""
    import bookqa.reranker

    started = []
    init = bookqa.reranker.ExternalProcessReranker.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        started.append(self)

    monkeypatch.setattr(bookqa.reranker.ExternalProcessReranker, "__init__", recording_init)
    return started


def break_eval_ir_input(broken, paras, index, qa):
    if broken == "coverage":
        write_jsonl(
            qa,
            [{"question_id": "q1", "book_id": "ghost", "question": "what", "answers": ["wall"]}],
        )
    else:
        (index if broken == "index" else paras).write_text('{"book_id": "b"}\n', encoding="utf-8")


@pytest.mark.parametrize("broken", ["index", "paragraphs", "coverage"])
def test_exec_scorer_started_before_a_load_failure_is_killed_and_reaped(
    tmp_path, capsys, monkeypatch, broken
):
    """eval-ir starts an exec: scorer before it loads its inputs.  An input
    that fails to load, or a book the inputs do not cover, is reported as it
    is with a scorer that starts nothing, and the scorer is killed and
    reaped before eval-ir returns."""
    import signal

    paras, index, qa = tiny_corpus(tmp_path, capsys)
    break_eval_ir_input(broken, paras, index, qa)
    argv = ["eval-ir", "--index", index, "--paragraphs", paras, "--qa", qa]
    expected = run_fail(capsys, *argv, "--reranker", "lexical")
    started = record_started_scorers(monkeypatch)
    assert run_fail(capsys, *argv, "--reranker", length_scorer_spec()) == expected
    [scorer] = started
    assert scorer.process.returncode == -signal.SIGKILL
    with pytest.raises(ProcessLookupError):
        os.kill(scorer.process.pid, 0)


@pytest.mark.parametrize(
    "spec, error",
    [
        (
            "bogus",
            "error[config]: unknown reranker 'bogus'; "
            "expected none, lexical, exec:CMD, or file:PATH\n",
        ),
        ('exec:python3 "x', "error[protocol]: cannot split scorer command: No closing quotation\n"),
        ("exec:/nonexistent/scorer", "error[protocol]: cannot start scorer ['/nonexistent/scorer']: "),
        (broken_scorer_spec("handshake_not_object"), "error[protocol]: scorer handshake is not a JSON object\n"),
        ("file:/nonexistent/scores.jsonl", "error[protocol]: /nonexistent/scores.jsonl: "),
    ],
    ids=["unknown-spec", "unsplittable-command", "missing-command", "refused-handshake", "missing-scores"],
)
def test_bad_reranker_with_a_bad_input_reports_the_input(tmp_path, capsys, monkeypatch, spec, error):
    """A reranker fault is reported where the inputs have loaded, so with
    an input at fault too, the input's error is the one reported, and a
    scorer that was started is killed and reaped."""
    paras, index, qa = tiny_corpus(tmp_path, capsys)
    argv = ["eval-ir", "--index", index, "--paragraphs", paras, "--qa", qa]
    assert run_fail(capsys, *argv, "--reranker", spec).startswith(error)
    break_eval_ir_input("index", paras, index, qa)
    expected = run_fail(capsys, *argv, "--reranker", "lexical")
    started = record_started_scorers(monkeypatch)
    assert run_fail(capsys, *argv, "--reranker", spec) == expected
    for scorer in started:
        assert scorer.process.returncode is not None


def test_eval_ir_reads_the_handshake_after_loading_and_reaps_after_writing(
    tmp_path, capsys, monkeypatch
):
    """The exec: scorer is spawned before the inputs load and its handshake
    read after they have; its stdin is closed after the last response, and
    it is reaped after both outputs are written, having exited by itself."""
    import bookqa.ir_eval
    import bookqa.reranker

    paras, index, qa = tiny_corpus(tmp_path, capsys)
    events = []

    def logged(name, fn):
        def call(*args, **kwargs):
            events.append(name)
            return fn(*args, **kwargs)

        return call

    for name in ("load_indexes", "load_paragraphs", "load_qa", "require_book_coverage",
                 "write_requests_file", "write_lines"):
        monkeypatch.setattr(bookqa.ir_eval, name, logged(name, getattr(bookqa.ir_eval, name)))
    scorer_class = bookqa.reranker.ExternalProcessReranker
    for name in ("__init__", "read_handshake", "send", "receive", "end_requests", "close"):
        monkeypatch.setattr(scorer_class, name, logged(name, getattr(scorer_class, name)))
    started = record_started_scorers(monkeypatch)
    run_ok(
        capsys,
        "eval-ir", "--index", index, "--paragraphs", paras, "--qa", qa,
        "--reranker", length_scorer_spec(),
        "--emit-rerank-requests", tmp_path / "requests.jsonl", "--out", tmp_path / "table.json",
    )
    assert events == [
        "__init__", "load_indexes", "load_paragraphs", "load_qa", "require_book_coverage",
        "read_handshake", "send", "receive", "end_requests", "write_requests_file", "write_lines",
        "close", "end_requests",
    ]
    [scorer] = started
    assert scorer.process.returncode == 0


@pytest.mark.parametrize("stage", ["chunk", "index", "eval-ir"])
def test_lone_surrogate_fails_with_corpus_error(tmp_path, capsys, stage):
    """``\\ud800`` is valid JSON, but no UTF-8 writer can encode the string
    it makes, so the loader refuses it with the input's line."""
    paras, index, qa = tiny_corpus(tmp_path, capsys)
    out = tmp_path / "out.jsonl"
    if stage == "chunk":
        bad = write_jsonl(tmp_path / "bad.jsonl", [{"book_id": "b", "text": "one \ud800 two"}])
        argv, field = ["chunk", "--books", bad], "text"
    elif stage == "index":
        bad = write_jsonl(
            tmp_path / "bad.jsonl", [{"book_id": "b", "para_index": 0, "text": "one \udfff two"}]
        )
        argv, field = ["index", "--paragraphs", bad], "text"
    else:
        bad = write_jsonl(
            tmp_path / "bad.jsonl",
            [{"question_id": "q1", "book_id": "b", "question": "what is \ud800 red",
              "answers": ["door"]}],
        )
        argv = ["eval-ir", "--index", index, "--paragraphs", paras, "--qa", bad,
                "--emit-rerank-requests", tmp_path / "requests.jsonl"]
        field = "question"
    err = run_fail(capsys, *argv, "--out", out)
    assert err == f"error[corpus]: {bad}: line 1: field '{field}' holds a lone surrogate\n"
    assert not out.exists()
    assert not (tmp_path / "requests.jsonl").exists()


def refusal(capsys, *argv):
    """The exit code and stderr of a run that must write nothing to stdout;
    a usage error's code comes from argparse's ``SystemExit``."""
    try:
        code = main([str(a) for a in argv])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


@pytest.mark.parametrize(
    "bad, argv, code, message",
    [
        (
            [{"book_id": "", "title": "", "text": "stone wall"}],
            ["chunk", "--books", "{bad}"],
            1, "error[corpus]: {bad}: line 1: field 'book_id' is empty",
        ),
        (
            [{"book_id": "b", "title": "", "text": " \t "}],
            ["chunk", "--books", "{bad}"],
            1, "error[corpus]: {bad}: line 1: book 'b' has no tokens",
        ),
        (
            {"empty.txt": ""},
            ["chunk", "--books", "{bad}"],
            1, "error[corpus]: {bad}/empty.txt: book has no tokens",
        ),
        (
            [{"question_id": "", "book_id": "b", "question": "what is red", "answers": ["door"]}],
            ["retrieve", "--index", "{index}", "--qa", "{bad}"],
            1, "error[corpus]: {bad}: line 1: field 'question_id' is empty",
        ),
        (
            [{"question_id": "q1", "book_id": "b", "question": "what is red", "answers": []}],
            ["retrieve", "--index", "{index}", "--qa", "{bad}"],
            1, "error[corpus]: {bad}: line 1: field 'answers' must be a list of strings",
        ),
        (
            [{"book_id": "b", "para_index": 0, "text": "  "}],
            ["index", "--paragraphs", "{bad}"],
            1, "error[corpus]: {bad}: line 1: paragraph has no tokens",
        ),
        (None, ["chunk", "--books", "{books}", "--width", 0], 2,
         "bookqa chunk: error: argument --width: must be >= 1"),
        (None, ["retrieve", "--index", "{index}", "--qa", "{qa}", "--k", 0], 2,
         "bookqa retrieve: error: argument --k: must be >= 1"),
        (None, ["supervise", "--index", "{index}", "--paragraphs", "{paras}", "--qa", "{qa}",
                "--k", 0], 2, "bookqa supervise: error: argument --k: must be >= 1"),
        (None, ["eval-ir", "--index", "{index}", "--paragraphs", "{paras}", "--qa", "{qa}",
                "--candidates", 0], 2, "bookqa eval-ir: error: argument --candidates: must be >= 1"),
        (None, ["eval-ir", "--index", "{index}", "--paragraphs", "{paras}", "--qa", "{qa}",
                "--top", 0], 2, "bookqa eval-ir: error: argument --top: must be >= 1"),
        (
            None,
            ["eval-ir", "--index", "{index}", "--paragraphs", "{paras}", "--qa", "{qa}",
             "--reranker", broken_scorer_spec("nan")],
            1, "error[protocol]: reranker failed on question 'q1': "
            "bad rerank response record: non-finite score nan",
        ),
        (
            [{"question_id": "q1", "scores": [float("nan")]}],
            ["eval-ir", "--index", "{index}", "--paragraphs", "{paras}", "--qa", "{qa}",
             "--reranker", "file:{bad}"],
            1, "error[protocol]: {bad}: line 1: bad rerank response record: non-finite score nan",
        ),
        (
            [{"question_id": "q1", "scores": [1.0]}, {"question_id": "q1", "scores": [2.0]}],
            ["eval-ir", "--index", "{index}", "--paragraphs", "{paras}", "--qa", "{qa}",
             "--reranker", "file:{bad}"],
            1, "error[protocol]: {bad}: line 2: duplicate response for 'q1'",
        ),
    ],
    ids=[
        "books-empty-book-id", "books-blank-text", "books-empty-txt", "qa-empty-question-id",
        "qa-no-answers", "paragraphs-blank-text", "chunk-width-0", "retrieve-k-0",
        "supervise-k-0", "eval-ir-candidates-0", "eval-ir-top-0", "exec-scorer-nan",
        "file-scores-nan", "file-scores-duplicate",
    ],
)
def test_each_input_rule_is_refused_where_the_input_enters(
    tmp_path, capsys, bad, argv, code, message
):
    """Records and the helpers on the stage path do not check their data
    again, so the loader or the parser that admits an input is where each
    rule holds: a books, qa or paragraphs record, a count option, a score."""
    paras, index, qa = tiny_corpus(tmp_path, capsys)
    path = tmp_path / "bad"
    if isinstance(bad, dict):  # a books directory
        path.mkdir()
        for name, text in bad.items():
            (path / name).write_text(text, encoding="utf-8")
    elif bad is not None:
        write_jsonl(path, bad)
    names = dict(bad=path, books=tmp_path / "books.jsonl", index=index, paras=paras, qa=qa)
    out = tmp_path / "out"
    got, err = refusal(capsys, *[str(a).format(**names) for a in argv], "--out", out)
    assert (got, err.splitlines()[-1]) == (code, message.format(**names))
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["retrieve", "--index", "{dir}", "--qa", "{qa}"], "error[format]: {dir}: cannot read"),
        (["eval-qa", "--predictions", "{dir}", "--qa", "{qa}"], "error[eval]: {dir}: cannot read"),
        (["span-oracle", "--paragraphs", "{paras}", "--qa", "{dir}", "--selections", "{qa}"],
         "error[corpus]: {dir}: cannot read"),
        (["eval-ir", "--index", "{index}", "--paragraphs", "{paras}", "--qa", "{qa}",
          "--reranker", "file:{dir}"], "error[protocol]: {dir}: cannot read"),
    ],
    ids=["retrieve-index", "eval-qa-predictions", "span-oracle-qa", "eval-ir-scores"],
)
def test_a_directory_given_as_an_input_file_fails_with_its_loaders_error(
    tmp_path, capsys, argv, message
):
    paras, index, qa = tiny_corpus(tmp_path, capsys)
    names = dict(dir=tmp_path / "dir", index=index, paras=paras, qa=qa)
    names["dir"].mkdir()
    out = tmp_path / "out.jsonl"
    err = run_fail(capsys, *[str(a).format(**names) for a in argv], "--out", out)
    assert err == message.format(**names) + " (Is a directory)\n"
    assert not out.exists()


def test_a_directory_named_like_a_txt_book_fails_with_corpus_error(tmp_path, capsys):
    books = tmp_path / "books"
    books.mkdir()
    (books / "a.txt").write_text("stone wall", encoding="utf-8")
    (books / "x.txt").mkdir()
    out = tmp_path / "paras.jsonl"
    err = run_fail(capsys, "chunk", "--books", books, "--out", out)
    assert err == f"error[corpus]: {books / 'x.txt'}: cannot read (Is a directory)\n"
    assert not out.exists()


def listing(directory):
    return sorted(p.name for p in directory.iterdir())


@pytest.mark.parametrize("out, reason", [("dir", "Is a directory"), (".", "Is a directory")])
def test_out_that_is_a_directory_fails_with_config_error(
    tmp_path, capsys, monkeypatch, out, reason
):
    """The directory keeps what it holds, and no sidecar or temporary file is
    left: a directory is refused before anything is written."""
    paras, index, qa = tiny_corpus(tmp_path, capsys)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dir").mkdir()
    (tmp_path / "dir" / "kept.txt").write_text("kept", encoding="utf-8")
    before = listing(tmp_path)
    err = run_fail(capsys, "retrieve", "--index", index, "--qa", qa, "--out", out)
    assert err == f"error[config]: {out}: cannot write ({reason})\n"
    assert listing(tmp_path) == before
    assert (tmp_path / "dir" / "kept.txt").read_text(encoding="utf-8") == "kept"


@pytest.mark.parametrize(
    "under, reason", [("r.jsonl", "File exists"), ("sub/r.jsonl", "Not a directory")]
)
def test_out_under_a_file_fails_with_config_error(tmp_path, capsys, under, reason):
    """The file keeps its bytes, and no temporary file is left."""
    paras, index, qa = tiny_corpus(tmp_path, capsys)
    before, qa_bytes = listing(tmp_path), qa.read_bytes()
    out = qa / under
    err = run_fail(capsys, "retrieve", "--index", index, "--qa", qa, "--out", out)
    assert err == f"error[config]: {out}: cannot write ({reason})\n"
    assert listing(tmp_path) == before
    assert qa.read_bytes() == qa_bytes


def question_stage_outputs(capsys, work, jobs):
    """Run every stage from ``work``'s books and qa files; the question
    stages' outputs, as sorted lines, and the lexical eval-ir table."""
    books, qa = work / "books.jsonl", work / "qa.jsonl"
    paras, index = work / "paras.jsonl", work / "index.jsonl"
    run_ok(capsys, "chunk", "--books", books, "--width", 30, "--out", paras, "--jobs", jobs)
    run_ok(capsys, "index", "--paragraphs", paras, "--out", index, "--jobs", jobs)
    for mode in ("q", "qa"):
        run_ok(capsys, "retrieve", "--index", index, "--qa", qa, "--mode", mode,
               "--out", work / f"retrieved_{mode}.jsonl", "--jobs", jobs)
    for pool in ("union_minus_intersection", "whole_book"):
        run_ok(capsys, "supervise", "--index", index, "--paragraphs", paras, "--qa", qa,
               "--negative-pool", pool, "--out", work / f"pairs_{pool}.jsonl", "--jobs", jobs)
    run_ok(capsys, "span-oracle", "--paragraphs", paras, "--qa", qa,
           "--selections", work / "retrieved_q.jsonl", "--out", work / "spans.jsonl", "--jobs", jobs)
    table = run_ok(capsys, "eval-ir", "--index", index, "--paragraphs", paras, "--qa", qa,
                   "--reranker", "lexical", "--out", work / "ablation.json", "--jobs", jobs).out
    outputs = {
        name: sorted((work / name).read_text(encoding="utf-8").splitlines())
        for name in ("retrieved_q.jsonl", "retrieved_qa.jsonl", "spans.jsonl",
                     "pairs_union_minus_intersection.jsonl", "pairs_whole_book.jsonl")
    }
    return outputs, table, (work / "ablation.json").read_bytes()


@pytest.mark.parametrize("jobs", [1, 2])
def test_books_without_questions_and_input_order_change_no_question_stage_output(
    tmp_path, capsys, monkeypatch, jobs
):
    """Two metamorphic relations, with every map at --jobs 2 forking before
    its first item: a book that no question asks about changes nothing, and
    reversing the books and shuffling the questions changes only line order."""
    import random

    monkeypatch.setattr(bookqa.fileio, "FORK_AFTER_S", 0)
    run_ok(capsys, "synth", "--seed", 11, "--books", 5, "--paras-per-book", 80,
           "--questions-per-book", 6, "--width", 30, "--out-dir", tmp_path / "corpus")
    books = (tmp_path / "corpus" / "books.jsonl").read_text(encoding="utf-8").splitlines()
    qa = (tmp_path / "corpus" / "qa.jsonl").read_text(encoding="utf-8").splitlines()
    # The new book reuses a book's words, so it would change any statistic
    # that leaked across books.
    words = json.loads(books[0])["text"].split()
    extra = json.dumps({"book_id": "zz_unasked", "title": "", "text": " ".join(words[::-1])})
    shuffled = qa[:]
    random.Random(0).shuffle(shuffled)
    runs = {}
    for name, book_lines, qa_lines in [
        ("base", books, qa), ("extra", books + [extra], qa), ("reordered", books[::-1], shuffled)
    ]:
        work = tmp_path / name
        work.mkdir()
        (work / "books.jsonl").write_text("\n".join(book_lines) + "\n", encoding="utf-8")
        (work / "qa.jsonl").write_text("\n".join(qa_lines) + "\n", encoding="utf-8")
        runs[name] = question_stage_outputs(capsys, work, jobs)
    assert shuffled != qa and any(runs["base"][0].values())
    assert runs["extra"] == runs["base"]
    assert runs["reordered"] == runs["base"]


# ---------------------------------------------------------------------------
# stage outputs and their sidecars


def sidecar_of(path):
    meta = json.loads(Path(f"{path}.meta.json").read_text(encoding="utf-8"))
    return meta["subcommand"], meta["config"]


def test_each_sidecar_config_is_the_stages_options_without_jobs(tmp_path, capsys, monkeypatch):
    """Each sidecar's ``config`` is its stage's parsed options but ``--jobs``.
    The exceptions: ``synth`` records ``--out-dir`` as a path, without a
    trailing slash; the ``eval-ir`` table has no ``emit_rerank_requests``; and
    the requests file records only the options that shape the requests."""
    monkeypatch.chdir(tmp_path)
    run_ok(capsys, *synth_args("c/"))
    Path("txt").mkdir()
    Path("txt", "a.txt").write_text("stone wall red door", encoding="utf-8")
    answers = [json.loads(line) for line in Path("c", "qa.jsonl").read_text().splitlines()]
    write_jsonl(Path("preds.jsonl"), [
        {"question_id": r["question_id"], "answer": r["answers"][0]} for r in answers
    ])
    for argv in [
        ["chunk", "--books", "c/books.jsonl", "--width", 30, "--out", "p.jsonl"],
        ["chunk", "--books", "txt", "--width", 2, "--out", "t.jsonl"],
        ["index", "--paragraphs", "p.jsonl", "--k1", 1.5, "--out", "i.jsonl"],
        ["retrieve", "--index", "i.jsonl", "--qa", "c/qa.jsonl", "--k", 5, "--mode", "qa",
         "--out", "r.jsonl"],
        ["supervise", "--index", "i.jsonl", "--paragraphs", "p.jsonl", "--qa", "c/qa.jsonl",
         "--k", 8, "--seed", 3, "--negative-pool", "whole_book", "--out", "s.jsonl"],
        ["span-oracle", "--paragraphs", "p.jsonl", "--qa", "c/qa.jsonl",
         "--selections", "r.jsonl", "--out", "l.jsonl"],
        ["span-oracle", "--paragraphs", "p.jsonl", "--qa", "c/qa.jsonl",
         "--selections", "r.jsonl", "--top", 2, "--out", "l2.jsonl"],
        ["eval-ir", "--index", "i.jsonl", "--paragraphs", "p.jsonl", "--qa", "c/qa.jsonl",
         "--reranker", "lexical", "--emit-rerank-requests", "req.jsonl", "--out", "t.json"],
        ["eval-qa", "--predictions", "preds.jsonl", "--qa", "c/qa.jsonl", "--out", "e.json"],
    ]:
        run_ok(capsys, *argv, *([] if argv[0] == "eval-qa" else ["--jobs", 2]))
    synth = {
        "seed": 7, "books": 2, "paras_per_book": 8, "questions_per_book": 3,
        "paraphrase": False, "width": 30, "out_dir": "c",
    }
    assert {name: sidecar_of(name) for name in (
        "c/books.jsonl", "c/qa.jsonl", "c/truth.jsonl", "p.jsonl", "t.jsonl", "i.jsonl",
        "r.jsonl", "s.jsonl", "l.jsonl", "l2.jsonl", "req.jsonl", "t.json", "e.json",
    )} == {
        "c/books.jsonl": ("synth", synth),
        "c/qa.jsonl": ("synth", synth),
        "c/truth.jsonl": ("synth", synth),
        "p.jsonl": ("chunk", {"books": "c/books.jsonl", "width": 30, "out": "p.jsonl"}),
        "t.jsonl": ("chunk", {"books": "txt", "width": 2, "out": "t.jsonl"}),
        "i.jsonl": ("index", {"paragraphs": "p.jsonl", "k1": 1.5, "b": 0.75, "out": "i.jsonl"}),
        "r.jsonl": ("retrieve", {
            "index": "i.jsonl", "qa": "c/qa.jsonl", "k": 5, "mode": "qa", "out": "r.jsonl",
        }),
        "s.jsonl": ("supervise", {
            "index": "i.jsonl", "paragraphs": "p.jsonl", "qa": "c/qa.jsonl", "out": "s.jsonl",
            "k_retrieve": 8, "pos_threshold": 0.7, "neg_threshold": 0.4,
            "negatives_per_positive": 1, "negative_pool": "whole_book", "rng_seed": 3,
        }),
        "l.jsonl": ("span-oracle", {
            "paragraphs": "p.jsonl", "qa": "c/qa.jsonl", "selections": "r.jsonl",
            "top": None, "out": "l.jsonl",
        }),
        "l2.jsonl": ("span-oracle", {
            "paragraphs": "p.jsonl", "qa": "c/qa.jsonl", "selections": "r.jsonl",
            "top": 2, "out": "l2.jsonl",
        }),
        "req.jsonl": ("eval-ir-requests", {
            "index": "i.jsonl", "paragraphs": "p.jsonl", "qa": "c/qa.jsonl",
            "candidates": 32, "out": "req.jsonl",
        }),
        "t.json": ("eval-ir", {
            "index": "i.jsonl", "paragraphs": "p.jsonl", "qa": "c/qa.jsonl", "candidates": 32,
            "top": 5, "reranker": "lexical", "out": "t.json",
        }),
        "e.json": ("eval-qa", {"predictions": "preds.jsonl", "qa": "c/qa.jsonl", "out": "e.json"}),
    }


@pytest.mark.parametrize("jobs", [1, 2])
def test_sidecar_that_is_a_directory_fails_before_the_artifact_is_replaced(
    tmp_path, capsys, jobs
):
    paras, index, qa = tiny_corpus(tmp_path, capsys)
    out = tmp_path / "r.jsonl"
    run_ok(capsys, "retrieve", "--index", index, "--qa", qa, "--k", 3, "--out", out)
    (tmp_path / "r.jsonl.meta.json").unlink()
    (tmp_path / "r.jsonl.meta.json").mkdir()
    out.write_text("previous\n", encoding="utf-8")
    before = listing(tmp_path)
    err = run_fail(
        capsys, "retrieve", "--index", index, "--qa", qa, "--k", 3, "--out", out, "--jobs", jobs
    )
    assert err == f"error[config]: {out}.meta.json: cannot write (Is a directory)\n"
    assert out.read_text(encoding="utf-8") == "previous\n"
    assert listing(tmp_path) == before
    assert listing(tmp_path / "r.jsonl.meta.json") == []


@pytest.mark.parametrize("stage", ["eval-ir", "eval-qa"])
def test_report_is_not_printed_when_its_out_cannot_be_written(tmp_path, capsys, stage):
    paras, index, qa = tiny_corpus(tmp_path, capsys)
    preds = write_jsonl(tmp_path / "preds.jsonl", [{"question_id": "q1", "answer": "door"}])
    out = tmp_path / "dir"
    out.mkdir()
    if stage == "eval-ir":
        argv = ["eval-ir", "--index", index, "--paragraphs", paras, "--qa", qa, "--top", 2]
    else:
        argv = ["eval-qa", "--predictions", preds, "--qa", qa]
    err = run_fail(capsys, *argv, "--out", out)  # nothing on stdout
    assert err == f"error[config]: {out}: cannot write (Is a directory)\n"
    assert not (tmp_path / "dir.meta.json").exists()


def test_output_that_overwrites_its_input_records_the_inputs_digest_as_read(tmp_path, capsys):
    books = write_jsonl(tmp_path / "b.jsonl", [{"book_id": "b", "title": "", "text": "red door"}])
    digest = bookqa.fileio.sha256_file(books)
    run_ok(capsys, "chunk", "--books", books, "--width", 1, "--out", books)
    assert bookqa.fileio.sha256_file(books) != digest  # now the paragraphs
    meta = json.loads((tmp_path / "b.jsonl.meta.json").read_text(encoding="utf-8"))
    assert meta["inputs"] == {str(books): digest}


def test_input_under_a_file_fails_as_unreadable_not_missing(tmp_path, capsys):
    paras, index, qa = tiny_corpus(tmp_path, capsys)
    out = tmp_path / "r.jsonl"
    err = run_fail(capsys, "retrieve", "--index", index, "--qa", qa / "x", "--out", out)
    assert err == f"error[corpus]: {qa / 'x'}: cannot read (Not a directory)\n"
    err = run_fail(capsys, "retrieve", "--index", index, "--qa", tmp_path / "none", "--out", out)
    assert err == f"error[corpus]: {tmp_path / 'none'}: file not found\n"
    assert not out.exists()


def test_synth_out_dir_that_is_a_file_fails_with_config_error(tmp_path, capsys):
    out_dir = write_jsonl(tmp_path / "f", [])
    err = run_fail(capsys, "synth", "--seed", 1, "--books", 1, "--out-dir", out_dir)
    assert err == f"error[config]: {out_dir / 'books.jsonl'}: cannot write (File exists)\n"
    assert listing(tmp_path) == ["f"]
