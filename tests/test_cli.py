import json
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
    assert err == f"error[protocol]: bad rerank response record: {problem}\n"
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
    score = bookqa.reranker.ExternalProcessReranker.score

    def recording_score(self, request):
        with open(pids, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return score(self, request)

    monkeypatch.setattr(bookqa.reranker.ExternalProcessReranker, "score", recording_score)
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
        "error[protocol]: bad rerank response record: score is an int too large for a float\n"
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
    "stage, answers, error",
    [
        (
            "eval-ir",
            ["lantern ember"],
            "error[eval]: index for book 'b' references paragraphs missing from the "
            "paragraphs file: [1]\n",
        ),
        (
            "supervise",
            ["tower falcon", "lantern ember"],
            "error[corpus]: retrieved para_index 1 missing from paragraphs\n",
        ),
    ],
    ids=["eval-ir", "supervise"],
)
def test_index_naming_missing_paragraphs_fails_alike_at_any_jobs(
    tmp_path, capsys, monkeypatch, stage, answers, error
):
    """Book ``b`` is indexed with two paragraphs, but the paragraphs file
    holds only paragraph 0, which alone matches the question.  In
    ``eval-ir`` only the q+a oracle selection reaches paragraph 1; in
    ``supervise`` paragraph 0 answers the first answer, so it is a positive,
    and the negative sampler then scores paragraph 1.  Book ``c`` is whole,
    so at ``--jobs 2`` both books run in forked workers."""
    monkeypatch.setattr(bookqa.fileio, "FORK_AFTER_S", 0)
    full = write_jsonl(
        tmp_path / "full.jsonl",
        [
            {"book_id": "b", "para_index": 0, "text": "tower falcon"},
            {"book_id": "b", "para_index": 1, "text": "lantern ember"},
            {"book_id": "c", "para_index": 0, "text": "stone wall"},
        ],
    )
    index = tmp_path / "index.jsonl"
    run_ok(capsys, "index", "--paragraphs", full, "--out", index)
    lines = full.read_text(encoding="utf-8").splitlines(keepends=True)
    paras = tmp_path / "paras.jsonl"
    paras.write_text(lines[0] + lines[2], encoding="utf-8")
    qa = write_jsonl(
        tmp_path / "qa.jsonl",
        [
            {"question_id": "q1", "book_id": "b", "question": "where is the tower falcon",
             "answers": answers},
            {"question_id": "q2", "book_id": "c", "question": "what stone", "answers": ["wall"]},
        ],
    )
    out = tmp_path / "out.jsonl"
    errors = [
        run_fail(
            capsys, stage, "--index", index, "--paragraphs", paras, "--qa", qa,
            "--out", out, "--jobs", jobs,
        )
        for jobs in (1, 2)
    ]
    assert errors == [error, error]
    assert not out.exists()


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
