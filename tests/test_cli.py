import json
import sys
from pathlib import Path

import pytest

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
    subprocess cannot be pickled."""
    import pickle

    import bookqa.cli
    import bookqa.fileio
    import bookqa.ir_eval

    work = tmp_path / "run"
    pipeline(capsys, work)
    original = bookqa.fileio.parallel_map
    pickled = []

    def pickling_map(fn, items, jobs):
        pickled.extend(len(pickle.dumps(item)) for item in items)
        return original(fn, items, jobs)

    for module in (bookqa.fileio, bookqa.ir_eval, bookqa.cli):
        monkeypatch.setattr(module, "parallel_map", pickling_map)
    for spec in ("lexical", f"exec:{sys.executable} {SCORERS / 'length_scorer.py'}"):
        captured = run_ok(capsys, *eval_ir_args(work, spec, "--jobs", 1))
        assert len(captured.out.splitlines()) == 5
    assert pickled, "the lexical run should have mapped per-book tasks"


@pytest.mark.parametrize("failure", ["raise", "exit"])
def test_worker_failure_exits_with_error_code(tmp_path, capsys, monkeypatch, failure):
    """A worker that raises a non-BookQaError, or dies, ends the stage with
    ``error[worker]`` and no traceback.  Pool workers are forked, so they
    see the patched ``build_index``; the main process never calls it."""
    import os

    import bookqa.bm25

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
