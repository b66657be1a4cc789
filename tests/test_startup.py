"""What a stage process loads, and the parser it builds.

Every stage runs as its own ``bookqa`` process, so whatever ``import
bookqa.cli`` loads is paid once per stage.  The guards below run each check
in a fresh interpreter, because this test process has long since imported
every layer.
"""

import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bookqa import bm25, corpus, ir_eval, reranker, supervision
from bookqa.cli import MODES, build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"
HELP_TEXTS = Path(__file__).parent / "data" / "cli_help.json"

# Layers (and the stdlib machinery behind them) that only some subcommands
# use; none may load with the CLI module itself.
NOT_AT_IMPORT = (
    "concurrent.futures",
    "multiprocessing",
    "subprocess",
    "bookqa.ir_eval",
    "bookqa.reranker",
    "bookqa.supervision",
    "bookqa.spans",
    "bookqa.metrics",
    "bookqa.synth",
    "bookqa.oracles",
)

# Imports the CLI in a fresh interpreter, runs ``argv`` through ``main``
# unless it is null, and prints the exit code, the modules loaded since
# start-up, and the number of live threads at each ``os.fork``.
_PROBE = """
import contextlib, io, json, os, sys, threading
fork_threads = []
def counting_fork(fork=os.fork):
    fork_threads.append(threading.active_count())
    return fork()
os.fork = counting_fork
before = set(sys.modules)
from bookqa.cli import main
argv = json.loads(sys.argv[1])
code = None
if argv is not None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
print(json.dumps({
    "code": code, "loaded": sorted(set(sys.modules) - before), "fork_threads": fork_threads,
}))
"""


def fresh_run(argv=None):
    if argv is not None:
        argv = [str(a) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(argv)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def test_import_cli_loads_no_stage_layer():
    loaded = fresh_run()["loaded"]
    assert "bookqa.cli" in loaded
    assert sorted(set(loaded).intersection(NOT_AT_IMPORT)) == []


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A chunked, indexed and retrieved synth corpus, a predictions file, and
    a scores file for ``eval-ir --reranker file:``."""
    work = tmp_path_factory.mktemp("startup")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main([
            "synth", "--seed", "3", "--books", "2", "--paras-per-book", "6",
            "--questions-per-book", "2", "--width", "30", "--out-dir", str(work / "corpus"),
        ]) == 0
        assert main([
            "chunk", "--books", str(work / "corpus" / "books.jsonl"), "--width", "30",
            "--out", str(work / "paras.jsonl"),
        ]) == 0
        assert main([
            "index", "--paragraphs", str(work / "paras.jsonl"),
            "--out", str(work / "index.jsonl"), "--jobs", "1",
        ]) == 0
        assert main([
            "retrieve", "--index", str(work / "index.jsonl"),
            "--qa", str(work / "corpus" / "qa.jsonl"),
            "--out", str(work / "retrieved.jsonl"), "--jobs", "1",
        ]) == 0
        assert main([
            "eval-ir", "--index", str(work / "index.jsonl"),
            "--paragraphs", str(work / "paras.jsonl"),
            "--qa", str(work / "corpus" / "qa.jsonl"),
            "--emit-rerank-requests", str(work / "requests.jsonl"), "--jobs", "1",
        ]) == 0
    with open(work / "scores.jsonl", "w", encoding="utf-8") as out:
        for line in (work / "requests.jsonl").read_text(encoding="utf-8").splitlines():
            req = json.loads(line)
            scores = [float(len(c["text"])) for c in req["candidates"]]
            out.write(json.dumps({"question_id": req["question_id"], "scores": scores}) + "\n")
    with open(work / "predictions.jsonl", "w", encoding="utf-8") as out:
        for line in (work / "corpus" / "qa.jsonl").read_text(encoding="utf-8").splitlines():
            q = json.loads(line)
            out.write(json.dumps({"question_id": q["question_id"], "answer": q["answers"][0]}) + "\n")
    return work


@pytest.mark.parametrize("stage", ["chunk", "eval-qa", "eval-ir-file", "index-jobs-1"])
def test_stages_without_a_pool_never_load_it(small_run, tmp_path, stage):
    work = small_run
    paras, qa, index = work / "paras.jsonl", work / "corpus" / "qa.jsonl", work / "index.jsonl"
    argv = {
        "chunk": [
            "chunk", "--books", work / "corpus" / "books.jsonl", "--width", 30,
            "--out", tmp_path / "paras.jsonl", "--jobs", 2,
        ],
        "eval-qa": [
            "eval-qa", "--predictions", work / "predictions.jsonl", "--qa", qa,
            "--out", tmp_path / "report.json",
        ],
        "eval-ir-file": [
            "eval-ir", "--index", index, "--paragraphs", paras, "--qa", qa,
            "--reranker", f"file:{work / 'scores.jsonl'}", "--jobs", 2,
        ],
        "index-jobs-1": [
            "index", "--paragraphs", paras, "--out", tmp_path / "index.jsonl", "--jobs", 1,
        ],
    }[stage]
    result = fresh_run(argv)
    assert result["code"] == 0
    assert "bookqa.cli" in result["loaded"]
    assert "concurrent.futures" not in result["loaded"]
    assert "multiprocessing" not in result["loaded"]


@pytest.mark.parametrize(
    "stage", ["index", "retrieve", "supervise", "span-oracle", "eval-ir-lexical", "eval-ir-file"]
)
def test_pooled_stages_load_no_pool_machinery(small_run, tmp_path, stage):
    """At --jobs 2 over two books these stages fork two workers with
    ``os.fork``, from a process with no second thread (forking a threaded
    process can deadlock the child), and load no ``concurrent.futures`` or
    ``multiprocessing``, nor ``subprocess``, since they start no scorer.
    ``file:`` scores in the stage process and forks nothing."""
    work = small_run
    paras, qa, index = work / "paras.jsonl", work / "corpus" / "qa.jsonl", work / "index.jsonl"
    eval_ir = ["eval-ir", "--index", index, "--paragraphs", paras, "--qa", qa]
    argv = {
        "index": ["index", "--paragraphs", paras, "--out", tmp_path / "index.jsonl"],
        "retrieve": ["retrieve", "--index", index, "--qa", qa, "--out", tmp_path / "r.jsonl"],
        "supervise": [
            "supervise", "--index", index, "--paragraphs", paras, "--qa", qa,
            "--out", tmp_path / "pairs.jsonl",
        ],
        "span-oracle": [
            "span-oracle", "--paragraphs", paras, "--qa", qa,
            "--selections", work / "retrieved.jsonl", "--out", tmp_path / "spans.jsonl",
        ],
        "eval-ir-lexical": [*eval_ir, "--reranker", "lexical"],
        "eval-ir-file": [*eval_ir, "--reranker", f"file:{work / 'scores.jsonl'}"],
    }[stage]
    result = fresh_run([*argv, "--jobs", 2])
    assert result["code"] == 0
    assert result["fork_threads"] == ([] if stage == "eval-ir-file" else [1, 1])
    loaded = set(result["loaded"])
    assert "bookqa.cli" in loaded
    assert sorted(loaded & {"concurrent.futures", "multiprocessing", "subprocess"}) == []


# ---------------------------------------------------------------------------
# parser defaults and help


def parse(*argv):
    return build_parser().parse_args([str(a) for a in argv])


def default_of(fn, name):
    return inspect.signature(fn).parameters[name].default


def test_parser_defaults_equal_library_constants():
    for sub in (["synth", "--seed", 1, "--out-dir", "o"], ["chunk", "--books", "b", "--out", "o"]):
        args = parse(*sub)
        assert args.width == corpus.DEFAULT_CHUNK_WIDTH == default_of(corpus.chunk_book, "width")

    args = parse("index", "--paragraphs", "p", "--out", "o")
    assert args.k1 == bm25.DEFAULT_K1 == default_of(bm25.build_index, "k1")
    assert args.b == bm25.DEFAULT_B == default_of(bm25.build_index, "b")
    lexical = reranker.LexicalReranker()
    assert (lexical.k1, lexical.b) == (bm25.DEFAULT_K1, bm25.DEFAULT_B)

    args = parse("retrieve", "--index", "i", "--qa", "q", "--out", "o")
    assert MODES[args.mode] == bm25.MODE_QUESTION == default_of(bm25.retrieve, "mode")
    assert MODES == {"q": bm25.MODE_QUESTION, "qa": bm25.MODE_QUESTION_ANSWER}

    required = ("supervise", "--index", "i", "--paragraphs", "p", "--qa", "q", "--out", "o")
    args = parse(*required)
    config = supervision.SupervisionConfig()
    assert args.negative_pool == supervision.POOL_UNION_MINUS_INTERSECTION == config.negative_pool
    assert (args.k, args.pos_threshold, args.neg_threshold) == (
        config.k_retrieve, config.pos_threshold, config.neg_threshold
    )
    assert (args.negatives_per_positive, args.seed) == (
        config.negatives_per_positive, config.rng_seed
    )
    for pool in (supervision.POOL_UNION_MINUS_INTERSECTION, supervision.POOL_WHOLE_BOOK):
        assert parse(*required, "--negative-pool", pool).negative_pool == pool

    args = parse("span-oracle", "--paragraphs", "p", "--qa", "q", "--selections", "s", "--out", "o")
    assert args.top is None

    args = parse("eval-qa", "--predictions", "p", "--qa", "q")
    assert args.out is None

    args = parse("eval-ir", "--index", "i", "--paragraphs", "p", "--qa", "q")
    assert args.top == ir_eval.DEFAULT_K_TOP == default_of(ir_eval.run_ablation, "k_top")
    assert args.candidates == ir_eval.DEFAULT_K_BASE == default_of(ir_eval.run_ablation, "k_base")
    assert args.reranker == "none"


@pytest.mark.skipif(
    sys.version_info >= (3, 13),
    reason="the help texts were captured with the argparse layout of Python 3.10-3.12",
)
@pytest.mark.parametrize(
    "subcommand",
    ["", "synth", "chunk", "index", "retrieve", "supervise", "span-oracle", "eval-qa", "eval-ir"],
)
def test_help_text_unchanged(monkeypatch, capsys, subcommand):
    """``--help`` of each subcommand, byte for byte as captured from the
    parser before its defaults moved out of the stage layers."""
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv("NO_COLOR", "1")
    monkeypatch.setattr(os, "cpu_count", lambda: 4)  # the --jobs default
    with pytest.raises(SystemExit) as exit_info:
        main([subcommand, "--help"] if subcommand else ["--help"])
    assert exit_info.value.code == 0
    expected = json.loads(HELP_TEXTS.read_text(encoding="utf-8"))[subcommand]
    assert capsys.readouterr().out == expected
