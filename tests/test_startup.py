"""What a stage process loads, the garbage it leaves, how it exits, and the
parser it builds.

Every stage runs as its own ``bookqa`` process, so whatever ``import
bookqa.cli`` loads is paid once per stage.  The import guards below run each
check in a fresh interpreter, because this test process has long since
imported every layer.  ``main`` pauses the cyclic collector for the whole
stage, so no stage may leave cyclic garbage that grows with its input.  A
stage process leaves through ``cli.run``, which skips interpreter teardown,
so its output, exit status and messages are checked against ``main`` run in
this process.
"""

import contextlib
import gc
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bookqa import bm25, corpus, ir_eval, reranker, selections, supervision, synth
from bookqa.cli import MODES, build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"
HELP_TEXTS = Path(__file__).parent / "data" / "cli_help.json"
USAGE_ERRORS = Path(__file__).parent / "data" / "cli_usage_errors.json"
SCORERS = Path(__file__).parent / "scorers"

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
    "bookqa.selections",
    "bookqa.lcs",
    "bookqa.pool",
    "pickle",
)

# Modules no subcommand may load at all: ``dataclasses`` brings ``inspect``
# (and ``ast`` and ``dis``) into every stage that defines a record with it.
NOT_IN_ANY_STAGE = ("dataclasses", "inspect")

# Imports the CLI in a fresh interpreter, runs ``argv`` through ``main``
# unless it is null, and prints the exit code, the modules loaded since
# start-up, the number of live threads at each ``os.fork``, and the number
# of ``atexit`` handlers registered since start-up.  ``parallel_map`` forks
# before its first item, as on a corpus large enough to pay for a fork.
_PROBE = """
import atexit, contextlib, io, json, os, sys, threading
fork_threads = []
def counting_fork(fork=os.fork):
    fork_threads.append(threading.active_count())
    return fork()
os.fork = counting_fork
before = set(sys.modules)
handlers = atexit._ncallbacks()
import bookqa.fileio
bookqa.fileio.FORK_AFTER_S = 0
from bookqa.cli import main
argv = json.loads(sys.argv[1])
code = None
if argv is not None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
print(json.dumps({
    "code": code, "loaded": sorted(set(sys.modules) - before), "fork_threads": fork_threads,
    "atexit": atexit._ncallbacks() - handlers,
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


def synth_argv(books, out_dir):
    return [
        "synth", "--seed", "3", "--books", str(books), "--paras-per-book", "6",
        "--questions-per-book", "2", "--width", "30", "--out-dir", str(out_dir),
    ]


def make_run(work, books):
    """A chunked, indexed and retrieved synth corpus of ``books`` books, a
    predictions file, and a scores file for ``eval-ir --reranker file:``."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(synth_argv(books, work / "corpus")) == 0
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


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    return make_run(tmp_path_factory.mktemp("startup"), books=2)


@pytest.fixture(scope="module")
def large_run(tmp_path_factory):
    """Three times ``small_run``: three times the books, paragraphs and
    questions."""
    return make_run(tmp_path_factory.mktemp("startup-large"), books=6)


STAGES = (
    "synth", "chunk", "index", "retrieve", "supervise", "span-oracle", "eval-qa",
    "eval-ir-lexical", "eval-ir-file", "eval-ir-exec",
)
WITHOUT_JOBS = ("synth", "eval-qa")


def stage_argv(work, out, stage, jobs):
    """``stage`` run end to end on the corpus of ``work``, writing to ``out``."""
    paras, qa, index = work / "paras.jsonl", work / "corpus" / "qa.jsonl", work / "index.jsonl"
    books = work / "corpus" / "books.jsonl"
    eval_ir = ["eval-ir", "--index", index, "--paragraphs", paras, "--qa", qa]
    argv = {
        "synth": synth_argv(len(books.read_text(encoding="utf-8").splitlines()), out / "corpus"),
        "chunk": ["chunk", "--books", books, "--width", 30, "--out", out / "paras.jsonl"],
        "index": ["index", "--paragraphs", paras, "--out", out / "index.jsonl"],
        "retrieve": ["retrieve", "--index", index, "--qa", qa, "--out", out / "r.jsonl"],
        "supervise": [
            "supervise", "--index", index, "--paragraphs", paras, "--qa", qa,
            "--out", out / "pairs.jsonl",
        ],
        "span-oracle": [
            "span-oracle", "--paragraphs", paras, "--qa", qa,
            "--selections", work / "retrieved.jsonl", "--out", out / "spans.jsonl",
        ],
        "eval-qa": [
            "eval-qa", "--predictions", work / "predictions.jsonl", "--qa", qa,
            "--out", out / "report.json",
        ],
        "eval-ir-lexical": [*eval_ir, "--reranker", "lexical"],
        "eval-ir-file": [*eval_ir, "--reranker", f"file:{work / 'scores.jsonl'}"],
        "eval-ir-exec": [
            *eval_ir, "--reranker", f"exec:{sys.executable} {SCORERS / 'length_scorer.py'}",
        ],
    }[stage]
    if stage not in WITHOUT_JOBS:
        argv += ["--jobs", jobs]
    return [str(a) for a in argv]


@pytest.mark.parametrize("stage", ["chunk", "eval-qa", "eval-ir-exec", "index-jobs-1"])
def test_stages_without_a_pool_never_load_it(small_run, tmp_path, stage):
    stage, jobs = ("index", 1) if stage == "index-jobs-1" else (stage, 2)
    result = fresh_run(stage_argv(small_run, tmp_path, stage, jobs))
    assert result["code"] == 0
    assert "bookqa.cli" in result["loaded"]
    assert "concurrent.futures" not in result["loaded"]
    assert "multiprocessing" not in result["loaded"]
    assert "bookqa.pool" not in result["loaded"]
    assert "pickle" not in result["loaded"]


@pytest.mark.parametrize(
    "stage", ["index", "retrieve", "supervise", "span-oracle", "eval-ir-lexical", "eval-ir-file"]
)
def test_pooled_stages_load_no_pool_machinery(small_run, tmp_path, stage):
    """At --jobs 2 over two books these stages fork two workers with
    ``os.fork``, from a process with no second thread (forking a threaded
    process can deadlock the child), and load no ``concurrent.futures`` or
    ``multiprocessing``, nor ``subprocess``, since they start no scorer."""
    result = fresh_run(stage_argv(small_run, tmp_path, stage, 2))
    assert result["code"] == 0
    assert result["fork_threads"] == [1, 1]
    loaded = set(result["loaded"])
    assert "bookqa.cli" in loaded
    assert sorted(loaded & {"concurrent.futures", "multiprocessing", "subprocess"}) == []


@pytest.mark.parametrize(
    "stage, jobs", [(s, j) for s in STAGES for j in (1, 2) if j == 1 or s not in WITHOUT_JOBS]
)
def test_no_stage_loads_dataclasses_or_inspect(small_run, tmp_path, stage, jobs):
    result = fresh_run(stage_argv(small_run, tmp_path, stage, jobs))
    assert result["code"] == 0
    assert sorted(set(result["loaded"]).intersection(NOT_IN_ANY_STAGE)) == []


# What every stage loads of bookqa: the CLI module and the shared data model.
SHARED = {
    "bookqa", "bookqa.cli", "bookqa.corpus", "bookqa.errors", "bookqa.fileio",
    "bookqa.records", "bookqa.text",
}
BM25 = {"bookqa.bm25", "bookqa.selections"}
SPANS = {"bookqa.spans", "bookqa.lcs", "bookqa.selections"}
EVAL_IR = BM25 | SPANS | {"bookqa.ir_eval", "bookqa.reranker"}
# The fork pool, which loads only in a stage whose map forks: at --jobs 2
# over two books, with the probe's ``FORK_AFTER_S = 0``, every stage that
# maps at --jobs 2.
POOL = {"bookqa.pool"}
STAGE_LAYERS = {
    "synth": {"bookqa.synth"},
    "chunk": set(),
    "index": BM25 | POOL,
    "retrieve": BM25 | POOL,
    "supervise": BM25 | SPANS | {"bookqa.supervision"} | POOL,
    "span-oracle": SPANS | POOL,
    "eval-qa": {"bookqa.metrics", "bookqa.lcs"},
    "eval-ir-lexical": EVAL_IR | POOL,
    "eval-ir-file": EVAL_IR | POOL,
    "eval-ir-exec": EVAL_IR,
}


@pytest.mark.parametrize("stage", STAGES)
def test_each_stage_loads_only_its_own_layers(small_run, tmp_path, stage):
    """A stage process compiles every bookqa module it loads, so each loads
    the shared modules and the layers its subcommand runs, and no other:
    only ``eval-qa`` loads ``metrics``, and it loads no ``spans`` (both
    take their LCS primitives from ``lcs``), ``span-oracle`` reads its
    selections without ``bm25``, only ``synth`` loads ``synth``, only a
    stage that forks loads ``pool``, and no stage loads ``oracles``."""
    result = fresh_run(stage_argv(small_run, tmp_path, stage, 2))
    assert result["code"] == 0
    loaded = {name for name in result["loaded"] if name.split(".")[0] == "bookqa"}
    assert loaded == SHARED | STAGE_LAYERS[stage]
    assert ("bookqa.pool" in loaded) == bool(result["fork_threads"])


def test_bm25_and_selections_share_one_retrieval_record():
    """``span-oracle`` reads selections through ``selections``, and every
    other caller through ``bm25``: one class and one reader either way."""
    assert bm25.RetrievalResult is selections.RetrievalResult
    assert bm25.retrieval_from_record is selections.retrieval_from_record


@pytest.mark.parametrize("stage", ["synth", "eval-qa", "retrieve"])
def test_only_stages_that_digest_inputs_load_hashlib(small_run, tmp_path, stage):
    """``hashlib`` (and OpenSSL with it) loads on the first digest:
    ``synth`` reads no input, so it has none to digest, while ``eval-qa``
    and ``retrieve`` digest theirs into their sidecars."""
    result = fresh_run(stage_argv(small_run, tmp_path, stage, 1))
    assert result["code"] == 0
    assert ("hashlib" in result["loaded"]) == (stage != "synth")


@pytest.mark.parametrize("stage", STAGES)
def test_no_stage_imports_the_cli_module_again(small_run, tmp_path, stage):
    """A stage process runs ``bookqa.cli`` as ``__main__``, so a layer that
    imported ``bookqa.cli`` would make it compile the file a second time."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "bookqa.cli", *stage_argv(small_run, tmp_path, stage, 1)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "bookqa.corpus" in imported
    assert "bookqa.cli" not in imported


# ---------------------------------------------------------------------------
# the paused cyclic collector


@pytest.mark.parametrize("stage", STAGES)
def test_cyclic_garbage_does_not_grow_with_the_input(small_run, large_run, tmp_path, stage):
    """Stage processes never collect cycles, so what one stage leaves for
    the collector must be the same on a corpus three times the size.  The
    first run fills the caches that first use builds."""

    def garbage_after(work):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(stage_argv(work, tmp_path, stage, jobs=1)) == 0
        return gc.collect()

    gc.collect()
    gc.disable()
    try:
        garbage_after(small_run)
        small = garbage_after(small_run)
        assert garbage_after(large_run) == small
    finally:
        gc.enable()


@pytest.mark.parametrize("collecting", [True, False])
def test_main_gives_back_the_callers_collector_state(small_run, tmp_path, monkeypatch, collecting):
    during = []

    def failing_chunk_book(*args, **kwargs):
        during.append(gc.isenabled())
        raise RuntimeError("not a BookQaError")

    chunk = stage_argv(small_run, tmp_path, "chunk", jobs=1)
    missing = ["chunk", "--books", str(tmp_path / "missing.jsonl"), "--out", str(tmp_path / "p")]
    try:
        if not collecting:
            gc.disable()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            assert main(chunk) == 0
            assert gc.isenabled() is collecting
            assert main(missing) == 1
            assert "error[corpus]: " in err.getvalue()
            assert gc.isenabled() is collecting
            with pytest.raises(SystemExit):
                main(["chunk"])
            assert gc.isenabled() is collecting
            monkeypatch.setattr(corpus, "chunk_book", failing_chunk_book)
            with pytest.raises(RuntimeError, match="not a BookQaError"):
                main(chunk)
            assert gc.isenabled() is collecting
    finally:
        gc.enable()
    assert during == [False]


# ---------------------------------------------------------------------------
# the process entry and exit

# ``python -m bookqa.cli``, and what the ``bookqa`` script's wrapper runs.
ENTRIES = {
    "module": ["-m", "bookqa.cli"],
    "script": ["-c", "import sys; from bookqa.cli import run; sys.exit(run())"],
}


def entry_run(argv, entry="module", **kwargs):
    """``argv`` run by a stage process.  ``PYTHONUNBUFFERED`` is removed, so
    stdout is block-buffered, as in a pipeline, and a missing flush would
    lose its output."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=str(SRC), COLUMNS="80")
    kwargs.setdefault("stdout", subprocess.PIPE)
    proc = subprocess.run(
        [sys.executable, *ENTRIES[entry], *map(str, argv)],
        env=env, stderr=subprocess.PIPE, timeout=120, **kwargs,
    )
    return proc.returncode, proc.stdout, proc.stderr


def in_process_run(argv, monkeypatch):
    """``argv`` run through ``main`` here, as ``entry_run`` reports it."""
    monkeypatch.setenv("COLUMNS", "80")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")


def artifacts(directory):
    """Every file under ``directory`` but the sidecars, which name their
    output paths."""
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file() and not p.name.endswith(".meta.json")
    }


def test_console_script_runs_the_entry():
    scripts = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8").split("[project.scripts]")[1]
    assert scripts.split("[", 1)[0].strip() == 'bookqa = "bookqa.cli:run"'


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@pytest.mark.parametrize("stage", ["eval-qa", "eval-ir-lexical", "supervise"])
def test_entry_output_matches_main(small_run, tmp_path, monkeypatch, stage, entry):
    """Every byte a stage writes to stdout and stderr, and every artifact,
    is the same from a stage process as from ``main`` in this process; the
    pooled stages run at --jobs 2."""
    (tmp_path / "process").mkdir()
    (tmp_path / "main").mkdir()
    code, out, err = entry_run(stage_argv(small_run, tmp_path / "process", stage, 2), entry)
    assert code == 0, err
    assert out or err
    assert (code, out, err) == in_process_run(
        stage_argv(small_run, tmp_path / "main", stage, 2), monkeypatch
    )
    assert artifacts(tmp_path / "process") == artifacts(tmp_path / "main")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--version"], 0),
        (["--help"], 0),
        (["eval-qa", "--help"], 0),
        (["chunk"], 2),  # a required argument missing
        (["index", "--paragraphs", "p", "--out", "o", "--jobs", "0"], 2),
        (["chunk", "--books", "missing.jsonl", "--out", "paras.jsonl"], 1),
    ],
)
def test_entry_exit_status_and_messages(tmp_path, monkeypatch, argv, code):
    """The exit status is 0 on success, 1 after an ``error[...]`` line and 2
    on a usage error, with the same bytes on stdout and stderr as ``main``
    run in this process."""
    monkeypatch.chdir(tmp_path)
    result = entry_run(argv, cwd=tmp_path)
    assert result[0] == code
    assert result == in_process_run(argv, monkeypatch)
    if code == 1:
        assert result[2].startswith(b"error[corpus]: ")


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_entry_on_a_closed_stdout_pipe(small_run, tmp_path, entry):
    """When stdout's reader has gone, the flush fails and the interpreter
    exits as it always has: status 120 and one "Exception ignored" message,
    with no traceback."""
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    try:
        code, _, err = entry_run(
            stage_argv(small_run, tmp_path, "eval-qa", 1), entry, stdout=write_fd
        )
    finally:
        os.close(write_fd)
    assert code == 120
    # The first line names stdout in words that vary with the interpreter.
    first, second = err.decode("utf-8").splitlines()
    assert first.startswith("Exception ignored ") and "stdout" in first
    assert second == "BrokenPipeError: [Errno 32] Broken pipe"
    assert (tmp_path / "report.json").exists()


def test_profiled_stage_writes_its_profile(small_run, tmp_path):
    """Under ``python -m cProfile -o`` (a ``sys.monitoring`` tool from 3.12
    on), ``run`` returns instead of leaving through ``os._exit``, so the
    profiler writes its file when the interpreter exits."""
    import pstats

    profile = tmp_path / "stage.prof"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    argv = stage_argv(small_run, tmp_path, "span-oracle", 1)
    proc = subprocess.run(
        [sys.executable, "-m", "cProfile", "-o", str(profile), "-m", "bookqa.cli", *argv],
        env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "spans.jsonl").exists()
    functions = {name for _, _, name in pstats.Stats(str(profile)).stats}
    assert "_cmd_span_oracle" in functions


@pytest.mark.parametrize("stage", STAGES)
def test_no_stage_registers_an_atexit_handler(small_run, tmp_path, stage):
    """``run`` leaves through ``os._exit``, which runs no ``atexit``
    handler, so no stage may rely on one."""
    result = fresh_run(stage_argv(small_run, tmp_path, stage, 2))
    assert result["code"] == 0
    assert result["atexit"] == 0


# ---------------------------------------------------------------------------
# parser defaults and help


def parse(*argv):
    return build_parser().parse_args([str(a) for a in argv])


def default_of(fn, name):
    return inspect.signature(fn).parameters[name].default


def test_supervise_parser_defaults_equal_supervision_config():
    """``supervise``'s defaults are defined once, in ``corpus``: the parser,
    ``SupervisionConfig()`` and ``supervision_stats`` all take them."""
    required = ("supervise", "--index", "i", "--paragraphs", "p", "--qa", "q", "--out", "o")
    args = parse(*required)
    config = supervision.SupervisionConfig()
    assert (
        args.k_retrieve, args.pos_threshold, args.neg_threshold,
        args.negatives_per_positive, args.negative_pool, args.rng_seed,
    ) == (
        config.k_retrieve, config.pos_threshold, config.neg_threshold,
        config.negatives_per_positive, config.negative_pool, config.rng_seed,
    ) == (
        corpus.DEFAULT_K_RETRIEVE, corpus.DEFAULT_POS_THRESHOLD, corpus.DEFAULT_NEG_THRESHOLD,
        corpus.DEFAULT_NEGATIVES_PER_POSITIVE, corpus.DEFAULT_NEGATIVE_POOL,
        corpus.DEFAULT_NEGATIVE_SEED,
    )
    assert (
        default_of(supervision.supervision_stats, "pos_threshold"),
        default_of(supervision.supervision_stats, "neg_threshold"),
    ) == (config.pos_threshold, config.neg_threshold)
    for pool in (supervision.POOL_UNION_MINUS_INTERSECTION, supervision.POOL_WHOLE_BOOK):
        assert parse(*required, "--negative-pool", pool).negative_pool == pool


def test_parser_defaults_equal_library_constants():
    for sub in (["synth", "--seed", 1, "--out-dir", "o"], ["chunk", "--books", "b", "--out", "o"]):
        args = parse(*sub)
        assert args.width == corpus.DEFAULT_CHUNK_WIDTH == default_of(corpus.chunk_book, "width")
    assert default_of(synth.synth_corpus, "width") == corpus.DEFAULT_CHUNK_WIDTH

    args = parse("index", "--paragraphs", "p", "--out", "o")
    assert args.k1 == bm25.DEFAULT_K1 == default_of(bm25.build_index, "k1")
    assert args.b == bm25.DEFAULT_B == default_of(bm25.build_index, "b")
    lexical = reranker.LexicalReranker()
    assert (lexical.k1, lexical.b) == (bm25.DEFAULT_K1, bm25.DEFAULT_B)

    args = parse("retrieve", "--index", "i", "--qa", "q", "--out", "o")
    assert MODES[args.mode] == bm25.MODE_QUESTION == default_of(bm25.retrieve, "mode")
    assert MODES == {"q": bm25.MODE_QUESTION, "qa": bm25.MODE_QUESTION_ANSWER}

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


@pytest.mark.skipif(
    sys.version_info >= (3, 13),
    reason="the error texts were captured with the argparse layout of Python 3.10-3.12",
)
@pytest.mark.parametrize(
    "case",
    [
        "no subcommand",
        "unknown subcommand",
        "retrieve without --index",
        "retrieve --mode x",
        "unknown option on eval-ir",
    ],
)
def test_usage_error_text_unchanged(monkeypatch, capsys, case):
    """A usage error exits with status 2 and prints, byte for byte, the
    stderr of a parser that gives every subcommand its arguments:
    ``build_parser`` gives them only to the subcommand argv names, which
    must not change what any error prints."""
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv("NO_COLOR", "1")
    monkeypatch.setattr(os, "cpu_count", lambda: 4)  # the --jobs default
    expected = json.loads(USAGE_ERRORS.read_text(encoding="utf-8"))[case]
    with pytest.raises(SystemExit) as exit_info:
        main(expected["argv"])
    assert exit_info.value.code == 2
    assert capsys.readouterr() == ("", expected["stderr"])
