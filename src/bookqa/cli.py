"""Command-line entry point: one subcommand per pipeline stage.

Stages exchange newline-delimited JSON files; every artifact is written with
a ``.meta.json`` sidecar echoing the run configuration and input digests, so
a rerun with identical config, inputs, and seed is byte-identical (the
``--jobs`` knob only bounds parallelism and never changes output bytes).
Each handler writes every output through ``fileio.stage_output``, whose
sidecar ``config`` is the parsed options but ``--jobs``, so an option's
``dest`` is its name in the sidecar.  It digests the inputs and refuses a
destination that is a directory before it replaces the artifact, and then
the sidecar; the handler prints its report only once every output is in
place.

Every stage runs as its own process, and without a bytecode cache that
process compiles each module it imports from source, so a stage loads only
the code of the subcommand it runs.  This module holds the argument specs,
the dispatch table and the process entry; each subcommand's handler
(``_cmd_<name>``) lives in the layer it drives, and ``main`` imports that
one module after parsing.  ``build_parser`` registers every subcommand with
its help, but given an argv that names a subcommand it adds arguments to
that subcommand only.  Importing this module loads argument parsing and the
shared data model (``corpus``, ``text``, ``fileio``, ``records``,
``errors``) and nothing else.  What two layers share sits in a small module
of its own, so that no stage compiles a layer it does not run:
``span-oracle`` reads ``retrieve``'s records through ``selections`` and
loads no ``bm25``, and ``spans`` and ``metrics`` take their LCS primitives
from ``lcs``, so ``eval-qa`` loads no ``spans``.  No module may import
``bookqa.cli``: a stage runs it as ``__main__``, so a second import would
compile it again.

Per-question work goes through ``fileio.map_grouped``, one task per book,
and ``index`` maps its books through ``fileio.parallel_map``; only an
``eval-ir`` scorer that is not ``in_process`` (``exec:``) maps at ``jobs=1``.
At ``--jobs 2`` or more a map runs its tasks in the stage process until
they have taken ``fileio.FORK_AFTER_S``, and forks workers for the rest
only then, so a map too short to pay for a fork forks nothing; the workers'
code (``pool``) and ``pickle`` load at that first fork.  Workers are
forked from the stage process and inherit the mapped function, its items
and the loaded modules, so no worker imports a layer again.  ``index``
drops each paragraph's tokens once it has counted them, so it holds one
paragraph's tokens at a time.  ``supervise``, ``span-oracle`` and
``eval-ir`` drop a book's tokens once the book's last question is done
(``map_grouped``'s ``release``), wherever the book ran, so each holds one
book's tokens at a time.  ``chunk`` tokenizes, cuts and serializes one
book before it reads the next.  No layer imports ``dataclasses``: records
are made by ``records.record``.

``main`` pauses the cyclic garbage collector for the whole stage, and its
forked workers inherit the pause.  Stage data are acyclic (records of
strings, numbers, tuples, arrays and dicts, with no back references), so
reference counting frees them; a collector pass would only traverse the
loaded artifacts.  ``main`` gives the caller back its collector state on every exit.

``run`` is the entry point of a stage process, for ``python -m bookqa.cli``
and the ``bookqa`` script alike.  It calls ``main``, flushes stdout and
stderr, and leaves through ``os._exit``, as the forked workers do, so the
process skips interpreter teardown: clearing every module, the final
collections and the freeing of every object one by one.  That cuts the time
from ``main``'s return to the process being reaped from 8-10 ms to about
1 ms per stage on the benchmark's workloads.  Nothing is lost: every
artifact is written and renamed into place inside ``main``,
an ``exec:`` scorer is closed before ``main`` returns, and bookqa registers
no ``atexit`` handler.  Handlers that others register, such as a ``site``
``.pth`` hook's, do not run.  A usage error, ``--help``, ``--version``, an
unexpected exception and a failed flush (a closed stdout pipe) take the
interpreter's normal exit instead, so their exit status and messages stay
its own.  So does a run under a profiler, tracer or ``sys.monitoring`` tool,
which writes its output at exit (``python -m cProfile -o``, coverage).
``main`` returns, for in-process callers such as the tests.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import Sequence

from . import __version__
from .corpus import (
    DEFAULT_B,
    DEFAULT_CHUNK_WIDTH,
    DEFAULT_K1,
    DEFAULT_K_BASE,
    DEFAULT_K_RETRIEVE,
    DEFAULT_K_TOP,
    DEFAULT_NEG_THRESHOLD,
    DEFAULT_NEGATIVE_POOL,
    DEFAULT_NEGATIVE_SEED,
    DEFAULT_NEGATIVES_PER_POSITIVE,
    DEFAULT_POS_THRESHOLD,
    MODES,
    POOL_UNION_MINUS_INTERSECTION,
    POOL_WHOLE_BOOK,
)
from .errors import BookQaError


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return number


def _nonnegative_int(value: str) -> int:
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return number


def _unit_float(value: str) -> float:
    number = float(value)
    if not 0.0 <= number <= 1.0:
        raise argparse.ArgumentTypeError("must be in [0, 1]")
    return number


def _nonnegative_float(value: str) -> float:
    number = float(value)
    if not 0.0 <= number < float("inf"):
        raise argparse.ArgumentTypeError("must be finite and >= 0")
    return number


def _add_jobs(
    parser: argparse.ArgumentParser,
    help: str = "worker process bound; output bytes do not depend on it",
) -> None:
    parser.add_argument(
        "--jobs", type=_positive_int, default=os.cpu_count() or 1, help=help
    )


# ---------------------------------------------------------------------------
# argument specs, one per subcommand


def _synth_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, required=True, help="generator seed")
    p.add_argument("--books", type=_positive_int, default=3, help="number of books")
    p.add_argument("--paras-per-book", type=_positive_int, default=12, help="paragraphs per book")
    p.add_argument("--questions-per-book", type=_positive_int, default=4, help="planted questions per book")
    p.add_argument("--paraphrase", action="store_true", help="plant answers with one synonym substitution")
    p.add_argument("--width", type=_positive_int, default=DEFAULT_CHUNK_WIDTH, help="paragraph token width")
    p.add_argument("--out-dir", required=True, help="directory for books/qa/truth files")


def _chunk_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--books", required=True, help="books JSONL file or directory of .txt")
    p.add_argument("--width", type=_positive_int, default=DEFAULT_CHUNK_WIDTH, help="tokens per paragraph")
    p.add_argument("--out", required=True, help="paragraphs JSONL output")
    _add_jobs(p, help="accepted like every stage's, but chunk runs in one process")


def _index_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--paragraphs", required=True, help="chunk output file")
    p.add_argument("--k1", type=_nonnegative_float, default=DEFAULT_K1, help="BM25 term-frequency saturation")
    p.add_argument("--b", type=_unit_float, default=DEFAULT_B, help="BM25 length normalization")
    p.add_argument("--out", required=True, help="index JSONL output")
    _add_jobs(p)


def _retrieve_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--index", required=True, help="index file from the index stage")
    p.add_argument("--qa", required=True, help="QA JSONL file")
    p.add_argument("--k", type=_positive_int, default=32, help="paragraphs to keep per question")
    p.add_argument("--mode", choices=sorted(MODES), default="q", help="q: question only; qa: question plus reference answers")
    p.add_argument("--out", required=True, help="retrieval JSONL output")
    _add_jobs(p)


def _supervise_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--index", required=True, help="index file from the index stage")
    p.add_argument("--paragraphs", required=True, help="chunk output file")
    p.add_argument("--qa", required=True, help="QA JSONL file")
    p.add_argument("--pos-threshold", type=_unit_float, default=DEFAULT_POS_THRESHOLD, help="positives need span Rouge-L above this")
    p.add_argument("--neg-threshold", type=_unit_float, default=DEFAULT_NEG_THRESHOLD, help="negatives need span Rouge-L below this")
    # Named as ``SupervisionConfig`` names them, which the sidecar records.
    p.add_argument("--k", dest="k_retrieve", metavar="K", type=_positive_int, default=DEFAULT_K_RETRIEVE, help="retrieval depth for both weak retrievers")
    p.add_argument("--seed", dest="rng_seed", metavar="SEED", type=int, default=DEFAULT_NEGATIVE_SEED, help="negative-sampling seed")
    p.add_argument(
        "--negatives-per-positive",
        type=_nonnegative_int,
        default=DEFAULT_NEGATIVES_PER_POSITIVE,
        help="negative sampling quota",
    )
    p.add_argument(
        "--negative-pool",
        choices=(POOL_UNION_MINUS_INTERSECTION, POOL_WHOLE_BOOK),
        default=DEFAULT_NEGATIVE_POOL,
        help="universe negatives are drawn from",
    )
    p.add_argument("--out", required=True, help="supervision pairs JSONL output")
    _add_jobs(p)


def _span_oracle_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--paragraphs", required=True, help="chunk output file")
    p.add_argument("--qa", required=True, help="QA JSONL file")
    p.add_argument("--selections", required=True, help="a retrieve output file")
    p.add_argument("--top", type=_positive_int, default=None, help="label only the top-N selected paragraphs")
    p.add_argument("--out", required=True, help="weak labels JSONL output")
    _add_jobs(p)


def _eval_qa_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--predictions", required=True, help="JSONL of {question_id, answer}")
    p.add_argument("--qa", required=True, help="gold QA JSONL file")
    p.add_argument("--out", default=None, help="also write the report JSON here")


def _eval_ir_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--index", required=True, help="index file from the index stage")
    p.add_argument("--paragraphs", required=True, help="chunk output file")
    p.add_argument("--qa", required=True, help="QA JSONL file")
    p.add_argument("--top", type=_positive_int, default=DEFAULT_K_TOP, help="selection size per row")
    p.add_argument("--candidates", type=_positive_int, default=DEFAULT_K_BASE, help="baseline candidate pool size")
    p.add_argument(
        "--reranker",
        default="none",
        help="none | lexical | exec:CMD | file:SCORES_PATH",
    )
    p.add_argument(
        "--emit-rerank-requests",
        default=None,
        help="also write the rerank request file for out-of-band scoring",
    )
    p.add_argument("--out", default=None, help="also write the table JSON here")
    _add_jobs(p)


# ---------------------------------------------------------------------------
# dispatch and parser

# Subcommand -> (help, module of its handler, handler, argument spec), in the
# order ``--help`` lists them.
SUBCOMMANDS = {
    "synth": ("generate a seeded synthetic corpus", "synth", "_cmd_synth", _synth_arguments),
    "chunk": ("cut books into fixed-width paragraphs", "corpus", "_cmd_chunk", _chunk_arguments),
    "index": ("build per-book BM25 indexes", "bm25", "_cmd_index", _index_arguments),
    "retrieve": ("rank paragraphs for each question", "bm25", "_cmd_retrieve", _retrieve_arguments),
    "supervise": ("emit distant-supervision ranker pairs", "supervision", "_cmd_supervise", _supervise_arguments),
    "span-oracle": ("emit weak span labels for selections", "spans", "_cmd_span_oracle", _span_oracle_arguments),
    "eval-qa": ("score a predictions file against gold answers", "metrics", "_cmd_eval_qa", _eval_qa_arguments),
    "eval-ir": ("ranker ablation: coverage of top-k selections", "ir_eval", "_cmd_eval_ir", _eval_ir_arguments),
}


def build_parser(argv: Sequence[str] | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand.

    Every subcommand is registered with its help, so the top-level usage,
    help and errors never change.  When ``argv`` names a subcommand (its
    first argument that is not an option), only that subcommand gets its
    arguments: the others could not take part in parsing ``argv``.  With no
    ``argv``, or one that names no known subcommand, every subcommand gets
    them."""
    parser = argparse.ArgumentParser(
        prog="bookqa",
        description="Evidence retrieval, weak supervision, and evaluation for "
        "question answering over full-length books.",
    )
    parser.add_argument("--version", action="version", version=f"bookqa {__version__}")
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    named = next((a for a in argv if not a.startswith("-")), None) if argv else None
    for name, (help, _, _, add_arguments) in SUBCOMMANDS.items():
        p = subparsers.add_parser(
            name, formatter_class=argparse.ArgumentDefaultsHelpFormatter, help=help
        )
        if named not in SUBCOMMANDS or name == named:
            add_arguments(p)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # The collector is paused because stage data are acyclic (see the
    # module docstring).
    collecting = gc.isenabled()
    gc.disable()
    try:
        if argv is None:
            argv = sys.argv[1:]
        args = build_parser(argv).parse_args(argv)
        _, module, handler, _ = SUBCOMMANDS[args.subcommand]
        # ``__import__`` takes the interpreter's own import path, which
        # ``-X importtime`` reports; ``importlib.import_module`` does not.
        layer = __import__(f"{__package__}.{module}", fromlist=[handler])
        return getattr(layer, handler)(args)
    except BookQaError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


def run() -> int:
    """Run ``main`` as the entry point of a stage process.

    It flushes stdout and stderr and leaves through ``os._exit``, skipping
    interpreter teardown (see the module docstring).  A usage error,
    ``--help``, ``--version`` or an unexpected exception propagates, and a
    flush that fails returns the exit code, so that those exits are the
    interpreter's own, with its exit status and messages.  A watched run
    returns too, so that its profiler or tracer can write its output."""
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError:
        # Finalization flushes again and reports the failure itself.
        return code
    if _observed():
        return code
    os._exit(code)


def _observed() -> bool:
    """Whether a profiler, tracer or ``sys.monitoring`` tool (3.12+) watches
    this process.  Such a tool writes its output once the interpreter exits
    (``cProfile -o``, coverage), which ``os._exit`` would skip."""
    if sys.getprofile() is not None or sys.gettrace() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(
        monitoring.get_tool(tool) is not None for tool in range(6)
    )


if __name__ == "__main__":
    sys.exit(run())
