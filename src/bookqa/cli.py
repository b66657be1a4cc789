"""Command-line entry point: one subcommand per pipeline stage.

Stages exchange newline-delimited JSON files; every artifact is written with
a ``.meta.json`` sidecar echoing the run configuration and input digests, so
a rerun with identical config, inputs, and seed is byte-identical (the
``--jobs`` knob only bounds parallelism and never changes output bytes).

Every stage runs as its own process, so this module imports only what every
subcommand needs: argument parsing and the shared data model.  Each
subcommand imports the layers it runs in its own body.  Per-question work
goes through ``fileio.map_grouped``, one task per book, and ``index`` maps
its books through ``fileio.parallel_map``; only ``eval-ir``'s ``exec:`` and
``file:`` scorers stay in the stage process.  At ``--jobs 2`` or more a map
runs its tasks in the stage process until they have taken
``fileio.FORK_AFTER_S``, and forks workers for the rest only then, so a map
too short to pay for a fork forks nothing.  Workers are forked from the
stage process and inherit the mapped function, its items and the loaded
modules, so a subcommand imports its workers' layers before the map starts
and no worker imports them again.  ``index`` drops each book's paragraph
tokens once that book's line is made, wherever the book was indexed.
No layer imports ``dataclasses``: records are made by ``records.record``.

``main`` pauses the cyclic garbage collector for the whole stage, and its
forked workers inherit the pause.  Stage data are acyclic (records of
strings, numbers, tuples and dicts, with no back references), so reference
counting frees them; a collector pass would only traverse the loaded
artifacts.  ``main`` gives the caller back its collector state on every exit.

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
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .corpus import (
    DEFAULT_B,
    DEFAULT_CHUNK_WIDTH,
    DEFAULT_K1,
    DEFAULT_K_BASE,
    DEFAULT_K_TOP,
    MODE_QUESTION,
    MODE_QUESTION_ANSWER,
    POOL_UNION_MINUS_INTERSECTION,
    POOL_WHOLE_BOOK,
    chunk_book,
    load_books,
    load_paragraphs,
    load_qa,
    write_books,
    write_paragraphs,
    write_qa,
)
from .errors import BookQaError, CorpusError, EvalError, FormatError
from .fileio import (
    iter_jsonl, map_grouped, parallel_map, require_field, write_lines, write_sidecar
)
from .text import normalize_eval

if TYPE_CHECKING:
    from .bm25 import Bm25Index

MODES = {"q": MODE_QUESTION, "qa": MODE_QUESTION_ANSWER}


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
# synth


def _cmd_synth(args: argparse.Namespace) -> int:
    from .synth import synth_corpus

    books, qa, truths = synth_corpus(
        seed=args.seed,
        n_books=args.books,
        paras_per_book=args.paras_per_book,
        questions_per_book=args.questions_per_book,
        paraphrase=args.paraphrase,
        width=args.width,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = {
        "seed": args.seed,
        "books": args.books,
        "paras_per_book": args.paras_per_book,
        "questions_per_book": args.questions_per_book,
        "paraphrase": args.paraphrase,
        "width": args.width,
        "out_dir": str(out_dir),
    }
    books_path = out_dir / "books.jsonl"
    qa_path = out_dir / "qa.jsonl"
    truth_path = out_dir / "truth.jsonl"
    write_books(books_path, books)
    write_qa(qa_path, qa)
    write_lines(
        truth_path,
        (
            json.dumps(
                {
                    "question_id": t.question_id,
                    "book_id": t.book_id,
                    "para_index": t.para_index,
                    "topic": t.topic,
                    "hard": t.hard,
                }
            )
            for t in truths
        ),
    )
    for path in (books_path, qa_path, truth_path):
        write_sidecar(path, "synth", config, [], __version__)
    print(
        f"wrote {len(books)} books, {len(qa)} questions to {out_dir}", file=sys.stderr
    )
    return 0


# ---------------------------------------------------------------------------
# chunk


def _cmd_chunk(args: argparse.Namespace) -> int:
    # Chunking only slices token tuples; a pool would add nothing but the
    # pickling of every book and paragraph.
    books = load_books(args.books)
    paragraphs = [p for b in books for p in chunk_book(b, args.width)]
    write_paragraphs(args.out, paragraphs)
    config = {"books": str(args.books), "width": args.width, "out": str(args.out)}
    books_path = Path(args.books)
    inputs = sorted(books_path.glob("*.txt")) if books_path.is_dir() else [books_path]
    write_sidecar(args.out, "chunk", config, inputs, __version__)
    print(f"wrote {len(paragraphs)} paragraphs", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# index


def _index_worker(task):
    from . import bm25

    paragraphs, k1, b = task
    record = bm25.index_to_record(bm25.build_index(paragraphs, k1=k1, b=b))
    # Only this book's index needs its tokens.  A map that runs in the
    # stage process would otherwise hold every book's tokens at its end.
    for para in paragraphs:
        para.tokens.release()
    # The finished line, not the record: a string is far cheaper to send
    # back from a worker than the nested dict it encodes.
    return json.dumps(record, sort_keys=True)


def _cmd_index(args: argparse.Namespace) -> int:
    from . import bm25  # noqa: F401  (forked workers inherit it)

    grouped = load_paragraphs(args.paragraphs)
    books = sorted(grouped)
    lines = parallel_map(
        _index_worker, [(grouped[b], args.k1, args.b) for b in books], args.jobs
    )
    write_lines(args.out, lines)
    config = {
        "paragraphs": str(args.paragraphs),
        "k1": args.k1,
        "b": args.b,
        "out": str(args.out),
    }
    write_sidecar(args.out, "index", config, [args.paragraphs], __version__)
    print(f"indexed {len(books)} books", file=sys.stderr)
    return 0


def _load_indexes(path) -> dict[str, Bm25Index]:
    from . import bm25

    indexes: dict[str, Bm25Index] = {}
    for lineno, obj in iter_jsonl(path):
        try:
            index = bm25.index_from_record(obj)
        except FormatError as exc:
            raise FormatError(f"{path}: line {lineno}: {exc}") from exc
        if index.book_id in indexes:
            raise CorpusError(f"{path}: line {lineno}: duplicate book {index.book_id!r}")
        indexes[index.book_id] = index
    if not indexes:
        raise CorpusError(f"{path}: no index records")
    return indexes


def _require_book_coverage(indexes, qa, grouped_paras=None) -> None:
    books = {q.book_id for q in qa}
    for what, known in (("index", indexes), ("paragraphs", grouped_paras)):
        missing = sorted(books - set(known)) if known is not None else []
        if missing:
            raise CorpusError(f"no {what} for books: {', '.join(missing[:10])}")


# ---------------------------------------------------------------------------
# retrieve


def _cmd_retrieve(args: argparse.Namespace) -> int:
    from . import bm25

    indexes = _load_indexes(args.index)
    qa = load_qa(args.qa)
    _require_book_coverage(indexes, qa)
    mode = MODES[args.mode]
    query = bm25.question_query if mode == MODE_QUESTION else bm25.oracle_query

    def line(q):
        result = bm25.retrieve(indexes[q.book_id], query(q), args.k, q.question_id, mode)
        return result.to_json_line()

    write_lines(args.out, map_grouped(line, qa, [q.book_id for q in qa], args.jobs))
    config = {
        "index": str(args.index),
        "qa": str(args.qa),
        "k": args.k,
        "mode": args.mode,
        "out": str(args.out),
    }
    write_sidecar(args.out, "retrieve", config, [args.index, args.qa], __version__)
    print(f"retrieved for {len(qa)} questions", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# supervise


def _cmd_supervise(args: argparse.Namespace) -> int:
    from . import supervision

    # Config is validated before any file work starts.
    cfg = supervision.SupervisionConfig(
        k_retrieve=args.k,
        pos_threshold=args.pos_threshold,
        neg_threshold=args.neg_threshold,
        negatives_per_positive=args.negatives_per_positive,
        negative_pool=args.negative_pool,
        rng_seed=args.seed,
    )
    indexes = _load_indexes(args.index)
    grouped_paras = load_paragraphs(args.paragraphs)
    qa = load_qa(args.qa)
    _require_book_coverage(indexes, qa, grouped_paras)

    def pairs(q):
        book = q.book_id
        return supervision.generate_pairs(indexes[book], grouped_paras[book], q, cfg)

    per_question = map_grouped(pairs, qa, [q.book_id for q in qa], args.jobs)
    all_pairs = [p for question_pairs in per_question for p in question_pairs]
    write_lines(args.out, (p.to_json_line() for p in all_pairs))
    config = {
        "index": str(args.index),
        "paragraphs": str(args.paragraphs),
        "qa": str(args.qa),
        "out": str(args.out),
        **cfg.to_dict(),
    }
    write_sidecar(
        args.out, "supervise", config, [args.index, args.paragraphs, args.qa], __version__
    )
    stats = supervision.supervision_stats(
        all_pairs, cfg.pos_threshold, cfg.neg_threshold
    )
    print(json.dumps(stats.to_dict(), sort_keys=True), file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# span-oracle


def _cmd_span_oracle(args: argparse.Namespace) -> int:
    from . import bm25, spans

    grouped_paras = load_paragraphs(args.paragraphs)
    qa = load_qa(args.qa)
    by_id = {q.question_id: q for q in qa}
    selections = []
    for lineno, obj in iter_jsonl(args.selections):
        try:
            result = bm25.retrieval_from_record(obj)
        except FormatError as exc:
            raise FormatError(f"{args.selections}: line {lineno}: {exc}") from exc
        if result.question_id not in by_id:
            raise EvalError(
                f"{args.selections}: line {lineno}: unknown question "
                f"{result.question_id!r}"
            )
        selections.append((by_id[result.question_id], result))
    for q, _ in selections:
        if q.book_id not in grouped_paras:
            raise CorpusError(f"no paragraphs for book {q.book_id!r}")

    def labels(selection):
        q, result = selection
        paragraphs = grouped_paras[q.book_id]  # dense from 0, in order
        answers = [a for a in q.answers if normalize_eval(a).tokens]
        lines = []
        for para_index in result.para_indexes()[: args.top]:
            if not 0 <= para_index < len(paragraphs):
                raise CorpusError(
                    f"selection references unknown para_index {para_index} "
                    f"in book {q.book_id!r}"
                )
            for answer in answers:
                span = spans.best_span(paragraphs[para_index], answer, q.question_id)
                lines.append(span.to_json_line())
        return lines

    done = map_grouped(labels, selections, [q.book_id for q, _ in selections], args.jobs)
    ordered = [line for lines in done for line in lines]
    write_lines(args.out, ordered)
    config = {
        "paragraphs": str(args.paragraphs),
        "qa": str(args.qa),
        "selections": str(args.selections),
        "top": args.top,
        "out": str(args.out),
    }
    write_sidecar(
        args.out,
        "span-oracle",
        config,
        [args.paragraphs, args.qa, args.selections],
        __version__,
    )
    print(f"wrote {len(ordered)} weak labels", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# eval-qa


def _load_predictions(path) -> dict[str, str]:
    predictions: dict[str, str] = {}
    for lineno, obj in iter_jsonl(path, EvalError):
        qid = require_field(obj, "question_id", path, lineno, str, EvalError)
        answer = require_field(obj, "answer", path, lineno, str, EvalError)
        if qid in predictions:
            raise EvalError(f"{path}: line {lineno}: duplicate prediction for {qid!r}")
        predictions[qid] = answer
    if not predictions:
        raise EvalError(f"{path}: no prediction records")
    return predictions


def _cmd_eval_qa(args: argparse.Namespace) -> int:
    from .metrics import evaluate_qa

    predictions = _load_predictions(args.predictions)
    qa = load_qa(args.qa)
    report = evaluate_qa(predictions, qa)
    payload = json.dumps(report.to_percent_dict(), sort_keys=True, indent=2)
    print(payload)
    if args.out:
        write_lines(args.out, [payload])
        config = {
            "predictions": str(args.predictions),
            "qa": str(args.qa),
            "out": str(args.out),
        }
        write_sidecar(
            args.out, "eval-qa", config, [args.predictions, args.qa], __version__
        )
    return 0


# ---------------------------------------------------------------------------
# eval-ir


def _cmd_eval_ir(args: argparse.Namespace) -> int:
    from . import ir_eval, reranker

    indexes = _load_indexes(args.index)
    grouped_paras = load_paragraphs(args.paragraphs)
    qa = load_qa(args.qa)
    _require_book_coverage(indexes, qa, grouped_paras)

    inputs = [args.index, args.paragraphs, args.qa]
    with reranker.open_scorer(args.reranker) as scorer:
        result = ir_eval.run_ablation(
            indexes,
            grouped_paras,
            qa,
            scorer,
            args.candidates,
            args.top,
            jobs=args.jobs,
        )
    config = {
        "index": str(args.index),
        "paragraphs": str(args.paragraphs),
        "qa": str(args.qa),
        "candidates": args.candidates,
    }
    if args.emit_rerank_requests:
        out = args.emit_rerank_requests
        reranker.write_requests_file(out, result.requests)
        write_sidecar(
            out, "eval-ir-requests", {**config, "out": str(out)}, inputs, __version__
        )
    if isinstance(scorer, reranker.FileReranker):
        inputs.append(scorer.scores_path)

    print(result.format_table())
    if args.out:
        payload = json.dumps(result.to_dict(), sort_keys=True, indent=2)
        write_lines(args.out, [payload])
        config.update(top=args.top, reranker=args.reranker, out=str(args.out))
        write_sidecar(args.out, "eval-ir", config, inputs, __version__)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bookqa",
        description="Evidence retrieval, weak supervision, and evaluation for "
        "question answering over full-length books.",
    )
    parser.add_argument("--version", action="version", version=f"bookqa {__version__}")
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    def sub(name, **kwargs):
        return subparsers.add_parser(
            name, formatter_class=argparse.ArgumentDefaultsHelpFormatter, **kwargs
        )

    p = sub("synth", help="generate a seeded synthetic corpus")
    p.add_argument("--seed", type=int, required=True, help="generator seed")
    p.add_argument("--books", type=_positive_int, default=3, help="number of books")
    p.add_argument("--paras-per-book", type=_positive_int, default=12, help="paragraphs per book")
    p.add_argument("--questions-per-book", type=_positive_int, default=4, help="planted questions per book")
    p.add_argument("--paraphrase", action="store_true", help="plant answers with one synonym substitution")
    p.add_argument("--width", type=_positive_int, default=DEFAULT_CHUNK_WIDTH, help="paragraph token width")
    p.add_argument("--out-dir", required=True, help="directory for books/qa/truth files")
    p.set_defaults(func=_cmd_synth)

    p = sub("chunk", help="cut books into fixed-width paragraphs")
    p.add_argument("--books", required=True, help="books JSONL file or directory of .txt")
    p.add_argument("--width", type=_positive_int, default=DEFAULT_CHUNK_WIDTH, help="tokens per paragraph")
    p.add_argument("--out", required=True, help="paragraphs JSONL output")
    _add_jobs(p, help="accepted like every stage's, but chunk runs in one process")
    p.set_defaults(func=_cmd_chunk)

    p = sub("index", help="build per-book BM25 indexes")
    p.add_argument("--paragraphs", required=True, help="chunk output file")
    p.add_argument("--k1", type=_nonnegative_float, default=DEFAULT_K1, help="BM25 term-frequency saturation")
    p.add_argument("--b", type=_unit_float, default=DEFAULT_B, help="BM25 length normalization")
    p.add_argument("--out", required=True, help="index JSONL output")
    _add_jobs(p)
    p.set_defaults(func=_cmd_index)

    p = sub("retrieve", help="rank paragraphs for each question")
    p.add_argument("--index", required=True, help="index file from the index stage")
    p.add_argument("--qa", required=True, help="QA JSONL file")
    p.add_argument("--k", type=_positive_int, default=32, help="paragraphs to keep per question")
    p.add_argument("--mode", choices=sorted(MODES), default="q", help="q: question only; qa: question plus reference answers")
    p.add_argument("--out", required=True, help="retrieval JSONL output")
    _add_jobs(p)
    p.set_defaults(func=_cmd_retrieve)

    p = sub("supervise", help="emit distant-supervision ranker pairs")
    p.add_argument("--index", required=True, help="index file from the index stage")
    p.add_argument("--paragraphs", required=True, help="chunk output file")
    p.add_argument("--qa", required=True, help="QA JSONL file")
    p.add_argument("--pos-threshold", type=_unit_float, default=0.7, help="positives need span Rouge-L above this")
    p.add_argument("--neg-threshold", type=_unit_float, default=0.4, help="negatives need span Rouge-L below this")
    p.add_argument("--k", type=_positive_int, default=32, help="retrieval depth for both weak retrievers")
    p.add_argument("--seed", type=int, default=0, help="negative-sampling seed")
    p.add_argument("--negatives-per-positive", type=_nonnegative_int, default=1, help="negative sampling quota")
    p.add_argument(
        "--negative-pool",
        choices=(POOL_UNION_MINUS_INTERSECTION, POOL_WHOLE_BOOK),
        default=POOL_UNION_MINUS_INTERSECTION,
        help="universe negatives are drawn from",
    )
    p.add_argument("--out", required=True, help="supervision pairs JSONL output")
    _add_jobs(p)
    p.set_defaults(func=_cmd_supervise)

    p = sub("span-oracle", help="emit weak span labels for selections")
    p.add_argument("--paragraphs", required=True, help="chunk output file")
    p.add_argument("--qa", required=True, help="QA JSONL file")
    p.add_argument("--selections", required=True, help="a retrieve output file")
    p.add_argument("--top", type=_positive_int, default=None, help="label only the top-N selected paragraphs")
    p.add_argument("--out", required=True, help="weak labels JSONL output")
    _add_jobs(p)
    p.set_defaults(func=_cmd_span_oracle)

    p = sub("eval-qa", help="score a predictions file against gold answers")
    p.add_argument("--predictions", required=True, help="JSONL of {question_id, answer}")
    p.add_argument("--qa", required=True, help="gold QA JSONL file")
    p.add_argument("--out", default=None, help="also write the report JSON here")
    p.set_defaults(func=_cmd_eval_qa)

    p = sub("eval-ir", help="ranker ablation: coverage of top-k selections")
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
    p.set_defaults(func=_cmd_eval_ir)

    return parser


def main(argv: list[str] | None = None) -> int:
    # The collector is paused because stage data are acyclic (see the
    # module docstring).
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
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
