"""Command-line entry point: one subcommand per pipeline stage.

Stages exchange newline-delimited JSON files; every artifact is written with
a ``.meta.json`` sidecar echoing the run configuration and input digests, so
a rerun with identical config, inputs, and seed is byte-identical (the
``--jobs`` knob only bounds parallelism and never changes output bytes).

Every stage runs as its own process, so this module imports only what every
subcommand needs: argument parsing and the shared data model.  Each
subcommand imports the layers it runs in its own body, and one that starts a
process pool imports its workers' layers before the pool starts, so forked
workers inherit them instead of importing them again.
"""

from __future__ import annotations

import argparse
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
    group_by_book,
    load_books,
    load_paragraphs,
    load_qa,
    write_books,
    write_paragraphs,
    write_qa,
)
from .errors import BookQaError, CorpusError, EvalError
from .fileio import iter_jsonl, parallel_map, require_field, write_lines, write_sidecar
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
    return bm25.index_to_record(bm25.build_index(paragraphs, k1=k1, b=b))


def _cmd_index(args: argparse.Namespace) -> int:
    from . import bm25  # noqa: F401  (loaded before the pool forks its workers)

    grouped = load_paragraphs(args.paragraphs)
    books = sorted(grouped)
    records = parallel_map(
        _index_worker, [(grouped[b], args.k1, args.b) for b in books], args.jobs
    )
    write_lines(args.out, (json.dumps(r, sort_keys=True) for r in records))
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
        index = bm25.index_from_record(obj)
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


def _retrieve_worker(task):
    from . import bm25

    index, examples, k, mode = task
    lines = []
    for q in examples:
        query = bm25.question_query(q) if mode == MODE_QUESTION else bm25.oracle_query(q)
        lines.append(
            (q.question_id, bm25.retrieve(index, query, k, q.question_id, mode).to_json_line())
        )
    return lines


def _cmd_retrieve(args: argparse.Namespace) -> int:
    indexes = _load_indexes(args.index)
    qa = load_qa(args.qa)
    _require_book_coverage(indexes, qa)
    mode = MODES[args.mode]
    grouped = group_by_book(qa)
    tasks = [(indexes[b], grouped[b], args.k, mode) for b in grouped]
    by_question = {
        qid: line
        for result in parallel_map(_retrieve_worker, tasks, args.jobs)
        for qid, line in result
    }
    write_lines(args.out, (by_question[q.question_id] for q in qa))
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


def _supervise_worker(task):
    from . import supervision

    index, paragraphs, examples, cfg = task
    out = []
    for q in examples:
        out.append(
            (q.question_id, supervision.generate_pairs(index, paragraphs, q, cfg))
        )
    return out


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
    grouped_qa = group_by_book(qa)
    tasks = [
        (indexes[b], grouped_paras[b], grouped_qa[b], cfg) for b in grouped_qa
    ]
    by_question = {
        qid: pairs
        for result in parallel_map(_supervise_worker, tasks, args.jobs)
        for qid, pairs in result
    }
    all_pairs = [p for q in qa for p in by_question[q.question_id]]
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


def _span_worker(task):
    from .spans import best_span

    paragraphs, records, top = task
    by_index = {p.para_index: p for p in paragraphs}
    out = []
    for ordinal, q, result in records:
        ranked = result.para_indexes()
        if top is not None:
            ranked = ranked[:top]
        lines = []
        for para_index in ranked:
            paragraph = by_index.get(para_index)
            if paragraph is None:
                raise CorpusError(
                    f"selection references unknown para_index {para_index} "
                    f"in book {q.book_id!r}"
                )
            for answer in q.answers:
                if not normalize_eval(answer).tokens:
                    continue
                lines.append(best_span(paragraph, answer, q.question_id).to_json_line())
        out.append((ordinal, lines))
    return out


def _cmd_span_oracle(args: argparse.Namespace) -> int:
    from . import bm25
    from . import spans  # noqa: F401  (loaded before the pool forks its workers)

    grouped_paras = load_paragraphs(args.paragraphs)
    qa = load_qa(args.qa)
    by_id = {q.question_id: q for q in qa}
    selections = []
    for lineno, obj in iter_jsonl(args.selections):
        result = bm25.retrieval_from_record(obj)
        if result.question_id not in by_id:
            raise EvalError(
                f"{args.selections}: line {lineno}: unknown question "
                f"{result.question_id!r}"
            )
        selections.append((by_id[result.question_id], result))
    grouped: dict[str, list] = {}
    for ordinal, (q, result) in enumerate(selections):
        if q.book_id not in grouped_paras:
            raise CorpusError(f"no paragraphs for book {q.book_id!r}")
        grouped.setdefault(q.book_id, []).append((ordinal, q, result))
    tasks = [(grouped_paras[b], grouped[b], args.top) for b in grouped]
    by_ordinal: dict[int, list[str]] = {}
    for result in parallel_map(_span_worker, tasks, args.jobs):
        for ordinal, lines in result:
            by_ordinal[ordinal] = lines
    ordered = [line for i in range(len(selections)) for line in by_ordinal[i]]
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
    p.add_argument("--k1", type=float, default=DEFAULT_K1, help="BM25 term-frequency saturation")
    p.add_argument("--b", type=float, default=DEFAULT_B, help="BM25 length normalization")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BookQaError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
