"""Dataset records, ingestion, and fixed-width paragraph chunking.

File formats:
  books: JSONL records ``{"book_id", "title", "text"}``, or a directory of
         ``.txt`` files whose stem is the book id.
  qa:    JSONL records ``{"question_id", "book_id", "question", "answers"}``.
  paragraphs: JSONL records ``{"book_id", "para_index", "text"}``.
All files are UTF-8.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Iterable, Iterator

from .errors import CorpusError
from .fileio import iter_jsonl, require_field, stage_output, write_lines
from .records import record
from .text import LazyTokenSeq, TokenSeq, tokenize

# Pipeline defaults and names the CLI parser shows.  They are defined here,
# in a module every stage loads anyway, so that building the parser imports
# no stage's layer; each layer imports its own from here.
DEFAULT_CHUNK_WIDTH = 200
DEFAULT_K1 = 1.2  # BM25 term-frequency saturation
DEFAULT_B = 0.75  # BM25 length normalization
MODE_QUESTION = "question_only"
MODE_QUESTION_ANSWER = "question_plus_answer"
MODES = {"q": MODE_QUESTION, "qa": MODE_QUESTION_ANSWER}  # retrieve --mode
POOL_UNION_MINUS_INTERSECTION = "union_minus_intersection"
POOL_WHOLE_BOOK = "whole_book"
DEFAULT_K_BASE = 32  # eval-ir baseline candidate pool
DEFAULT_K_TOP = 5  # eval-ir selection size per row
DEFAULT_K_RETRIEVE = 32  # supervise retrieval depth, both weak retrievers
DEFAULT_POS_THRESHOLD = 0.7  # supervise positives: span Rouge-L above this
DEFAULT_NEG_THRESHOLD = 0.4  # supervise negatives: span Rouge-L below this
DEFAULT_NEGATIVES_PER_POSITIVE = 1
DEFAULT_NEGATIVE_SEED = 0
DEFAULT_NEGATIVE_POOL = POOL_UNION_MINUS_INTERSECTION


@record
class Book:
    book_id: str
    title: str
    tokens: TokenSeq


@record
class Paragraph:
    book_id: str
    para_index: int
    tokens: TokenSeq

    def text(self) -> str:
        return self.tokens.text()


@record
class QaExample:
    question_id: str
    book_id: str
    question: str
    answers: tuple[str, ...]


def chunk_book(book: Book, width: int = DEFAULT_CHUNK_WIDTH) -> list[Paragraph]:
    """Partition the book token stream into consecutive windows of ``width``.

    Lossless: concatenating the paragraph token lists reproduces the book
    exactly; only the final paragraph may be shorter than ``width``.
    """
    tokens = book.tokens.tokens
    return [
        Paragraph(book.book_id, start // width, TokenSeq(tokens[start : start + width]))
        for start in range(0, len(tokens), width)
    ]


def iter_books(path: Path | str) -> Iterator[Book]:
    """The books of ``path`` in file order.  Each is read, checked and
    tokenized only when the caller asks for it, so a caller that drops each
    book before asking for the next holds one book's tokens at a time.  The
    errors come in file order, each once its book is reached."""
    path = Path(path)
    if path.is_dir():
        files = sorted(path.glob("*.txt"))
        if not files:
            raise CorpusError(f"{path}: directory contains no .txt files")
        for file in files:
            yield _txt_book(file)
        return
    seen: set[str] = set()
    for lineno, obj in iter_jsonl(path, CorpusError):
        yield _jsonl_book(path, lineno, obj, seen)
    if not seen:
        raise CorpusError(f"{path}: no book records")


def _txt_book(file: Path) -> Book:
    try:
        text = file.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{file}: not valid UTF-8 ({exc.reason})") from exc
    except OSError as exc:  # a directory named like a book, say
        raise CorpusError(f"{file}: cannot read ({exc.strerror})") from exc
    tokens = tokenize(text)
    if len(tokens) == 0:
        raise CorpusError(f"{file}: book has no tokens")
    return Book(file.stem, file.stem, tokens)


def _jsonl_book(path: Path, lineno: int, obj, seen: set[str]) -> Book:
    """The book of one record; ``seen`` holds the ids of the ones before it."""
    book_id = require_field(obj, "book_id", path, lineno, str, CorpusError)
    text = require_field(obj, "text", path, lineno, str, CorpusError)
    title = obj.get("title", "")
    if not isinstance(title, str):
        raise CorpusError(f"{path}: line {lineno}: field 'title' has wrong type")
    if not book_id:
        raise CorpusError(f"{path}: line {lineno}: field 'book_id' is empty")
    if book_id in seen:
        raise CorpusError(f"{path}: line {lineno}: duplicate book_id {book_id!r}")
    seen.add(book_id)
    tokens = tokenize(text)
    if len(tokens) == 0:
        raise CorpusError(f"{path}: line {lineno}: book {book_id!r} has no tokens")
    return Book(book_id, title, tokens)


def load_books(path: Path | str) -> list[Book]:
    return list(iter_books(path))


def load_qa(path: Path | str) -> list[QaExample]:
    path = Path(path)
    examples: list[QaExample] = []
    seen: set[str] = set()
    for lineno, obj in iter_jsonl(path, CorpusError):
        qid = require_field(obj, "question_id", path, lineno, str, CorpusError)
        book_id = require_field(obj, "book_id", path, lineno, str, CorpusError)
        question = require_field(obj, "question", path, lineno, str, CorpusError)
        answers = require_field(obj, "answers", path, lineno, list, CorpusError)
        if not qid:
            raise CorpusError(f"{path}: line {lineno}: field 'question_id' is empty")
        if qid in seen:
            raise CorpusError(f"{path}: line {lineno}: duplicate question_id {qid!r}")
        seen.add(qid)
        if not answers or not all(isinstance(a, str) for a in answers):
            raise CorpusError(
                f"{path}: line {lineno}: field 'answers' must be a list of strings"
            )
        if not any(a.strip() for a in answers):
            raise CorpusError(f"{path}: line {lineno}: all answers are empty")
        examples.append(QaExample(qid, book_id, question, tuple(answers)))
    if not examples:
        raise CorpusError(f"{path}: no QA records")
    return examples


def write_books(path: Path | str, books: Iterable[Book]) -> None:
    write_lines(
        path,
        (
            json.dumps(
                {"book_id": b.book_id, "title": b.title, "text": b.tokens.text()},
                ensure_ascii=False,
            )
            for b in books
        ),
    )


def write_qa(path: Path | str, examples: Iterable[QaExample]) -> None:
    write_lines(
        path,
        (
            json.dumps(
                {
                    "question_id": q.question_id,
                    "book_id": q.book_id,
                    "question": q.question,
                    "answers": list(q.answers),
                },
                ensure_ascii=False,
            )
            for q in examples
        ),
    )


def paragraph_line(p: Paragraph) -> str:
    """``p`` as one line of a paragraphs file."""
    return json.dumps(
        {"book_id": p.book_id, "para_index": p.para_index, "text": p.text()},
        ensure_ascii=False,
    )


def write_paragraphs(path: Path | str, paragraphs: Iterable[Paragraph]) -> None:
    write_lines(path, map(paragraph_line, paragraphs))


def load_paragraphs(path: Path | str) -> dict[str, list[Paragraph]]:
    """Load paragraphs grouped per book; indexes must be dense from zero.

    Each paragraph keeps its text and is tokenized on first use, so a stage
    pays only for the paragraphs it reads.  Forked workers inherit the
    paragraphs as loaded and tokenize only those they read."""
    path = Path(path)
    grouped: dict[str, list[Paragraph]] = {}
    for lineno, obj in iter_jsonl(path, CorpusError):
        book_id = require_field(obj, "book_id", path, lineno, str, CorpusError)
        para_index = require_field(obj, "para_index", path, lineno, int, CorpusError)
        if para_index < 0:
            raise CorpusError(f"{path}: line {lineno}: para_index must be >= 0")
        text = require_field(obj, "text", path, lineno, str, CorpusError)
        tokens = LazyTokenSeq(text)
        if not tokens:  # truth, not length: a lazy sequence answers it untokenized
            raise CorpusError(f"{path}: line {lineno}: paragraph has no tokens")
        grouped.setdefault(book_id, []).append(Paragraph(book_id, para_index, tokens))
    if not grouped:
        raise CorpusError(f"{path}: no paragraph records")
    for book_id, paras in grouped.items():
        paras.sort(key=lambda p: p.para_index)
        indexes = [p.para_index for p in paras]
        if indexes != list(range(len(paras))):
            raise CorpusError(
                f"{path}: book {book_id!r} paragraph indexes are not dense from 0"
            )
    return grouped


def release_tokens(paragraphs: Iterable[Paragraph]) -> None:
    """Drop the tokens that lazily loaded ``paragraphs`` hold (see
    ``load_paragraphs``); each tokenizes its text again if it is read again.
    A stage calls it on a book once that book's work is done.  Eagerly built
    tokens are the paragraph's own and stay."""
    for p in paragraphs:
        if isinstance(p.tokens, LazyTokenSeq):
            p.tokens.release()


# ---------------------------------------------------------------------------
# the chunk subcommand (dispatched by ``cli.main``), and the book check of
# the stages after it


def require_book_coverage(indexes, qa, grouped_paras=None) -> None:
    """The one check that a question stage's inputs agree, made as it loads.
    Every question's book needs an index and paragraphs (unless ``indexes``
    or ``grouped_paras`` is None); given both, its index must cover exactly
    its ``n`` paragraphs ``0..n-1``.  Text is not compared."""
    books = {q.book_id for q in qa}
    for what, known in (("index", indexes), ("paragraphs", grouped_paras)):
        missing = sorted(books - set(known)) if known is not None else []
        if missing:
            raise CorpusError(f"no {what} for books: {', '.join(missing[:10])}")
    if indexes is None or grouped_paras is None:
        return
    for book in sorted(books):
        keys, n = indexes[book].doc_len, len(grouped_paras[book])
        if len(keys) != n or min(keys) != 0 or max(keys) != n - 1:  # distinct ints
            raise CorpusError(
                f"index for book {book!r} covers {len(keys)} paragraphs numbered {min(keys)} "
                f"to {max(keys)}, but the paragraphs file has {n}, numbered 0 to {n - 1}"
            )


def _cmd_chunk(args) -> int:
    # One book at a time: each is read, checked, tokenized, cut and written
    # out as lines before the next is read, so only the lines outlive their
    # book, and every input error is raised before the output is touched.
    # Chunking only slices token tuples; a pool would add nothing but the
    # pickling of every book and paragraph.
    lines: list[str] = []
    for book in iter_books(args.books):
        lines.extend(map(paragraph_line, chunk_book(book, args.width)))
        del book  # not held while the next book is tokenized
    books_path = Path(args.books)
    inputs = sorted(books_path.glob("*.txt")) if books_path.is_dir() else [books_path]
    with stage_output(args, args.out, inputs):
        write_lines(args.out, lines)
    print(f"wrote {len(lines)} paragraphs", file=sys.stderr)
    return 0
