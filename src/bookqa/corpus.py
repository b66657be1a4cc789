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
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .errors import CorpusError
from .fileio import iter_jsonl, require_field, write_lines
from .text import LazyTokenSeq, TokenSeq, tokenize

DEFAULT_CHUNK_WIDTH = 200


@dataclass(frozen=True)
class Book:
    book_id: str
    title: str
    tokens: TokenSeq

    def __post_init__(self) -> None:
        if not self.book_id:
            raise ValueError("book_id must be non-empty")
        if len(self.tokens) == 0:
            raise ValueError(f"book {self.book_id!r} has no tokens")


@dataclass(frozen=True)
class Paragraph:
    book_id: str
    para_index: int
    tokens: TokenSeq

    def __post_init__(self) -> None:
        if self.para_index < 0:
            raise ValueError("para_index must be >= 0")
        # Truth, not length: a lazy sequence answers it without tokenizing.
        if not self.tokens:
            raise ValueError("paragraph has no tokens")

    def text(self) -> str:
        return self.tokens.text()


@dataclass(frozen=True)
class QaExample:
    question_id: str
    book_id: str
    question: str
    answers: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.question_id:
            raise ValueError("question_id must be non-empty")
        if not self.answers or not any(a.strip() for a in self.answers):
            raise ValueError(f"question {self.question_id!r} needs a non-empty answer")

    def question_tokens(self) -> TokenSeq:
        return tokenize(self.question)


def group_by_book(examples: Iterable[QaExample]) -> dict[str, list[QaExample]]:
    """Examples grouped by book, books in first-seen order."""
    grouped: dict[str, list[QaExample]] = {}
    for q in examples:
        grouped.setdefault(q.book_id, []).append(q)
    return grouped


def chunk_book(book: Book, width: int = DEFAULT_CHUNK_WIDTH) -> list[Paragraph]:
    """Partition the book token stream into consecutive windows of ``width``.

    Lossless: concatenating the paragraph token lists reproduces the book
    exactly; only the final paragraph may be shorter than ``width``.
    """
    if width < 1:
        raise ValueError("chunk width must be >= 1")
    paragraphs = []
    tokens = book.tokens.tokens
    offsets = book.tokens.offsets
    for start in range(0, len(tokens), width):
        window = TokenSeq(
            tokens[start : start + width],
            offsets[start : start + width] if offsets is not None else None,
        )
        paragraphs.append(Paragraph(book.book_id, start // width, window))
    return paragraphs


def load_books(path: Path | str) -> list[Book]:
    path = Path(path)
    books: list[Book] = []
    seen: set[str] = set()
    if path.is_dir():
        files = sorted(path.glob("*.txt"))
        if not files:
            raise CorpusError(f"{path}: directory contains no .txt files")
        for file in files:
            try:
                text = file.read_text(encoding="utf-8")
            except UnicodeDecodeError as exc:
                raise CorpusError(f"{file}: not valid UTF-8 ({exc.reason})") from exc
            tokens = tokenize(text)
            if len(tokens) == 0:
                raise CorpusError(f"{file}: book has no tokens")
            books.append(Book(file.stem, file.stem, tokens))
        return books
    for lineno, obj in iter_jsonl(path, CorpusError):
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
        books.append(Book(book_id, title, tokens))
    if not books:
        raise CorpusError(f"{path}: no book records")
    return books


def load_qa(path: Path | str, known_books: set[str] | None = None) -> list[QaExample]:
    """Load QA records; when ``known_books`` is given, every record must
    reference one of them (all orphans are reported together)."""
    path = Path(path)
    examples: list[QaExample] = []
    seen: set[str] = set()
    orphans: list[tuple[str, str]] = []
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
        if known_books is not None and book_id not in known_books:
            orphans.append((qid, book_id))
        examples.append(QaExample(qid, book_id, question, tuple(answers)))
    if orphans:
        shown = ", ".join(f"{q}->{b}" for q, b in orphans[:20])
        more = "" if len(orphans) <= 20 else f" (+{len(orphans) - 20} more)"
        raise CorpusError(
            f"{path}: {len(orphans)} records reference unknown books: {shown}{more}"
        )
    if not examples:
        raise CorpusError(f"{path}: no QA records")
    return examples


def load_corpus(books_path: Path | str, qa_path: Path | str) -> tuple[list[Book], list[QaExample]]:
    books = load_books(books_path)
    qa = load_qa(qa_path, known_books={b.book_id for b in books})
    return books, qa


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


def write_paragraphs(path: Path | str, paragraphs: Iterable[Paragraph]) -> None:
    write_lines(
        path,
        (
            json.dumps(
                {"book_id": p.book_id, "para_index": p.para_index, "text": p.text()},
                ensure_ascii=False,
            )
            for p in paragraphs
        ),
    )


def load_paragraphs(path: Path | str) -> dict[str, list[Paragraph]]:
    """Load paragraphs grouped per book; indexes must be dense from zero.

    Each paragraph keeps its text and is tokenized on first use, so a stage
    pays only for the paragraphs it reads, and a paragraph sent to a worker
    carries its text, not its tokens."""
    path = Path(path)
    grouped: dict[str, list[Paragraph]] = {}
    for lineno, obj in iter_jsonl(path, CorpusError):
        book_id = require_field(obj, "book_id", path, lineno, str, CorpusError)
        para_index = require_field(obj, "para_index", path, lineno, int, CorpusError)
        text = require_field(obj, "text", path, lineno, str, CorpusError)
        tokens = LazyTokenSeq(text)
        if not tokens:
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


def flatten_paragraphs(paragraphs: Sequence[Paragraph]) -> tuple[str, ...]:
    out: list[str] = []
    for p in paragraphs:
        out.extend(p.tokens.tokens)
    return tuple(out)
