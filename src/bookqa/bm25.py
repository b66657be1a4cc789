"""Per-book inverted index and BM25 retrieval.

Two query modes mirror the two weak retrievers used for distant supervision:
the plain question, and the question concatenated with every reference
answer (the oracle upper-bound diagnostic).

Indexing and query normalization both apply ``normalize_eval`` (lowercase,
punctuation-only tokens dropped); articles are retained since article
stripping belongs only to EM/F1 scoring.  The IDF is the non-negative
``ln(1 + (N - df + 0.5) / (df + 0.5))`` variant, so scores never go negative
on the small per-book collections this operates over.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .corpus import (
    DEFAULT_B,
    DEFAULT_K1,
    MODE_QUESTION,
    MODE_QUESTION_ANSWER,
    Paragraph,
    QaExample,
)
from .errors import CorpusError, FormatError
from .text import TokenSeq, normalize_eval_tokens, tokenize


@dataclass(frozen=True)
class Bm25Index:
    """Immutable inverted index over one book's paragraphs."""

    book_id: str
    postings: dict[str, tuple[tuple[int, int], ...]]  # term -> ((para_index, tf), ...)
    doc_len: dict[int, int]
    avg_doc_len: float
    n_docs: int
    k1: float
    b: float


@dataclass(frozen=True)
class RetrievalResult:
    question_id: str
    ranked: tuple[tuple[int, float], ...]  # (para_index, score), score non-increasing
    mode: str

    def para_indexes(self) -> list[int]:
        return [p for p, _ in self.ranked]

    def to_json_line(self) -> str:
        # Scores fixed at 6 decimal places for a byte-stable wire format.
        entries = ", ".join(
            f'{{"para_index": {p}, "score": {s:.6f}}}' for p, s in self.ranked
        )
        return (
            f'{{"question_id": {json.dumps(self.question_id)}, '
            f'"mode": {json.dumps(self.mode)}, "ranked": [{entries}]}}'
        )


def retrieval_from_record(obj: dict) -> RetrievalResult:
    try:
        ranked = tuple((int(e["para_index"]), float(e["score"])) for e in obj["ranked"])
        return RetrievalResult(str(obj["question_id"]), ranked, str(obj["mode"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad retrieval record: {exc}") from exc


def build_index(
    paragraphs: Sequence[Paragraph], k1: float = DEFAULT_K1, b: float = DEFAULT_B
) -> Bm25Index:
    if not paragraphs:
        raise CorpusError("cannot index an empty paragraph list")
    book_ids = {p.book_id for p in paragraphs}
    if len(book_ids) != 1:
        raise CorpusError(f"index must cover a single book, got {sorted(book_ids)}")
    indexes = [p.para_index for p in paragraphs]
    if len(set(indexes)) != len(indexes):
        raise CorpusError("duplicate para_index in index input")

    ordered = sorted(paragraphs, key=lambda p: p.para_index)
    postings: dict[str, list[tuple[int, int]]] = {}
    doc_len: dict[int, int] = {}
    for para in ordered:
        terms = normalize_eval_tokens(para.tokens.tokens)
        doc_len[para.para_index] = len(terms)
        counts: dict[str, int] = {}
        for term in terms:
            counts[term] = counts.get(term, 0) + 1
        for term, tf in counts.items():
            postings.setdefault(term, []).append((para.para_index, tf))

    n_docs = len(ordered)
    avg = sum(doc_len.values()) / n_docs
    return Bm25Index(
        book_id=ordered[0].book_id,
        postings={t: tuple(v) for t, v in postings.items()},
        doc_len=doc_len,
        avg_doc_len=avg,
        n_docs=n_docs,
        k1=k1,
        b=b,
    )


def _idf(index: Bm25Index, term: str) -> float:
    df = len(index.postings.get(term, ()))
    return math.log(1.0 + (index.n_docs - df + 0.5) / (df + 0.5))


def _tf_part(index: Bm25Index, tf: int, dl: int) -> float:
    avg = index.avg_doc_len if index.avg_doc_len > 0 else 1.0
    return tf * (index.k1 + 1.0) / (tf + index.k1 * (1.0 - index.b + index.b * dl / avg))


def score(index: Bm25Index, query: Iterable[str], para_index: int) -> float:
    """BM25 score of one paragraph; each unique query term contributes once."""
    if para_index not in index.doc_len:
        raise CorpusError(f"unknown para_index {para_index} for book {index.book_id!r}")
    dl = index.doc_len[para_index]
    total = 0.0
    for term in sorted(set(normalize_eval_tokens(query))):
        plist = index.postings.get(term)
        if not plist:
            continue
        tf = 0
        for p, f in plist:
            if p == para_index:
                tf = f
                break
        if tf == 0:
            continue
        total += _idf(index, term) * _tf_part(index, tf, dl)
    return total


def accumulate_scores(index: Bm25Index, query: Iterable[str]) -> dict[int, float]:
    """BM25 score of every paragraph sharing a term with the query, from one
    pass over the query terms' postings.

    Terms are visited in sorted order, as in ``score``, so each paragraph's
    float sum is added up in the same order and equals ``score`` exactly."""
    acc: dict[int, float] = {}
    for term in sorted(set(normalize_eval_tokens(query))):
        plist = index.postings.get(term)
        if not plist:
            continue
        idf = _idf(index, term)
        for para, tf in plist:
            acc[para] = acc.get(para, 0.0) + idf * _tf_part(index, tf, index.doc_len[para])
    return acc


def retrieve(
    index: Bm25Index, query: Iterable[str], k: int, question_id: str = "", mode: str = MODE_QUESTION
) -> RetrievalResult:
    """Top-k paragraphs by descending score; ties break on ascending
    para_index and zero-score paragraphs are excluded."""
    if k < 1:
        raise CorpusError("retrieval k must be >= 1")
    ranked = sorted(
        ((p, s) for p, s in accumulate_scores(index, query).items() if s > 0.0),
        key=lambda e: (-e[1], e[0]),
    )
    return RetrievalResult(question_id, tuple(ranked[:k]), mode)


def question_query(example: QaExample) -> TokenSeq:
    """Question-only query, normalized as for indexing."""
    return TokenSeq(tuple(normalize_eval_tokens(example.question_tokens().tokens)))


def oracle_query(example: QaExample) -> TokenSeq:
    """Question plus every reference answer, normalized as for indexing;
    duplicate terms across answers are preserved."""
    terms = normalize_eval_tokens(example.question_tokens().tokens)
    for answer in example.answers:
        terms.extend(normalize_eval_tokens(tokenize(answer).tokens))
    return TokenSeq(tuple(terms))


def index_to_record(index: Bm25Index) -> dict:
    return {
        "book_id": index.book_id,
        "k1": index.k1,
        "b": index.b,
        "n_docs": index.n_docs,
        "avg_doc_len": index.avg_doc_len,
        "doc_len": {str(p): n for p, n in sorted(index.doc_len.items())},
        "postings": {t: [list(e) for e in v] for t, v in sorted(index.postings.items())},
    }


def _posting_pairs(postings: dict, doc_len: dict) -> dict | None:
    """The postings as tuples of ``(para_index, tf)`` tuples, or None if one
    is not a pair of ints with ``para_index`` in ``doc_len`` and ``tf >= 1``.

    Tuples, not the decoded lists: smaller, and not shared with the record.
    Of the values JSON decodes to, only a list of two ints converts to a pair
    of ints."""
    if not set(map(type, postings.values())) <= {list}:
        return None
    try:
        pairs = {term: tuple(map(tuple, plist)) for term, plist in postings.items()}
        for plist in pairs.values():
            for p, f in plist:
                # ``type``, not ``isinstance``: a bool is an int, but no paragraph or count.
                if type(p) is not int or type(f) is not int or p not in doc_len or f < 1:
                    return None
    except (TypeError, ValueError):  # a posting that does not iterate as a pair
        return None
    return pairs


def _posting_problem(postings: dict, doc_len: dict) -> str | None:
    """What is wrong with the first bad posting in record order, or None."""
    for term, plist in postings.items():
        for entry in plist if type(plist) is list else [plist]:
            if type(entry) is not list or len(entry) != 2 or set(map(type, entry)) != {int}:
                return f"term {term!r} has posting {entry!r}, not a pair of ints"
            p, f = entry
            if p not in doc_len:
                return f"term {term!r} has a posting for unknown paragraph {p}"
            if f < 1:
                return f"term {term!r} has term frequency {f} in paragraph {p}"
    return None


def index_from_record(obj: dict) -> Bm25Index:
    """The index a record of ``index_to_record`` describes.

    The record must be consistent with itself: ``n_docs`` counts the
    ``doc_len`` entries, every posting is a pair of ints naming a paragraph
    of ``doc_len`` with a term frequency of at least 1, ``k1 >= 0`` and
    ``0 <= b <= 1``.  A record that is not fails with ``FormatError``
    instead of scoring wrong."""
    try:
        book_id = str(obj["book_id"])
        doc_len = {int(p): int(n) for p, n in obj["doc_len"].items()}
        n_docs = int(obj["n_docs"])
        k1 = float(obj["k1"])
        b = float(obj["b"])
        postings = dict(obj["postings"].items())
        avg_doc_len = float(obj["avg_doc_len"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad index record: {exc}") from exc
    pairs = _posting_pairs(postings, doc_len)
    if pairs is None:
        problem = _posting_problem(postings, doc_len)
        raise FormatError(f"bad index record for book {book_id!r}: {problem}")
    if n_docs != len(doc_len):
        raise FormatError(
            f"bad index record for book {book_id!r}: n_docs {n_docs} but "
            f"{len(doc_len)} doc_len entries"
        )
    if not k1 >= 0.0 or not 0.0 <= b <= 1.0:
        raise FormatError(
            f"bad index record for book {book_id!r}: k1 {k1} must be >= 0 "
            f"and b {b} in [0, 1]"
        )
    return Bm25Index(
        book_id=book_id,
        postings=pairs,
        doc_len=doc_len,
        avg_doc_len=avg_doc_len,
        n_docs=n_docs,
        k1=k1,
        b=b,
    )
