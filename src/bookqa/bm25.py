"""Per-book inverted index and BM25 retrieval.

Two query modes mirror the two weak retrievers used for distant supervision:
the plain question, and the question concatenated with every reference
answer (the oracle upper-bound diagnostic).  The ranked paragraphs ``retrieve``
writes for a question are ``selections.RetrievalResult`` records.

Indexing and query normalization both apply ``normalize_eval`` (lowercase,
punctuation-only tokens dropped); articles are retained since article
stripping belongs only to EM/F1 scoring.  The IDF is the non-negative
``ln(1 + (N - df + 0.5) / (df + 0.5))`` variant, so scores never go negative
on the small per-book collections this operates over.
"""

from __future__ import annotations

import json
import math
import sys
from array import array
from itertools import chain
from typing import Collection, Iterable, Iterator, Sequence

from .corpus import (
    DEFAULT_B,
    DEFAULT_K1,
    MODE_QUESTION,
    MODE_QUESTION_ANSWER,
    MODES,
    Paragraph,
    QaExample,
    load_paragraphs,
    load_qa,
    release_tokens,
    require_book_coverage,
)
from .errors import CorpusError, FormatError
from .fileio import iter_jsonl, map_grouped, parallel_map, stage_output, write_lines
from .records import record
# ``retrieve``'s output record lives in ``selections``, so that ``span-oracle``
# loads no ``bm25``; ``retrieval_from_record`` is named here as well, as
# ``bm25.retrieval_from_record``, the name the benchmark's tracer wraps.
from .selections import _FLOAT_MAX, RetrievalResult, retrieval_from_record  # noqa: F401
from .text import TokenSeq, normalize_eval, normalize_eval_tokens

# The unsigned C int of the packed postings, and the largest value it holds.
_PACKED = "I"
_PACKED_MAX = (1 << 8 * array(_PACKED).itemsize) - 1


class Postings:
    """One term's postings, packed: the paragraphs that hold the term, in
    ascending order, and its frequency in each, as two parallel arrays of
    unsigned C ints (a few bytes a posting, against about 64 for a tuple of
    two ints in a tuple).  Its length is the term's df, and it iterates
    ``(para_index, tf)`` pairs in paragraph order."""

    __slots__ = ("ids", "tfs")

    def __init__(self, pairs: Sequence[tuple[int, int]]) -> None:
        """The postings of ``pairs``, a sequence of ``(para_index, tf)``
        pairs of ints in the order to keep.  ``OverflowError`` if a value is
        negative or above ``_PACKED_MAX``."""
        ids, tfs = zip(*pairs) if pairs else ((), ())
        self.ids = array(_PACKED, ids)
        self.tfs = array(_PACKED, tfs)

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return zip(self.ids, self.tfs)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Postings:
            return NotImplemented
        return self.ids == other.ids and self.tfs == other.tfs

    def __repr__(self) -> str:
        return f"Postings({list(self)!r})"


@record
class Bm25Index:
    """Immutable inverted index over one book's paragraphs."""

    book_id: str
    postings: dict[str, Postings]  # term -> its (para_index, tf) pairs, packed
    doc_len: dict[int, int]
    avg_doc_len: float
    n_docs: int
    k1: float
    b: float


def build_index(
    paragraphs: Sequence[Paragraph],
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
    terms: Collection[str] | None = None,
) -> Bm25Index:
    """The index of one book's paragraphs, given at least one and each once.

    With ``terms``, only those terms get postings; ``doc_len`` still counts
    every term, so a query of only those terms scores as in the full index.
    A lazily loaded paragraph's tokens are dropped once counted (see
    ``corpus.release_tokens``), so building holds one paragraph's tokens at
    a time."""
    ordered = sorted(paragraphs, key=lambda p: p.para_index)
    postings: dict[str, Postings] = {}
    doc_len: dict[int, int] = {}
    for para in ordered:
        normalized = normalize_eval_tokens(para.tokens.tokens)
        release_tokens((para,))
        p = para.para_index
        doc_len[p] = len(normalized)
        counts: dict[str, int] = {}
        for term in normalized if terms is None else filter(terms.__contains__, normalized):
            counts[term] = counts.get(term, 0) + 1
        for term, tf in counts.items():
            row = postings.get(term)
            if row is None:
                postings[term] = row = Postings(())
            row.ids.append(p)
            row.tfs.append(tf)

    n_docs = len(ordered)
    avg = sum(doc_len.values()) / n_docs
    return Bm25Index(
        book_id=ordered[0].book_id,
        postings=postings,
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
    ranked = sorted(
        ((p, s) for p, s in accumulate_scores(index, query).items() if s > 0.0),
        key=lambda e: (-e[1], e[0]),
    )
    return RetrievalResult(question_id, tuple(ranked[:k]), mode)


def question_query(example: QaExample) -> TokenSeq:
    """Question-only query, normalized as for indexing."""
    return normalize_eval(example.question)


def oracle_query(example: QaExample) -> TokenSeq:
    """Question plus every reference answer, normalized as for indexing;
    duplicate terms across answers are preserved."""
    return with_answers(question_query(example), (normalize_eval(a) for a in example.answers))


def with_answers(question: TokenSeq, answers: Iterable[Iterable[str]]) -> TokenSeq:
    """``oracle_query`` from the question's query and its answers, already
    normalized, for a caller that needs both and tokenizes each string
    once."""
    return TokenSeq(question.tokens + tuple(chain.from_iterable(answers)))


def index_to_record(index: Bm25Index) -> dict:
    return {
        "book_id": index.book_id,
        "k1": index.k1,
        "b": index.b,
        "n_docs": index.n_docs,
        "avg_doc_len": index.avg_doc_len,
        "doc_len": {str(p): n for p, n in sorted(index.doc_len.items())},
        # Each term's (para_index, tf) tuples, which ``json.dumps`` writes as
        # the lists ``index_from_record`` reads.
        "postings": {t: list(p) for t, p in sorted(index.postings.items())},
    }


def _packed_postings(postings: dict, doc_len: dict) -> dict[str, Postings]:
    """The postings packed, each a list (or tuple) of ``(para_index, tf)``
    pairs of ints with ``para_index`` in ``doc_len`` and ``tf >= 1``, and
    each term's ``para_index`` strictly ascending, as ``build_index`` makes
    them: a paragraph named twice would count twice in the term's df.

    Packed, not the decoded lists: a fraction of the memory, and not shared
    with the record.  Of the values JSON decodes to, only a list of two ints
    is a pair of ints; the tuples of ``index_to_record`` are taken as they
    are.  The terms are checked in record order, each posting once, and the
    first list that fails is walked again to raise ``ValueError`` naming its
    first bad posting, the first bad one in the record."""
    packed = {}
    # The keys are distinct ints >= 0, so if the largest is n - 1 they are
    # 0..n-1, as ``index`` writes them, and ascending ids are keys iff the
    # last one is.
    dense = max(doc_len, default=-1) == len(doc_len) - 1
    for term, plist in postings.items():
        try:
            if type(plist) is not list and type(plist) is not tuple:
                raise TypeError
            last = -1
            # TypeError: a posting that is not iterable; ValueError: not a pair.
            for p, f in plist:
                # ``type``, not ``isinstance``: a bool is an int, but no paragraph or count.
                if type(p) is not int or type(f) is not int or f < 1 or p <= last:
                    raise TypeError
                last = p
            packed[term] = row = Postings(plist)  # OverflowError: a value the arrays cannot hold
            if not (last < len(doc_len) if dense else all(map(doc_len.__contains__, row.ids))):
                raise TypeError
        except (TypeError, ValueError, OverflowError):
            last = -1
            for entry in plist if type(plist) in (list, tuple) else [plist]:
                if type(entry) not in (list, tuple) or len(entry) != 2 or set(map(type, entry)) != {int}:
                    raise ValueError(f"term {term!r} has posting {entry!r}, not a pair of ints")
                p, f = entry
                if p not in doc_len:
                    raise ValueError(f"term {term!r} has a posting for unknown paragraph {p}")
                if f < 1:
                    raise ValueError(f"term {term!r} has term frequency {f} in paragraph {p}")
                if p == last:
                    raise ValueError(f"term {term!r} names paragraph {p} twice")
                if p < last:
                    raise ValueError(f"term {term!r} names paragraph {p} after paragraph {last}")
                if p > _PACKED_MAX or f > _PACKED_MAX:
                    raise ValueError(
                        f"term {term!r} has posting {entry!r}, a value above {_PACKED_MAX}, "
                        "the largest the index holds"
                    )
                last = p
    return packed


def index_from_record(obj: dict) -> Bm25Index:
    """The index a record of ``index_to_record`` describes.

    Nothing is converted but the ``doc_len`` keys, which JSON keeps as
    strings and which must be the decimal forms of distinct ints ``>= 0``.
    ``book_id`` must be a string, ``n_docs`` and every ``doc_len`` length
    an int, and ``k1``, ``b`` and ``avg_doc_len`` ints or floats; a bool is
    none of these, and no int may be larger than the largest float.  The
    record must be consistent with itself: ``n_docs`` counts the ``doc_len``
    entries, ``avg_doc_len`` is their mean as ``build_index`` computes it,
    every posting is a pair of ints naming a paragraph of ``doc_len`` with a
    term frequency of at least 1, each term's postings name their paragraphs
    once each in ascending order, ``k1`` is finite and ``>= 0``, and
    ``0 <= b <= 1``.  A record that is not fails with
    ``FormatError`` instead of scoring wrong; so does a posting with a value
    the packed postings cannot hold (above ``_PACKED_MAX``, 2**32 - 1)."""
    try:
        book_id, n_docs, avg_doc_len = obj["book_id"], obj["n_docs"], obj["avg_doc_len"]
        k1, b = obj["k1"], obj["b"]
        doc_len = {int(p): n for p, n in obj["doc_len"].items()}
        keys_canonical = list(map(str, doc_len)) == list(obj["doc_len"])
        postings = dict(obj["postings"].items())
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad index record: {exc}") from exc
    if type(book_id) is not str:
        raise FormatError(f"bad index record: book_id {book_id!r} is not a string")

    def bad(problem: str) -> FormatError:
        return FormatError(f"bad index record for book {book_id!r}: {problem}")

    if type(n_docs) is not int:
        raise bad(f"n_docs {n_docs!r} is not an int")
    for field, value in (("k1", k1), ("b", b), ("avg_doc_len", avg_doc_len)):
        if type(value) is not int and type(value) is not float:
            raise bad(f"{field} {value!r} is not a number")
        if type(value) is int and not -_FLOAT_MAX <= value <= _FLOAT_MAX:
            raise bad(f"{field} is an int too large for a float")
    if not keys_canonical:
        raise bad(f"doc_len keys {list(obj['doc_len'])!r} are not distinct paragraph indexes")
    for p, n in doc_len.items():
        if p < 0:
            raise bad(f"doc_len key {p}: para_index must be >= 0")
        if type(n) is not int or not 0 <= n <= _FLOAT_MAX:
            if type(n) is int and n > 0:
                raise bad(f"paragraph {p} has a doc_len too large for a float")
            raise bad(f"paragraph {p} has doc_len {n!r}, not a length")
    try:
        packed = _packed_postings(postings, doc_len)
    except ValueError as exc:
        raise bad(str(exc)) from None
    if n_docs != len(doc_len):
        raise bad(f"n_docs {n_docs} but {len(doc_len)} doc_len entries")
    if not n_docs or avg_doc_len != sum(doc_len.values()) / n_docs:
        raise bad(f"avg_doc_len {avg_doc_len!r} is not the mean of its {n_docs} doc_len entries")
    if not 0.0 <= k1 < math.inf or not 0.0 <= b <= 1.0:
        raise bad(f"k1 {k1} must be >= 0 and finite and b {b} in [0, 1]")
    return Bm25Index(
        book_id=book_id,
        postings=packed,
        doc_len=doc_len,
        avg_doc_len=avg_doc_len,
        n_docs=n_docs,
        k1=k1,
        b=b,
    )


# ---------------------------------------------------------------------------
# the index and retrieve subcommands (dispatched by ``cli.main``)


def load_indexes(path) -> dict[str, Bm25Index]:
    """Every book's index from an ``index`` output file, by book id."""
    indexes: dict[str, Bm25Index] = {}
    for lineno, obj in iter_jsonl(path):
        try:
            index = index_from_record(obj)
        except FormatError as exc:
            raise FormatError(f"{path}: line {lineno}: {exc}") from exc
        # Packed, the record is garbage: not held while the next is decoded.
        del obj
        if index.book_id in indexes:
            raise CorpusError(f"{path}: line {lineno}: duplicate book {index.book_id!r}")
        indexes[index.book_id] = index
    if not indexes:
        raise CorpusError(f"{path}: no index records")
    return indexes


def _index_worker(task):
    paragraphs, k1, b = task
    # ``build_index`` drops each paragraph's tokens once counted, so a map
    # that runs in the stage process holds one paragraph's at a time.
    record = index_to_record(build_index(paragraphs, k1=k1, b=b))
    # The finished line, not the record: a string is far cheaper to send
    # back from a worker than the nested dict it encodes.
    return json.dumps(record, sort_keys=True)


def _cmd_index(args) -> int:
    grouped = load_paragraphs(args.paragraphs)
    books = sorted(grouped)
    lines = parallel_map(
        _index_worker, [(grouped[b], args.k1, args.b) for b in books], args.jobs
    )
    with stage_output(args, args.out, [args.paragraphs]):
        write_lines(args.out, lines)
    print(f"indexed {len(books)} books", file=sys.stderr)
    return 0


def _cmd_retrieve(args) -> int:
    indexes = load_indexes(args.index)
    qa = load_qa(args.qa)
    require_book_coverage(indexes, qa)
    mode = MODES[args.mode]
    query = question_query if mode == MODE_QUESTION else oracle_query

    def line(q):
        result = retrieve(indexes[q.book_id], query(q), args.k, q.question_id, mode)
        return result.to_json_line()

    lines = map_grouped(line, qa, [q.book_id for q in qa], args.jobs)
    with stage_output(args, args.out, [args.index, args.qa]):
        write_lines(args.out, lines)
    print(f"retrieved for {len(qa)} questions", file=sys.stderr)
    return 0
