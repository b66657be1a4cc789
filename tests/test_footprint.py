"""What the index path holds, measured as Python allocations (``tracemalloc``)
rather than RSS, so the figures do not move with the interpreter's own size
or the allocator's arenas."""

import gc
import tracemalloc

import pytest

import bookqa.bm25
from bookqa.bm25 import load_indexes
from bookqa.cli import main
from bookqa.text import LazyTokenSeq


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A corpus of the benchmark's synth-pipeline size: 2 books of 200
    paragraphs, chunked and indexed."""
    work = tmp_path_factory.mktemp("footprint")
    argv = [
        ["synth", "--seed", "0", "--books", "2", "--paras-per-book", "200",
         "--questions-per-book", "6", "--out-dir", str(work)],
        ["chunk", "--books", str(work / "books.jsonl"), "--out", str(work / "paras.jsonl")],
        ["index", "--paragraphs", str(work / "paras.jsonl"), "--out", str(work / "index.jsonl")],
    ]
    for args in argv:
        assert main(args) == 0
    return work


def _load_measured(path):
    """The indexes of ``path``, what loading them left allocated, and the
    most it had allocated at once."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        indexes = load_indexes(path)
        retained, peak = (n - before for n in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    return indexes, retained, peak


def test_loaded_indexes_retain_at_most_24_bytes_a_posting(corpus, capsys):
    """Postings held as tuples of two-int tuples retained 63 bytes each at
    this size; packed, the whole index (terms, lengths and postings) stays
    under 24 bytes a posting."""
    indexes, retained, _ = _load_measured(corpus / "index.jsonl")
    postings = sum(len(p) for index in indexes.values() for p in index.postings.values())
    assert postings == 39_050
    assert retained <= 24 * postings, f"{retained / postings:.1f} bytes a posting"


def test_loading_decodes_one_index_record_at_a_time(corpus, capsys):
    """A decoded record costs over 100 bytes a posting until it is packed.
    Each of the two books holds half the postings, so a load that drops one
    record before it decodes the next peaks under 80 bytes a posting; one
    that holds two at once peaks above 100."""
    indexes, _, peak = _load_measured(corpus / "index.jsonl")
    postings = sum(len(p) for index in indexes.values() for p in index.postings.values())
    assert peak <= 80 * postings, f"{peak / postings:.1f} bytes a posting"


def test_index_holds_one_paragraphs_tokens_at_a_time(corpus, capsys, monkeypatch):
    """Each paragraph's tokens are dropped once counted, so while ``index``
    builds a book at most one paragraph holds tokens, and none is left
    holding them at the end."""
    loaded = {}
    load_paragraphs = bookqa.bm25.load_paragraphs
    normalize = bookqa.bm25.normalize_eval_tokens

    def loading(path):
        loaded.update(load_paragraphs(path))
        return loaded

    def holding():
        return sum(
            isinstance(p.tokens, LazyTokenSeq) and "_tokens" in p.tokens.__dict__
            for paras in loaded.values()
            for p in paras
        )

    held = []

    def normalizing(tokens):
        held.append(holding())
        return normalize(tokens)

    monkeypatch.setattr(bookqa.bm25, "load_paragraphs", loading)
    monkeypatch.setattr(bookqa.bm25, "normalize_eval_tokens", normalizing)
    out = corpus / "index_again.jsonl"
    assert main(["index", "--paragraphs", str(corpus / "paras.jsonl"), "--out", str(out), "--jobs", "1"]) == 0
    assert len(held) == 400
    assert max(held) == 1
    assert holding() == 0
    assert out.read_bytes() == (corpus / "index.jsonl").read_bytes()
