import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bookqa.corpus import (
    chunk_book,
    load_books,
    load_paragraphs,
    load_qa,
    write_paragraphs,
)
from bookqa.errors import CorpusError
from bookqa.text import tokenize

from conftest import make_book


def test_chunk_sizes():
    book = make_book("b", " ".join(f"w{i}" for i in range(450)))
    paras = chunk_book(book, width=200)
    assert [len(p.tokens) for p in paras] == [200, 200, 50]
    assert [p.para_index for p in paras] == [0, 1, 2]


def test_chunk_exact_fit():
    book = make_book("b", " ".join(f"w{i}" for i in range(200)))
    assert len(chunk_book(book, width=200)) == 1


@settings(max_examples=60)
@given(
    n_tokens=st.integers(min_value=1, max_value=420),
    width=st.sampled_from([1, 3, 200]),
)
def test_chunk_roundtrip_lossless(n_tokens, width):
    book = make_book("b", " ".join(f"w{i}" for i in range(n_tokens)))
    paras = chunk_book(book, width=width)
    assert tuple(t for p in paras for t in p.tokens.tokens) == book.tokens.tokens
    assert all(len(p.tokens) == width for p in paras[:-1])
    assert 1 <= len(paras[-1].tokens) <= width
    assert [p.para_index for p in paras] == list(range(len(paras)))


def _write_jsonl(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")


def test_load_corpus_roundtrip(tmp_path):
    books_path = tmp_path / "books.jsonl"
    qa_path = tmp_path / "qa.jsonl"
    _write_jsonl(
        books_path,
        [
            {"book_id": "b1", "title": "One", "text": "the cat sat"},
            {"book_id": "b2", "title": "Two", "text": "a dog ran"},
        ],
    )
    _write_jsonl(
        qa_path,
        [
            {"question_id": "q1", "book_id": "b1", "question": "who sat", "answers": ["the cat"]},
            {"question_id": "q2", "book_id": "b2", "question": "who ran", "answers": ["a dog", "dog"]},
            {"question_id": "q3", "book_id": "b1", "question": "what", "answers": ["cat"]},
        ],
    )
    books, qa = load_books(books_path), load_qa(qa_path)
    assert [b.book_id for b in books] == ["b1", "b2"]
    assert len(qa) == 3
    assert qa[1].answers == ("a dog", "dog")


def test_load_corpus_directory_of_txt(tmp_path):
    books_dir = tmp_path / "books"
    books_dir.mkdir()
    (books_dir / "alpha.txt").write_text("some text here", encoding="utf-8")
    (books_dir / "beta.txt").write_text("other text here", encoding="utf-8")
    qa_path = tmp_path / "qa.jsonl"
    _write_jsonl(
        qa_path,
        [{"question_id": "q1", "book_id": "alpha", "question": "x", "answers": ["text"]}],
    )
    books, qa = load_books(books_dir), load_qa(qa_path)
    assert [b.book_id for b in books] == ["alpha", "beta"]
    assert [q.book_id for q in qa] == ["alpha"]


def test_load_corpus_duplicate_question_id(tmp_path):
    qa_path = tmp_path / "qa.jsonl"
    _write_jsonl(
        qa_path,
        [
            {"question_id": "q1", "book_id": "b1", "question": "x", "answers": ["y"]},
            {"question_id": "q1", "book_id": "b1", "question": "z", "answers": ["w"]},
        ],
    )
    with pytest.raises(CorpusError, match="duplicate question_id"):
        load_qa(qa_path)


def test_load_corpus_malformed_record_names_file_line_field(tmp_path):
    books_path = tmp_path / "books.jsonl"
    _write_jsonl(
        books_path,
        [{"book_id": "b1", "title": "", "text": "x"}, {"book_id": "b2", "title": ""}],
    )
    with pytest.raises(CorpusError) as err:
        load_books(books_path)
    message = str(err.value)
    assert "line 2" in message and "'text'" in message and "books.jsonl" in message


def test_load_corpus_invalid_json_names_line(tmp_path):
    books_path = tmp_path / "books.jsonl"
    books_path.write_text('{"book_id": "b1", "title": "", "text": "x"}\n{nope\n', encoding="utf-8")
    with pytest.raises(CorpusError, match="line 2"):
        load_books(books_path)


def test_paragraph_file_roundtrip(tmp_path):
    book = make_book("b", " ".join(f"w{i}" for i in range(15)))
    paras = chunk_book(book, width=4)
    path = tmp_path / "paras.jsonl"
    write_paragraphs(path, paras)
    loaded = load_paragraphs(path)
    assert list(loaded) == ["b"]
    assert [p.tokens.tokens for p in loaded["b"]] == [p.tokens.tokens for p in paras]


def test_paragraph_file_rejects_gaps(tmp_path):
    path = tmp_path / "paras.jsonl"
    _write_jsonl(
        path,
        [
            {"book_id": "b", "para_index": 0, "text": "x"},
            {"book_id": "b", "para_index": 2, "text": "y"},
        ],
    )
    with pytest.raises(CorpusError, match="dense"):
        load_paragraphs(path)


def test_paragraph_whitespace_only_line_fails_with_line_number(tmp_path):
    path = tmp_path / "paras.jsonl"
    _write_jsonl(
        path,
        [
            {"book_id": "b", "para_index": 0, "text": "x"},
            {"book_id": "b", "para_index": 1, "text": " \t\u2003\u00a0 "},
        ],
    )
    with pytest.raises(CorpusError, match="line 2: paragraph has no tokens"):
        load_paragraphs(path)


def test_loaded_paragraphs_tokenize_only_when_read(tmp_path, monkeypatch):
    import bookqa.text

    path = tmp_path / "paras.jsonl"
    texts = ["alpha beta", "gamma , delta", "epsilon 's zeta"]
    _write_jsonl(
        path, [{"book_id": "b", "para_index": i, "text": t} for i, t in enumerate(texts)]
    )
    calls = []
    original = bookqa.text.tokenize

    def counting(text):
        calls.append(text)
        return original(text)

    monkeypatch.setattr(bookqa.text, "tokenize", counting)
    paras = load_paragraphs(path)["b"]
    assert calls == []
    assert paras[1].tokens.tokens == ("gamma", ",", "delta")
    assert len(paras[1].tokens) == 3 and paras[1].text() == "gamma , delta"
    assert calls == ["gamma , delta"]
    assert [p.tokens for p in paras] == [tokenize(t) for t in texts]
    assert calls == texts[1:2] + texts[0:1] + texts[2:]


def test_loaded_paragraph_pickles_without_tokens(tmp_path):
    import pickle
    import pickletools

    path = tmp_path / "paras.jsonl"
    _write_jsonl(path, [{"book_id": "b", "para_index": 0, "text": "alpha beta , gamma"}])
    (para,) = load_paragraphs(path)["b"]
    data = pickle.dumps(para, pickle.HIGHEST_PROTOCOL)
    strings = {arg for _, arg, _ in pickletools.genops(data) if isinstance(arg, str)}
    assert "alpha beta , gamma" in strings
    assert not {"alpha", "beta", ",", "gamma"} & strings
    restored = pickle.loads(data)
    assert restored == para
    assert restored.tokens == tokenize("alpha beta , gamma")
