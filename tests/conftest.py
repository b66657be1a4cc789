import os
import sys
from collections import Counter

import pytest

from bookqa import text
from bookqa.corpus import Book, Paragraph, QaExample
from bookqa.text import TokenSeq, tokenize


def make_paragraph(book_id, para_index, tokens):
    return Paragraph(book_id, para_index, TokenSeq(tuple(tokens)))


def make_book(book_id, text, title=""):
    return Book(book_id, title or book_id, tokenize(text))


@pytest.fixture(autouse=True)
def cpu_mask_kept():
    """Fails a test that leaves this process's CPU mask changed, and gives
    the mask back: an ``exec:`` scorer's caller steps off the scorer's CPU
    until the handshake (``reranker.step_off_cpu_of``), and a path that
    forgot to restore it would run every later test on fewer CPUs."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    before = getaffinity(0) if getaffinity else None
    yield
    after = getaffinity(0) if getaffinity else None
    if after != before:
        os.sched_setaffinity(0, before)
        pytest.fail(f"the test left the CPU mask {sorted(after)}, not {sorted(before)}")


@pytest.fixture
def tokenize_calls(monkeypatch):
    """How many times each string is tokenized: every ``bookqa`` module that
    holds ``text.tokenize`` gets a counting wrapper, as ``bench/tracer.py``
    installs its own."""
    calls = Counter()
    original = text.tokenize

    def counted(string):
        calls[string] += 1
        return original(string)

    for name, module in list(sys.modules.items()):
        if name.startswith("bookqa"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.fixture
def tiny_book():
    text = (
        "Millicent is sent to a boarding school in France . "
        "The school stands on a hill . "
        "Morgan is Wyatt 's brother and a gunslinger . "
        "Doc Holiday suffers from tuberculosis ."
    )
    return make_book("b1", text, "Tiny Book")


@pytest.fixture
def tiny_qa():
    return [
        QaExample("q1", "b1", "where is Millicent sent to boarding school", ("France", "france")),
        QaExample("q2", "b1", "what is Morgan's relationship to Wyatt", ("Morgan is Wyatt's brother", "Brothers")),
        QaExample("q3", "b1", "what illness does Doc Holiday suffer from", ("Tuberculosis", "Tuberculosis")),
    ]
