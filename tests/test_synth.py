import hashlib
import json
import random
from pathlib import Path

import pytest

from bookqa.bm25 import build_index, oracle_query, question_query, retrieve
from bookqa.cli import main
from bookqa.corpus import chunk_book
from bookqa.errors import ConfigError
from bookqa.spans import best_span_tokens, contains_answer
from bookqa.synth import (
    CONTEXTS,
    DISTRACTORS,
    ENTITIES,
    QUESTION_TEMPLATE,
    SYNONYMS,
    TOPICS,
    repeated_choice,
    synth_corpus,
)
from bookqa.text import normalize_eval, normalize_eval_tokens, tokenize

SYNTH_DIGESTS = Path(__file__).parent / "data" / "synth_digests.json"


def test_word_pools_are_pairwise_disjoint():
    template_words = set(QUESTION_TEMPLATE.split()) - {"{topic}", "{ctx}"}
    pools = {
        "topics": set(TOPICS),
        "contexts": set(CONTEXTS),
        "entities": set(ENTITIES),
        "synonym_values": set(SYNONYMS.values()),
        "distractors": set(DISTRACTORS),
        "template": template_words,
    }
    names = list(pools)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            overlap = pools[a] & pools[b]
            assert not overlap, f"{a} and {b} share {sorted(overlap)}"
    assert set(SYNONYMS) <= set(ENTITIES)


def test_synth_deterministic_under_seed():
    first = synth_corpus(seed=7, n_books=2, paras_per_book=6, questions_per_book=3, width=30)
    second = synth_corpus(seed=7, n_books=2, paras_per_book=6, questions_per_book=3, width=30)
    assert first == second
    third = synth_corpus(seed=8, n_books=2, paras_per_book=6, questions_per_book=3, width=30)
    assert third != first


def test_synth_counts_and_ids():
    books, qa, truths = synth_corpus(seed=1, n_books=2, paras_per_book=5, questions_per_book=2, width=20)
    assert len(books) == 2
    assert len(qa) == len(truths) == 4
    assert all(len(b.tokens) == 5 * 20 for b in books)
    assert {q.book_id for q in qa} == {b.book_id for b in books}


def test_synth_planted_paragraph_contains_answer():
    books, qa, truths = synth_corpus(seed=11, n_books=3, paras_per_book=8, questions_per_book=4, width=40)
    paras = {b.book_id: chunk_book(b, width=40) for b in books}
    for q, truth in zip(qa, truths):
        assert q.question_id == truth.question_id
        planted = paras[q.book_id][truth.para_index]
        assert contains_answer(planted, q.answers)


def test_synth_paraphrase_plant_dominates_every_distractor():
    books, qa, truths = synth_corpus(
        seed=13, n_books=2, paras_per_book=8, questions_per_book=3, paraphrase=True, width=40
    )
    paras = {b.book_id: chunk_book(b, width=40) for b in books}
    for q, truth in zip(qa, truths):
        answer_tokens = normalize_eval(q.answers[0]).tokens
        scores = [
            best_span_tokens(normalize_eval_tokens(p.tokens.tokens), answer_tokens)[2]
            for p in paras[q.book_id]
        ]
        planted_score = scores[truth.para_index]
        assert not contains_answer(paras[q.book_id][truth.para_index], q.answers)
        assert 0.0 < planted_score < 1.0
        for i, score in enumerate(scores):
            if i != truth.para_index:
                assert planted_score >= score


@pytest.mark.parametrize("paraphrase", [False, True])
def test_synth_plant_retrievable_by_oracle_top32(paraphrase):
    books, qa, truths = synth_corpus(
        seed=3, n_books=2, paras_per_book=12, questions_per_book=4, paraphrase=paraphrase, width=30
    )
    indexes = {b.book_id: build_index(chunk_book(b, width=30)) for b in books}
    truth_by_id = {t.question_id: t for t in truths}
    for q in qa:
        got = retrieve(indexes[q.book_id], oracle_query(q), 32).para_indexes()
        assert truth_by_id[q.question_id].para_index in got


def test_synth_oracle_recall_at_least_question_only():
    books, qa, truths = synth_corpus(seed=5, n_books=3, paras_per_book=10, questions_per_book=4, width=30)
    indexes = {b.book_id: build_index(chunk_book(b, width=30)) for b in books}
    truth_by_id = {t.question_id: t for t in truths}
    hits_q = hits_qa = 0
    for q in qa:
        planted = truth_by_id[q.question_id].para_index
        hits_q += planted in retrieve(indexes[q.book_id], question_query(q), 32).para_indexes()
        hits_qa += planted in retrieve(indexes[q.book_id], oracle_query(q), 32).para_indexes()
    assert hits_qa >= hits_q


def test_synth_plant_in_oracle_top32_at_thousand_paragraphs():
    # The stated bound: plants stay oracle-retrievable into the top 32 for
    # corpora up to 1000 paragraphs on the default distractor vocabulary.
    books, qa, truths = synth_corpus(
        seed=19, n_books=1, paras_per_book=1000, questions_per_book=6, width=30
    )
    index = build_index(chunk_book(books[0], width=30))
    truth_by_id = {t.question_id: t for t in truths}
    for q in qa:
        ranked = retrieve(index, oracle_query(q), 32).para_indexes()
        assert truth_by_id[q.question_id].para_index in ranked


def test_synth_validates_parameters():
    with pytest.raises(ConfigError):
        synth_corpus(seed=1, n_books=0)
    with pytest.raises(ConfigError):
        synth_corpus(seed=1, paras_per_book=2, questions_per_book=3)
    with pytest.raises(ConfigError):
        synth_corpus(seed=1, width=4)
    with pytest.raises(ConfigError):
        synth_corpus(seed=1, paras_per_book=12, questions_per_book=9, paraphrase=True)


def test_synth_paraphrase_builds_at_eight_questions_per_book():
    """Extra answer words are never synonym keys, so the keys last until
    every question has drawn its own."""
    for seed in range(50):
        _, qa, _ = synth_corpus(
            seed=seed, n_books=1, paras_per_book=8, questions_per_book=8, paraphrase=True, width=30
        )
        assert sorted(q.answers[0].split()[0] for q in qa) == sorted(SYNONYMS)


@pytest.mark.parametrize("size", [1, 2, 3, 64, len(DISTRACTORS), 128, 129])
def test_repeated_choice_draws_what_choice_draws(size):
    """The same words as ``rng.choice`` in a loop, and the generator left
    where the loop leaves it, at pool sizes around powers of two, where the
    rejection rate of a draw jumps."""
    pool = DISTRACTORS if size == len(DISTRACTORS) else tuple(f"w{i}" for i in range(size))
    for seed in range(3):
        for count in (0, 1, 2, 3, 17, 1000, 10_000):
            fast, slow = random.Random(seed), random.Random(seed)
            assert repeated_choice(fast, pool, count) == [slow.choice(pool) for _ in range(count)]
            assert fast.random() == slow.random()


def test_every_pool_word_is_alphanumeric():
    """``synth`` hands its words to the books untokenized, which is exact
    only because ``tokenize`` returns an alphanumeric word whole."""
    pools = (TOPICS, CONTEXTS, ENTITIES, tuple(SYNONYMS.values()), DISTRACTORS)
    bad = [word for pool in pools for word in pool if not word.isalnum()]
    assert bad == []


@pytest.mark.parametrize("paraphrase", [False, True])
def test_book_tokens_equal_their_text_tokenized(paraphrase):
    books, _, _ = synth_corpus(
        seed=4, n_books=2, paras_per_book=10, questions_per_book=5, paraphrase=paraphrase, width=30
    )
    for book in books:
        assert book.tokens == tokenize(book.tokens.text())


def synth_corpora():
    return json.loads(SYNTH_DIGESTS.read_text(encoding="utf-8"))["corpora"]


@pytest.mark.parametrize("name", sorted(synth_corpora()))
def test_synth_files_keep_their_digests(tmp_path, name):
    """``books.jsonl``, ``qa.jsonl`` and ``truth.jsonl`` byte for byte as
    the generator wrote them before its draws and book tokens took their
    fast paths."""
    corpus = synth_corpora()[name]
    assert main(["synth", *corpus["argv"].split(), "--out-dir", str(tmp_path)]) == 0
    got = {
        file: hashlib.sha256((tmp_path / file).read_bytes()).hexdigest()
        for file in corpus["sha256"]
    }
    assert got == corpus["sha256"]
