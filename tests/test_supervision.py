import json
from collections import Counter

import pytest

from bookqa.bm25 import build_index, oracle_query, question_query, retrieve
from bookqa.corpus import QaExample, chunk_book
from bookqa.errors import ConfigError, CorpusError
from bookqa.supervision import (
    LABEL_NEGATIVE,
    LABEL_POSITIVE,
    POOL_WHOLE_BOOK,
    PROVENANCE_INTERSECTION,
    SupervisionConfig,
    SupervisionPair,
    generate_pairs,
    supervision_stats,
)
from bookqa.synth import synth_corpus

from conftest import make_paragraph


def _synth_setup(seed, **kwargs):
    kwargs.setdefault("n_books", 2)
    kwargs.setdefault("paras_per_book", 10)
    kwargs.setdefault("questions_per_book", 3)
    kwargs.setdefault("width", 40)
    books, qa, truths = synth_corpus(seed=seed, **kwargs)
    paragraphs = {b.book_id: chunk_book(b, width=kwargs["width"]) for b in books}
    indexes = {b.book_id: build_index(paragraphs[b.book_id]) for b in books}
    return paragraphs, indexes, qa, truths


def test_one_question_tokenizes_its_question_and_each_answer_once(tokenize_calls):
    paragraphs, indexes, qa, _ = _synth_setup(seed=4)
    q = qa[0]
    generate_pairs(indexes[q.book_id], paragraphs[q.book_id], q, SupervisionConfig())
    assert tokenize_calls == Counter([q.question, *q.answers])


def test_config_validation():
    with pytest.raises(ConfigError):
        SupervisionConfig(pos_threshold=0.4, neg_threshold=0.4)
    with pytest.raises(ConfigError):
        SupervisionConfig(pos_threshold=1.2)
    with pytest.raises(ConfigError):
        SupervisionConfig(k_retrieve=0)
    with pytest.raises(ConfigError):
        SupervisionConfig(negative_pool="nope")


def test_planted_question_yields_positive():
    paragraphs, indexes, qa, truths = _synth_setup(seed=21)
    truth_by_id = {t.question_id: t for t in truths}
    cfg = SupervisionConfig(rng_seed=1)
    for q in qa:
        pairs = generate_pairs(indexes[q.book_id], paragraphs[q.book_id], q, cfg)
        positives = [p for p in pairs if p.label == LABEL_POSITIVE]
        assert truth_by_id[q.question_id].para_index in [p.para_index for p in positives]
        for p in positives:
            assert p.filter_score > cfg.pos_threshold
            assert p.provenance == PROVENANCE_INTERSECTION


def test_positives_lie_in_both_retrievals():
    paragraphs, indexes, qa, _ = _synth_setup(seed=33)
    cfg = SupervisionConfig(k_retrieve=4, rng_seed=5)
    for q in qa:
        index = indexes[q.book_id]
        set_q = set(retrieve(index, question_query(q), cfg.k_retrieve).para_indexes())
        set_qa = set(retrieve(index, oracle_query(q), cfg.k_retrieve).para_indexes())
        for p in generate_pairs(index, paragraphs[q.book_id], q, cfg):
            if p.label == LABEL_POSITIVE:
                assert p.para_index in set_q and p.para_index in set_qa


def test_dead_zone_is_empty_in_output():
    for seed in (1, 2, 3):
        paragraphs, indexes, qa, _ = _synth_setup(seed=seed)
        cfg = SupervisionConfig(negative_pool=POOL_WHOLE_BOOK, rng_seed=seed)
        for q in qa:
            for p in generate_pairs(indexes[q.book_id], paragraphs[q.book_id], q, cfg):
                assert not (cfg.neg_threshold <= p.filter_score <= cfg.pos_threshold)
                if p.label == LABEL_NEGATIVE:
                    assert p.filter_score < cfg.neg_threshold
                else:
                    assert p.filter_score > cfg.pos_threshold


def test_whole_book_pool_yields_negatives():
    paragraphs, indexes, qa, _ = _synth_setup(seed=8)
    cfg = SupervisionConfig(negative_pool=POOL_WHOLE_BOOK, rng_seed=0)
    total_neg = total_pos = 0
    for q in qa:
        pairs = generate_pairs(indexes[q.book_id], paragraphs[q.book_id], q, cfg)
        total_pos += sum(1 for p in pairs if p.label == LABEL_POSITIVE)
        total_neg += sum(1 for p in pairs if p.label == LABEL_NEGATIVE)
    assert total_pos > 0
    assert total_neg == cfg.negatives_per_positive * total_pos


def test_positive_yield_equals_planted_question_count():
    # Answer words are unique to their plant, so with full retrieval recall
    # each question contributes exactly its planted paragraph as a positive.
    paragraphs, indexes, qa, truths = _synth_setup(seed=31)
    cfg = SupervisionConfig(negative_pool=POOL_WHOLE_BOOK, rng_seed=2)
    pairs = [
        p
        for q in qa
        for p in generate_pairs(indexes[q.book_id], paragraphs[q.book_id], q, cfg)
    ]
    stats = supervision_stats(pairs)
    assert stats["n_positive"] == len(qa)
    truth_by_id = {t.question_id: t.para_index for t in truths}
    for p in pairs:
        if p.label == LABEL_POSITIVE:
            assert p.para_index == truth_by_id[p.question_id]


def test_deterministic_under_seed_and_monotone_thresholds():
    paragraphs, indexes, qa, _ = _synth_setup(seed=13)
    cfg = SupervisionConfig(negative_pool=POOL_WHOLE_BOOK, rng_seed=42)
    q = qa[0]
    first = generate_pairs(indexes[q.book_id], paragraphs[q.book_id], q, cfg)
    second = generate_pairs(indexes[q.book_id], paragraphs[q.book_id], q, cfg)
    assert first == second
    other = generate_pairs(
        indexes[q.book_id],
        paragraphs[q.book_id],
        q,
        SupervisionConfig(negative_pool=POOL_WHOLE_BOOK, rng_seed=43),
    )
    assert [p.label for p in other] == [p.label for p in first]  # plants dominate

    loose = SupervisionConfig(pos_threshold=0.5, rng_seed=42)
    tight = SupervisionConfig(pos_threshold=0.9, rng_seed=42)
    for example in qa:
        n_loose = sum(
            1
            for p in generate_pairs(
                indexes[example.book_id], paragraphs[example.book_id], example, loose
            )
            if p.label == LABEL_POSITIVE
        )
        n_tight = sum(
            1
            for p in generate_pairs(
                indexes[example.book_id], paragraphs[example.book_id], example, tight
            )
            if p.label == LABEL_POSITIVE
        )
        assert n_tight <= n_loose


def test_paragraph_in_single_retrieval_never_positive():
    # A paragraph matching only the question's context word is in C_Q's
    # nonzero set but cannot be positive: positives need the intersection
    # plus a filter score above threshold.
    paras = [
        make_paragraph("b", 0, ["topic", "answerword", "filler"]),
        make_paragraph("b", 1, ["ctxword", "filler", "filler"]),
        make_paragraph("b", 2, ["filler", "stone", "wall"]),
    ]
    index = build_index(paras)
    q = QaExample("q1", "b", "topic ctxword", ("answerword",))
    cfg = SupervisionConfig(k_retrieve=32, rng_seed=0)
    pairs = generate_pairs(index, paras, q, cfg)
    positives = {p.para_index for p in pairs if p.label == LABEL_POSITIVE}
    assert positives == {0}


def test_dead_zone_paragraph_emitted_nowhere():
    # Paragraph 1 shares half the answer: filter score lands in (0.4, 0.7).
    paras = [
        make_paragraph("b", 0, ["topic", "gold", "silver", "pad"]),
        make_paragraph("b", 1, ["topic", "gold", "stone", "pad"]),
        make_paragraph("b", 2, ["wall", "moss", "stone", "pad"]),
    ]
    index = build_index(paras)
    q = QaExample("q1", "b", "topic", ("gold silver",))
    cfg = SupervisionConfig(
        k_retrieve=32, negative_pool=POOL_WHOLE_BOOK, negatives_per_positive=5, rng_seed=3
    )
    pairs = generate_pairs(index, paras, q, cfg)
    by_para = {p.para_index: p for p in pairs}
    assert by_para[0].label == LABEL_POSITIVE
    assert 1 not in by_para  # dead zone
    assert by_para[2].label == LABEL_NEGATIVE


def test_pair_serialization():
    pair = SupervisionPair("q1", "b", 3, LABEL_POSITIVE, 1.0, PROVENANCE_INTERSECTION)
    obj = json.loads(pair.to_json_line())
    assert obj == {
        "question_id": "q1",
        "book_id": "b",
        "para_index": 3,
        "label": "positive",
        "filter_score": 1.0,
        "provenance": "intersection",
    }


def test_stats():
    assert supervision_stats([])["n_pairs"] == 0
    pairs = [
        SupervisionPair("q1", "b", 0, LABEL_POSITIVE, 0.9, PROVENANCE_INTERSECTION),
        SupervisionPair("q1", "b", 1, LABEL_NEGATIVE, 0.1, "complement"),
        SupervisionPair("q2", "b2", 2, LABEL_POSITIVE, 0.8, PROVENANCE_INTERSECTION),
    ]
    stats = supervision_stats(pairs)
    assert stats["n_pairs"] == 3
    assert stats["n_positive"] == 2
    assert stats["balance"] == pytest.approx(2 / 3)
    assert stats["dead_zone_rate"] == 0.0
    assert stats["positives_per_book"] == {"b": 1, "b2": 1}
    assert stats["n_questions"] == 2

    all_pos = [pairs[0], pairs[2]]
    assert supervision_stats(all_pos)["balance"] == 1.0
