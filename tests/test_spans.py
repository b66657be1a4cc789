import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bookqa.errors import EvalError
from bookqa.metrics import rouge_l
from bookqa.oracles import brute_best_span
from bookqa.spans import (
    best_span,
    best_span_tokens,
    contains_answer,
    coverage_rouge,
)
from bookqa.text import normalize_eval_tokens

from conftest import make_paragraph

VOCAB = ["red", "blue", "green", "gold", "grey"]


def test_best_span_verbatim_occurrence_scores_one():
    para = make_paragraph("b", 3, ["x", "France", ".", "cat", "france", "cat"])
    label = best_span(para, "france cat", question_id="q1")
    # Normalized paragraph: x france cat france cat; earliest match wins.
    assert (label.start, label.end, label.score) == (1, 3, 1.0)
    assert label.question_id == "q1"
    assert label.book_id == "b"
    assert label.para_index == 3


def test_best_span_no_overlap_takes_first_window():
    para = make_paragraph("b", 0, ["one", "two", "three"])
    label = best_span(para, "zebu ibex")
    assert (label.start, label.end) == (0, 2)
    assert label.score == 0.0


def test_best_span_short_paragraph_degrades():
    para = make_paragraph("b", 0, ["one", "two"])
    label = best_span(para, "one two three four")
    assert (label.start, label.end) == (0, 2)
    assert 0 < label.score < 1


def test_best_span_rejects_empty_normalized_answer():
    para = make_paragraph("b", 0, ["one"])
    with pytest.raises(EvalError):
        best_span(para, "...")


def test_best_span_label_serialization():
    para = make_paragraph("b", 0, ["france"])
    obj = json.loads(best_span(para, "france", "q1").to_json_line())
    assert obj == {
        "question_id": "q1",
        "book_id": "b",
        "para_index": 0,
        "start": 0,
        "end": 1,
        "score": 1.0,
    }


def test_best_span_matches_brute_force_sweep():
    rng = random.Random(99)
    for _ in range(300):
        para = [rng.choice(VOCAB) for _ in range(rng.randint(1, 60))]
        answer = [rng.choice(VOCAB) for _ in range(rng.randint(1, 8))]
        got = best_span_tokens(para, answer)
        want = brute_best_span(para, answer)
        assert got[:2] == want[:2]
        assert got[2] == pytest.approx(want[2], abs=1e-12)


def _assert_matches_sweep(para, answer):
    start, end, score = best_span_tokens(para, answer)
    assert (start, end) == brute_best_span(para, answer)[:2]
    assert score == rouge_l(para[start:end], answer)


def test_best_span_matches_sweep_on_answers_wider_than_a_word():
    rng = random.Random(2024)
    for _ in range(30):
        answer = [rng.choice(VOCAB) for _ in range(rng.randint(60, 80))]
        para = [rng.choice(VOCAB) for _ in range(rng.randint(60, 110))]
        _assert_matches_sweep(para, answer)


@pytest.mark.parametrize("answer_len", [255, 256, 300])
def test_best_span_matches_sweep_on_answers_past_255_tokens(answer_len):
    """From 256 answer tokens on, a window's count of set bits (answer
    length minus LCS) can pass 255, one byte, and the counts are read field
    by field.  The sparse paragraphs share few tokens with the answer, so
    their windows' counts do pass it."""
    rng = random.Random(answer_len)
    answer = rng.choices(["a", "b", "c"], k=answer_len)
    for weights in ([1, 1, 1, 1], [1, 1, 1, 60]):
        for para_len in (answer_len - 9, answer_len + 2):
            para = rng.choices(["a", "b", "c", "d"], weights=weights, k=para_len)
            _assert_matches_sweep(para, answer)


def test_best_span_matches_sweep_on_paragraphs_shorter_than_answer():
    rng = random.Random(31)
    for _ in range(100):
        para = [rng.choice(VOCAB) for _ in range(rng.randint(1, 12))]
        answer = [rng.choice(VOCAB) for _ in range(len(para) + rng.randint(1, 20))]
        _assert_matches_sweep(para, answer)


def test_best_span_answer_sharing_no_token():
    rng = random.Random(8)
    for _ in range(50):
        para = [rng.choice(VOCAB) for _ in range(rng.randint(1, 40))]
        answer = [rng.choice(["zebu", "ibex"]) for _ in range(rng.randint(1, 10))]
        width = min(len(answer), len(para))
        assert best_span_tokens(para, answer) == (0, width, 0.0)
        assert brute_best_span(para, answer) == (0, width, 0.0)


def test_best_span_matches_sweep_on_skewed_three_token_vocabulary():
    rng = random.Random(3)
    for _ in range(150):
        para = rng.choices(["a", "b", "c"], weights=[8, 3, 1], k=rng.randint(1, 70))
        answer = rng.choices(["a", "b", "c"], weights=[1, 3, 8], k=rng.randint(1, 25))
        _assert_matches_sweep(para, answer)


def test_best_span_tie_keeps_earlier_start_over_higher_overlap():
    # Window 0 (a b x) has LCS 2 and overlap 2; window 3 (b a c) has overlap
    # 3 but its LCS only ties at 2, so the earlier start must stand.
    para = ["a", "b", "x", "b", "a", "c"]
    answer = ["a", "b", "c"]
    assert best_span_tokens(para, answer) == (0, 3, rouge_l(para[0:3], answer))
    assert brute_best_span(para, answer)[:2] == (0, 3)


@settings(max_examples=150)
@given(st.data())
def test_best_span_never_decreases_when_paragraph_extended(data):
    # Holds whenever the window length is pinned by the answer; a paragraph
    # shorter than the answer grows its window (and may lose precision), so
    # that degenerate regime is excluded.
    answer = data.draw(st.lists(st.sampled_from(VOCAB), min_size=1, max_size=5))
    para = data.draw(
        st.lists(st.sampled_from(VOCAB), min_size=len(answer), max_size=20)
    )
    extension = data.draw(st.lists(st.sampled_from(VOCAB), min_size=0, max_size=10))
    base = best_span_tokens(para, answer)[2]
    extended = best_span_tokens(para + extension, answer)[2]
    assert extended >= base - 1e-12


def test_contains_answer_normalization():
    para = make_paragraph("b", 0, ["She", "went", "to", "France", ".", "Then"])
    assert contains_answer(para, ["france"])
    assert contains_answer(para, ["went to France"])
    assert contains_answer(para, ["france then"])  # "." dropped by normalization
    assert not contains_answer(para, ["france where"])


def test_contains_answer_requires_contiguity():
    para = make_paragraph("b", 0, ["red", "stone", "blue"])
    assert not contains_answer(para, ["red blue"])
    assert contains_answer(para, ["stone blue"])


def test_contains_answer_implies_best_span_one():
    # Both directions: the IR evaluation derives EM as a best-span Rouge-L of
    # exactly 1.0, and contains_answer is the independent reference.
    def check(para_tokens, answer):
        para = make_paragraph("b", 0, para_tokens)
        found = contains_answer(para, [answer])
        assert found == (coverage_rouge([para], [answer]) == 1.0), (para_tokens, answer)
        if found:
            assert best_span(para, answer).score == 1.0
        return found

    punct = [",", ".", "?!", "--"]
    rng = random.Random(5)
    found = shorter = 0
    for _ in range(600):
        para_len = rng.choice([rng.randint(1, 3), rng.randint(1, 30)])
        para_tokens = [rng.choice(VOCAB + punct) for _ in range(para_len)]
        answer_tokens = [rng.choice(VOCAB + punct) for _ in range(rng.randint(1, 6))]
        found += check(para_tokens, " ".join(answer_tokens))
        shorter += len(normalize_eval_tokens(para_tokens)) < len(
            normalize_eval_tokens(answer_tokens)
        )
    assert found > 50 and shorter > 50

    # A paragraph shorter than the answer never holds it, even when every
    # paragraph token is in the answer.
    assert not check(["gold", "grey"], "gold grey red")
    assert not check(["gold"], "gold gold")
    # Punctuation-only answer tokens are dropped on both sides.
    assert check(["gold", "grey"], "gold , grey")
    assert check(["gold", ",", "grey", "."], "gold -- grey ?!")
    assert not check(["gold", ",", "grey"], ", .")


def test_coverage_rouge_reduction_and_max():
    p1 = make_paragraph("b", 0, ["red", "blue"])
    p2 = make_paragraph("b", 1, ["gold", "grey", "green"])
    answers = ["gold grey"]
    single = best_span(p2, "gold grey").score
    assert coverage_rouge([p2], answers) == single
    assert coverage_rouge([p1, p2], answers) == 1.0
    assert coverage_rouge([p1], ["zebu"]) == 0.0


def test_coverage_rouge_matches_flat_brute_force():
    """Mostly partial covers, so a scan that stops before the largest value
    over the paragraphs or the answers shows."""
    rng = random.Random(17)
    for _ in range(200):
        paras = [
            make_paragraph("b", i, [rng.choice(VOCAB) for _ in range(rng.randint(1, 25))])
            for i in range(4)
        ]
        answers = [" ".join(rng.choices(VOCAB, k=rng.randint(1, 5))) for _ in range(rng.randint(1, 3))]
        got = coverage_rouge(paras, answers)
        want = max(
            brute_best_span(list(p.tokens.tokens), a.split())[2]
            for p in paras
            for a in answers
        )
        assert got == pytest.approx(want, abs=1e-12), (paras, answers)


def test_coverage_preconditions():
    p = make_paragraph("b", 0, ["x"])
    with pytest.raises(EvalError):
        coverage_rouge([], ["a"])
    with pytest.raises(EvalError):
        coverage_rouge([p], [])


def test_each_answer_and_paragraph_is_normalized_once_per_question(tmp_path, monkeypatch, capsys):
    """supervise, eval-ir and span-oracle normalize a question's two answers
    once each, and each paragraph they score at most once (span-oracle:
    exactly once per selected paragraph, not once per answer).  The BM25
    queries normalize through ``bm25``'s own names and are not counted."""
    from bookqa import ir_eval, spans, supervision
    from bookqa.bm25 import build_index, question_query, retrieve
    from bookqa.cli import main
    from bookqa.corpus import QaExample, write_paragraphs, write_qa
    from bookqa.fileio import write_lines
    from bookqa.reranker import IdentityReranker
    from bookqa.text import normalize_eval

    texts = [
        "red fox ran by the old mill",
        "a red hen sat on the wall",
        "the grey mill stood by a river",
        "gold leaves fell on the mill",
    ]
    paragraphs = [make_paragraph("b", i, text.split()) for i, text in enumerate(texts)]
    question = QaExample("q1", "b", "what stood by the mill", ("the grey river", "an old red mill"))
    answers, tokens = Counter(), Counter()

    def count_answer(text):
        answers[text] += 1
        return normalize_eval(text)

    def count_paragraph(toks):
        tokens[tuple(toks)] += 1
        return normalize_eval_tokens(toks)

    monkeypatch.setattr(spans, "normalize_eval", count_answer)
    for module in (spans, supervision, ir_eval):
        monkeypatch.setattr(module, "normalize_eval_tokens", count_paragraph, raising=False)

    def check(stage, scored):
        assert answers == Counter(question.answers), stage
        assert tokens and all(n == 1 for n in tokens.values()), (stage, tokens)
        assert set(tokens) <= {p.tokens.tokens for p in paragraphs}, stage
        if scored is not None:
            assert set(tokens) == {paragraphs[p].tokens.tokens for p in scored}, stage
        answers.clear()
        tokens.clear()

    index = build_index(paragraphs)
    cfg = supervision.SupervisionConfig(k_retrieve=4, negative_pool="whole_book")
    supervision.generate_pairs(index, paragraphs, question, cfg)
    check("supervise", None)
    ir_eval.scored(ir_eval.ablation_for_question(index, paragraphs, question, 4, 2), IdentityReranker())
    check("eval-ir", None)

    selected = retrieve(index, question_query(question), 3, "q1")
    write_paragraphs(tmp_path / "paras.jsonl", paragraphs)
    write_qa(tmp_path / "qa.jsonl", [question])
    write_lines(tmp_path / "sel.jsonl", [selected.to_json_line()])
    argv = [
        "span-oracle", "--paragraphs", tmp_path / "paras.jsonl", "--qa", tmp_path / "qa.jsonl",
        "--selections", tmp_path / "sel.jsonl", "--out", tmp_path / "labels.jsonl",
    ]
    assert main([str(a) for a in argv]) == 0, capsys.readouterr().err
    check("span-oracle", selected.para_indexes())
    assert len((tmp_path / "labels.jsonl").read_text().splitlines()) == 2 * len(selected.ranked)
