import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bookqa.corpus import QaExample
from bookqa.errors import EvalError
from bookqa.metrics import (
    MetricReport,
    align_exact,
    bleu_corpus,
    evaluate_qa,
    exact_match,
    lcs_length,
    meteor_exact,
    rouge_l,
    token_f1,
)
from bookqa.oracles import _recursive_lcs, brute_ngram_counts, enumerated_lcs

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_eval.json").read_text())

token_lists = st.lists(st.sampled_from(["a", "b", "c"]), max_size=10)


# ---------------------------------------------------------------------------
# LCS


def test_lcs_examples():
    assert lcs_length(["a", "b", "c"], ["a", "b", "c"]) == 3
    assert lcs_length(["a", "b", "c"], ["b", "d", "c"]) == 2
    assert lcs_length(["a", "b"], []) == 0
    assert lcs_length([], []) == 0


@settings(max_examples=300)
@given(token_lists, token_lists)
def test_lcs_matches_enumeration(a, b):
    assert lcs_length(a, b) == enumerated_lcs(a, b)


def test_lcs_matches_recursive_oracle_on_long_small_alphabet_pairs():
    rng = random.Random(150)
    for _ in range(60):
        alphabet = "abcd"[: rng.randint(2, 4)]
        a = rng.choices(alphabet, k=rng.randint(0, 150))
        b = rng.choices(alphabet, k=rng.randint(0, 150))
        assert lcs_length(a, b) == lcs_length(b, a) == _recursive_lcs(a, b)


# ---------------------------------------------------------------------------
# Rouge-L


def test_rouge_identity_and_disjoint():
    assert rouge_l(["x", "y"], ["x", "y"]) == 1.0
    assert rouge_l(["x"], ["y"]) == 0.0
    assert rouge_l([], ["y"]) == 0.0
    assert rouge_l(["y"], []) == 0.0


def test_rouge_hand_value():
    assert rouge_l(["the", "cat", "sat"], ["the", "cat"]) == pytest.approx(
        0.8299, abs=5e-5
    )


@given(token_lists, token_lists)
def test_rouge_in_unit_interval(a, b):
    assert 0.0 <= rouge_l(a, b) <= 1.0


# ---------------------------------------------------------------------------
# Bleu


def test_bleu_perfect_match():
    preds = [["a", "b"], ["c"]]
    refs = [[["a", "b"]], [["c"], ["d"]]]
    assert bleu_corpus(preds, refs, 1) == pytest.approx(1.0)


def test_bleu_brevity_hand_value():
    value = bleu_corpus([["a", "b"]], [[["a", "b", "c", "d"]]], 1)
    assert value == pytest.approx(math.exp(-1), abs=5e-5)


def test_bleu_zero_on_no_overlap():
    assert bleu_corpus([["x"]], [[["y"]]], 1) == 0.0


def test_bleu_single_prediction_matches_sentence_formula():
    pred = ["a", "b", "a", "c"]
    ref = ["a", "b", "c"]
    # p1 = 3/4 (clip "a" to 1); p2: pred bigrams {ab, ba, ac}, ref {ab, bc} -> 1/3;
    # pred is longer than ref so the brevity penalty is 1.
    expected = math.exp((math.log(3 / 4) + math.log(1 / 3)) / 2)
    got = bleu_corpus([pred], [[ref]], 2)
    assert got == pytest.approx(expected, rel=1e-12)

    short = bleu_corpus([["a", "b"]], [[["a", "b", "c"]]], 1)
    assert short == pytest.approx(math.exp(1 - 3 / 2) * 1.0, rel=1e-12)


def test_bleu_multi_reference_clipping_uses_brute_ngrams():
    pred = ["a", "a", "b"]
    refs = [["a", "b"], ["a", "a"]]
    counts = brute_ngram_counts(pred, 1)
    clip = sum(
        min(c, max(brute_ngram_counts(r, 1).get(g, 0) for r in refs))
        for g, c in counts.items()
    )
    assert clip == 3
    assert bleu_corpus([pred], [refs], 1) == pytest.approx(clip / 3 * 1.0)


def test_bleu_rejects_misaligned_inputs():
    with pytest.raises(EvalError):
        bleu_corpus([["a"]], [], 1)


def test_bleu4_zero_when_no_four_grams():
    assert bleu_corpus([["a", "b"]], [[["a", "b"]]], 4) == 0.0


# ---------------------------------------------------------------------------
# Meteor


def test_meteor_identity_two_tokens():
    assert meteor_exact(["the", "cat"], ["the", "cat"]) == pytest.approx(0.9375, abs=5e-5)


def test_meteor_swapped_tokens():
    assert meteor_exact(["b", "a"], ["a", "b"]) == pytest.approx(0.5, abs=5e-5)


def test_meteor_no_overlap():
    assert meteor_exact(["x"], ["y"]) == 0.0
    assert meteor_exact([], ["y"]) == 0.0


def test_meteor_identity_attains_analytic_maximum():
    for m in (1, 2, 5):
        tokens = [f"t{i}" for i in range(m)]
        expected = 1.0 - 0.5 * (1 / m) ** 3
        assert meteor_exact(tokens, tokens) == pytest.approx(expected)


def test_align_exact_prefers_fewer_chunks():
    # Two maximum matchings exist; the contiguous one has a single chunk.
    assert align_exact(["a", "b"], ["a", "b", "a"]) == (2, 1)
    assert align_exact(["a", "b", "a"], ["a", "a", "b"]) == (3, 2)


def test_align_exact_degenerate_repeats_stay_fast():
    # Uniform and alternating repeats are the classic blowup inputs for
    # alignment search; they must resolve instantly and exactly.
    assert align_exact(["a"] * 50, ["a"] * 50) == (50, 1)
    assert align_exact(["a"] * 40, ["a"] * 25) == (25, 1)
    assert align_exact(["a", "b"] * 20, ["b", "a"] * 20) == (40, 2)


def test_align_exact_symmetric_in_arguments():
    cases = [
        (["a", "b", "a"], ["a", "a", "b"]),
        (["a", "b", "c", "a"], ["c", "a", "b"]),
        (["x"], ["x", "x", "x"]),
    ]
    for cand, ref in cases:
        assert align_exact(cand, ref) == align_exact(ref, cand)


@given(token_lists, token_lists)
def test_meteor_in_unit_interval(a, b):
    assert 0.0 <= meteor_exact(a, b) < 1.0 or meteor_exact(a, b) == 0.0


# ---------------------------------------------------------------------------
# EM / F1


def test_exact_match_table_values():
    assert exact_match("France", ["france", "a boarding school in france"])
    assert not exact_match("Lung cancer", ["Tuberculosis", "Tuberculosis"])
    assert exact_match("the brother", ["Brother"])


def test_token_f1_values():
    assert token_f1("Tuberculosis", ["Tuberculosis"]) == 1.0
    assert token_f1("brothers", ["brother"]) == 0.0
    assert token_f1("a boarding school in france", ["france"]) == pytest.approx(0.4)


def test_em_implies_f1_one():
    cases = [
        ("France", ["france"]),
        ("the brother", ["Brother", "sibling"]),
        ("A an the", ["..."]),  # both normalize to nothing
    ]
    for pred, refs in cases:
        if exact_match(pred, refs):
            assert token_f1(pred, refs) == 1.0


# ---------------------------------------------------------------------------
# evaluate_qa


def _golden_fixture():
    examples = [
        QaExample("q1", "b", "where", ("france", "a boarding school in france")),
        QaExample("q2", "b", "who", ("Brother", "Morgan is Wyatt's brother")),
        QaExample("q3", "b", "what", ("Tuberculosis", "Tuberculosis")),
    ]
    predictions = {"q1": "France.", "q2": "the brother", "q3": "lung cancer"}
    return predictions, examples


def test_evaluate_qa_golden_fixture():
    predictions, examples = _golden_fixture()
    report = evaluate_qa(predictions, examples)
    for name in ("bleu1", "bleu4", "meteor", "rouge_l", "em", "f1"):
        assert getattr(report, name) == pytest.approx(GOLDEN[name], abs=1e-9), name
    assert report.n_questions == 3
    assert report.to_percent_dict() == GOLDEN["percent"]


def test_evaluate_qa_perfect_predictions():
    examples = [
        QaExample("q1", "b", "x", ("the cat sat", "other")),
        QaExample("q2", "b", "y", ("france",)),
    ]
    predictions = {"q1": "the cat sat", "q2": "france"}
    report = evaluate_qa(predictions, examples)
    assert report.em == 1.0
    assert report.f1 == 1.0
    assert report.rouge_l == 1.0
    assert report.bleu1 == pytest.approx(1.0)


def test_evaluate_qa_empty_predictions_score_zero():
    examples = [QaExample("q1", "b", "x", ("france",))]
    report = evaluate_qa({"q1": ""}, examples)
    assert report.em == 0.0
    assert report.f1 == 0.0
    assert report.rouge_l == 0.0
    assert report.bleu1 == 0.0


def test_evaluate_qa_reports_missing_and_extra_ids():
    _, examples = _golden_fixture()
    with pytest.raises(EvalError) as err:
        evaluate_qa({"q1": "x", "q9": "y"}, examples)
    message = str(err.value)
    assert "q2" in message and "q3" in message and "q9" in message


def test_metric_report_validates_ranges():
    with pytest.raises(ValueError):
        MetricReport(1.5, 0, 0, 0, 0, 0, 1)
    with pytest.raises(ValueError):
        MetricReport(0, 0, 0, 0, 0.5, 0.2, 1)
