import gc
import json
import math
import random
import signal
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bookqa.corpus import QaExample
from bookqa.errors import EvalError
from bookqa.fileio import rounded
from bookqa.metrics import (
    _best_meteor,
    _bleu_counts,
    _bleu_from_counts,
    align_exact,
    bleu_corpus,
    evaluate_qa,
    exact_match,
    lcs_length,
    meteor_exact,
    rouge_l,
    token_f1,
)
from bookqa.oracles import (
    _recursive_lcs,
    brute_ngram_counts,
    enumerated_lcs,
    exhaustive_meteor_alignment,
)
from bookqa.text import normalize_eval
from test_oracles import check_meteor_filler, skewed_vocabulary_pairs

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


def _per_order_bleu(predictions, references, max_n):
    """Bleu counted one order at a time from ``brute_ngram_counts``, with the
    float expressions of ``bleu_corpus``."""
    clipped = [0] * (max_n + 1)
    total = [0] * (max_n + 1)
    cand_len = ref_len = 0
    for pred, refs in zip(predictions, references):
        cand_len += len(pred)
        ref_len += min((len(r) for r in refs), key=lambda r: (abs(r - len(pred)), r))
        for n in range(1, max_n + 1):
            counts = brute_ngram_counts(pred, n)
            ref_counts = [brute_ngram_counts(r, n) for r in refs]
            clipped[n] += sum(
                min(c, max(rc.get(g, 0) for rc in ref_counts)) for g, c in counts.items()
            )
            total[n] += sum(counts.values())
    if cand_len == 0:
        return 0.0
    log_sum = 0.0
    for n in range(1, max_n + 1):
        if clipped[n] == 0 or total[n] == 0:
            return 0.0
        log_sum += math.log(clipped[n] / total[n])
    brevity = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    return brevity * math.exp(log_sum / max_n)


_BLEU_CORPORA = st.lists(
    st.tuples(
        st.lists(st.sampled_from(["a", "b", "c"]), max_size=8),
        st.lists(st.lists(st.sampled_from(["a", "b", "c"]), max_size=8), min_size=1, max_size=3),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=300)
@given(_BLEU_CORPORA)
def test_bleu_1_and_4_from_one_count_equal_separate_calls(corpus):
    preds = [p for p, _ in corpus]
    refs = [r for _, r in corpus]
    counts = _bleu_counts(preds, refs, 4)
    assert _bleu_from_counts(counts, 1) == bleu_corpus(preds, refs, 1) == _per_order_bleu(preds, refs, 1)
    assert _bleu_from_counts(counts, 4) == bleu_corpus(preds, refs, 4) == _per_order_bleu(preds, refs, 4)
    for max_n in (2, 3):
        assert bleu_corpus(preds, refs, max_n) == _per_order_bleu(preds, refs, max_n)


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


@pytest.mark.parametrize(
    "cand, ref",
    [
        # "a": 3 in the longer sequence, 1 in the shorter, so 2 may be skipped.
        (["a", "b", "a", "a", "c"], ["c", "a", "b"]),
        # "a": 1 in the longer sequence, 3 in the shorter, so none may be.
        (["b", "a", "c", "d", "e"], ["a", "a", "b", "a"]),
        # Equal counts of every shared token, around tokens only one side has.
        (["a", "x", "b", "a", "y", "b"], ["b", "a", "b", "a"]),
        # A permutation: no spare anywhere.
        (["a", "b", "a", "c", "b"], ["b", "a", "c", "b", "a"]),
        # "a": 4 against 2, so a path that skips the first two must match
        # both later ones.
        (["a", "a", "b", "a", "c", "a"], ["b", "a", "c", "a"]),
    ],
    ids=["commoner-in-candidate", "commoner-in-reference", "equal-counts", "permutation", "spare-runs-out"],
)
def test_align_exact_skip_rule_cases_equal_exhaustive(cand, ref):
    want = exhaustive_meteor_alignment(cand, ref)
    assert align_exact(cand, ref) == want
    assert align_exact(ref, cand) == want


def _nodes_that_cannot_reach_a_maximum_matching(cand, ref):
    """The ``search`` nodes of ``align_exact(cand, ref)`` from which no
    maximum matching can be completed, found from each node's arguments:
    per token, the matches so far plus the fewer of its steps left and its
    free reference positions."""
    longer, shorter = (ref, cand) if len(ref) > len(cand) else (cand, ref)
    steps = [tok for tok in longer if tok in shorter]
    target = sum(min(steps.count(t), shorter.count(t)) for t in set(steps))
    dead = []

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name == "search" and code.co_filename == align_exact.__code__.co_filename:
            i, used, matched = frame.f_locals["i"], frame.f_locals["used"], frame.f_locals["matched"]
            possible = sum(
                min(steps[i:].count(t), sum(1 for j, r in enumerate(shorter) if r == t and not used >> j & 1))
                for t in set(steps[i:])
            )
            if matched + possible < target:
                dead.append((i, used, matched))

    sys.setprofile(profile)
    try:
        align_exact(cand, ref)
    finally:
        sys.setprofile(None)
    return dead


def test_align_exact_searches_no_node_that_cannot_reach_a_maximum_matching():
    # The skip rule's promise: every path ends at a maximum matching.  A
    # looser rule still gives the right result here, only slower, so this
    # checks the nodes themselves.
    pairs = [
        (["a", "a", "b", "a", "c", "a"], ["b", "a", "c", "a"]),
        (["a", "b", "a", "c"] * 3, ["c", "b", "a"] * 3),
        *skewed_vocabulary_pairs(random.Random(31), 40),
    ]
    for cand, ref in pairs:
        for a, b in ((cand, ref), (ref, cand)):
            assert _nodes_that_cannot_reach_a_maximum_matching(a, b) == [], (a, b)


def test_align_exact_leaves_no_cyclic_garbage():
    # Stage processes run with the cyclic collector paused, so the search's
    # self-referencing closure and its memo must be freed without it.
    cases = [
        (["a", "b", "a", "c"] * 4, ["c", "b", "a"] * 5),  # branch and bound runs
        (["a", "b"] * 10, ["a", "b"] * 10),  # the first descent is already optimal
    ]
    gc.collect()
    gc.disable()
    try:
        for cand, ref in cases:
            align_exact(cand, ref)
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_align_exact_equals_exhaustive_on_skewed_vocabulary_pairs():
    longer = {"candidate": 0, "reference": 0}
    for cand, ref in skewed_vocabulary_pairs(random.Random(1010), 300):
        if len(cand) != len(ref):
            longer["candidate" if len(cand) > len(ref) else "reference"] += 1
        want = exhaustive_meteor_alignment(cand, ref)
        assert align_exact(cand, ref) == want, (cand, ref)
        assert align_exact(ref, cand) == want, (cand, ref)
    assert min(longer.values()) >= 50


def test_align_exact_passes_filler_the_reference_lacks():
    # Each filler run is longer than the default recursion limit, so the
    # search may not spend a frame on each position the reference lacks.
    check_meteor_filler(random.Random(26), 200)


# Pairs of 15-30 tokens over 3-5 words, beyond the exhaustive oracle's reach
# (about 12 tokens), with the (matches, chunks) ``align_exact`` gave when the
# table was drawn.  Regenerate only for a deliberate change of the results:
# ``PYTHONPATH=src python tests/test_metrics.py``.  Which pairs resolve in
# time depends on the host, so a new draw may hold other pairs.
PINNED_PAIRS_PATH = Path(__file__).parent / "data" / "meteor_pairs.json"


def test_align_exact_keeps_the_pinned_results_beyond_the_oracle():
    pairs = json.loads(PINNED_PAIRS_PATH.read_text(encoding="utf-8"))
    assert len(pairs) == 40
    for pair in pairs:
        cand, ref = pair["candidate"].split(), pair["reference"].split()
        want = (pair["matches"], pair["chunks"])
        assert align_exact(cand, ref) == want, pair
        assert align_exact(ref, cand) == want, pair


@settings(max_examples=300)
@given(token_lists, st.lists(token_lists, min_size=1, max_size=4))
def test_best_meteor_equals_max_over_references(cand, refs):
    assert _best_meteor(cand, refs) == max(meteor_exact(cand, r) for r in refs)


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


@pytest.mark.parametrize("score", [exact_match, token_f1])
def test_em_and_f1_need_a_reference(score):
    with pytest.raises(EvalError, match=f"{score.__name__} needs at least one reference"):
        score("France", [])


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
        assert report[name] == pytest.approx(GOLDEN[name], abs=1e-9), name
    assert report["n_questions"] == 3
    assert rounded(report, 2, scale=100.0) == GOLDEN["percent"]


def test_evaluate_qa_perfect_predictions():
    examples = [
        QaExample("q1", "b", "x", ("the cat sat", "other")),
        QaExample("q2", "b", "y", ("france",)),
    ]
    predictions = {"q1": "the cat sat", "q2": "france"}
    report = evaluate_qa(predictions, examples)
    assert report["em"] == 1.0
    assert report["f1"] == 1.0
    assert report["rouge_l"] == 1.0
    assert report["bleu1"] == pytest.approx(1.0)


def test_evaluate_qa_empty_predictions_score_zero():
    examples = [QaExample("q1", "b", "x", ("france",))]
    report = evaluate_qa({"q1": ""}, examples)
    assert report["em"] == 0.0
    assert report["f1"] == 0.0
    assert report["rouge_l"] == 0.0
    assert report["bleu1"] == 0.0


_ANSWER_TEXT = st.lists(
    st.sampled_from(["a", "The", "ash", "Bay", "bay", "cob.", "«dun»", "¿elm?", "’", "—"]),
    max_size=6,
).map(" ".join)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_ANSWER_TEXT, st.lists(_ANSWER_TEXT, min_size=1, max_size=3)), min_size=1, max_size=5))
def test_evaluate_qa_equals_the_per_question_metrics(cases):
    examples, predictions = [], {}
    for i, (prediction, answers) in enumerate(cases):
        examples.append(QaExample(f"q{i}", "b", "x", tuple(answers) + ("ash",)))
        predictions[f"q{i}"] = prediction
    report = evaluate_qa(predictions, examples)
    preds = [normalize_eval(predictions[q.question_id]).tokens for q in examples]
    refs = [[normalize_eval(a).tokens for a in q.answers] for q in examples]
    meteor = rouge = em = f1 = 0.0
    for q, pred, rs in zip(examples, preds, refs):
        meteor += max(meteor_exact(pred, r) for r in rs)
        rouge += max(rouge_l(pred, r) for r in rs)
        em += float(exact_match(predictions[q.question_id], q.answers))
        f1 += token_f1(predictions[q.question_id], q.answers)
    n = len(examples)
    assert (report["meteor"], report["rouge_l"], report["em"], report["f1"]) == (meteor / n, rouge / n, em / n, f1 / n)
    assert (report["bleu1"], report["bleu4"]) == (bleu_corpus(preds, refs, 1), bleu_corpus(preds, refs, 4))


def test_evaluate_qa_reports_missing_and_extra_ids():
    _, examples = _golden_fixture()
    with pytest.raises(EvalError) as err:
        evaluate_qa({"q1": "x", "q9": "y"}, examples)
    message = str(err.value)
    assert "q2" in message and "q3" in message and "q9" in message


def draw_pinned_pairs() -> list[dict]:
    """The pairs for ``PINNED_PAIRS_PATH``, drawn from ``random.Random(26)``;
    a pair ``align_exact`` does not resolve within 50 ms is redrawn, so that
    the test stays fast."""

    class Slow(Exception):
        pass

    def interrupt(signum, frame):
        raise Slow

    rng = random.Random(26)
    pairs = []
    previous = signal.signal(signal.SIGALRM, interrupt)
    try:
        while len(pairs) < 40:
            words = ["a", "b", "c", "d", "e"][: rng.randint(3, 5)]
            cand = rng.choices(words, k=rng.randint(15, 30))
            ref = rng.choices(words, k=rng.randint(15, 30))
            signal.setitimer(signal.ITIMER_REAL, 0.05)
            try:
                matches, chunks = align_exact(cand, ref)
            except Slow:
                continue
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            pairs.append(
                {"candidate": " ".join(cand), "reference": " ".join(ref), "matches": matches, "chunks": chunks}
            )
    finally:
        signal.signal(signal.SIGALRM, previous)
    return pairs


if __name__ == "__main__":
    lines = ",\n".join(json.dumps(pair) for pair in draw_pinned_pairs())
    PINNED_PAIRS_PATH.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
