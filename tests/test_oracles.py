"""The brute-force references, and the seeded checks of the functions the
stages run against them (acceptance criterion 1 runs these checks at full
size).

Each check draws its instances from the ``random.Random`` it is given, calls
production through its module, so a patched function is the one checked, and
fails with the first instance that disagrees, printed as drawn.
"""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from bookqa import bm25, metrics, spans
from bookqa.corpus import Paragraph
from bookqa.oracles import (
    brute_best_span,
    brute_bm25_score,
    brute_ngram_counts,
    brute_rouge_l,
    enumerated_lcs,
    exhaustive_meteor_alignment,
)
from bookqa.text import TokenSeq

SRC = Path(__file__).resolve().parents[1] / "src"

FLOAT_TOL = 1e-12
_ALPHABET = ("a", "b", "c")
_SPAN_VOCAB = ("red", "blue", "green", "gold", "grey", "teal")
_BM25_VOCAB = ("ash", "birch", "cedar", "elm", "fir", "oak", "pine", "yew")
# The most LCS cells (windows x width x answer length) the brute-force sweep
# may visit on one drawn instance: it bounds the paragraph's windows, so
# that 20,000 instances take about a minute.
_SWEEP_CELLS = 20_000
# Tokens outside ``_ALPHABET``, each run longer than Python's default
# recursion limit of 1,000 frames.
_FILLER_BEFORE = [f"f{i}" for i in range(1100)]
_FILLER_AFTER = [f"g{i}" for i in range(1100)]
# Pairs shaped like the shared-vocab reader set: a Zipf-weighted vocabulary
# of 4-6 words and lengths 6-12.  The exhaustive oracle enumerates every
# maximum matching, so pairs sharing more than this many equal-token pairs
# are redrawn to keep it to seconds.
_SKEWED_VOCAB = ("ash", "bay", "cob", "dun", "elm", "fen")
_MAX_MATCH_PAIRS = 30


def _rand_tokens(rng, max_len):
    return [rng.choice(_ALPHABET) for _ in range(rng.randint(0, max_len))]


def check_lcs(rng, cases):
    """``metrics.lcs_length`` against subsequence enumeration."""
    for _ in range(cases):
        a = _rand_tokens(rng, 12)
        b = _rand_tokens(rng, 12)
        got, want = metrics.lcs_length(a, b), enumerated_lcs(a, b)
        assert got == want, f"lcs_length(a={a}, b={b}) = {got}, want {want}"


def check_best_span(rng, cases):
    """``spans.best_span_tokens`` against the exhaustive window sweep."""
    for _ in range(cases):
        para = [rng.choice(_SPAN_VOCAB) for _ in range(rng.randint(1, 60))]
        answer = [rng.choice(_SPAN_VOCAB) for _ in range(rng.randint(1, 6))]
        got, want = spans.best_span_tokens(para, answer), brute_best_span(para, answer)
        assert got[:2] == want[:2] and abs(got[2] - want[2]) <= FLOAT_TOL, (
            f"best_span_tokens(para={para}, answer={answer}) = {got}, want {want}"
        )


def check_best_span_field_widths(rng, cases):
    """``spans.best_span_tokens`` against the exhaustive window sweep, case
    ``i`` with an answer whose packed field is ``i % 13 + 1`` bytes wide.

    A field holds an answer of ``a`` tokens in ``a // 8 + 1`` bytes, so the
    13 widths span answers of 1 to 100 tokens.  Each case draws a vocabulary
    of 2 to 50 types and a paragraph of 0 to 300 tokens, shorter than the
    answer included, with at most as many windows as keep the sweep within
    ``_SWEEP_CELLS``.  CI runs it on 20,000 cases.
    """
    for i in range(cases):
        nbytes = i % 13 + 1
        a = rng.randint(max(1, 8 * nbytes - 8), min(100, 8 * nbytes - 1))
        vocab = [f"w{k}" for k in range(rng.randint(2, 50))]
        windows = max(1, _SWEEP_CELLS // (a * a))
        para = [rng.choice(vocab) for _ in range(rng.randint(0, min(300, a - 1 + windows)))]
        answer = [rng.choice(vocab) for _ in range(a)]
        got, want = spans.best_span_tokens(para, answer), brute_best_span(para, answer)
        assert got[:2] == want[:2] and abs(got[2] - want[2]) <= FLOAT_TOL, (
            f"best_span_tokens(para={para}, answer={answer}) = {got}, want {want}"
        )


def check_bm25(rng, cases):
    """``bm25.accumulate_scores``, the scoring every stage runs, against BM25
    recomputed from raw token counts."""
    for _ in range(cases):
        n_docs = rng.randint(2, 6)
        docs = [
            [rng.choice(_BM25_VOCAB) for _ in range(rng.randint(3, 30))]
            for _ in range(n_docs)
        ]
        query = [rng.choice(_BM25_VOCAB) for _ in range(rng.randint(1, 6))]
        target = rng.randrange(n_docs)
        k1 = rng.choice((0.8, 1.2, 1.5))
        b = rng.choice((0.3, 0.75, 1.0))
        paragraphs = [
            Paragraph("x", i, TokenSeq(tuple(doc))) for i, doc in enumerate(docs)
        ]
        index = bm25.build_index(paragraphs, k1=k1, b=b)
        got = bm25.accumulate_scores(index, query).get(target, 0.0)
        want = brute_bm25_score(docs, query, target, k1, b)
        assert abs(got - want) <= FLOAT_TOL, (
            f"accumulate_scores: docs={docs} query={query} target={target} "
            f"k1={k1} b={b} got={got!r} want={want!r}"
        )


def check_meteor(rng, cases):
    """``metrics.align_exact`` against the exhaustive assignment search."""
    for _ in range(cases):
        cand = _rand_tokens(rng, 8)
        ref = _rand_tokens(rng, 8)
        got, want = metrics.align_exact(cand, ref), exhaustive_meteor_alignment(cand, ref)
        assert got == want, f"align_exact(cand={cand}, ref={ref}) = {got}, want {want}"


def skewed_vocabulary_pairs(rng, cases):
    """``cases`` (candidate, reference) pairs shaped like the shared-vocab
    reader set: ``1/rank`` weights over the first 4-6 words of
    ``_SKEWED_VOCAB``, 6-12 tokens a side, and at most ``_MAX_MATCH_PAIRS``
    equal-token pairs."""
    drawn = 0
    while drawn < cases:
        words = _SKEWED_VOCAB[: rng.randint(4, 6)]
        weights = [1 / rank for rank in range(1, len(words) + 1)]
        cand = rng.choices(words, weights, k=rng.randint(6, 12))
        ref = rng.choices(words, weights, k=rng.randint(6, 12))
        if sum(x == y for x in cand for y in ref) > _MAX_MATCH_PAIRS:
            continue
        drawn += 1
        yield cand, ref


def check_meteor_skewed(rng, cases):
    """``metrics.align_exact`` against the exhaustive assignment search on
    ``skewed_vocabulary_pairs``, in both argument orders."""
    for cand, ref in skewed_vocabulary_pairs(rng, cases):
        want = exhaustive_meteor_alignment(cand, ref)
        for a, b in ((cand, ref), (ref, cand)):
            got = metrics.align_exact(a, b)
            assert got == want, f"align_exact(cand={a}, ref={b}) = {got}, want {want}"


def check_meteor_filler(rng, cases):
    """``metrics.align_exact`` keeps its result when tokens the reference
    lacks come before and after the candidate: they change no adjacency."""
    for _ in range(cases):
        cand = _rand_tokens(rng, 8)
        ref = _rand_tokens(rng, 8)
        got = metrics.align_exact(_FILLER_BEFORE + cand + _FILLER_AFTER, ref)
        want = metrics.align_exact(cand, ref)
        assert got == want, f"align_exact(filler + cand={cand} + filler, ref={ref}) = {got}, want {want}"


def run_oracle_checks(seed, lcs_cases, span_cases, bm25_cases, meteor_cases):
    """The four checks in order on one ``random.Random(seed)``."""
    rng = random.Random(seed)
    check_lcs(rng, lcs_cases)
    check_best_span(rng, span_cases)
    check_bm25(rng, bm25_cases)
    check_meteor(rng, meteor_cases)


def test_enumerated_lcs_known_values():
    assert enumerated_lcs(["a", "b", "c"], ["b", "d", "c"]) == 2
    assert enumerated_lcs([], ["a"]) == 0
    assert enumerated_lcs(["a"] * 5, ["a"] * 3) == 3


def test_brute_rouge_matches_closed_form():
    assert brute_rouge_l(["the", "cat", "sat"], ["the", "cat"]) == pytest.approx(
        0.8299, abs=5e-5
    )
    assert brute_rouge_l([], ["x"]) == 0.0


def test_brute_best_span_earliest_tie():
    assert brute_best_span(["x", "a", "b", "x", "a", "b"], ["a", "b"]) == (1, 3, 1.0)
    assert brute_best_span(["x", "y"], ["q", "r"])[2] == 0.0


def test_brute_bm25_hand_value():
    docs = [["cat", "dog"], ["owl", "elk"]]
    assert brute_bm25_score(docs, ["cat"], 0, 1.2, 0.75) == pytest.approx(
        math.log(2), abs=1e-12
    )


def test_exhaustive_meteor_known_cases():
    assert exhaustive_meteor_alignment(["the", "cat"], ["the", "cat"]) == (2, 1)
    assert exhaustive_meteor_alignment(["b", "a"], ["a", "b"]) == (2, 2)
    assert exhaustive_meteor_alignment(["x"], ["y"]) == (0, 0)
    assert exhaustive_meteor_alignment(["a", "b"], ["a", "b", "a"]) == (2, 1)


def test_brute_ngram_counts():
    assert brute_ngram_counts(["a", "b", "a", "b"], 2) == {
        ("a", "b"): 2,
        ("b", "a"): 1,
    }
    assert brute_ngram_counts(["a"], 2) == {}


def test_suite_passes_at_reduced_sizes():
    run_oracle_checks(seed=5, lcs_cases=300, span_cases=60, bm25_cases=40, meteor_cases=60)


def test_best_span_passes_every_field_width_at_reduced_size():
    check_best_span_field_widths(random.Random(5), 13 * 20)


@pytest.mark.parametrize(
    "module, name, wrong, check",
    [
        pytest.param(
            metrics, "lcs_length", lambda a, b: min(len(a), len(b)), check_lcs,
            id="lcs_length",
        ),
        pytest.param(
            spans, "best_span_tokens",
            lambda para, answer: (0, min(len(para), len(answer)), 0.0), check_best_span,
            id="best_span_tokens",
        ),
        pytest.param(
            spans, "best_span_tokens",
            lambda para, answer: (0, min(len(para), len(answer)), 0.0),
            check_best_span_field_widths,
            id="best_span_tokens-field-widths",
        ),
        pytest.param(
            bm25, "accumulate_scores", lambda index, query: {}, check_bm25,
            id="accumulate_scores",
        ),
        pytest.param(
            metrics, "align_exact", lambda cand, ref: (0, 0), check_meteor,
            id="align_exact",
        ),
        pytest.param(
            metrics, "align_exact", lambda cand, ref: (0, len(cand)), check_meteor_filler,
            id="align_exact-filler",
        ),
        pytest.param(
            metrics, "align_exact", lambda cand, ref: (0, 0), check_meteor_skewed,
            id="align_exact-skewed",
        ),
    ],
)
def test_each_check_detects_an_injected_bug(monkeypatch, module, name, wrong, check):
    monkeypatch.setattr(module, name, wrong)
    with pytest.raises(AssertionError, match=name):
        check(random.Random(5), 50)


def test_importing_the_references_loads_no_other_bookqa_module():
    """The references share no code with what they check: in a fresh
    interpreter, ``import bookqa.oracles`` loads only the package and itself."""
    probe = (
        "import sys, bookqa.oracles; "
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'bookqa')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.split() == ["bookqa", "bookqa.oracles"]


def test_production_matches_oracles_on_adversarial_repeats():
    cand = ["a", "a", "b", "a", "b", "b"]
    ref = ["b", "a", "a", "b", "b", "a"]
    assert metrics.align_exact(cand, ref) == exhaustive_meteor_alignment(cand, ref)
    assert metrics.lcs_length(cand, ref) == enumerated_lcs(cand, ref)
