"""Independent brute-force reference implementations and the cross-check suite.

Each oracle re-derives its answer from first principles and shares no code
with the production path: LCS by subsequence enumeration, spans by exhaustive
window sweep, BM25 from raw counts, and the Meteor alignment by trying every
injective assignment.  ``run_oracle_suite`` compares production output
against the oracles on seeded random instances and shrinks any mismatch to a
small reproducer.
"""

from __future__ import annotations

import itertools
import random
import time
from typing import Callable, Sequence

from . import bm25, metrics, spans
from .corpus import Paragraph
from .records import record
from .text import TokenSeq

FLOAT_TOL = 1e-12


# ---------------------------------------------------------------------------
# Oracles


def _is_subsequence(sub: Sequence[str], seq: Sequence[str]) -> bool:
    pos = 0
    for tok in seq:
        if pos < len(sub) and sub[pos] == tok:
            pos += 1
    return pos == len(sub)


def enumerated_lcs(a: Sequence[str], b: Sequence[str]) -> int:
    """LCS length by enumerating subsequences of the shorter side, longest
    first.  Exponential; intended for inputs of at most ~12 tokens."""
    short, long_ = (a, b) if len(a) <= len(b) else (b, a)
    for length in range(len(short), 0, -1):
        for combo in itertools.combinations(range(len(short)), length):
            if _is_subsequence([short[i] for i in combo], long_):
                return length
    return 0


def _recursive_lcs(a: Sequence[str], b: Sequence[str]) -> int:
    """Top-down memoized LCS, used inside other oracles."""
    memo: dict[tuple[int, int], int] = {}

    def go(i: int, j: int) -> int:
        if i == len(a) or j == len(b):
            return 0
        key = (i, j)
        if key in memo:
            return memo[key]
        if a[i] == b[j]:
            result = 1 + go(i + 1, j + 1)
        else:
            result = max(go(i + 1, j), go(i, j + 1))
        memo[key] = result
        return result

    return go(0, 0)


def brute_rouge_l(cand: Sequence[str], ref: Sequence[str], beta: float = 1.2) -> float:
    if not cand or not ref:
        return 0.0
    lcs = _recursive_lcs(cand, ref)
    if lcs == 0:
        return 0.0
    p = lcs / len(cand)
    r = lcs / len(ref)
    return (1 + beta**2) * p * r / (r + beta**2 * p)


def brute_best_span(
    para: Sequence[str], answer: Sequence[str]
) -> tuple[int, int, float]:
    """Sweep every same-length window, keeping the first best."""
    width = min(len(answer), len(para))
    if width == 0:
        return 0, 0, 0.0
    best = (0, width, -1.0)
    for start in range(len(para) - width + 1):
        value = brute_rouge_l(para[start : start + width], answer)
        if value > best[2]:
            best = (start, start + width, value)
    return best


def brute_bm25_score(
    docs: Sequence[Sequence[str]],
    query: Sequence[str],
    target: int,
    k1: float,
    b: float,
) -> float:
    """Recompute one BM25 score from raw token lists, no index."""
    import math

    n = len(docs)
    avgdl = sum(len(d) for d in docs) / n
    doc = docs[target]
    dl = len(doc)
    total = 0.0
    for term in sorted(set(query)):
        tf = sum(1 for tok in doc if tok == term)
        if tf == 0:
            continue
        df = sum(1 for d in docs if term in d)
        idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
        total += idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl))
    return total


def exhaustive_meteor_alignment(
    cand: Sequence[str], ref: Sequence[str]
) -> tuple[int, int]:
    """Try every injective same-token assignment; among those with the
    maximum number of matches, return the minimum chunk count."""
    from collections import Counter

    target = sum(min(c, Counter(ref)[t]) for t, c in Counter(cand).items())
    if target == 0:
        return 0, 0

    n = len(cand)
    used = [False] * len(ref)
    assignment: list[int | None] = [None] * n
    best_chunks = [n + 1]

    suffix: list[Counter] = [Counter() for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1].copy()
        suffix[i][cand[i]] += 1

    def upper_bound(i: int) -> int:
        possible = 0
        for tok, cnt in suffix[i].items():
            free = sum(
                1 for j, r in enumerate(ref) if r == tok and not used[j]
            )
            possible += min(cnt, free)
        return possible

    def count_chunks() -> int:
        chunks = 0
        prev: int | None = None
        for j in assignment:
            if j is None:
                prev = None
                continue
            if prev is None or j != prev + 1:
                chunks += 1
            prev = j
        return chunks

    def rec(i: int, matched: int) -> None:
        if matched + upper_bound(i) < target:
            return
        if i == n:
            if matched == target:
                chunks = count_chunks()
                if chunks < best_chunks[0]:
                    best_chunks[0] = chunks
            return
        for j, tok in enumerate(ref):
            if tok == cand[i] and not used[j]:
                used[j] = True
                assignment[i] = j
                rec(i + 1, matched + 1)
                used[j] = False
                assignment[i] = None
        rec(i + 1, matched)

    rec(0, 0)
    return target, best_chunks[0]


def brute_ngram_counts(tokens: Sequence[str], n: int) -> dict[tuple[str, ...], int]:
    counts: dict[tuple[str, ...], int] = {}
    for i in range(len(tokens)):
        gram = tuple(tokens[i : i + n])
        if len(gram) == n:
            counts[gram] = counts.get(gram, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# Suite


@record
class OracleCheck:
    name: str
    cases: int
    mismatches: int
    first_failure: str | None = None

    @property
    def passed(self) -> bool:
        return self.mismatches == 0


@record
class OracleReport:
    checks: list[OracleCheck]
    elapsed_s: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "ok" if c.passed else "MISMATCH"
            line = f"{c.name}: {c.cases} cases, {c.mismatches} mismatches [{status}]"
            if c.first_failure:
                line += f" smallest failure: {c.first_failure}"
            out.append(line)
        out.append(f"elapsed: {self.elapsed_s:.2f}s")
        return out


def _shrink_pair(
    a: list[str], b: list[str], still_fails: Callable[[list[str], list[str]], bool]
) -> tuple[list[str], list[str]]:
    """Greedily drop tokens while the mismatch persists."""
    changed = True
    while changed:
        changed = False
        for which in (0, 1):
            seq = a if which == 0 else b
            for i in range(len(seq)):
                trial = seq[:i] + seq[i + 1 :]
                pair = (trial, b) if which == 0 else (a, trial)
                if still_fails(list(pair[0]), list(pair[1])):
                    if which == 0:
                        a = trial
                    else:
                        b = trial
                    changed = True
                    break
            if changed:
                break
    return a, b


_ALPHABET = ("a", "b", "c")


def _rand_tokens(rng: random.Random, max_len: int, alphabet=_ALPHABET) -> list[str]:
    return [rng.choice(alphabet) for _ in range(rng.randint(0, max_len))]


def _check_lcs(rng: random.Random, cases: int) -> OracleCheck:
    mismatches, first_failure = 0, None

    def fails(a: list[str], b: list[str]) -> bool:
        return metrics.lcs_length(a, b) != enumerated_lcs(a, b)

    for _ in range(cases):
        a = _rand_tokens(rng, 12)
        b = _rand_tokens(rng, 12)
        if fails(a, b):
            mismatches += 1
            if first_failure is None:
                a, b = _shrink_pair(a, b, fails)
                first_failure = f"a={a} b={b}"
    return OracleCheck("lcs vs subsequence enumeration", cases, mismatches, first_failure)


_SPAN_VOCAB = ("red", "blue", "green", "gold", "grey", "teal")


def _check_best_span(rng: random.Random, cases: int) -> OracleCheck:
    mismatches, first_failure = 0, None

    def fails(para: list[str], answer: list[str]) -> bool:
        if not para or not answer:
            return False
        got = spans.best_span_tokens(para, answer)
        want = brute_best_span(para, answer)
        return got[:2] != want[:2] or abs(got[2] - want[2]) > FLOAT_TOL

    for _ in range(cases):
        para = [rng.choice(_SPAN_VOCAB) for _ in range(rng.randint(1, 60))]
        answer = [rng.choice(_SPAN_VOCAB) for _ in range(rng.randint(1, 6))]
        if fails(para, answer):
            mismatches += 1
            if first_failure is None:
                para, answer = _shrink_pair(para, answer, fails)
                first_failure = f"para={para} answer={answer}"
    return OracleCheck("best_span vs window sweep", cases, mismatches, first_failure)


_BM25_VOCAB = ("ash", "birch", "cedar", "elm", "fir", "oak", "pine", "yew")


def _check_bm25(rng: random.Random, cases: int) -> OracleCheck:
    mismatches, first_failure = 0, None
    for case in range(cases):
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
        got = bm25.score(index, query, target)
        want = brute_bm25_score(docs, query, target, k1, b)
        if abs(got - want) > FLOAT_TOL:
            mismatches += 1
            if first_failure is None:
                first_failure = (
                    f"docs={docs} query={query} target={target} "
                    f"k1={k1} b={b} got={got!r} want={want!r}"
                )
    return OracleCheck("bm25 score vs raw-count recomputation", cases, mismatches, first_failure)


def _check_meteor(rng: random.Random, cases: int) -> OracleCheck:
    mismatches, first_failure = 0, None

    def fails(cand: list[str], ref: list[str]) -> bool:
        return metrics.align_exact(cand, ref) != exhaustive_meteor_alignment(cand, ref)

    for _ in range(cases):
        cand = _rand_tokens(rng, 8)
        ref = _rand_tokens(rng, 8)
        if fails(cand, ref):
            mismatches += 1
            if first_failure is None:
                cand, ref = _shrink_pair(cand, ref, fails)
                first_failure = f"cand={cand} ref={ref}"
    return OracleCheck("meteor alignment vs exhaustive search", cases, mismatches, first_failure)


def run_oracle_suite(
    seed: int = 2024,
    lcs_cases: int = 10000,
    span_cases: int = 1000,
    bm25_cases: int = 500,
    meteor_cases: int = 500,
) -> OracleReport:
    """Compare production implementations against the brute-force oracles on
    seeded random instances."""
    started = time.perf_counter()
    rng = random.Random(seed)
    checks = [
        _check_lcs(rng, lcs_cases),
        _check_best_span(rng, span_cases),
        _check_bm25(rng, bm25_cases),
        _check_meteor(rng, meteor_cases),
    ]
    return OracleReport(checks, time.perf_counter() - started)
