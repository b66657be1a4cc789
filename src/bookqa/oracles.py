"""Independent brute-force reference implementations.

Each reference re-derives its answer from first principles and imports no
``bookqa`` module: LCS by subsequence enumeration, spans by exhaustive window
sweep, BM25 from raw counts, and the Meteor alignment by trying every
injective assignment.  ``tests/test_oracles.py`` compares the functions the
stages run against them on seeded random instances.
"""

from __future__ import annotations

import itertools
from typing import Sequence


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


def brute_rouge_l(cand: Sequence[str], ref: Sequence[str]) -> float:
    if not cand or not ref:
        return 0.0
    lcs = _recursive_lcs(cand, ref)
    if lcs == 0:
        return 0.0
    p = lcs / len(cand)
    r = lcs / len(ref)
    beta_sq = 1.2**2  # recall weighted by beta = 1.2
    return (1 + beta_sq) * p * r / (r + beta_sq * p)


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
