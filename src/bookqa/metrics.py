"""Answer evaluation: Bleu-1/4, Meteor (exact-match stage), Rouge-L, EM, F1.

Hypotheses and references are lowercased with punctuation-only tokens removed
before the overlap metrics; EM and token-F1 additionally strip punctuation
characters and articles (SQuAD-style).  Bleu is corpus-level with
multi-reference clipping and no smoothing; Meteor, Rouge-L, EM and F1 take
the max over references per question and are macro-averaged.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .corpus import QaExample
from .errors import EvalError
from .text import normalize_eval, normalize_squad

ROUGE_BETA = 1.2


def position_masks(reference: Sequence[str]) -> dict[str, int]:
    """Map each token to a bitmask of its positions in ``reference``."""
    masks: dict[str, int] = {}
    for i, tok in enumerate(reference):
        masks[tok] = masks.get(tok, 0) | (1 << i)
    return masks


def lcs_with_masks(candidate: Sequence[str], masks: dict[str, int], ref_len: int) -> int:
    """LCS length of ``candidate`` against the reference of length
    ``ref_len`` whose ``position_masks`` are ``masks``.

    Bit-parallel recurrence (Allison & Dix 1986; Hyyro 2004): ``v`` holds
    the current row of the LCS table in difference form, bit ``j`` cleared
    where the row steps up by one at column ``j``, so the LCS is the number
    of cleared bits.  One pass over ``candidate`` costs O(|candidate|)
    big-int operations of ``ref_len`` bits.
    """
    full = (1 << ref_len) - 1
    v = full
    for tok in candidate:
        mask = masks.get(tok)
        if mask:
            u = v & mask
            v = ((v + u) | (v - u)) & full
    return ref_len - v.bit_count()


def lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Longest common subsequence length by the bit-parallel kernel: masks
    over the longer side, one pass over the shorter, so O(min(|a|, |b|))
    big-int operations of max(|a|, |b|) bits."""
    if len(b) < len(a):
        a, b = b, a
    if not a:
        return 0
    return lcs_with_masks(a, position_masks(b), len(b))


def rouge_from_lcs(lcs: int, cand_len: int, ref_len: int, beta: float) -> float:
    """Rouge-L F-measure from an LCS length and the two sequence lengths."""
    if lcs == 0:
        return 0.0
    precision = lcs / cand_len
    recall = lcs / ref_len
    beta_sq = beta * beta
    return (1.0 + beta_sq) * precision * recall / (recall + beta_sq * precision)


def rouge_l(
    candidate: Sequence[str], reference: Sequence[str], beta: float = ROUGE_BETA
) -> float:
    """LCS-based F-measure with recall weighted by ``beta``."""
    if not candidate or not reference:
        return 0.0
    lcs = lcs_length(candidate, reference)
    return rouge_from_lcs(lcs, len(candidate), len(reference), beta)


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _closest_ref_length(cand_len: int, ref_lens: Sequence[int]) -> int:
    # Ties resolve to the shorter reference.
    return min(ref_lens, key=lambda r: (abs(r - cand_len), r))


def bleu_corpus(
    predictions: Sequence[Sequence[str]],
    references: Sequence[Sequence[Sequence[str]]],
    max_n: int,
) -> float:
    """Corpus-level Bleu: geometric mean of modified n-gram precisions for
    n = 1..max_n times the closest-reference-length brevity penalty.  No
    smoothing: any zero precision numerator gives 0."""
    if max_n < 1:
        raise EvalError("max_n must be >= 1")
    if len(predictions) != len(references) or not predictions:
        raise EvalError("predictions and references must align and be non-empty")
    clipped = [0] * (max_n + 1)
    total = [0] * (max_n + 1)
    cand_len = 0
    ref_len = 0
    for pred, refs in zip(predictions, references):
        cand_len += len(pred)
        ref_len += _closest_ref_length(len(pred), [len(r) for r in refs])
        for n in range(1, max_n + 1):
            counts = _ngram_counts(pred, n)
            if not counts:
                continue
            max_ref: Counter = Counter()
            for ref in refs:
                for gram, cnt in _ngram_counts(ref, n).items():
                    if cnt > max_ref[gram]:
                        max_ref[gram] = cnt
            clipped[n] += sum(min(cnt, max_ref[gram]) for gram, cnt in counts.items())
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


def align_exact(candidate: Sequence[str], reference: Sequence[str]) -> tuple[int, int]:
    """Exact-match unigram alignment: maximize matches, then minimize chunks.

    A chunk is a maximal run of matched positions, adjacent in both sequences
    and in the same order.  Returns ``(matches, chunks)``.

    Chunk minimization contains minimum common string partition, so no exact
    polynomial algorithm exists; this is a fail-soft branch-and-bound with a
    transposition table, seeded by a greedy extension-first alignment and
    ordered by longest common run.  Natural-language inputs resolve in
    microseconds to milliseconds; only long pairs sharing one tiny, heavily
    repeated vocabulary approach the exponential worst case.
    """
    cand_counts = Counter(candidate)
    ref_counts = Counter(reference)
    target = sum(min(c, ref_counts[t]) for t, c in cand_counts.items())
    if target == 0:
        return 0, 0

    # Matches and chunks are symmetric in the two sequences, so keep the
    # bitmask over the shorter one.
    if len(reference) > len(candidate):
        candidate, reference = reference, candidate
    n, m = len(candidate), len(reference)
    positions_by_token: dict[str, list[int]] = {}
    for j, tok in enumerate(reference):
        positions_by_token.setdefault(tok, []).append(j)
    suffix_counts: list[Counter] = [Counter() for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        suffix_counts[i] = suffix_counts[i + 1].copy()
        suffix_counts[i][candidate[i]] += 1

    # run_len[i][j]: length of the common run starting at (candidate i, ref j);
    # branches are tried longest-run first so good alignments surface early.
    run_len = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        row, nxt = run_len[i], run_len[i + 1]
        tok = candidate[i]
        for j in range(m - 1, -1, -1):
            if reference[j] == tok:
                row[j] = nxt[j + 1] + 1
    branch_order = [
        sorted(positions_by_token.get(candidate[i], ()), key=lambda j: -run_len[i][j])
        for i in range(n)
    ]
    # Longest run available anywhere from candidate position i onward: an
    # optimistic per-chunk capacity for the remaining matches.
    best_run_from = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        best_run_from[i] = max(best_run_from[i + 1], max(run_len[i][:m], default=0))

    INF = target + 1

    def remaining_possible(i: int, used: int) -> int:
        possible = 0
        for tok, cnt in suffix_counts[i].items():
            free = sum(1 for j in positions_by_token.get(tok, ()) if not used >> j & 1)
            possible += min(cnt, free)
        return possible

    # Transposition table: key -> (budget searched under, result).  A result
    # below its budget is the exact minimum; otherwise it certifies
    # "no completion cheaper than the budget".
    memo: dict[tuple[int, int, int], tuple[int, int]] = {}

    def search(i: int, used: int, prev_ref: int, matched: int, budget: int) -> int:
        """Min chunks to complete a maximum matching from this state; exact
        when the returned value is < budget (fail-soft otherwise)."""
        if matched == target:
            return 0
        if i == n or matched + remaining_possible(i, used) < target:
            return INF
        extend_ref = prev_ref + 1 if prev_ref >= 0 else -1
        can_extend = (
            0 <= extend_ref < m
            and not used >> extend_ref & 1
            and reference[extend_ref] == candidate[i]
        )
        remaining = target - matched
        capacity = best_run_from[i]
        if can_extend:
            free_now = remaining - run_len[i][extend_ref]
            floor = -(-free_now // capacity) if free_now > 0 else 0
        else:
            floor = -(-remaining // capacity) if capacity else INF
        if floor >= budget:
            return floor
        key = (i, used, prev_ref)
        stored = memo.get(key)
        if stored is not None:
            searched_budget, value = stored
            if value < searched_budget or budget <= searched_budget:
                return value
        original_budget = budget
        value = INF
        if can_extend:
            value = search(i + 1, used | (1 << extend_ref), extend_ref, matched + 1, budget)
            budget = min(budget, value)
        if floor < budget:
            for j in branch_order[i]:
                if j == extend_ref or used >> j & 1:
                    continue
                sub = 1 + search(i + 1, used | (1 << j), j, matched + 1, budget - 1)
                if sub < value:
                    value = sub
                    budget = min(budget, value)
                if floor >= budget:
                    break
        if floor < budget:
            sub = search(i + 1, used, -1, matched, budget)
            if sub < value:
                value = sub
        memo[key] = (original_budget, value)
        return value

    def greedy_seed() -> int:
        """First feasible extension-first completion; an upper bound."""
        used = 0
        prev_ref = -1
        matched = 0
        chunks = 0
        for i in range(n):
            if matched == target:
                break
            extend_ref = prev_ref + 1 if prev_ref >= 0 else -1
            choices = []
            if (
                0 <= extend_ref < m
                and not used >> extend_ref & 1
                and reference[extend_ref] == candidate[i]
            ):
                choices.append((extend_ref, 0))
            choices.extend(
                (j, 1)
                for j in branch_order[i]
                if j != extend_ref and not used >> j & 1
            )
            taken = False
            for j, cost in choices:
                trial = used | (1 << j)
                if matched + 1 + remaining_possible(i + 1, trial) >= target:
                    used = trial
                    prev_ref = j
                    matched += 1
                    chunks += cost
                    taken = True
                    break
            if not taken:
                prev_ref = -1
        return chunks

    seed = greedy_seed()
    if seed <= 1:
        return target, seed
    refined = search(0, 0, -1, 0, seed)
    return target, min(seed, refined)


def meteor_exact(candidate: Sequence[str], reference: Sequence[str]) -> float:
    """Meteor with the exact-match stage only: harmonic mean weighted 9:1
    toward recall, times a fragmentation penalty of 0.5*(chunks/matches)^3."""
    if not candidate or not reference:
        return 0.0
    matches, chunks = align_exact(candidate, reference)
    if matches == 0:
        return 0.0
    precision = matches / len(candidate)
    recall = matches / len(reference)
    fmean = 10.0 * precision * recall / (recall + 9.0 * precision)
    penalty = 0.5 * (chunks / matches) ** 3
    return fmean * (1.0 - penalty)


def exact_match(prediction: str, references: Sequence[str]) -> bool:
    if not references:
        raise EvalError("exact_match needs at least one reference")
    pred = normalize_squad(prediction).tokens
    return any(pred == normalize_squad(ref).tokens for ref in references)


def _f1_single(pred_tokens: Sequence[str], ref_tokens: Sequence[str]) -> float:
    if not pred_tokens or not ref_tokens:
        # Agreement on emptiness counts as a perfect match.
        return float(list(pred_tokens) == list(ref_tokens))
    common = Counter(pred_tokens) & Counter(ref_tokens)
    overlap = sum(common.values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred_tokens)
    recall = overlap / len(ref_tokens)
    return 2.0 * precision * recall / (precision + recall)


def token_f1(prediction: str, references: Sequence[str]) -> float:
    """Bag-of-tokens F1 under SQuAD normalization, max over references."""
    if not references:
        raise EvalError("token_f1 needs at least one reference")
    pred = normalize_squad(prediction).tokens
    return max(_f1_single(pred, normalize_squad(ref).tokens) for ref in references)


@dataclass(frozen=True)
class MetricReport:
    bleu1: float
    bleu4: float
    meteor: float
    rouge_l: float
    em: float
    f1: float
    n_questions: int

    def __post_init__(self) -> None:
        for name in ("bleu1", "bleu4", "meteor", "rouge_l", "em", "f1"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} out of range: {value}")
        if self.em > self.f1:
            raise ValueError("em cannot exceed f1")

    def to_percent_dict(self) -> dict:
        out = {
            name: round(100.0 * getattr(self, name), 2)
            for name in ("bleu1", "bleu4", "meteor", "rouge_l", "em", "f1")
        }
        out["n_questions"] = self.n_questions
        return out


def evaluate_qa(
    predictions: Mapping[str, str], examples: Sequence[QaExample]
) -> MetricReport:
    """Score a predictions map against gold examples.

    Every gold question must have exactly one prediction; missing or extra
    ids abort with the offenders listed.
    """
    gold_ids = [q.question_id for q in examples]
    missing = sorted(set(gold_ids) - set(predictions))
    extra = sorted(set(predictions) - set(gold_ids))
    if missing or extra:
        parts = []
        if missing:
            parts.append(f"missing predictions for: {', '.join(missing[:10])}")
        if extra:
            parts.append(f"predictions for unknown ids: {', '.join(extra[:10])}")
        raise EvalError("; ".join(parts))
    if not examples:
        raise EvalError("no questions to evaluate")

    pred_tokens: list[tuple[str, ...]] = []
    ref_tokens: list[list[tuple[str, ...]]] = []
    meteor_sum = rouge_sum = em_sum = f1_sum = 0.0
    for q in examples:
        raw = predictions[q.question_id]
        pred = normalize_eval(raw).tokens
        refs = [normalize_eval(a).tokens for a in q.answers]
        pred_tokens.append(pred)
        ref_tokens.append(refs)
        meteor_sum += max(meteor_exact(pred, r) for r in refs)
        rouge_sum += max(rouge_l(pred, r) for r in refs)
        em_sum += float(exact_match(raw, q.answers))
        f1_sum += token_f1(raw, q.answers)

    n = len(examples)
    return MetricReport(
        bleu1=bleu_corpus(pred_tokens, ref_tokens, 1),
        bleu4=bleu_corpus(pred_tokens, ref_tokens, 4),
        meteor=meteor_sum / n,
        rouge_l=rouge_sum / n,
        em=em_sum / n,
        f1=f1_sum / n,
        n_questions=n,
    )
