"""Answer evaluation: Bleu-1/4, Meteor (exact-match stage), Rouge-L, EM, F1.

Hypotheses and references are lowercased with punctuation-only tokens removed
before the overlap metrics; EM and token-F1 additionally strip punctuation
characters and articles (SQuAD-style).  Bleu is corpus-level with
multi-reference clipping and no smoothing; Meteor, Rouge-L, EM and F1 take
the max over references per question and are macro-averaged.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from itertools import chain
from typing import Mapping, Sequence

from .corpus import QaExample, load_qa
from .errors import EvalError
from .fileio import iter_jsonl, require_field, rounded, stage_output, write_lines
from .spans import position_masks, rouge_from_lcs
from .text import normalize_eval, normalize_squad


def lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Longest common subsequence length by the bit-parallel recurrence
    (Allison & Dix 1986; Hyyro 2004): one pass over the shorter side, a few
    big-int operations per token on masks over the longer.  Bit ``j`` of
    ``v`` is cleared where the LCS row steps up at column ``j``."""
    if len(b) < len(a):
        a, b = b, a
    if not a:
        return 0
    masks = position_masks(b)
    full = (1 << len(b)) - 1
    v = full
    for tok in a:
        mask = masks.get(tok)
        if mask:
            u = v & mask
            v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l(candidate: Sequence[str], reference: Sequence[str]) -> float:
    """LCS-based F-measure with recall weighted by ``spans.ROUGE_BETA``."""
    if not candidate or not reference:
        return 0.0
    lcs = lcs_length(candidate, reference)
    return rouge_from_lcs(lcs, len(candidate), len(reference))


def _ngram_counts(tokens: Sequence[str], max_n: int) -> Counter:
    """Counts of the n-grams of ``tokens`` for every n = 1..max_n, keyed by
    the n-gram tuple (so its length is its n)."""
    return Counter(
        chain.from_iterable(zip(*(tokens[k:] for k in range(n))) for n in range(1, max_n + 1))
    )


def _closest_ref_length(cand_len: int, ref_lens: Sequence[int]) -> int:
    # Ties resolve to the shorter reference.
    return min(ref_lens, key=lambda r: (abs(r - cand_len), r))


def _bleu_counts(
    predictions: Sequence[Sequence[str]],
    references: Sequence[Sequence[Sequence[str]]],
    max_n: int,
) -> tuple[list[int], list[int], int, int]:
    """Clipped and total n-gram counts for n = 1..max_n (indexed by n), and
    the candidate and closest-reference lengths, summed over the corpus.
    Bleu-k for any k <= max_n is computed from these alone."""
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
        ref_counts = [_ngram_counts(ref, max_n) for ref in refs]
        for gram, cnt in _ngram_counts(pred, max_n).items():
            # Clip to the most any one reference holds.
            most = max([counts.get(gram, 0) for counts in ref_counts])
            clipped[len(gram)] += cnt if cnt < most else most
        for n in range(1, min(max_n, len(pred)) + 1):
            total[n] += len(pred) - n + 1
    return clipped, total, cand_len, ref_len


def _bleu_from_counts(counts: tuple[list[int], list[int], int, int], max_n: int) -> float:
    clipped, total, cand_len, ref_len = counts
    if cand_len == 0:
        return 0.0
    log_sum = 0.0
    for n in range(1, max_n + 1):
        if clipped[n] == 0 or total[n] == 0:
            return 0.0
        log_sum += math.log(clipped[n] / total[n])
    brevity = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    return brevity * math.exp(log_sum / max_n)


def bleu_corpus(
    predictions: Sequence[Sequence[str]],
    references: Sequence[Sequence[Sequence[str]]],
    max_n: int,
) -> float:
    """Corpus-level Bleu: geometric mean of modified n-gram precisions for
    n = 1..max_n times the closest-reference-length brevity penalty.  No
    smoothing: any zero precision numerator gives 0."""
    return _bleu_from_counts(_bleu_counts(predictions, references, max_n), max_n)


def align_exact(candidate: Sequence[str], reference: Sequence[str]) -> tuple[int, int]:
    """Exact-match unigram alignment: maximize matches, then minimize chunks.

    A chunk is a maximal run of matched positions, adjacent in both sequences
    and in the same order.  Returns ``(matches, chunks)``.

    Chunk minimization contains minimum common string partition, so no exact
    polynomial algorithm exists; this is a fail-soft branch-and-bound with a
    transposition table, ordered by longest common run; its first descent is
    the greedy extension-first alignment.  It runs over the candidate
    positions whose token the reference holds, in order: the others only
    end the chunk in progress.  A position is left unmatched only while its
    token has an occurrence to spare, so every path it takes ends at a
    maximum matching.  One call on an Intel Xeon with 2 vCPUs, Python
    3.11.7: 15 us for an 8- against a 10-token answer, 5-7 ms for a
    31-token sentence against its shuffle, 0.08-0.55 s for 60 tokens drawn
    from a 15-word reference, 0.01-0.81 s for two 24-token sequences over 3
    words (ranges over five seeded draws); long pairs over one tiny, heavily
    repeated vocabulary approach the exponential worst case.
    """
    # Matches and chunks are symmetric in the two sequences, so keep the
    # bitmasks over the shorter one.
    if len(reference) > len(candidate):
        candidate, reference = reference, candidate
    positions: dict[str, list[int]] = {}
    masks: dict[str, int] = {}
    for j, tok in enumerate(reference):
        if tok in masks:
            positions[tok].append(j)
            masks[tok] |= 1 << j
        else:
            positions[tok] = [j]
            masks[tok] = 1 << j
    # The search steps through the candidate positions that hold a reference
    # token, in order.
    shared = [(i, tok) for i, tok in enumerate(candidate) if tok in masks]
    if not shared:
        return 0, 0

    # step[i], for step i at candidate position ``pos`` with token ``tok``:
    # - run: the length of the common run starting at (step i, ref j), for
    #   each j that holds ``tok``;
    # - order: those j, longest run first, so good alignments surface early
    #   (``reverse`` keeps the sort stable: equal runs stay in reference
    #   order);
    # - capacity: the longest run available anywhere from step i onward, an
    #   optimistic per-chunk capacity for the remaining matches;
    # - runs_on: whether step i + 1 is at ``pos + 1``, so that a chunk can
    #   run on from step i to it;
    # - mask and slack, the skip rule: a maximum matching matches exactly
    #   min(c, r) of a token's c candidate and r reference occurrences, so
    #   it skips at most c - min(c, r) of the token's steps.  Step i may be
    #   skipped only while the token's free reference positions are fewer
    #   than its steps from i on, that is while
    #   ``(used & mask).bit_count() > slack``, ``slack`` being r less those
    #   steps.  Where it may not, a free position is left for it, so every
    #   path ends at ``target`` matches, one per step whose slack is not
    #   negative, and no node needs a feasibility check.
    step: list[tuple[dict[int, int], list[int], int, bool, int, int]] = []
    slacks = {tok: len(js) for tok, js in positions.items()}
    target = capacity = 0
    next_pos, next_run = -1, {}
    for pos, tok in reversed(shared):
        runs_on = pos + 1 == next_pos
        ahead = next_run if runs_on else {}
        run = {j: ahead.get(j + 1, 0) + 1 for j in positions[tok]}
        capacity = max(capacity, max(run.values()))
        slack = slacks[tok] = slacks[tok] - 1
        target += slack >= 0
        order = sorted(run, key=run.__getitem__, reverse=True)
        step.append((run, order, capacity, runs_on, masks[tok], slack))
        next_pos, next_run = pos, run
    step.reverse()

    # A maximum matching never needs more chunks than matches, so every
    # value below INF is exact.
    INF = target + 1

    # Transposition table: key -> (budget searched under, result).  A result
    # below its budget is the exact minimum; otherwise it certifies
    # "no completion cheaper than the budget".
    memo: dict[tuple[int, int, int], tuple[int, int]] = {}

    def search(i: int, used: int, prev_ref: int, matched: int, budget: int) -> int:
        """Min chunks to complete a maximum matching from this state; exact
        when the returned value is < budget (fail-soft otherwise)."""
        if matched == target:
            return 0
        run, order, capacity, runs_on, mask, slack = step[i]
        # The run extending the previous match's chunk, or 0 if there is none.
        extend_ref = prev_ref + 1 if prev_ref >= 0 else -1
        extend_run = run.get(extend_ref, 0)
        if extend_run and used >> extend_ref & 1:
            extend_run = 0
        remaining = target - matched
        if extend_run:
            free_now = remaining - extend_run
            floor = -(-free_now // capacity) if free_now > 0 else 0
        else:
            floor = -(-remaining // capacity)
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
        # A match at step i can be extended at step i + 1 only if it is the
        # next position.
        if extend_run:
            value = search(
                i + 1, used | (1 << extend_ref), extend_ref if runs_on else -1, matched + 1, budget
            )
            budget = min(budget, value)
        if floor < budget:
            for j in order:
                if j == extend_ref or used >> j & 1:
                    continue
                sub = 1 + search(
                    i + 1, used | (1 << j), j if runs_on else -1, matched + 1, budget - 1
                )
                if sub < value:
                    value = sub
                    budget = min(budget, value)
                if floor >= budget:
                    break
        if floor < budget and (used & mask).bit_count() > slack:
            sub = search(i + 1, used, -1, matched, budget)
            if sub < value:
                value = sub
        memo[key] = (original_budget, value)
        return value

    # ``search`` refers to itself through its closure, a cycle that holds its
    # memo; stage processes run with the cyclic collector paused (see
    # ``cli.main``), so it is broken here by hand.
    try:
        return target, search(0, 0, -1, 0, INF)
    finally:
        del search


def _fmean(matches: int, cand_len: int, ref_len: int) -> float:
    """Harmonic mean of unigram precision and recall, weighted 9:1 toward
    recall."""
    precision = matches / cand_len
    recall = matches / ref_len
    return 10.0 * precision * recall / (recall + 9.0 * precision)


def meteor_exact(candidate: Sequence[str], reference: Sequence[str]) -> float:
    """Meteor with the exact-match stage only: ``_fmean`` times a
    fragmentation penalty of 0.5*(chunks/matches)^3."""
    if not candidate or not reference:
        return 0.0
    matches, chunks = align_exact(candidate, reference)
    if matches == 0:
        return 0.0
    penalty = 0.5 * (chunks / matches) ** 3
    return _fmean(matches, len(candidate), len(reference)) * (1.0 - penalty)


def _best_meteor(candidate: Sequence[str], references: Sequence[Sequence[str]]) -> float:
    """``max(meteor_exact(candidate, r) for r in references)``, without
    aligning a reference that cannot raise the maximum.

    Exact: the penalty factor lies in [0.5, 1), so in floating point too a
    reference's Meteor is at most its ``_fmean``, whose matches are the
    aligned matches.  A reference whose ``_fmean`` is no more than the best
    so far is skipped."""
    best = 0.0
    cand_counts = None
    for ref in references:
        if best:
            if cand_counts is None:
                cand_counts = Counter(candidate)
            matches = sum((cand_counts & Counter(ref)).values())
            if not matches or _fmean(matches, len(candidate), len(ref)) <= best:
                continue
        value = meteor_exact(candidate, ref)
        if value > best:
            best = value
    return best


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


def evaluate_qa(
    predictions: Mapping[str, str], examples: Sequence[QaExample]
) -> dict:
    """Score a predictions map against gold examples: each metric's mean
    over the questions, keyed as ``eval-qa`` reports it, and ``n_questions``.

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
        meteor_sum += _best_meteor(pred, refs)
        rouge_sum += max(rouge_l(pred, r) for r in refs)
        # EM and F1 share one SQuAD normalization of every string.
        squad_pred = normalize_squad(raw).tokens
        squad_refs = [normalize_squad(a).tokens for a in q.answers]
        em_sum += float(squad_pred in squad_refs)
        f1_sum += max(_f1_single(squad_pred, r) for r in squad_refs)

    n = len(examples)
    # Bleu-1's counts are the n = 1 entries of Bleu-4's.
    bleu_counts = _bleu_counts(pred_tokens, ref_tokens, 4)
    return {
        "bleu1": _bleu_from_counts(bleu_counts, 1),
        "bleu4": _bleu_from_counts(bleu_counts, 4),
        "meteor": meteor_sum / n,
        "rouge_l": rouge_sum / n,
        "em": em_sum / n,
        "f1": f1_sum / n,
        "n_questions": n,
    }


# ---------------------------------------------------------------------------
# the eval-qa subcommand (dispatched by ``cli.main``)


def _load_predictions(path) -> dict[str, str]:
    predictions: dict[str, str] = {}
    for lineno, obj in iter_jsonl(path, EvalError):
        qid = require_field(obj, "question_id", path, lineno, str, EvalError)
        answer = require_field(obj, "answer", path, lineno, str, EvalError)
        if qid in predictions:
            raise EvalError(f"{path}: line {lineno}: duplicate prediction for {qid!r}")
        predictions[qid] = answer
    if not predictions:
        raise EvalError(f"{path}: no prediction records")
    return predictions


def _cmd_eval_qa(args) -> int:
    predictions = _load_predictions(args.predictions)
    qa = load_qa(args.qa)
    report = rounded(evaluate_qa(predictions, qa), 2, scale=100.0)  # in percent
    payload = json.dumps(report, sort_keys=True, indent=2)
    if args.out:
        with stage_output(args, args.out, [args.predictions, args.qa]):
            write_lines(args.out, [payload])
    print(payload)
    return 0
