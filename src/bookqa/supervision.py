"""Distant supervision for passage rankers.

Positive training pairs are paragraphs retrieved by both weak BM25 modes
(question-only and question+answer) whose best-span Rouge-L against any
reference answer clears the upper threshold; negatives are sampled from the
configured complement pool and kept only below the lower threshold.  Nothing
is emitted from the dead zone in between, and both thresholds are strict.
"""

from __future__ import annotations

import json
import random
import sys
from collections import Counter
from typing import Sequence

from .bm25 import Bm25Index, load_indexes, question_query, retrieve, with_answers
from .corpus import (
    DEFAULT_K_RETRIEVE,
    DEFAULT_NEG_THRESHOLD,
    DEFAULT_NEGATIVE_POOL,
    DEFAULT_NEGATIVE_SEED,
    DEFAULT_NEGATIVES_PER_POSITIVE,
    DEFAULT_POS_THRESHOLD,
    POOL_UNION_MINUS_INTERSECTION,
    POOL_WHOLE_BOOK,
    Paragraph,
    QaExample,
    load_paragraphs,
    load_qa,
    release_tokens,
    require_book_coverage,
)
from .errors import ConfigError
from .fileio import json_line, map_grouped, stage_output, write_lines
from .records import record
from .spans import AnswerCoverage, answer_tokens

LABEL_POSITIVE = "positive"
LABEL_NEGATIVE = "negative"
PROVENANCE_INTERSECTION = "intersection"
PROVENANCE_COMPLEMENT = "complement"


@record
class SupervisionConfig:
    k_retrieve: int = DEFAULT_K_RETRIEVE
    pos_threshold: float = DEFAULT_POS_THRESHOLD
    neg_threshold: float = DEFAULT_NEG_THRESHOLD
    negatives_per_positive: int = DEFAULT_NEGATIVES_PER_POSITIVE
    negative_pool: str = DEFAULT_NEGATIVE_POOL
    rng_seed: int = DEFAULT_NEGATIVE_SEED

    def __post_init__(self) -> None:
        if not 0.0 <= self.neg_threshold < self.pos_threshold <= 1.0:
            raise ConfigError(
                "thresholds must satisfy 0 <= neg_threshold < pos_threshold <= 1"
            )
        if self.k_retrieve < 1:
            raise ConfigError("k_retrieve must be >= 1")
        if self.negatives_per_positive < 0:
            raise ConfigError("negatives_per_positive must be >= 0")
        if self.negative_pool not in (POOL_UNION_MINUS_INTERSECTION, POOL_WHOLE_BOOK):
            raise ConfigError(f"unknown negative_pool {self.negative_pool!r}")


@record
class SupervisionPair:
    question_id: str
    book_id: str
    para_index: int
    label: str
    filter_score: float
    provenance: str

    def to_json_line(self) -> str:
        return json_line({**vars(self), "filter_score": float(self.filter_score)})  # fields in order


def generate_pairs(
    index: Bm25Index,
    paragraphs: Sequence[Paragraph],
    example: QaExample,
    cfg: SupervisionConfig,
) -> list[SupervisionPair]:
    """Supervision pairs for one question; an empty list is a legal outcome.

    ``index`` and ``paragraphs`` are the question's book's, and the caller
    has checked that the index covers exactly the paragraphs, a list dense
    from 0 (``corpus.require_book_coverage``), so a paragraph is found by
    its index.  The negative sampler draws from a per-question RNG stream
    derived from ``(rng_seed, question_id)``, so output is independent of
    scheduling.  The question and each answer are tokenized once.
    """
    question, answers = question_query(example), answer_tokens(example.answers)
    retrieved_q = retrieve(index, question, cfg.k_retrieve)
    retrieved_qa = retrieve(index, with_answers(question, answers), cfg.k_retrieve)
    set_q = set(retrieved_q.para_indexes())
    set_qa = set(retrieved_qa.para_indexes())
    intersection = set_q & set_qa

    filter_score = AnswerCoverage(paragraphs, answers).rouge

    positives = [p for p in sorted(intersection) if filter_score(p) > cfg.pos_threshold]

    if cfg.negative_pool == POOL_WHOLE_BOOK:
        pool = [p for p in range(len(paragraphs)) if p not in intersection]
    else:
        pool = sorted((set_q | set_qa) - intersection)
    rng = random.Random(f"{cfg.rng_seed}:{example.question_id}")
    rng.shuffle(pool)

    quota = cfg.negatives_per_positive * len(positives)
    negatives: list[int] = []
    for para_index in pool:
        if len(negatives) >= quota:
            break
        if filter_score(para_index) < cfg.neg_threshold:
            negatives.append(para_index)

    pairs = [
        SupervisionPair(
            example.question_id,
            example.book_id,
            p,
            LABEL_POSITIVE,
            filter_score(p),
            PROVENANCE_INTERSECTION,
        )
        for p in positives
    ]
    pairs.extend(
        SupervisionPair(
            example.question_id,
            example.book_id,
            p,
            LABEL_NEGATIVE,
            filter_score(p),
            PROVENANCE_COMPLEMENT,
        )
        for p in negatives
    )
    return pairs


def supervision_stats(
    pairs: Sequence[SupervisionPair],
    pos_threshold: float = DEFAULT_POS_THRESHOLD,
    neg_threshold: float = DEFAULT_NEG_THRESHOLD,
) -> dict:
    """``supervise``'s report of its pairs, as it prints it on stderr."""
    n = len(pairs)
    positives = [p for p in pairs if p.label == LABEL_POSITIVE]
    dead = sum(1 for p in pairs if neg_threshold <= p.filter_score <= pos_threshold)
    return {
        "n_pairs": n,
        "n_positive": len(positives),
        "n_negative": n - len(positives),
        "n_questions": len({p.question_id for p in pairs}),
        # Shares of the emitted pairs, 0.0 when there are none.  The dead
        # zone's is an integrity check: it must be 0 for valid output.
        "balance": round(len(positives) / n, 6) if n else 0.0,
        "dead_zone_rate": round(dead / n, 6) if n else 0.0,
        "positives_per_book": dict(sorted(Counter(p.book_id for p in positives).items())),
    }


# ---------------------------------------------------------------------------
# the supervise subcommand (dispatched by ``cli.main``)


def _cmd_supervise(args) -> int:
    # Config is validated before any file work starts.
    cfg = SupervisionConfig(
        k_retrieve=args.k_retrieve,
        pos_threshold=args.pos_threshold,
        neg_threshold=args.neg_threshold,
        negatives_per_positive=args.negatives_per_positive,
        negative_pool=args.negative_pool,
        rng_seed=args.rng_seed,
    )
    indexes = load_indexes(args.index)
    grouped_paras = load_paragraphs(args.paragraphs)
    qa = load_qa(args.qa)
    require_book_coverage(indexes, qa, grouped_paras)

    def pairs(q):
        book = q.book_id
        return generate_pairs(indexes[book], grouped_paras[book], q, cfg)

    def release(book):
        release_tokens(grouped_paras[book])

    per_question = map_grouped(pairs, qa, [q.book_id for q in qa], args.jobs, release)
    all_pairs = [p for question_pairs in per_question for p in question_pairs]
    with stage_output(args, args.out, [args.index, args.paragraphs, args.qa]):
        write_lines(args.out, (p.to_json_line() for p in all_pairs))
    stats = supervision_stats(all_pairs, cfg.pos_threshold, cfg.neg_threshold)
    print(json.dumps(stats, sort_keys=True), file=sys.stderr)
    return 0
