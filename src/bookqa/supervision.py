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
from dataclasses import dataclass
from typing import Sequence

from .bm25 import Bm25Index, oracle_query, question_query, retrieve
from .corpus import (
    POOL_UNION_MINUS_INTERSECTION,
    POOL_WHOLE_BOOK,
    Paragraph,
    QaExample,
)
from .errors import ConfigError, CorpusError
from .spans import best_span_tokens
from .text import normalize_eval, normalize_eval_tokens

LABEL_POSITIVE = "positive"
LABEL_NEGATIVE = "negative"
PROVENANCE_INTERSECTION = "intersection"
PROVENANCE_COMPLEMENT = "complement"


@dataclass(frozen=True)
class SupervisionConfig:
    k_retrieve: int = 32
    pos_threshold: float = 0.7
    neg_threshold: float = 0.4
    negatives_per_positive: int = 1
    negative_pool: str = POOL_UNION_MINUS_INTERSECTION
    rng_seed: int = 0

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

    def to_dict(self) -> dict:
        return {
            "k_retrieve": self.k_retrieve,
            "pos_threshold": self.pos_threshold,
            "neg_threshold": self.neg_threshold,
            "negatives_per_positive": self.negatives_per_positive,
            "negative_pool": self.negative_pool,
            "rng_seed": self.rng_seed,
        }


@dataclass(frozen=True)
class SupervisionPair:
    question_id: str
    book_id: str
    para_index: int
    label: str
    filter_score: float
    provenance: str

    def to_json_line(self) -> str:
        return (
            f'{{"question_id": {json.dumps(self.question_id)}, '
            f'"book_id": {json.dumps(self.book_id)}, '
            f'"para_index": {self.para_index}, "label": {json.dumps(self.label)}, '
            f'"filter_score": {self.filter_score:.6f}, '
            f'"provenance": {json.dumps(self.provenance)}}}'
        )


def generate_pairs(
    index: Bm25Index,
    paragraphs: Sequence[Paragraph],
    example: QaExample,
    cfg: SupervisionConfig,
) -> list[SupervisionPair]:
    """Supervision pairs for one question; an empty list is a legal outcome.

    The negative sampler draws from a per-question RNG stream derived from
    ``(rng_seed, question_id)``, so output is independent of scheduling.
    """
    if index.book_id != example.book_id:
        raise CorpusError(
            f"index is for book {index.book_id!r}, question references {example.book_id!r}"
        )
    by_index = {p.para_index: p for p in paragraphs if p.book_id == example.book_id}

    retrieved_q = retrieve(index, question_query(example), cfg.k_retrieve)
    retrieved_qa = retrieve(index, oracle_query(example), cfg.k_retrieve)
    set_q = set(retrieved_q.para_indexes())
    set_qa = set(retrieved_qa.para_indexes())
    intersection = set_q & set_qa

    answer_tokens = [t for t in (normalize_eval(a).tokens for a in example.answers) if t]
    score_cache: dict[int, float] = {}

    def filter_score(para_index: int) -> float:
        if para_index not in score_cache:
            paragraph = by_index.get(para_index)
            if paragraph is None:
                raise CorpusError(
                    f"retrieved para_index {para_index} missing from paragraphs"
                )
            norm = normalize_eval_tokens(paragraph.tokens.tokens)
            score_cache[para_index] = max(
                (best_span_tokens(norm, ans)[2] for ans in answer_tokens), default=0.0
            )
        return score_cache[para_index]

    positives = [p for p in sorted(intersection) if filter_score(p) > cfg.pos_threshold]

    if cfg.negative_pool == POOL_WHOLE_BOOK:
        pool = sorted(set(by_index) - intersection)
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


@dataclass(frozen=True)
class SupervisionStats:
    n_pairs: int
    n_positive: int
    n_negative: int
    n_questions: int
    balance: float  # positive fraction of emitted pairs
    dead_zone_rate: float  # integrity check; must be 0 for valid output
    positives_per_book: dict[str, int]

    def to_dict(self) -> dict:
        return {
            "n_pairs": self.n_pairs,
            "n_positive": self.n_positive,
            "n_negative": self.n_negative,
            "n_questions": self.n_questions,
            "balance": round(self.balance, 6),
            "dead_zone_rate": round(self.dead_zone_rate, 6),
            "positives_per_book": dict(sorted(self.positives_per_book.items())),
        }


def supervision_stats(
    pairs: Sequence[SupervisionPair],
    pos_threshold: float = 0.7,
    neg_threshold: float = 0.4,
) -> SupervisionStats:
    if not pairs:
        return SupervisionStats(0, 0, 0, 0, 0.0, 0.0, {})
    n_pos = sum(1 for p in pairs if p.label == LABEL_POSITIVE)
    dead = sum(1 for p in pairs if neg_threshold <= p.filter_score <= pos_threshold)
    per_book: dict[str, int] = {}
    for p in pairs:
        if p.label == LABEL_POSITIVE:
            per_book[p.book_id] = per_book.get(p.book_id, 0) + 1
    return SupervisionStats(
        n_pairs=len(pairs),
        n_positive=n_pos,
        n_negative=len(pairs) - n_pos,
        n_questions=len({p.question_id for p in pairs}),
        balance=n_pos / len(pairs),
        dead_zone_rate=dead / len(pairs),
        positives_per_book=per_book,
    )
