"""The LCS primitives that span search and Rouge-L share.

``spans`` scores a paragraph's windows and ``metrics`` scores an answer with
them, and each takes them from here, so that the stages that search spans
load no ``metrics`` and ``eval-qa`` loads no ``spans``."""

from __future__ import annotations

from typing import Sequence

ROUGE_BETA = 1.2


def position_masks(reference: Sequence[str]) -> dict[str, int]:
    """Map each token to a bitmask of its positions in ``reference``."""
    masks: dict[str, int] = {}
    for i, tok in enumerate(reference):
        masks[tok] = masks.get(tok, 0) | (1 << i)
    return masks


def rouge_from_lcs(lcs: int, cand_len: int, ref_len: int) -> float:
    """Rouge-L F-measure, recall weighted by ``ROUGE_BETA``, from an LCS
    length and the two sequence lengths."""
    if lcs == 0:
        return 0.0
    precision = lcs / cand_len
    recall = lcs / ref_len
    beta_sq = ROUGE_BETA * ROUGE_BETA
    return (1.0 + beta_sq) * precision * recall / (recall + beta_sq * precision)
