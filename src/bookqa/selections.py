"""A question's selections: ``retrieve``'s output record, the paragraphs it
ranked for one question, as ``retrieve`` writes it and ``span-oracle``
reads it.

It is a module of its own so that ``span-oracle``, which reads selections
and ranks nothing, does not load ``bm25``; ``bm25`` takes both names from
here."""

from __future__ import annotations

import math
import sys

from .errors import FormatError
from .fileio import json_line
from .records import record

# JSON puts no bound on integers, and float arithmetic on an int larger than
# this raises ``OverflowError``; a float outside it is infinite or NaN.
_FLOAT_MAX = sys.float_info.max


@record
class RetrievalResult:
    question_id: str
    ranked: tuple[tuple[int, float], ...]  # (para_index, score), score non-increasing
    mode: str

    def para_indexes(self) -> list[int]:
        return [p for p, _ in self.ranked]

    def to_json_line(self) -> str:
        ranked = [{"para_index": p, "score": float(s)} for p, s in self.ranked]
        return json_line({"question_id": self.question_id, "mode": self.mode, "ranked": ranked})


def retrieval_from_record(obj: dict) -> RetrievalResult:
    """The result a line of ``RetrievalResult.to_json_line`` describes.

    Nothing is converted: ``question_id`` and ``mode`` must be strings,
    every ``para_index`` an int and every ``score`` a finite int or float
    no larger than the largest float, and a bool is none of these.  As
    ``retrieve`` writes them, the paragraphs are distinct and the scores
    non-increasing.  A record that is not so fails with ``FormatError``."""
    try:
        question_id, mode = obj["question_id"], obj["mode"]
        ranked = tuple((e["para_index"], e["score"]) for e in obj["ranked"])
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad retrieval record: {exc}") from exc
    for field, value in (("question_id", question_id), ("mode", mode)):
        if type(value) is not str:
            raise FormatError(f"bad retrieval record: {field} {value!r} is not a string")
    seen: set[int] = set()
    previous: float = math.inf
    for p, s in ranked:
        if type(p) is not int:
            raise FormatError(f"bad retrieval record: para_index {p!r} is not an int")
        if type(s) is not int and type(s) is not float:
            raise FormatError(f"bad retrieval record: score {s!r} is not a number")
        if not -_FLOAT_MAX <= s <= _FLOAT_MAX:
            # Such an int would print hundreds of digits.
            why = "is an int too large for a float" if type(s) is int else f"{s!r} is not finite"
            raise FormatError(f"bad retrieval record: score {why}")
        if s > previous:
            raise FormatError(f"bad retrieval record: score {s!r} follows the lower {previous!r}")
        if p in seen:
            raise FormatError(f"bad retrieval record: para_index {p} is ranked twice")
        seen.add(p)
        previous = s
    return RetrievalResult(question_id, ranked, mode)
