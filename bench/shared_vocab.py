"""Seeded generator for the ``shared-vocab`` benchmark workload.

Why this workload exists: the ``synth`` corpus draws distractor text from a
vocabulary disjoint from every planted answer, so span search there finds
no overlap in almost every window and any pruning looks free.  Real books
reuse the same words everywhere.  This generator writes books, QA and
reader-like predictions whose paragraphs, questions, answers and predictions
all come from one small vocabulary, so span search, LCS and the Meteor
alignment do most of the work and tokenizing does little.

Properties it guarantees (the same seed always gives the same bytes):

* Shared, skewed vocabulary.  Every paragraph, answer and prediction token
  is drawn from ``VOCAB`` with Zipf weights ``1 / rank``, so nearly every
  span window shares tokens with the answer and the most frequent words
  repeat inside one window.
* Answers of 6 to 16 tokens.  Each question has two references: the answer
  and the answer without its first token.  The retrieval questions live in
  ``qa.jsonl``; ``eval-qa`` scores ``predictions.jsonl`` against a larger
  reader set, ``reader_qa.jsonl``, built the same way, so that the metric
  code has enough pairs to time.
* Planted answers.  Each question has a unique tag word planted at the
  start of one paragraph, so question-only retrieval finds that paragraph.
  In every book the tag is followed by the answer verbatim for
  ``PLANTS.count("verbatim")`` questions, by the answer with one token
  replaced for ``PLANTS.count("near")``, and by nothing for the rest.  So supervision yields positives (span Rouge-L above 0.7), span
  search takes its early exit on verbatim windows, and the unplanted
  questions are covered only by incidental overlap.
* Negatives occur.  ``QUIET_PARAS`` paragraphs of every book are written
  from the rare tail of the vocabulary only; their span Rouge-L against
  answers built from the frequent words stays below the 0.4 negative
  threshold.
* Reader-like predictions.  A prediction copies its reference
  (``PRED_EXACT``), edits it in one to four places (``PRED_EDITED``), or
  draws unrelated words from the vocabulary.
* Steady cost across seeds.  The seed only shuffles: every seed gets the
  same answer lengths (``LENGTHS``), plant kinds and number of quiet
  paragraphs, so the work a run does barely depends on the seed.
* Bounded Meteor tail.  Exact Meteor alignment is branch-and-bound and its
  cost explodes when a prediction and a reference repeat the same few
  words.  A prediction is redrawn (from the same seeded stream) until the
  number of token pairs it shares with each reference is at most
  ``MAX_MATCH_PAIRS``, so the slowest alignment stays within milliseconds
  and run-to-run times stay steady.

Usage: ``python3 bench/shared_vocab.py --seed N --out-dir DIR`` writes
``books.jsonl``, ``qa.jsonl``, ``reader_qa.jsonl`` and ``predictions.jsonl``
into ``DIR``.
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

VOCAB = (
    "ash", "bay", "cob", "dun", "elm", "fen", "gap", "hob", "ivy", "jib",
    "kin", "lot", "mew", "nib", "oak", "pod", "rue", "sod", "tor", "urn",
    "vat", "wen", "yew", "zed",
)
WEIGHTS = tuple(1.0 / (rank + 1) for rank in range(len(VOCAB)))
# The rarest words, used alone for the quiet paragraphs.
RARE = VOCAB[-8:]

BOOKS = 2
PARAS_PER_BOOK = 48
WIDTH = 40  # chunk width the benchmark passes to ``bookqa chunk``
ANSWER_LEN = (6, 16)
# One entry per question of a book, shuffled per book.
LENGTHS = (6, 8, 10, 12, 14, 16, 9, 13)
PLANTS = ("verbatim", "verbatim", "verbatim", "near", "near", "near", "none", "none")
QUESTIONS_PER_BOOK = len(LENGTHS)
QUIET_PARAS = 12
READER_QUESTIONS = 300
PRED_EXACT = 0.1
PRED_EDITED = 0.45
MAX_MATCH_PAIRS = 45
MAX_REDRAWS = 64


def sizes() -> dict:
    return {
        "books": BOOKS,
        "paras_per_book": PARAS_PER_BOOK,
        "questions_per_book": QUESTIONS_PER_BOOK,
        "width": WIDTH,
        "vocab": len(VOCAB),
        "answer_lengths": list(LENGTHS),
        "reader_questions": READER_QUESTIONS,
    }


def _words(rng: random.Random, n: int) -> list[str]:
    return rng.choices(VOCAB, weights=WEIGHTS, k=n)


def _match_pairs(a: list[str], b: list[str]) -> int:
    return sum(1 for x in a for y in b if x == y)


def _prediction(rng: random.Random, refs: list[list[str]]) -> list[str]:
    """A reader-like answer: the reference with a few edits, or unrelated
    words; redrawn until its alignment search space is bounded."""
    pred: list[str] = []
    for _ in range(MAX_REDRAWS):
        roll = rng.random()
        if roll < PRED_EXACT:
            pred = list(refs[0])
        elif roll < PRED_EXACT + PRED_EDITED:
            pred = list(refs[0])
            for _ in range(rng.randint(1, 4)):
                pos = rng.randrange(len(pred))
                if rng.random() < 0.5 and len(pred) > ANSWER_LEN[0]:
                    del pred[pos]
                else:
                    pred[pos] = _words(rng, 1)[0]
        else:
            pred = _words(rng, len(refs[0]))
        if all(_match_pairs(pred, r) <= MAX_MATCH_PAIRS for r in refs):
            return pred
    # Fall back to the rare tail, which shares few pairs with any reference.
    return rng.choices(RARE, k=ANSWER_LEN[0])


def _references(rng: random.Random, length: int) -> list[list[str]]:
    answer = _words(rng, length)
    return [answer, answer[1:]]


def generate(seed: int) -> dict[str, list[dict]]:
    """Return the records of every output file for one seed."""
    rng = random.Random(f"shared-vocab:{seed}")
    books, qa = [], []
    for b in range(BOOKS):
        book_id = f"book{b:03d}"
        quiet = set(rng.sample(range(PARAS_PER_BOOK), QUIET_PARAS))
        paras = [
            rng.choices(RARE, k=WIDTH) if p in quiet else _words(rng, WIDTH)
            for p in range(PARAS_PER_BOOK)
        ]
        loud = [p for p in range(PARAS_PER_BOOK) if p not in quiet]
        planted = rng.sample(loud, QUESTIONS_PER_BOOK)
        lengths = rng.sample(LENGTHS, len(LENGTHS))
        kinds = rng.sample(PLANTS, len(PLANTS))
        for j, para in enumerate(planted):
            tag = f"tag{b:02d}{j:02d}"
            refs = _references(rng, lengths[j])
            plant = list(refs[0]) if kinds[j] != "none" else []
            if kinds[j] == "near":
                plant[rng.randrange(len(plant))] = _words(rng, 1)[0]
            paras[para][: 1 + len(plant)] = [tag] + plant
            question = " ".join(["what", "did", tag] + _words(rng, 3))
            qa.append(
                {
                    "question_id": f"{book_id}-q{j:02d}",
                    "book_id": book_id,
                    "question": question,
                    "answers": [" ".join(r) for r in refs],
                }
            )
        text = " ".join(tok for para in paras for tok in para)
        books.append({"book_id": book_id, "title": f"Shared {b:03d}", "text": text})
    reader_qa, predictions = [], []
    for i in range(READER_QUESTIONS):
        qid = f"reader-q{i:04d}"
        refs = _references(rng, LENGTHS[i % len(LENGTHS)])
        reader_qa.append(
            {
                "question_id": qid,
                "book_id": books[i % BOOKS]["book_id"],
                "question": "what happened",
                "answers": [" ".join(r) for r in refs],
            }
        )
        predictions.append(
            {"question_id": qid, "answer": " ".join(_prediction(rng, refs))}
        )
    return {
        "books.jsonl": books,
        "qa.jsonl": qa,
        "reader_qa.jsonl": reader_qa,
        "predictions.jsonl": predictions,
    }


def write(seed: int, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, records in generate(seed).items():
        with open(out_dir / name, "w", encoding="utf-8", newline="\n") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()
    write(args.seed, Path(args.out_dir))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
