"""Seeded synthetic corpus generator for desk-scale pipeline verification.

Every question gets a unique topic word and answer phrase planted inside one
known paragraph.  Distractor text is drawn from a closed vocabulary disjoint
from all planted content words, so retrieval and coverage assertions are
analytically forced:

  * the planted paragraph is the only one containing the answer words, hence
    the only paragraph with nonzero span coverage;
  * the question's topic word appears in the plant (and, for "hard"
    questions, in up to three decoys), so question-only retrieval always
    reaches the plant within the top 32;
  * a per-question context word is sprinkled into a few decoy paragraphs so
    the two retrieval modes produce genuinely different rankings.

With ``paraphrase`` enabled, one answer word is replaced in the paragraph by
its synonym from a fixed table while the reference answers keep the original,
so the plant covers the answer only partially (but still better than any
decoy).
"""

from __future__ import annotations

import json
import random
import sys
from itertools import islice, repeat
from pathlib import Path

from .corpus import DEFAULT_CHUNK_WIDTH, Book, QaExample, write_books, write_qa
from .errors import ConfigError
from .fileio import stage_output, write_lines
from .records import record
from .text import TokenSeq

QUESTION_TEMPLATE = "what is hidden near the {topic} by the {ctx}"

TOPICS = (
    "lighthouse", "orchard", "monastery", "viaduct", "quarry", "estuary",
    "foundry", "granary", "belfry", "causeway", "citadel", "vineyard",
    "windmill", "jetty", "abbey", "bazaar", "catacomb", "derrick",
    "esplanade", "fjord", "grotto", "hamlet", "isthmus", "knoll",
)

CONTEXTS = (
    "meadow", "ravine", "thicket", "plateau", "lagoon", "tundra", "prairie",
    "marsh", "dune", "glacier", "canyon", "delta", "heath", "mesa", "oasis",
    "steppe",
)

ENTITIES = (
    "falcon", "amber", "sleigh", "walrus", "bugle", "comet", "dagger",
    "ember", "flask", "gargoyle", "helmet", "ingot", "jackal", "kettle",
    "lantern", "marble", "nugget", "owl", "pennant", "quill", "raven",
    "saddle", "tassel", "urn", "violin", "wagon", "yoke", "zephyr",
    "anchor", "barrel", "chisel", "drum", "easel", "fiddle", "goblet",
    "hammock", "idol", "jar", "kite", "locket", "mask", "needle", "oar",
    "plume", "quiver", "rudder", "spear", "trumpet", "umbrella", "vase",
    "whistle", "xylophone", "yarn", "zither", "badge", "cloak", "dice",
    "emblem", "fan", "glove",
)

SYNONYMS = {
    "falcon": "hawk",
    "dagger": "knife",
    "lantern": "lamp",
    "raven": "crow",
    "barrel": "cask",
    "spear": "lance",
    "cloak": "mantle",
    "goblet": "chalice",
}

DISTRACTORS = (
    "stone", "river", "cloud", "forest", "mountain", "bridge", "garden",
    "tower", "valley", "island", "castle", "village", "road", "field",
    "harvest", "window", "door", "wall", "roof", "floor", "candle", "table",
    "chair", "mirror", "carpet", "cellar", "attic", "stable", "barn",
    "fence", "gate", "path", "trail", "stream", "pond", "hill", "cliff",
    "shore", "beach", "wave", "storm", "wind", "rain", "snow", "frost",
    "mist", "dawn", "dusk", "night", "morning", "winter", "summer",
    "autumn", "spring", "branch", "leaf", "root", "bark", "moss", "fern",
    "wolf", "bear", "deer", "fox", "hare", "crane", "heron", "trout",
    "salmon", "sparrow", "miller", "smith", "weaver", "shepherd", "sailor",
    "farmer", "hunter", "baker", "mason", "carpenter", "wheat", "barley",
    "oats", "clover", "apple", "pear", "plum", "cherry", "walnut",
    "chestnut", "copper", "iron", "silver", "tin", "lead", "coal", "clay",
    "sand", "gravel", "chalk", "rope", "basket", "bucket", "cart",
    "plough", "sickle", "scythe", "loom", "anvil", "forge", "journey",
    "letter", "story", "song", "dance", "feast", "market", "fair", "bell",
    "crown",
)

MAX_QUESTIONS_PER_BOOK = 12
MIN_WIDTH = 8


def repeated_choice(rng: random.Random, pool: tuple[str, ...], count: int) -> list[str]:
    """``[rng.choice(pool) for _ in range(count)]``, drawn in one pass of C
    iterators, leaving ``rng`` in the same state.

    ``choice(pool)`` is ``pool[r]`` for the first ``r = getrandbits(k)``
    below ``len(pool)``, where ``k = len(pool).bit_length()`` (Python
    3.10-3.13).  ``islice`` stops at the last accepted draw, so no draw is
    taken past it."""
    n = len(pool)
    below = filter(n.__gt__, map(rng.getrandbits, repeat(n.bit_length())))
    return list(map(pool.__getitem__, islice(below, count)))


@record
class SynthTruth:
    """Hidden ground truth for one planted question."""

    question_id: str
    book_id: str
    para_index: int
    topic: str
    hard: bool


def synth_corpus(
    seed: int,
    n_books: int = 3,
    paras_per_book: int = 12,
    questions_per_book: int = 4,
    paraphrase: bool = False,
    width: int = DEFAULT_CHUNK_WIDTH,
) -> tuple[list[Book], list[QaExample], list[SynthTruth]]:
    if min(n_books, paras_per_book, questions_per_book) < 1:
        raise ConfigError("all synth counts must be >= 1")
    if width < MIN_WIDTH:
        raise ConfigError(f"synth width must be >= {MIN_WIDTH}")
    if questions_per_book > min(paras_per_book, MAX_QUESTIONS_PER_BOOK):
        raise ConfigError(
            f"questions_per_book must be <= min(paras_per_book, {MAX_QUESTIONS_PER_BOOK})"
        )
    if paraphrase and questions_per_book > len(SYNONYMS):
        raise ConfigError(
            f"paraphrase mode supports at most {len(SYNONYMS)} questions per book"
        )

    rng = random.Random(seed)
    synonym_keys = tuple(sorted(SYNONYMS))
    books: list[Book] = []
    qa: list[QaExample] = []
    truths: list[SynthTruth] = []

    for b in range(n_books):
        book_id = f"book{b:03d}"
        tokens = repeated_choice(rng, DISTRACTORS, width * paras_per_book)
        topics = rng.sample(TOPICS, questions_per_book)
        contexts = rng.sample(CONTEXTS, questions_per_book)
        planted = rng.sample(range(paras_per_book), questions_per_book)
        decoys = [p for p in range(paras_per_book) if p not in planted]
        entity_pool = list(ENTITIES)

        for j in range(questions_per_book):
            if paraphrase:
                available_keys = [k for k in synonym_keys if k in entity_pool]
                first = rng.choice(available_keys)
                entity_pool.remove(first)
                # Extra words are never synonym keys, which later
                # questions need for their own first word.
                plain = [e for e in entity_pool if e not in SYNONYMS]
                rest = rng.sample(plain, rng.randint(2, 3))
                answer_words = [first] + rest
                planted_words = [SYNONYMS[first]] + rest
            else:
                answer_words = rng.sample(entity_pool, rng.randint(1, 3))
                planted_words = answer_words
            for word in answer_words:
                if word in entity_pool:
                    entity_pool.remove(word)

            topic, ctx = topics[j], contexts[j]
            question_id = f"{book_id}-q{j:02d}"
            answer = " ".join(answer_words)
            question = QUESTION_TEMPLATE.format(topic=topic, ctx=ctx)
            qa.append(
                QaExample(question_id, book_id, question, (answer, f"the {answer}"))
            )

            plant = [topic] + planted_words
            para = planted[j]
            pos = para * width + rng.randrange(width - len(plant) + 1)
            tokens[pos : pos + len(plant)] = plant

            hard = rng.random() < 0.25
            if hard and decoys:
                for p in rng.sample(decoys, min(3, len(decoys))):
                    tokens[p * width + rng.randrange(width)] = topic
            if decoys:
                for p in rng.sample(decoys, min(rng.randint(2, 6), len(decoys))):
                    tokens[p * width + rng.randrange(width)] = ctx
            truths.append(SynthTruth(question_id, book_id, para, topic, hard))

        # Every pool word is alphanumeric, which ``tokenize`` returns whole.
        books.append(Book(book_id, f"Synthetic Book {b:03d}", TokenSeq(tuple(tokens))))

    return books, qa, truths


# ---------------------------------------------------------------------------
# the synth subcommand (dispatched by ``cli.main``)


def _cmd_synth(args) -> int:
    books, qa, truths = synth_corpus(
        seed=args.seed,
        n_books=args.books,
        paras_per_book=args.paras_per_book,
        questions_per_book=args.questions_per_book,
        paraphrase=args.paraphrase,
        width=args.width,
    )
    truth_lines = (
        json.dumps({"question_id": t.question_id, "book_id": t.book_id,
                    "para_index": t.para_index, "topic": t.topic, "hard": t.hard})
        for t in truths
    )
    out_dir = Path(args.out_dir)  # recorded as a path: ``--out-dir c/`` is ``c``
    for name, write, items in [
        ("books.jsonl", write_books, books), ("qa.jsonl", write_qa, qa),
        ("truth.jsonl", write_lines, truth_lines),
    ]:
        with stage_output(args, out_dir / name, [], out_dir=str(out_dir)):
            write(out_dir / name, items)
    print(
        f"wrote {len(books)} books, {len(qa)} questions to {out_dir}", file=sys.stderr
    )
    return 0
