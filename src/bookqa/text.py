"""Rule-based tokenization and the two answer-normalization schemes.

The tokenizer splits on whitespace (``str.split``), peels leading/trailing
punctuation into single-character tokens, and detaches a fixed table of
English clitics ("don't" -> "do", "n't").  Tokens are plain strings, with no
character offsets.  It is deterministic and idempotent on its own
space-joined output, which is what lets paragraph text round-trip through
files losslessly.

Two normalizers are deliberately kept separate: ``normalize_eval`` feeds the
overlap metrics and BM25 indexing (lowercase, punctuation-only tokens
dropped, articles retained), while ``normalize_squad`` additionally strips
punctuation characters and articles and is used only by exact-match and
token-F1 scoring.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from typing import Iterable

_ARTICLE_RE = re.compile(r"\b(a|an|the)\b")

# ASCII symbols counted as punctuation even though Unicode files some of them
# under S* categories; mirrors the SQuAD v1.1 evaluation script.
_ASCII_PUNCT = frozenset("!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~")

_CLITIC_BASES = ("n't", "'s", "'re", "'ve", "'ll", "'d", "'m")
_CLITICS = tuple(
    variant
    for base in _CLITIC_BASES
    for variant in (base, base.replace("'", "’"))
)
_CLITIC_SET = frozenset(_CLITICS)


def is_punct_char(ch: str) -> bool:
    return ch in _ASCII_PUNCT or unicodedata.category(ch).startswith("P")


@dataclass(frozen=True)
class TokenSeq:
    """Immutable token sequence: no token is empty or holds whitespace."""

    tokens: tuple[str, ...]

    def __post_init__(self) -> None:
        # Passes in C over all tokens; the loop only names the bad one.  A
        # string splits into just itself iff it is not empty and holds no
        # whitespace (``str.split`` splits where ``\s`` matches).
        joined = "".join(self.tokens)
        if not all(self.tokens) or joined.split() != [joined]:
            for tok in self.tokens:
                if tok.split() != [tok]:
                    raise ValueError(f"invalid token: {tok!r}")

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)

    def __getitem__(self, i):
        return self.tokens[i]

    def text(self) -> str:
        """Space-joined surface form; re-tokenizing it yields the same tokens."""
        return " ".join(self.tokens)


class LazyTokenSeq(TokenSeq):
    """The ``tokenize`` result for ``source``, computed on first use of
    ``tokens``.

    It pickles as the text alone, so a worker that receives one tokenizes it
    there, and it compares equal to the eager ``TokenSeq`` with the same
    tokens.  Truth is answered from the text, without tokenizing: every
    whitespace-delimited chunk yields at least one token.
    """

    def __init__(self, source: str) -> None:
        object.__setattr__(self, "source", source)

    @property
    def tokens(self) -> tuple[str, ...]:
        tokens = self.__dict__.get("_tokens")
        if tokens is None:
            tokens = tokenize(self.source).tokens
            object.__setattr__(self, "_tokens", tokens)
        return tokens

    def __bool__(self) -> bool:
        return bool(self.source) and not self.source.isspace()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TokenSeq):
            return NotImplemented
        return self.tokens == other.tokens

    __hash__ = TokenSeq.__hash__

    def __reduce__(self):
        return LazyTokenSeq, (self.source,)


def _split_chunk(chunk: str, tokens: list) -> None:
    """Append the tokens of one whitespace-delimited chunk to ``tokens``."""
    # A bare clitic ("'s") comes from re-tokenizing our own output and
    # must stay whole, or idempotence breaks.
    if chunk.lower() in _CLITIC_SET:
        tokens.append(chunk)
        return
    lo, hi = 0, len(chunk)
    while lo < hi and is_punct_char(chunk[lo]):
        tokens.append(chunk[lo])
        lo += 1
    while hi > lo and is_punct_char(chunk[hi - 1]):
        hi -= 1
    if hi > lo:
        _split_clitics(chunk[lo:hi], tokens)
    tokens.extend(chunk[hi:])


def _split_clitics(core: str, tokens: list) -> None:
    low = core.lower()
    for clitic in _CLITICS:
        if low.endswith(clitic) and len(core) > len(clitic):
            cut = len(core) - len(clitic)
            # The head may end in punctuation ("x.'s"), so run it through
            # the full chunk pipeline again.
            _split_chunk(core[:cut], tokens)
            tokens.append(core[cut:])
            return
    tokens.append(core)


def tokenize(text: str) -> TokenSeq:
    """Split ``text`` into tokens."""
    # ``str.split`` splits where ``\s`` matches: both test ``str.isspace``.
    tokens: list[str] = []
    for chunk in text.split():
        # Fast path, exact: no alphanumeric character is punctuation, and
        # none lowercases to an apostrophe, so ``_split_chunk`` would emit
        # the chunk whole.
        if chunk.isalnum():
            tokens.append(chunk)
        else:
            _split_chunk(chunk, tokens)
    return TokenSeq(tuple(tokens))


def normalize_eval_tokens(tokens: Iterable[str]) -> list[str]:
    """Lowercase and drop tokens containing no alphanumeric character."""
    return [t.lower() for t in tokens if t.isalnum() or any(ch.isalnum() for ch in t)]


def normalize_eval(text: str) -> TokenSeq:
    """Tokenize then lowercase, dropping punctuation-only tokens."""
    return TokenSeq(tuple(normalize_eval_tokens(tokenize(text).tokens)))


def normalize_squad(text: str) -> TokenSeq:
    """SQuAD-style normalization: lowercase, strip punctuation characters,
    remove articles, collapse whitespace."""
    lowered = text.lower()
    no_punct = "".join(ch for ch in lowered if not is_punct_char(ch))
    no_articles = _ARTICLE_RE.sub(" ", no_punct)
    return TokenSeq(tuple(no_articles.split()))
