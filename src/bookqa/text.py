"""Rule-based tokenization and the two answer-normalization schemes.

The tokenizer splits on whitespace, peels leading/trailing punctuation into
single-character tokens, and detaches a fixed table of English clitics
("don't" -> "do", "n't").  It is deterministic and idempotent on its own
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

_CHUNK_RE = re.compile(r"\S+")
_WS_RE = re.compile(r"\s")
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
    """Immutable token sequence, optionally with source character offsets."""

    tokens: tuple[str, ...]
    offsets: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self) -> None:
        # One pass in C over all tokens; the loop only names the bad one.
        if not all(self.tokens) or _WS_RE.search("".join(self.tokens)):
            for tok in self.tokens:
                if not tok or _WS_RE.search(tok):
                    raise ValueError(f"invalid token: {tok!r}")
        if self.offsets is not None:
            if len(self.offsets) != len(self.tokens):
                raise ValueError("offsets length does not match tokens")
            prev_end = 0
            for start, end in self.offsets:
                if start < prev_end or start >= end:
                    raise ValueError("offsets must be non-overlapping and increasing")
                prev_end = end

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
    ``tokens`` or ``offsets``.

    It pickles as the text alone, so a worker that receives one tokenizes it
    there, and it compares equal to the eager ``TokenSeq`` with the same
    tokens and offsets.  Truth is answered from the text, without tokenizing:
    every whitespace-delimited chunk yields at least one token.
    """

    def __init__(self, source: str) -> None:
        object.__setattr__(self, "source", source)

    def _tokenized(self) -> TokenSeq:
        seq = self.__dict__.get("_seq")
        if seq is None:
            seq = tokenize(self.source)
            object.__setattr__(self, "_seq", seq)
        return seq

    @property
    def tokens(self) -> tuple[str, ...]:
        return self._tokenized().tokens

    @property
    def offsets(self) -> tuple[tuple[int, int], ...]:
        return self._tokenized().offsets

    def __bool__(self) -> bool:
        return _CHUNK_RE.search(self.source) is not None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TokenSeq):
            return NotImplemented
        return (self.tokens, self.offsets) == (other.tokens, other.offsets)

    __hash__ = TokenSeq.__hash__

    def __reduce__(self):
        return LazyTokenSeq, (self.source,)


def _emit(piece: str, start: int, tokens: list, offsets: list) -> None:
    tokens.append(piece)
    offsets.append((start, start + len(piece)))


def _split_chunk(chunk: str, base: int, tokens: list, offsets: list) -> None:
    """Tokenize one whitespace-delimited chunk starting at ``base``."""
    # A bare clitic ("'s") comes from re-tokenizing our own output and
    # must stay whole, or idempotence breaks.
    if chunk.lower() in _CLITIC_SET:
        _emit(chunk, base, tokens, offsets)
        return
    lo, hi = 0, len(chunk)
    while lo < hi and is_punct_char(chunk[lo]):
        _emit(chunk[lo], base + lo, tokens, offsets)
        lo += 1
    hi_orig = hi
    while hi > lo and is_punct_char(chunk[hi - 1]):
        hi -= 1
    if hi > lo:
        _split_clitics(chunk[lo:hi], base + lo, tokens, offsets)
    for i in range(hi, hi_orig):
        _emit(chunk[i], base + i, tokens, offsets)


def _split_clitics(core: str, base: int, tokens: list, offsets: list) -> None:
    low = core.lower()
    for clitic in _CLITICS:
        if low.endswith(clitic) and len(core) > len(clitic):
            cut = len(core) - len(clitic)
            # The head may end in punctuation ("x.'s"), so run it through
            # the full chunk pipeline again.
            _split_chunk(core[:cut], base, tokens, offsets)
            _emit(core[cut:], base + cut, tokens, offsets)
            return
    _emit(core, base, tokens, offsets)


def tokenize(text: str) -> TokenSeq:
    """Split ``text`` into tokens with character offsets into the input."""
    tokens: list[str] = []
    offsets: list[tuple[int, int]] = []
    for match in _CHUNK_RE.finditer(text):
        chunk = match.group()
        # Fast path, exact: no alphanumeric character is punctuation, and
        # none lowercases to an apostrophe, so ``_split_chunk`` would emit
        # the chunk whole.
        if chunk.isalnum():
            tokens.append(chunk)
            offsets.append(match.span())
        else:
            _split_chunk(chunk, match.start(), tokens, offsets)
    return TokenSeq(tuple(tokens), tuple(offsets))


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
