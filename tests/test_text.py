import pickle
import pickletools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bookqa.text import (
    _ARTICLE_RE,
    _CLITIC_SET,
    _CLITICS,
    LazyTokenSeq,
    TokenSeq,
    _split_chunk,
    is_punct_char,
    normalize_eval,
    normalize_eval_tokens,
    normalize_squad,
    tokenize,
)


def toks(text):
    return list(tokenize(text).tokens)


def test_tokenize_empty():
    assert toks("") == []


def test_tokenize_punctuation_peeling():
    assert toks("The cat, sat.") == ["The", "cat", ",", "sat", "."]


def test_tokenize_contractions():
    assert toks("don't stop") == ["do", "n't", "stop"]
    assert toks("Wyatt's brother") == ["Wyatt", "'s", "brother"]
    assert toks("can't") == ["ca", "n't"]
    assert toks("he'd've") == ["he", "'d", "'ve"]
    assert toks("DON'T") == ["DO", "N'T"]


def test_tokenize_mixed_punct_and_clitic():
    assert toks("don't,") == ["do", "n't", ","]
    assert toks("(Wyatt's)") == ["(", "Wyatt", "'s", ")"]
    assert toks("dogs'") == ["dogs", "'"]
    assert toks("...") == [".", ".", "."]


@pytest.mark.parametrize("clitic", ["'s", "’s", "n't", "N’T"])
def test_tokenize_peels_600_stacked_clitics(clitic):
    tokens = tokenize(f"a{clitic * 600}.").tokens
    assert tokens == ("a", *[clitic] * 600, ".")
    assert tokenize(" ".join(tokens)).tokens == tokens


def _split_chunk_recursive(chunk, tokens):
    """The recursive pair ``_split_chunk`` replaced, kept as its reference:
    one call of each per stacked clitic."""
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
        _split_clitics_recursive(chunk[lo:hi], tokens)
    tokens.extend(chunk[hi:])


def _split_clitics_recursive(core, tokens):
    low = core.lower()
    for clitic in _CLITICS:
        if low.endswith(clitic) and len(core) > len(clitic):
            cut = len(core) - len(clitic)
            _split_chunk_recursive(core[:cut], tokens)
            tokens.append(core[cut:])
            return
    tokens.append(core)


_CHUNK_PIECES = (
    "a", "Z", "do", "n", "t", "s", "'", "’", "'s", "’S", "n't", "N’t", "'ll",
    "’ve", "'D", "’m", "'re", ".", ",", "(", ")", "-", "…", "«",
)


def test_split_chunk_equals_the_recursive_pair_on_seeded_chunks():
    rng = random.Random(26)
    for _ in range(5000):
        chunk = "".join(rng.choices(_CHUNK_PIECES, k=rng.randint(1, 12)))
        got, want = [], []
        _split_chunk(chunk, got)
        _split_chunk_recursive(chunk, want)
        assert got == want, chunk


def test_tokenize_keeps_interior_punctuation():
    assert toks("rule-based o'clock") == ["rule-based", "o'clock"]


@settings(max_examples=300)
@given(st.text(max_size=80))
def test_tokenize_idempotent_on_own_output(text):
    first = tokenize(text).tokens
    again = tokenize(" ".join(first)).tokens
    assert again == first


def test_normalize_eval_examples():
    assert list(normalize_eval("France.")) == ["france"]
    assert list(normalize_eval("Wyatt's brother")) == ["wyatt", "'s", "brother"]
    assert list(normalize_eval("...")) == []


@given(st.text(max_size=60))
def test_normalize_eval_idempotent_at_token_level(text):
    once = normalize_eval_tokens(tokenize(text).tokens)
    assert normalize_eval_tokens(once) == once


def test_normalize_squad_examples():
    assert list(normalize_squad("The Tuberculosis")) == ["tuberculosis"]
    assert list(normalize_squad("a an the")) == []
    assert list(normalize_squad("Brother")) == list(normalize_squad("brother"))


def test_normalize_squad_removes_punct_within_words():
    assert list(normalize_squad("Wyatt's brother")) == ["wyatts", "brother"]
    assert list(normalize_squad("a boarding school in france")) == [
        "boarding",
        "school",
        "in",
        "france",
    ]


@given(st.text(max_size=60))
def test_normalize_squad_has_no_articles_or_punct_tokens(text):
    out = list(normalize_squad(text))
    assert not any(t in ("a", "an", "the") for t in out)
    assert all(any(not_ws for not_ws in t) and t == t.lower() for t in out)


def _squad_per_character(text):
    """``normalize_squad`` with punctuation stripped one character at a time
    through ``is_punct_char``, for every input."""
    no_punct = "".join(ch for ch in text.lower() if not is_punct_char(ch))
    return tuple(_ARTICLE_RE.sub(" ", no_punct).split())


def test_normalize_squad_ascii_path_on_every_ascii_code_point():
    for code in range(128):
        ch = chr(code)
        for text in (ch, f"x{ch}y", f"The{ch}an {ch} a"):
            assert normalize_squad(text).tokens == _squad_per_character(text), repr(text)


_MIXED = st.text(
    alphabet=st.one_of(
        st.characters(max_codepoint=127),
        st.sampled_from(["«", "—", "¿", "’", "é", "K", "İ", "ß", "Ω"]),
    ),
    max_size=40,
)


@settings(max_examples=400)
@given(_MIXED)
def test_normalize_squad_equals_per_character_path(text):
    assert normalize_squad(text).tokens == _squad_per_character(text)


def test_tokenseq_rejects_bad_tokens():
    with pytest.raises(ValueError):
        TokenSeq(("ok", ""))
    with pytest.raises(ValueError):
        TokenSeq(("a b",))
    with pytest.raises(ValueError, match=r"^invalid token: ''$"):
        TokenSeq(("ok", "", "b"))
    with pytest.raises(ValueError, match=r"^invalid token: 'a\\tb'$"):
        TokenSeq(("ok", "a\tb", "c"))
    with pytest.raises(ValueError, match=r"^invalid token: 'x\\u2003'$"):
        TokenSeq(("x\u2003",))
    with pytest.raises(ValueError, match=r"^invalid token: 'a b'$"):
        TokenSeq(("a b",))
    with pytest.raises(ValueError, match=r"^invalid token: ''$"):
        TokenSeq(("",))


def test_tokenseq_rejects_whitespace_anywhere_in_a_token():
    assert TokenSeq(()).tokens == ()
    for bad in (" a", "a ", " ", "a\u3000b", "\x85"):
        for tokens in ((bad,), ("ok", bad, "c")):
            with pytest.raises(ValueError, match=re.escape(f"invalid token: {bad!r}")):
                TokenSeq(tokens)


def test_tokenseq_text_roundtrip():
    seq = tokenize("The cat, sat.")
    assert tokenize(seq.text()).tokens == seq.tokens


def _general_tokens(text):
    """Every ``\\S+`` run through ``_split_chunk``: the path without the fast
    path, chunked by the regular expression instead of ``str.split``."""
    tokens = []
    for match in re.finditer(r"\S+", text):
        _split_chunk(match.group(), tokens)
    return tuple(tokens)


_PIECES = (
    "a", "Z", "7", "don", "word", "²", "½", "Ⅻ", "İ", "ß", "ǅ", "０", "９",
    "'", "’", "'s", "n't", "’ll", "N’T", "'D", ".", ",", "(", ")", "-", "…",
    "«", "$", "_", " ", "  ", "\t", "\n", "\u00a0", "\u2003",
    "\x1c", "\x85", "\u2028", "\u3000",
)


@settings(max_examples=400)
@given(st.lists(st.sampled_from(_PIECES), max_size=30).map("".join))
def test_tokenize_fast_path_matches_general_path(text):
    assert tokenize(text).tokens == _general_tokens(text)


@settings(max_examples=200)
@given(st.text(alphabet=st.sampled_from("".join(_PIECES)), max_size=40))
def test_tokenize_fast_path_matches_general_path_on_characters(text):
    assert tokenize(text).tokens == _general_tokens(text)


def test_str_isspace_is_regex_whitespace_on_every_code_point():
    # ``tokenize`` splits with ``str.split``; its chunks are the ``\S+`` runs
    # only because both split on the same code points.
    space = re.compile(r"\s")
    spaces = []
    for c in map(chr, range(0x110000)):
        assert c.isspace() == (space.match(c) is not None), repr(c)
        if c.isspace():
            spaces.append(c)
        else:
            # Nor does lowercasing make whitespace: normalized tokens stay valid.
            assert not any(map(str.isspace, c.lower())), repr(c)
    assert {"\x1c", "\x85", "\u2028", "\u3000"} <= set(spaces)
    for ch in spaces:
        assert tokenize(f"a{ch}b").tokens == ("a", "b"), repr(ch)
        with pytest.raises(ValueError):
            TokenSeq(("a", f"b{ch}"))


def test_normalize_eval_tokens_keeps_mixed_tokens():
    tokens = ("Fly", "'s", "--", "x-ray", "²", "..", "İ")
    assert normalize_eval_tokens(tokens) == ["fly", "'s", "x-ray", "²", "i\u0307"]


def test_lazy_tokenseq_equals_eager_both_ways():
    text = "  Wyatt's brother, (Morgan) don't.  "
    lazy, eager = LazyTokenSeq(text), tokenize(text)
    assert lazy == eager and eager == lazy
    assert not (lazy != eager) and not (eager != lazy)
    assert hash(lazy) == hash(eager)
    other = tokenize("Wyatt's brother")
    assert lazy != other and other != lazy
    assert LazyTokenSeq("a  b") == tokenize("a b")
    assert lazy != text


def test_lazy_tokenseq_reads_like_eager():
    text = "The cat, sat."
    lazy, eager = LazyTokenSeq(text), tokenize(text)
    assert len(lazy) == len(eager)
    assert list(lazy) == list(eager)
    assert lazy[1] == eager[1]
    assert lazy.text() == eager.text()
    assert bool(lazy) and not LazyTokenSeq(" \t\n\u2003")


def test_lazy_tokenseq_release_drops_the_cached_tokens():
    lazy = LazyTokenSeq("The cat, sat.")
    lazy.release()  # nothing cached yet
    first = lazy.tokens
    assert lazy.tokens is first
    lazy.release()
    assert "_tokens" not in lazy.__dict__
    assert lazy.tokens == first and lazy.tokens is not first


def _pickled_strings(obj):
    data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    return {arg for _, arg, _ in pickletools.genops(data) if isinstance(arg, str)}


def test_lazy_tokenseq_pickles_as_text():
    text = "alpha beta, gamma"
    lazy = LazyTokenSeq(text)
    assert text in _pickled_strings(lazy)
    assert not {"alpha", "beta", ",", "gamma"} & _pickled_strings(lazy)
    assert lazy.tokens == ("alpha", "beta", ",", "gamma")
    # Still only the text once tokenized: workers tokenize what they read.
    assert not {"alpha", "beta", ",", "gamma"} & _pickled_strings(lazy)
    restored = pickle.loads(pickle.dumps(lazy))
    assert type(restored) is LazyTokenSeq and restored == lazy
