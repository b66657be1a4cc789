import json
import math
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bookqa import bm25
from bookqa.corpus import Paragraph
from bookqa.errors import ProtocolError
from bookqa.oracles import brute_bm25_score
from bookqa.reranker import (
    ExternalProcessReranker,
    FileReranker,
    IdentityReranker,
    LexicalReranker,
    RerankCandidate,
    RerankRequest,
    RerankResponse,
    apply_scores,
    request_from_record,
    response_from_record,
    write_requests_file,
)
from bookqa.text import normalize_eval_tokens, tokenize

SCORERS = Path(__file__).parent / "scorers"


def scorer_cmd(name, *args):
    return " ".join([sys.executable, str(SCORERS / name), *args])


def make_request(texts, question="which one", qid="q1"):
    return RerankRequest(
        question_id=qid,
        question=question,
        candidates=tuple(RerankCandidate(i, t) for i, t in enumerate(texts)),
    )


def test_request_validation():
    with pytest.raises(ValueError):
        RerankRequest("q", "x", ())
    with pytest.raises(ValueError):
        RerankRequest(
            "q", "x", (RerankCandidate(1, "a"), RerankCandidate(1, "b"))
        )


def test_apply_scores_tie_preserves_order_and_reversal():
    request = make_request(["one", "two", "three"])
    assert apply_scores(request, [1.0, 1.0, 1.0]) == list(request.candidates)
    reversed_ = apply_scores(request, [0.0, 1.0, 2.0])
    assert [c.para_index for c in reversed_] == [2, 1, 0]


def test_apply_scores_validation():
    request = make_request(["one", "two"])
    with pytest.raises(ProtocolError):
        apply_scores(request, [1.0])
    with pytest.raises(ProtocolError):
        apply_scores(request, [1.0, float("inf")])
    with pytest.raises(ProtocolError):
        apply_scores(request, [1.0, float("nan")])


def test_identity_reranker_is_identity():
    request = make_request(["a", "b", "c"])
    scorer = IdentityReranker()
    assert apply_scores(request, scorer.score(request)) == list(request.candidates)


@settings(max_examples=100)
@given(st.data())
def test_rerank_is_a_permutation(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    request = make_request([f"text {i}" for i in range(n)])
    scores = data.draw(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            min_size=n,
            max_size=n,
        )
    )
    result = apply_scores(request, scores)
    assert sorted(c.para_index for c in result) == list(range(n))


ids = st.text(min_size=1, max_size=12)


@settings(max_examples=150)
@given(st.data())
def test_protocol_roundtrip_identity(data):
    n = data.draw(st.integers(min_value=1, max_value=5))
    request = RerankRequest(
        question_id=data.draw(ids),
        question=data.draw(st.text(max_size=30)),
        candidates=tuple(
            RerankCandidate(i, data.draw(st.text(max_size=30))) for i in range(n)
        ),
    )
    assert request_from_record(json.loads(request.to_json_line())) == request

    response = RerankResponse(
        question_id=data.draw(ids),
        scores=tuple(
            data.draw(
                st.lists(
                    st.floats(allow_nan=False, allow_infinity=False),
                    min_size=n,
                    max_size=n,
                )
            )
        ),
    )
    assert response_from_record(json.loads(response.to_json_line())) == response


def test_lexical_reranker_no_shared_terms_scores_zero():
    request = make_request(["stone wall", "river bank"], question="falcon nest")
    assert LexicalReranker().score(request) == [0.0, 0.0]


def test_lexical_reranker_identical_candidates_tie():
    request = make_request(["red fox", "red fox"], question="red")
    scores = LexicalReranker().score(request)
    assert scores[0] == scores[1] > 0
    assert apply_scores(request, scores) == list(request.candidates)


def test_lexical_reranker_micro_collection_hand_value():
    # Stats come from the three candidates alone: df(alpha)=2, N=3, dl=avgdl=2,
    # so the score is exactly idf = ln(1.6).
    request = make_request(["alpha beta", "alpha gamma", "delta epsilon"], question="alpha")
    scores = LexicalReranker().score(request)
    assert scores[0] == pytest.approx(math.log(1.6), abs=1e-12)
    assert scores[1] == pytest.approx(math.log(1.6), abs=1e-12)
    assert scores[2] == 0.0
    want = brute_bm25_score(
        [["alpha", "beta"], ["alpha", "gamma"], ["delta", "epsilon"]],
        ["alpha"],
        0,
        1.2,
        0.75,
    )
    assert scores[0] == pytest.approx(want, abs=1e-12)


words = st.sampled_from(["Ash", "ash", "oak", "elm", "fir", "the", ",", "'s", "--", "oak."])


@settings(max_examples=300)
@given(
    st.lists(st.lists(words, max_size=9).map(" ".join), min_size=1, max_size=7),
    st.lists(words, max_size=6).map(" ".join),
    st.sampled_from([(1.2, 0.75), (0.0, 0.0), (2.5, 1.0), (0.9, 0.3)]),
)
def test_lexical_reranker_equals_bm25_score_exactly(texts, question, params):
    """One pass of ``accumulate_scores`` gives, bit for bit, what one
    ``bm25.score`` call per candidate over the same micro-index gives.
    Candidates without tokens (empty or punctuation-only) score 0."""
    k1, b = params
    request = make_request(texts, question=question)
    token_lists = [tokenize(t) for t in texts]
    paragraphs = [Paragraph("", i, tokens) for i, tokens in enumerate(token_lists) if tokens]
    query = normalize_eval_tokens(tokenize(question).tokens)
    if paragraphs:
        index = bm25.build_index(paragraphs, k1=k1, b=b)
        indexed = {p.para_index for p in paragraphs}
        want = [bm25.score(index, query, i) if i in indexed else 0.0 for i in range(len(texts))]
    else:
        want = [0.0] * len(texts)
    assert LexicalReranker(k1=k1, b=b).score(request) == want


def test_lexical_reranker_ranks_unique_match_first():
    request = make_request(
        ["stone wall stands", "the falcon nest here", "river runs deep"],
        question="falcon nest",
    )
    result = apply_scores(request, LexicalReranker().score(request))
    assert result[0].para_index == 1


def test_external_scorer_roundtrip():
    with ExternalProcessReranker(scorer_cmd("length_scorer.py")) as scorer:
        request = make_request(["aa", "bbbb", "c"])
        assert scorer.score(request) == [2.0, 4.0, 1.0]
        ranked = apply_scores(request, scorer.score(request))
        assert [c.para_index for c in ranked] == [1, 0, 2]


def test_external_scorer_pipelined():
    # A handshake declaring "concurrent" is accepted; requests still go one
    # at a time.
    with ExternalProcessReranker(scorer_cmd("concurrent_scorer.py")) as scorer:
        requests = [make_request(["a", "b"], qid=f"q{i}") for i in range(4)]
        assert [scorer.score(r) for r in requests] == [[0.0, 1.0]] * 4


@pytest.mark.parametrize(
    "mode,match",
    [
        ("wrong_id", "does not match"),
        ("short", "scores"),
        ("nan", "non-finite"),
        ("die", "exited"),
    ],
)
def test_external_scorer_protocol_errors(mode, match):
    with ExternalProcessReranker(scorer_cmd("broken_scorer.py", mode)) as scorer:
        with pytest.raises(ProtocolError, match=match):
            scorer.score(make_request(["a", "b"]))


def test_external_scorer_bad_handshake():
    with pytest.raises(ProtocolError, match="protocol_version"):
        ExternalProcessReranker(scorer_cmd("broken_scorer.py", "bad_handshake"))


def test_file_exchange_roundtrip(tmp_path):
    requests = [make_request(["a", "bb"], qid="q1"), make_request(["ccc"], qid="q2")]
    requests_path = tmp_path / "requests.jsonl"
    write_requests_file(requests_path, requests)
    parsed = [
        request_from_record(json.loads(line))
        for line in requests_path.read_text().splitlines()
    ]
    assert parsed == requests

    scores_path = tmp_path / "scores.jsonl"
    scores_path.write_text(
        "\n".join(
            RerankResponse(r.question_id, tuple(float(i) for i in range(len(r.candidates)))).to_json_line()
            for r in requests
        )
        + "\n"
    )
    scorer = FileReranker(scores_path)
    assert scorer.score(requests[0]) == [0.0, 1.0]
    with pytest.raises(ProtocolError, match="no scores"):
        scorer.score(make_request(["x"], qid="q-unknown"))
