import json
import math
import os
import re
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
    apply_scores,
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


def request_record(request):
    """The JSON object a request line must hold."""
    return {
        "question_id": request.question_id,
        "question": request.question,
        "candidates": [{"para_index": c.para_index, "text": c.text} for c in request.candidates],
    }


def test_apply_scores_tie_preserves_order_and_reversal():
    request = make_request(["one", "two", "three"])
    assert apply_scores(request, [1.0, 1.0, 1.0]) == list(request.candidates)
    reversed_ = apply_scores(request, [0.0, 1.0, 2.0])
    assert [c.para_index for c in reversed_] == [2, 1, 0]


def test_apply_scores_validation():
    request = make_request(["one", "two"])
    with pytest.raises(ProtocolError):
        apply_scores(request, [1.0])


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
    assert json.loads(request.to_json_line()) == request_record(request)

    question_id = data.draw(ids)
    scores = data.draw(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n)
    )
    line = json.dumps({"question_id": question_id, "scores": scores})
    assert response_from_record(json.loads(line)) == (question_id, scores)


@pytest.mark.parametrize(
    "record, problem",
    [
        ({"question_id": 7, "scores": [1.5]}, "question_id 7 is not a string"),
        ({"question_id": "q", "scores": ["1.5"]}, "score '1.5' is not a number"),
        ({"question_id": "q", "scores": [1.5, True]}, "score True is not a number"),
        ({"question_id": "q", "scores": [float("nan")]}, "non-finite score nan"),
        ({"question_id": "q", "scores": [float("-inf")]}, "non-finite score -inf"),
        ({"question_id": "q", "scores": "1.5"}, "scores '1.5' is not a list"),
        ({"question_id": "q"}, "'scores'"),
        ({"question_id": "q", "scores": [1.5, -(10**400)]}, "score is an int too large for a float"),
    ],
)
def test_response_from_record_refuses_unconverted_values(record, problem):
    with pytest.raises(ProtocolError, match=f"^bad rerank response record: {re.escape(problem)}$"):
        response_from_record(record)


def test_response_from_record_keeps_int_scores():
    assert response_from_record({"question_id": "q", "scores": [2, 0.5]}) == ("q", [2, 0.5])


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
        scorer.read_handshake()
        request = make_request(["aa", "bbbb", "c"])
        assert scorer.score(request) == [2.0, 4.0, 1.0]
        ranked = apply_scores(request, scorer.score(request))
        assert [c.para_index for c in ranked] == [1, 0, 2]


def test_external_scorer_pipelined():
    # A handshake declaring "concurrent" is accepted; requests still go one
    # at a time.
    with ExternalProcessReranker(scorer_cmd("concurrent_scorer.py")) as scorer:
        scorer.read_handshake()
        requests = [make_request(["a", "b"], qid=f"q{i}") for i in range(4)]
        assert [scorer.score(r) for r in requests] == [[0.0, 1.0]] * 4


def test_external_scorer_sends_and_receives_as_separate_steps():
    """``send`` returns before the response is read, and ``receive`` reads
    it; the strict scorer, which fails on a second request in flight,
    answers each and exits cleanly."""
    import select

    with ExternalProcessReranker(scorer_cmd("strict_scorer.py")) as scorer:
        scorer.read_handshake()
        for request, scores in ((make_request(["aa", "b"], qid="q1"), [2.0, 1.0]),
                                (make_request(["ccc"], qid="q2"), [3.0])):
            scorer.send(request)
            assert select.select([scorer.process.stdout], [], [], 30)[0]  # answered, not yet read
            assert scorer.receive(request) == scores
    assert scorer.process.returncode == 0


def test_strict_scorer_fails_on_two_requests_in_flight():
    """The control for the strict scorer: a client that writes two requests
    back to back, before reading a response, makes it exit with code 5 and
    answer neither."""
    import subprocess

    lines = "".join(make_request(["a"], qid=q).to_json_line() + "\n" for q in ("q1", "q2"))
    with subprocess.Popen(
        [sys.executable, str(SCORERS / "strict_scorer.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as process:
        assert json.loads(process.stdout.readline()) == {"protocol_version": 1}
        out, err = process.communicate(lines, timeout=30)
    assert process.returncode == 5
    assert out == ""
    assert "before the one in flight was answered" in err


@pytest.mark.parametrize(
    "mode,match",
    [
        ("wrong_id", "does not match"),
        ("short", "scores"),
        ("nan", "non-finite"),
        ("string_scores", "score '1.5' is not a number"),
        pytest.param("die", r"exited before sending response for 'q1' \(code 3\)", id="die-exited"),
    ],
)
def test_external_scorer_protocol_errors(mode, match):
    """Each fails on the path ``eval-ir`` takes: the scores, checked by
    ``apply_scores``."""
    request = make_request(["a", "b"])
    with ExternalProcessReranker(scorer_cmd("broken_scorer.py", mode)) as scorer:
        scorer.read_handshake()
        with pytest.raises(ProtocolError, match=match):
            apply_scores(request, scorer.score(request))


if hasattr(sys, "get_int_max_str_digits"):
    LONG_INT_ERROR = (
        "scorer response for 'q1': invalid JSON (Exceeds the limit (4300 digits) "
        "for integer string conversion: value has 5001 digits)"
    )
else:  # no digit limit before 3.10.7
    LONG_INT_ERROR = "bad rerank response record: score is an int too large for a float"


@pytest.mark.parametrize(
    "mode, error",
    [
        ("nested", "scorer response for 'q1': invalid JSON (nested too deeply)"),
        ("long_int", LONG_INT_ERROR),
        ("not_utf8", "scorer response for 'q1': not valid UTF-8 (invalid start byte)"),
    ],
    ids=["nested", "long_int", "not_utf8"],
)
def test_external_scorer_lines_fail_as_file_lines_do(mode, error):
    """A response line fails for the reasons, and in the words, that a line
    of a JSONL input does."""
    with ExternalProcessReranker(scorer_cmd("broken_scorer.py", mode)) as scorer:
        scorer.read_handshake()
        with pytest.raises(ProtocolError) as info:
            scorer.score(make_request(["a", "b"]))
    assert str(info.value) == error


def test_external_scorer_bad_handshake():
    with pytest.raises(ProtocolError, match="protocol_version"):
        ExternalProcessReranker(scorer_cmd("broken_scorer.py", "bad_handshake")).read_handshake()


@pytest.mark.parametrize(
    "mode, problem",
    [
        ("handshake_not_object", "scorer handshake is not a JSON object"),
        ("handshake_true", "unsupported protocol_version True"),
        ("handshake_float", "unsupported protocol_version 1.0"),
    ],
    ids=["not_object", "true", "float"],
)
def test_external_scorer_handshake_must_be_version_1_exactly(mode, problem):
    """``True == 1`` and ``1.0 == 1`` in Python; neither is the version."""
    with pytest.raises(ProtocolError) as info:
        ExternalProcessReranker(scorer_cmd("broken_scorer.py", mode)).read_handshake()
    assert str(info.value) == problem


def test_scorer_refused_at_start_up_is_stopped(tmp_path):
    pid_path = tmp_path / "scorer.pid"
    scorer = ExternalProcessReranker(scorer_cmd("broken_scorer.py", "refused_sleeping", str(pid_path)))
    with pytest.raises(ProtocolError, match="^unsupported protocol_version 2$"):
        scorer.read_handshake()
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_path.read_text()), 0)


def test_file_exchange_roundtrip(tmp_path):
    requests = [make_request(["a", "bb"], qid="q1"), make_request(["ccc"], qid="q2")]
    requests_path = tmp_path / "requests.jsonl"
    write_requests_file(requests_path, [r.to_json_line() for r in requests])
    parsed = [json.loads(line) for line in requests_path.read_text().splitlines()]
    assert parsed == [request_record(r) for r in requests]

    scores_path = tmp_path / "scores.jsonl"
    scores_path.write_text(
        "".join(
            json.dumps({"question_id": r.question_id, "scores": [float(i) for i in range(len(r.candidates))]})
            + "\n"
            for r in requests
        )
    )
    scorer = FileReranker(scores_path)
    assert scorer.score(requests[0]) == [0.0, 1.0]
    with pytest.raises(ProtocolError, match="no scores"):
        scorer.score(make_request(["x"], qid="q-unknown"))


def test_closing_a_scorer_that_exits_on_eof_does_not_sleep(monkeypatch):
    """``close`` is woken by the scorer's exit; ``Popen.wait`` with a timeout
    would poll, sleeping between checks."""
    import time

    slept = []
    monkeypatch.setattr(time, "sleep", slept.append)
    scorer = ExternalProcessReranker(scorer_cmd("length_scorer.py"))
    scorer.read_handshake()
    assert scorer.score(make_request(["aa"])) == [2.0]
    scorer.close()
    assert scorer.process.returncode == 0
    assert slept == []


@pytest.mark.parametrize("pidfds", [True, False], ids=["pidfd", "polling"])
def test_closing_a_scorer_that_outlives_its_stdin_kills_it(monkeypatch, pidfds):
    """A scorer still running ``CLOSE_TIMEOUT_S`` after its stdin closed is
    killed and reaped, with pidfds and without them."""
    import signal
    import time

    import bookqa.reranker

    monkeypatch.setattr(bookqa.reranker, "CLOSE_TIMEOUT_S", 0.3)
    if not pidfds:
        monkeypatch.delattr(os, "pidfd_open", raising=False)
    scorer = ExternalProcessReranker(scorer_cmd("broken_scorer.py", "linger"))
    scorer.read_handshake()
    assert scorer.score(make_request(["a", "b"])) == [0.0, 0.0]
    started = time.monotonic()
    scorer.close()
    assert 0.3 <= time.monotonic() - started < 5
    assert scorer.process.returncode == -signal.SIGKILL
    assert scorer.process.stdout.closed
