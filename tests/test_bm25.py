import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bookqa import bm25
from bookqa.bm25 import (
    MODE_QUESTION,
    accumulate_scores,
    build_index,
    index_from_record,
    index_to_record,
    oracle_query,
    question_query,
    retrieve,
    retrieval_from_record,
    score,
)
from bookqa.corpus import QaExample
from bookqa.errors import CorpusError, FormatError

from conftest import make_paragraph


def test_build_index_normalizes_and_counts():
    index = build_index([make_paragraph("b", 0, ["The", "cat", "."])])
    assert set(index.postings) == {"the", "cat"}
    assert index.n_docs == 1
    assert index.avg_doc_len == 2.0
    assert index.doc_len == {0: 2}


def test_postings_sorted_by_para_index_even_from_shuffled_input():
    paras = [make_paragraph("b", i, ["shared", f"own{i}"]) for i in (3, 0, 2, 1)]
    index = build_index(paras)
    for plist in index.postings.values():
        order = [p for p, _ in plist]
        assert order == sorted(order)
    assert [p for p, _ in index.postings["shared"]] == [0, 1, 2, 3]


def test_build_index_rejects_bad_input():
    with pytest.raises(CorpusError):
        build_index([])
    with pytest.raises(CorpusError):
        build_index([make_paragraph("a", 0, ["x"]), make_paragraph("b", 1, ["y"])])
    with pytest.raises(CorpusError):
        build_index([make_paragraph("a", 0, ["x"]), make_paragraph("a", 0, ["y"])])


def test_score_hand_value_two_docs():
    # One term, present once in one of two equal-length docs: idf = ln 2 and
    # the tf part is exactly 1, so the score is ln 2.
    index = build_index(
        [make_paragraph("b", 0, ["cat", "dog"]), make_paragraph("b", 1, ["owl", "elk"])]
    )
    assert score(index, ["cat"], 0) == pytest.approx(math.log(2), abs=1e-12)
    assert score(index, ["cat"], 1) == 0.0


def test_score_empty_overlap_is_zero():
    index = build_index([make_paragraph("b", 0, ["cat", "dog"])])
    assert score(index, ["zebu", "ibex"], 0) == 0.0


def test_score_duplicate_query_terms_count_once():
    index = build_index(
        [make_paragraph("b", 0, ["cat", "dog"]), make_paragraph("b", 1, ["owl", "elk"])]
    )
    assert score(index, ["cat", "cat", "cat"], 0) == score(index, ["cat"], 0)


def test_score_unknown_para_rejected():
    index = build_index([make_paragraph("b", 0, ["cat"])])
    with pytest.raises(CorpusError):
        score(index, ["cat"], 7)


def test_retrieve_ties_break_by_para_index():
    paras = [make_paragraph("b", i, ["same", "text", "here"]) for i in range(3)]
    index = build_index(paras)
    result = retrieve(index, ["same"], 3)
    assert result.para_indexes() == [0, 1, 2]
    scores = [s for _, s in result.ranked]
    assert scores[0] == scores[1] == scores[2]


def test_retrieve_excludes_zero_scores_and_truncates():
    paras = [
        make_paragraph("b", 0, ["apple", "pie"]),
        make_paragraph("b", 1, ["apple", "tart"]),
        make_paragraph("b", 2, ["stone", "wall"]),
    ]
    index = build_index(paras)
    result = retrieve(index, ["apple"], 10)
    assert set(result.para_indexes()) == {0, 1}
    assert retrieve(index, ["zebu"], 5).ranked == ()


def test_retrieve_prefix_property():
    paras = [
        make_paragraph("b", i, tokens)
        for i, tokens in enumerate(
            [
                ["red", "fox", "den"],
                ["red", "red", "fox"],
                ["fox", "hole"],
                ["red", "wall"],
                ["den", "mother"],
            ]
        )
    ]
    index = build_index(paras)
    full = retrieve(index, ["red", "fox"], 5).ranked
    for k in range(1, 6):
        assert retrieve(index, ["red", "fox"], k).ranked == full[:k]


def test_monotone_tf_under_replacement():
    # Replacing a non-query token with the query term (doc lengths fixed)
    # never lowers that paragraph's score.
    base = [
        make_paragraph("b", 0, ["red", "fox", "den", "wall"]),
        make_paragraph("b", 1, ["red", "hole", "dove", "fern"]),
    ]
    bumped = [
        make_paragraph("b", 0, ["red", "fox", "den", "red"]),
        make_paragraph("b", 1, ["red", "hole", "dove", "fern"]),
    ]
    before = score(build_index(base), ["red"], 0)
    after = score(build_index(bumped), ["red"], 0)
    assert after >= before


def test_idf_nonnegative_for_all_df():
    # df ranges over [0, N] via terms present in 0..N of N docs.
    n = 4
    paras = [
        make_paragraph("b", i, ["common"] + [f"rare{j}" for j in range(i + 1)])
        for i in range(n)
    ]
    index = build_index(paras)
    for term in list(index.postings) + ["absent"]:
        df = len(index.postings.get(term, ()))
        idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
        assert 0 <= df <= n
        assert idf >= 0


def test_oracle_query_concatenates_all_answers():
    q = QaExample("q1", "b", "where is millicent sent", ("france", "france"))
    assert list(oracle_query(q)) == ["where", "is", "millicent", "sent", "france", "france"]


def test_oracle_query_empty_question():
    q = QaExample("q1", "b", "...", ("france",))
    assert list(oracle_query(q)) == ["france"]
    assert list(question_query(q)) == []


def test_retrieval_result_serialization_roundtrip():
    paras = [
        make_paragraph("b", 0, ["apple", "pie"]),
        make_paragraph("b", 1, ["apple", "apple"]),
    ]
    index = build_index(paras)
    result = retrieve(index, ["apple"], 2, question_id="q9", mode=MODE_QUESTION)
    line = result.to_json_line()
    obj = json.loads(line)
    assert obj["question_id"] == "q9"
    assert obj["mode"] == MODE_QUESTION
    parsed = retrieval_from_record(obj)
    assert parsed.para_indexes() == result.para_indexes()
    for (_, got), (_, want) in zip(parsed.ranked, result.ranked):
        assert got == pytest.approx(want, abs=5e-7)  # 6-decimal wire format


def test_index_record_roundtrip():
    paras = [
        make_paragraph("b", 0, ["apple", "pie", "apple"]),
        make_paragraph("b", 1, ["stone", "wall"]),
    ]
    index = build_index(paras, k1=1.5, b=0.6)
    back = index_from_record(json.loads(json.dumps(index_to_record(index))))
    assert back == index


def _record_with(**changes):
    paras = [
        make_paragraph("b", 0, ["apple", "pie", "apple"]),
        make_paragraph("b", 1, ["stone", "wall"]),
    ]
    record = json.loads(json.dumps(index_to_record(build_index(paras))))
    record.update(changes)
    return record


def test_index_from_record_rejects_n_docs_mismatch():
    with pytest.raises(FormatError, match="n_docs 3 but 2 doc_len entries"):
        index_from_record(_record_with(n_docs=3))


def test_index_from_record_rejects_posting_for_unknown_paragraph():
    record = _record_with()
    record["postings"]["stone"] = [[7, 1]]
    with pytest.raises(FormatError, match="term 'stone' has a posting for unknown paragraph 7"):
        index_from_record(record)


def test_index_from_record_rejects_term_frequency_below_one():
    record = _record_with()
    record["postings"]["wall"] = [[1, 0]]
    with pytest.raises(FormatError, match="term 'wall' has term frequency 0 in paragraph 1"):
        index_from_record(record)


@pytest.mark.parametrize("posting", [["3", 1], [1.5, 1], [True, 1], [1, True], [1]])
def test_index_from_record_rejects_posting_that_is_not_a_pair_of_ints(posting):
    record = _record_with()
    record["postings"]["wall"] = [[1, 1], posting]
    expected = f"term 'wall' has posting {posting!r}, not a pair of ints"
    with pytest.raises(FormatError, match=re.escape(expected)):
        index_from_record(record)


_JSON_SCALARS = st.one_of(
    st.integers(-1, 3), st.sampled_from([1.0, 2.5, True, False, None, "1", "ab", ""])
)
_JSON_POSTING = st.one_of(_JSON_SCALARS, st.lists(_JSON_SCALARS, max_size=3))


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(["a", "b", "c"]), st.one_of(_JSON_SCALARS, st.lists(_JSON_POSTING, max_size=3))))
def test_record_postings_load_exactly_when_no_posting_is_named_bad(postings):
    record = _record_with()
    record["postings"] = postings
    problem = bm25._posting_problem(postings, {0: 3, 1: 2})
    if problem is None:
        assert index_from_record(record).postings == {
            t: tuple(map(tuple, v)) for t, v in postings.items()
        }
    else:
        with pytest.raises(FormatError, match=re.escape(problem)):
            index_from_record(record)


def test_loaded_index_does_not_share_the_record_postings():
    record = _record_with()
    index = index_from_record(record)
    assert index.postings["apple"] == ((0, 2),)
    record["postings"]["apple"][0][1] = 5
    assert index.postings["apple"] == ((0, 2),)
    assert index_from_record(index_to_record(index)) == index


@pytest.mark.parametrize(
    "params", [{"k1": -0.1}, {"k1": float("nan")}, {"b": -0.5}, {"b": 1.01}, {"b": float("nan")}]
)
def test_index_from_record_rejects_k1_and_b_out_of_range(params):
    with pytest.raises(FormatError, match="must be >= 0"):
        index_from_record(_record_with(**params))


def test_index_from_record_accepts_parameter_bounds():
    for k1, b in ((0.0, 0.0), (0.0, 1.0), (3.0, 1.0)):
        index = index_from_record(_record_with(k1=k1, b=b))
        assert (index.k1, index.b) == (k1, b)


@settings(max_examples=150)
@given(st.data())
def test_accumulate_scores_equals_score_exactly(data):
    vocab = ["ash", "oak", "elm", "fir", "yew"]
    n = data.draw(st.integers(min_value=1, max_value=6))
    paras = [
        make_paragraph("b", i, data.draw(st.lists(st.sampled_from(vocab), min_size=1, max_size=10)))
        for i in range(n)
    ]
    index = build_index(paras, k1=data.draw(st.floats(0.0, 3.0)), b=data.draw(st.floats(0.0, 1.0)))
    query = data.draw(st.lists(st.sampled_from(vocab + ["Oak", "pine"]), max_size=8))
    acc = accumulate_scores(index, query)
    for i in range(n):
        assert acc.get(i, 0.0) == score(index, query, i)
    assert set(acc) == {p for t in set(q.lower() for q in query) for p, _ in index.postings.get(t, ())}


@settings(max_examples=80)
@given(st.data())
def test_retrieve_scores_non_increasing_and_distinct_paras(data):
    vocab = ["ash", "oak", "elm", "fir"]
    n = data.draw(st.integers(min_value=1, max_value=6))
    paras = [
        make_paragraph(
            "b",
            i,
            data.draw(st.lists(st.sampled_from(vocab), min_size=1, max_size=8)),
        )
        for i in range(n)
    ]
    query = data.draw(st.lists(st.sampled_from(vocab), min_size=1, max_size=4))
    k = data.draw(st.integers(min_value=1, max_value=8))
    result = retrieve(build_index(paras), query, k)
    scores = [s for _, s in result.ranked]
    assert all(a >= b for a, b in zip(scores, scores[1:]))
    indexes = result.para_indexes()
    assert len(set(indexes)) == len(indexes)
    assert len(indexes) <= k
    assert all(s > 0 for s in scores)
