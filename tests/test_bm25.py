import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        order = list(plist.ids)
        assert order == sorted(order)
    assert list(index.postings["shared"].ids) == [0, 1, 2, 3]


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


def test_index_line_bytes_are_pinned():
    """``index_to_record`` keeps the postings as tuples, which ``json.dumps``
    writes as the lists it once built; the index line is unchanged."""
    paras = [
        make_paragraph("b", 0, ["Apple", "pie", ",", "apple"]),
        make_paragraph("b", 1, ["stone", "wall", "pie"]),
    ]
    record = index_to_record(build_index(paras, k1=1.5, b=0.6))
    assert json.dumps(record, sort_keys=True) == (
        '{"avg_doc_len": 3.0, "b": 0.6, "book_id": "b", "doc_len": {"0": 3, "1": 3}, '
        '"k1": 1.5, "n_docs": 2, "postings": {"apple": [[0, 2]], "pie": [[0, 1], [1, 1]], '
        '"stone": [[1, 1]], "wall": [[1, 1]]}}'
    )
    assert json.dumps(record) == (
        '{"book_id": "b", "k1": 1.5, "b": 0.6, "n_docs": 2, "avg_doc_len": 3.0, '
        '"doc_len": {"0": 3, "1": 3}, "postings": {"apple": [[0, 2]], '
        '"pie": [[0, 1], [1, 1]], "stone": [[1, 1]], "wall": [[1, 1]]}}'
    )


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


def test_index_from_record_rejects_negative_doc_len_key():
    """A key of -1 is the decimal form of an int, but no paragraph's index."""
    record = _record_with(doc_len={"-1": 3, "0": 3}, postings={"apple": [[-1, 2]], "pie": [[0, 1]]})
    with pytest.raises(FormatError, match=r"^bad index record for book 'b': doc_len key -1: para_index must be >= 0$"):
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


def test_index_from_record_rejects_a_paragraph_named_twice():
    """Paragraph 0 named three times would make the term's df 4 against 2
    paragraphs, a negative IDF, and no paragraph retrieved for ``x``."""
    record = _record_with()
    record["postings"]["x"] = [[0, 1], [0, 1], [0, 1], [1, 1]]
    with pytest.raises(FormatError, match=r"^bad index record for book 'b': term 'x' names paragraph 0 twice$"):
        index_from_record(record)
    record["postings"]["x"] = [[0, 1], [1, 1]]
    assert sorted(retrieve(index_from_record(record), ["x"], 5).para_indexes()) == [0, 1]


def test_index_from_record_rejects_postings_out_of_order():
    record = _record_with()
    record["postings"]["pie"] = [[1, 1], [0, 1]]
    with pytest.raises(FormatError, match=r"term 'pie' names paragraph 0 after paragraph 1$"):
        index_from_record(record)


_JSON_SCALARS = st.one_of(
    st.integers(-1, 3), st.sampled_from([1.0, 2.5, True, False, None, "1", "ab", ""])
)
_JSON_POSTING = st.one_of(
    _JSON_SCALARS,
    st.lists(_JSON_SCALARS, max_size=3),
    st.lists(st.integers(0, 1), min_size=2, max_size=2),  # valid, or out of order or repeated in a list
)


def _first_bad_posting(postings, doc_len):
    """What is wrong with the first bad posting in record order, or None:
    the reference the loader's one pass must agree with."""
    for term, plist in postings.items():
        named = []
        for entry in plist if type(plist) in (list, tuple) else [plist]:
            if type(entry) not in (list, tuple) or len(entry) != 2 or set(map(type, entry)) != {int}:
                return f"term {term!r} has posting {entry!r}, not a pair of ints"
            p, f = entry
            if p not in doc_len:
                return f"term {term!r} has a posting for unknown paragraph {p}"
            if f < 1:
                return f"term {term!r} has term frequency {f} in paragraph {p}"
            if named and p == named[-1]:
                return f"term {term!r} names paragraph {p} twice"
            if named and p < named[-1]:
                return f"term {term!r} names paragraph {p} after paragraph {named[-1]}"
            named.append(p)
    return None


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(["a", "b", "c"]), st.one_of(_JSON_SCALARS, st.lists(_JSON_POSTING, max_size=3))))
def test_record_postings_load_exactly_when_no_posting_is_named_bad(postings):
    record = _record_with()
    record["postings"] = postings
    problem = _first_bad_posting(postings, {0: 3, 1: 2})
    if problem is None:
        packed = index_from_record(record).postings
        assert {t: (list(p.ids), list(p.tfs)) for t, p in packed.items()} == {
            t: ([p for p, _ in v], [f for _, f in v]) for t, v in postings.items()
        }
    else:
        with pytest.raises(FormatError, match=re.escape(problem)):
            index_from_record(record)


def test_loaded_index_does_not_share_the_record_postings():
    record = _record_with()
    index = index_from_record(record)
    assert (list(index.postings["apple"].ids), list(index.postings["apple"].tfs)) == ([0], [2])
    record["postings"]["apple"][0][1] = 5
    assert (list(index.postings["apple"].ids), list(index.postings["apple"].tfs)) == ([0], [2])
    assert index_from_record(index_to_record(index)) == index


@pytest.mark.parametrize(
    "posting, problem",
    [
        ([True, 1], "has posting [True, 1], not a pair of ints"),
        ([1, False], "has posting [1, False], not a pair of ints"),
        ([1, 1.0], "has posting [1, 1.0], not a pair of ints"),
        ([-1, 1], "has a posting for unknown paragraph -1"),
        ([2, 1], "has a posting for unknown paragraph 2"),
        ([1, -1], "has term frequency -1 in paragraph 1"),
        ([1, 2**32], "has posting [1, 4294967296], a value above 4294967295, the largest the index holds"),
        ([2**32, 1], "has posting [4294967296, 1], a value above 4294967295, the largest the index holds"),
    ],
)
def test_index_from_record_refuses_what_the_packed_postings_cannot_hold(posting, problem):
    """Bools, floats and negatives are refused as before packing; a value
    above the packed arrays' largest (2**32 - 1) is refused by name.  The
    paragraphs here are not numbered 0..n-1, so each posting is looked up."""
    record = _record_with(doc_len={"0": 3, "1": 2, "4294967296": 0}, n_docs=3, avg_doc_len=5 / 3)
    record["postings"]["wall"] = [[0, 1], posting]
    with pytest.raises(FormatError, match=re.escape(f"term 'wall' {problem}")):
        index_from_record(record)
    record["postings"]["wall"] = [[0, 1], [1, 2**32 - 1]]
    record["doc_len"] = {"0": 3, "1": 2, "4294967295": 0}
    packed = index_from_record(record).postings["wall"]
    assert list(packed) == [(0, 1), (1, 2**32 - 1)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_built_index_and_its_json_round_trip_agree_bit_for_bit(data):
    """The loaded index writes the same line and scores with the same bits
    as the index it was written from, paragraph numbers up to the packed
    arrays' largest included."""
    vocab = ["ash", "oak", "elm", "fir", "yew", "Oak", ","]
    numbers = data.draw(
        st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6, unique=True), label="para_index"
    )
    paras = [
        make_paragraph("b", i, data.draw(st.lists(st.sampled_from(vocab), min_size=1, max_size=12)))
        for i in numbers
    ]
    index = build_index(paras, k1=data.draw(st.floats(0.0, 3.0)), b=data.draw(st.floats(0.0, 1.0)))
    line = json.dumps(index_to_record(index), sort_keys=True)
    back = index_from_record(json.loads(line))
    assert json.dumps(index_to_record(back), sort_keys=True) == line
    assert back == index
    query = data.draw(st.lists(st.sampled_from(vocab + ["pine"]), max_size=8))
    bits = {p: s.hex() for p, s in accumulate_scores(index, query).items()}
    assert {p: s.hex() for p, s in accumulate_scores(back, query).items()} == bits
    for p in numbers:
        assert score(back, query, p).hex() == score(index, query, p).hex()


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


# The record of ``_record_with()``: book "b", doc_len {"0": 3, "1": 2},
# avg_doc_len 2.5, n_docs 2.
@pytest.mark.parametrize(
    "changes, problem",
    [
        ({"book_id": 7}, "bad index record: book_id 7 is not a string"),
        ({"n_docs": "2"}, "n_docs '2' is not an int"),
        ({"n_docs": 2.0}, "n_docs 2.0 is not an int"),
        ({"k1": "1.2"}, "k1 '1.2' is not a number"),
        ({"b": True}, "b True is not a number"),
        ({"avg_doc_len": "2.5"}, "avg_doc_len '2.5' is not a number"),
        ({"doc_len": {"0": True, "1": 2}}, "paragraph 0 has doc_len True, not a length"),
        ({"doc_len": {"0": 3, "1": 2.0}}, "paragraph 1 has doc_len 2.0, not a length"),
        ({"doc_len": {"0": 3, "1": -2}}, "paragraph 1 has doc_len -2, not a length"),
        ({"doc_len": {"0": 3, "01": 2}}, "doc_len keys ['0', '01'] are not distinct paragraph indexes"),
        ({"avg_doc_len": float("nan")}, "avg_doc_len nan is not the mean of its 2 doc_len entries"),
        ({"avg_doc_len": 99.0}, "avg_doc_len 99.0 is not the mean of its 2 doc_len entries"),
        ({"avg_doc_len": 2.5000000000000004}, "avg_doc_len 2.5000000000000004 is not the mean"),
        ({"n_docs": 0, "doc_len": {}, "postings": {}}, "avg_doc_len 2.5 is not the mean of its 0"),
        ({"k1": float("inf")}, "k1 inf must be >= 0 and finite"),
        ({"k1": 10**400}, "k1 is an int too large for a float"),
        ({"b": -(10**400)}, "b is an int too large for a float"),
        ({"avg_doc_len": 10**400}, "avg_doc_len is an int too large for a float"),
        ({"doc_len": {"0": 3, "1": 10**400}}, "paragraph 1 has a doc_len too large for a float"),
    ],
)
def test_index_from_record_refuses_scalars_it_would_have_to_convert(changes, problem):
    with pytest.raises(FormatError, match=re.escape(problem)):
        index_from_record(_record_with(**changes))


def test_index_from_record_accepts_int_parameters_and_an_exact_mean():
    index = index_from_record(_record_with(k1=2, b=1, doc_len={"0": 3, "1": 1}, avg_doc_len=2))
    assert (index.k1, index.b, index.avg_doc_len, index.doc_len) == (2, 1, 2, {0: 3, 1: 1})


def _ranked(*entries):
    return {
        "question_id": "q1",
        "mode": "question_only",
        "ranked": [{"para_index": p, "score": s} for p, s in entries],
    }


@pytest.mark.parametrize(
    "entries, problem",
    [
        (((0, float("nan")), (0, float("nan"))), "score nan is not finite"),
        (((0, float("inf")),), "score inf is not finite"),
        (((0, 2.0), (1, float("-inf"))), "score -inf is not finite"),
        (((0, 2.0), (0, 1.0)), "para_index 0 is ranked twice"),
        (((0, 1.0), (1, 2.0)), "score 2.0 follows the lower 1.0"),
        (((0, 3), (1, 1.5), (2, 1.5000001)), "score 1.5000001 follows the lower 1.5"),
        (((0, 10**400),), "score is an int too large for a float"),
    ],
)
def test_retrieval_from_record_refuses_what_retrieve_never_writes(entries, problem):
    with pytest.raises(FormatError, match=re.escape(f"bad retrieval record: {problem}")):
        retrieval_from_record(_ranked(*entries))


def test_retrieval_from_record_accepts_tied_scores_in_any_paragraph_order():
    # Scores are written to 6 decimals, so distinct scores can tie on the wire.
    result = retrieval_from_record(_ranked((3, 2), (1, 1.5), (0, 1.5), (2, 0.0)))
    assert result.ranked == ((3, 2), (1, 1.5), (0, 1.5), (2, 0.0))


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
    terms = {q.lower() for q in query} & set(index.postings)
    assert set(acc) == {p for t in terms for p in index.postings[t].ids}


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
