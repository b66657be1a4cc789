"""``records.record`` against the ``@dataclass(frozen=True)`` it replaces.

Each record here has a dataclass twin built from the same class body and
name, so reprs and error messages compare as strings.
"""

import pickle
from dataclasses import dataclass

import pytest

from bookqa.records import record
from bookqa.supervision import SupervisionConfig, SupervisionPair
from bookqa.text import LazyTokenSeq, TokenSeq, tokenize

_INSTALLED = ("__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__")


def twins(name, annotations, **namespace):
    """A record and its dataclass twin, each a fresh class with ``name``,
    the fields in ``annotations`` and the attributes in ``namespace``."""
    def make():
        return type(name, (), {"__annotations__": dict(annotations), **namespace})

    return record(make()), dataclass(frozen=True)(make())


def twin_of(cls):
    """The dataclass ``cls`` would be if ``record`` had not decorated it."""
    body = {k: v for k, v in vars(cls).items() if k not in _INSTALLED + ("__dict__", "__weakref__")}
    return dataclass(frozen=True)(type(cls.__name__, cls.__bases__, body))


Point, PointTwin = twins("Point", {"x": "int", "y": "int", "label": "str"}, label="p")
Triple, TripleTwin = twins("Triple", {"a": "int", "b": "int", "c": "int"})
Single, SingleTwin = twins("Single", {"value": "object"})
TokenSeqTwin = twin_of(TokenSeq)


def test_repr_eq_and_hash_match_dataclass():
    for rec, twin, args in [
        (Point, PointTwin, (1, 2)),
        (Point, PointTwin, (1, 2, "q")),
        (Triple, TripleTwin, (1, "b", (3,))),
        (Single, SingleTwin, ("v",)),
        (TokenSeq, TokenSeqTwin, (("a", "b"),)),
    ]:
        assert repr(rec(*args)) == repr(twin(*args))
        assert hash(rec(*args)) == hash(twin(*args))
        assert rec(*args) == rec(*args)
        assert not rec(*args) != rec(*args)
    assert Point(1, 2) != Point(1, 3)
    assert Point(1, 2) != PointTwin(1, 2)  # other class, as between dataclasses
    assert (Point(1, 2) == (1, 2, "p")) is False
    assert Point.__eq__(Point(1, 2), (1, 2, "p")) is NotImplemented


def test_token_seq_and_lazy_token_seq_compare_and_hash_alike():
    eager = tokenize("it isn't  so .")
    lazy = LazyTokenSeq("it isn't  so .")
    twin = TokenSeqTwin(eager.tokens)
    assert eager == lazy and lazy == eager
    assert not eager != lazy and not lazy != eager
    assert hash(eager) == hash(lazy) == hash(twin)
    assert repr(eager) == repr(twin) == "TokenSeq(tokens=('it', 'is', \"n't\", 'so', '.'))"
    assert repr(lazy) == "Lazy" + repr(eager)
    assert eager != LazyTokenSeq("it is not so")
    assert len({eager, lazy, TokenSeq(eager.tokens)}) == 1


@pytest.mark.parametrize("rec, twin", [(Point, PointTwin), (TokenSeq, TokenSeqTwin)])
def test_assignment_and_deletion_raise_attribute_error(rec, twin):
    args = (1, 2) if rec is Point else (("a",),)
    for cls in (rec, twin):
        obj = cls(*args)
        field = next(iter(cls.__annotations__))
        for name in (field, "not_a_field"):
            with pytest.raises(AttributeError) as got:
                setattr(obj, name, 0)
            assert str(got.value) == f"cannot assign to field {name!r}"
            with pytest.raises(AttributeError) as got:
                delattr(obj, name)
            assert str(got.value) == f"cannot delete field {name!r}"
        assert cls(*args) == obj


@pytest.mark.parametrize(
    "rec, twin, args, kwargs",
    [
        (Point, PointTwin, (1, 2, "q", 4), {}),  # too many
        (Triple, TripleTwin, (1, 2, 3, 4), {}),
        (Single, SingleTwin, (1, 2), {}),
        (Point, PointTwin, (), {}),  # missing
        (Point, PointTwin, (1,), {}),
        (Point, PointTwin, (), {"label": "q"}),
        (Triple, TripleTwin, (), {}),
        (Triple, TripleTwin, (1,), {}),
        (Single, SingleTwin, (), {}),
        (Point, PointTwin, (1, 2), {"z": 3}),  # unexpected
        (Point, PointTwin, (1, 2, 3, 4), {"z": 3}),
        (Single, SingleTwin, (), {"other": 1}),
        (Point, PointTwin, (1, 2), {"x": 3}),  # duplicated
        (Point, PointTwin, (1, 2, "q", 4), {"label": "r"}),
        (Triple, TripleTwin, (1,), {"a": 1, "b": 2, "c": 3}),
    ],
)
def test_bad_arguments_raise_the_dataclass_type_error(rec, twin, args, kwargs):
    with pytest.raises(TypeError) as want:
        twin(*args, **kwargs)
    with pytest.raises(TypeError) as got:
        rec(*args, **kwargs)
    assert str(got.value) == str(want.value)


def test_defaults_and_keywords():
    for cls in (Point, PointTwin):
        assert cls(1, 2).label == "p"
        assert cls(y=2, x=1) == cls(1, 2) == cls(1, 2, "p") == cls(1, y=2, label="p")
        assert cls(1, 2, label="q").label == "q"
    assert repr(Point(y=2, x=1)) == repr(PointTwin(1, 2))
    config = SupervisionConfig()
    assert (config.k_retrieve, config.negative_pool, config.rng_seed) == (
        32, "union_minus_intersection", 0
    )
    assert SupervisionConfig(16, rng_seed=3) == SupervisionConfig(k_retrieve=16, rng_seed=3)


def test_post_init_runs_once_and_is_looked_up_at_each_call(monkeypatch):
    calls = []

    def post_init(self):
        calls.append(self.x)

    rec, twin = twins("Point", {"x": "int"}, __post_init__=post_init)
    for cls in (rec, twin):
        calls.clear()
        cls(1)
        cls(x=2)
        assert calls == [1, 2]
        monkeypatch.setattr(cls, "__post_init__", lambda self: calls.append(-self.x))
        cls(3)
        assert calls == [1, 2, -3]

    # What the benchmark's tracer does to count validated tokens.
    counted = []
    validate = TokenSeq.__post_init__

    def counting(seq):
        counted.append(len(seq.tokens))
        validate(seq)

    monkeypatch.setattr(TokenSeq, "__post_init__", counting)
    tokenize("one two three")
    assert counted == [3]
    with pytest.raises(ValueError, match="invalid token"):
        TokenSeq(("a b",))
    assert counted == [3, 1]


def test_pickle_round_trip():
    pair = SupervisionPair("q1", "b1", 3, "positive", 0.75, "oracle")
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        for obj in (pair, Point(1, 2), TokenSeq(("a", "b"))):
            back = pickle.loads(pickle.dumps(obj, protocol))
            assert type(back) is type(obj)
            assert back == obj and repr(back) == repr(obj) and hash(back) == hash(obj)
            with pytest.raises(AttributeError):
                back.question_id = "q2"
