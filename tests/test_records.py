"""The public result types against `dataclasses.dataclass(frozen=True)`.

Each record class gets a twin: a frozen dataclass with the same fields,
defaults and `__post_init__`.  The record and its twin must agree on repr,
equality, hashing, construction, the errors of construction, immutability
and pattern matching.
"""

import dataclasses
import importlib
from itertools import product

import pytest

from chromatic_semigroups._record import record
from chromatic_semigroups.errors import (
    DimensionMismatchError,
    NotPrimitiveError,
    TheoremContractError,
)

MODULES = ("cones", "colored", "diophantine", "helly", "instances",
           "numerical", "semigroups")


def _record_types():
    found = []
    for name in MODULES:
        mod = importlib.import_module(f"chromatic_semigroups.{name}")
        found.extend(obj for obj in vars(mod).values()
                     if isinstance(obj, type) and "__match_args__" in vars(obj)
                     and obj.__module__ == mod.__name__)
    return found


RECORDS = {cls.__name__: cls for cls in _record_types()}


def _twin(cls):
    ns = {k: v for k, v in vars(cls).items()
          if k in cls.__annotations__ or k == "__post_init__"}
    ns["__annotations__"] = dict(cls.__annotations__)
    ns["__qualname__"] = cls.__qualname__
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), ns))


def _names(cls):
    return tuple(cls.__annotations__)


def _required(cls):
    return sum(1 for k in _names(cls) if k not in vars(cls))


# valid arguments for the types whose __post_init__ checks them; every other
# type takes any values
_A = RECORDS["AffineSemigroup"]
_CS = RECORDS["ColoredSemigroup"]
_CNS = RECORDS["ColoredNumericalSemigroup"]
SAMPLES = {
    "ColoredSemigroup": [(1, ((3,), (5,)), ((0,), (1,))),
                         (2, [[1, 0], [0, 1], [1, 1]], [[0, 2], [1]]),
                         (1, ((3,), (5,)), ((1,), (0,)))],
    "DiophantineInstance": [(((1, 2), (3, 4)), (5, 6)), ([[1.0]], [True]),
                            ((), ())],
    "SemigroupFamily": [([_A(1, ((2,), (3,)))], "general"),
                        ((_A(2, ((1, 0),)), _A(2, ((0, 1),))),
                         "pointed-cover"),
                        ((_A(1, ()),), "pointed-noncover")],
    "ColoredNumericalSemigroup": [(((3, 5), (7,)),), ([[2, 2, 3]],),
                                  (((7,), (5, 3)),)],
    "ChromaticFrobeniusReport": [(1, 7, (0, 1, 7), (3,), 0, 9, "x"),
                                 (2, -1, (), (), -1, -1, ""),
                                 (1, 7, (1, 7), (3,), 7, 7, "x")],
    "AffineSemigroup": [(2, ((1, 0), (0, 1), (1, 0), (0, 0))),
                        (1, [[3.0], [2]]), (1, ())],
}
ERRORS = [
    ("ColoredSemigroup", (1, ((3,), (5,)), ((0,),)), ValueError),
    ("ColoredSemigroup", (1, ((3,), (0,)), ((0,), (1,))), ValueError),
    ("ColoredSemigroup", (2, ((3,),), ((0,),)), ValueError),
    ("ColoredSemigroup", (1, ((3,),), ()), ValueError),
    ("DiophantineInstance", (((1, 2),), (5,)), ValueError),
    ("DiophantineInstance", ((("a",),), (1,)), ValueError),
    ("SemigroupFamily", ((), "general"), ValueError),
    ("SemigroupFamily", ((_A(1, ((2,),)), _A(2, ((1, 1),))), "general"),
     DimensionMismatchError),
    ("SemigroupFamily", ((_A(1, ((2,),)),), "other"), ValueError),
    ("ColoredNumericalSemigroup", (((2, 4), (6,)),), NotPrimitiveError),
    ("ColoredNumericalSemigroup", (((2, 3), (3,)),), ValueError),
    ("ColoredNumericalSemigroup", (((0, 1),),), ValueError),
    ("ChromaticFrobeniusReport", (1, 7, (0, 5), (), 0, 9, ""),
     TheoremContractError),
    ("ChromaticFrobeniusReport", (1, 7, (7,), (), 8, 9, ""),
     TheoremContractError),
    ("AffineSemigroup", (2, ((1, 0, 0),)), DimensionMismatchError),
]


def _samples(cls):
    if cls.__name__ in SAMPLES:
        return SAMPLES[cls.__name__]
    assert "__post_init__" not in vars(cls), f"{cls.__name__} needs samples"
    n = len(_names(cls))
    nested = _CS(1, ((2,), (3,)), ((0, 1),))
    return [tuple(range(n)), tuple((i, "v") for i in range(n)),
            tuple(nested if i % 2 else _CNS(((2, 3),)) for i in range(n))]


def test_every_public_record_type_is_covered():
    assert len(RECORDS) == 19


def test_record_reads_annotations_through_the_class():
    # with lazily evaluated annotations (PEP 649, CPython 3.14) a class
    # dict holds no __annotations__ until they are read through the class
    class Lazy(type):
        @property
        def __annotations__(cls):
            return {"a": int, "b": int}

    class Pair(metaclass=Lazy):
        b = 2

    assert "__annotations__" not in vars(Pair)
    Pair = record(Pair)
    assert Pair.__match_args__ == ("a", "b")
    assert repr(Pair(1)) == repr(Pair(a=1, b=2)) == (
        f"{Pair.__qualname__}(a=1, b=2)")


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_matches_its_dataclass_twin(name):
    cls = RECORDS[name]
    twin = _twin(cls)
    names = _names(cls)
    assert cls.__match_args__ == twin.__match_args__ == names
    reals, twins = [], []
    for args in _samples(cls):
        real, dc = cls(*args), twin(*args)
        assert repr(real) == repr(dc)
        assert hash(real) == hash(dc)
        assert list(vars(real).items()) == list(vars(dc).items())
        keyword = cls(**dict(zip(names, args)))
        assert keyword == real and repr(keyword) == repr(dc)
        assert real.__eq__(dc) is NotImplemented and real != dc
        assert real.__eq__(args) is NotImplemented
        reals.append(real)
        twins.append(dc)
    for (i, a), (j, b) in product(enumerate(reals), repeat=2):
        assert (a == b) == (twins[i] == twins[j])
        assert (a != b) == (twins[i] != twins[j])
    first = reals[0]
    match first:
        case cls(head):
            assert head is getattr(first, names[0])
        case _:
            pytest.fail("class pattern did not match")


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_construction_errors_match_the_twin(name):
    cls = RECORDS[name]
    twin = _twin(cls)
    names = _names(cls)
    args = _samples(cls)[0]
    need = _required(cls)
    bad_calls = [
        (args[:need - 1], {}),                          # missing
        (args, {"bogus": 1}),                           # unknown keyword
        (args, {names[0]: args[0]}),                    # doubled
        (args + (None,), {}),                           # too many
        ((), {k: v for k, v in zip(names[1:], args[1:])}),  # missing first
    ]
    for a, kw in bad_calls:
        for make in (cls, twin):
            with pytest.raises(TypeError):
                make(*a, **kw)
    # defaults: only the fields without one
    assert repr(cls(*args[:need])) == repr(twin(*args[:need]))
    real, dc = cls(*args), twin(*args)
    for obj in (real, dc):
        with pytest.raises(AttributeError):
            setattr(obj, names[0], args[0])
        with pytest.raises(AttributeError):
            setattr(obj, "extra", 1)
        with pytest.raises(AttributeError):
            delattr(obj, names[-1])
    assert repr(real) == repr(dc)


@pytest.mark.parametrize("name, args, error", ERRORS)
def test_post_init_errors_match_the_twin(name, args, error):
    cls = RECORDS[name]
    raised = []
    for make in (cls, _twin(cls)):
        with pytest.raises(error) as info:
            make(*args)
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1]


def test_post_init_normalizes_its_fields():
    inst = RECORDS["DiophantineInstance"]([[1.0, 2], [3, 4]], [True, 6])
    assert inst.columns == ((1, 2), (3, 4)) and inst.rhs == (1, 6)
    assert all(type(c) is int for col in inst.columns for c in col)
    assert _A(1, [[3.0], [2], [3], [0]]).generators == ((2,), (3,))
    assert _CNS([[5, 3, 3]]).classes == ((3, 5),)
    family = RECORDS["SemigroupFamily"]([_A(1, ((2,),))], "general")
    assert isinstance(family.members, tuple)
