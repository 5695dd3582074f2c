import random
from math import gcd

import pytest
from hypothesis import assume, settings
from hypothesis import strategies as st

from chromatic_semigroups import (
    AffineSemigroup,
    ColoredSemigroup,
    is_pointed_semigroup,
    semigroup,
)
from lp_reference import rref

# property tests draw the same examples on every run, and a slow example on
# a loaded machine is not a failure
settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")

EXAMPLE_ONE_VALUES = (9, 16, 11, 14, 12, 13)
EXAMPLE_ONE_CLASSES = ((0, 1), (2, 3), (4, 5))

# the 3-color, 9-generator instance whose target (3, 95, 98) has one
# monochromatic solution per color and nothing chromatic
EXAMPLE_32_COLUMNS = ((0, 0, 1), (1, 32, 34), (2, 63, 63),
                      (0, 1, 2), (1, 33, 35), (2, 61, 61),
                      (0, 3, 4), (1, 35, 37), (2, 57, 57))
EXAMPLE_32_CLASSES = ((0, 1, 2), (3, 4, 5), (6, 7, 8))
EXAMPLE_32_TARGET = (3, 95, 98)


@pytest.fixture
def example_one():
    cols = tuple((v,) for v in EXAMPLE_ONE_VALUES)
    return ColoredSemigroup(1, cols, EXAMPLE_ONE_CLASSES)


@pytest.fixture
def example_32():
    return ColoredSemigroup(3, EXAMPLE_32_COLUMNS, EXAMPLE_32_CLASSES)


def random_pointed_semigroup(rng, dim, max_gens, lo=-5, hi=5):
    """Rejection-sample a nonempty pointed semigroup."""
    while True:
        gens = []
        for _ in range(rng.randint(1, max_gens)):
            v = tuple(rng.randint(lo, hi) for _ in range(dim))
            if any(v):
                gens.append(v)
        if not gens:
            continue
        s = AffineSemigroup(dim, tuple(gens))
        if not s.is_trivial and is_pointed_semigroup(s):
            return s


@st.composite
def independent_cone_points(draw):
    """A semigroup on linearly independent generators (by the rational rank
    of the oracle's RREF) in dimension 1-3 and a primitive point of its
    cone."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, dim))
    gens = draw(st.lists(st.tuples(*[st.integers(-6, 6)] * dim),
                         min_size=n, max_size=n, unique=True))
    assume(len(rref(gens)[0]) == n)
    coeffs = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    assume(any(coeffs))
    p = tuple(sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(dim))
    step = gcd(*p)
    return semigroup(gens), tuple(v // step for v in p)


def rng(seed=42):
    return random.Random(seed)
