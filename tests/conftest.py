import random

import pytest
from hypothesis import settings

from chromatic_semigroups import (
    AffineSemigroup,
    ColoredSemigroup,
    is_pointed_semigroup,
)

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


def rng(seed=42):
    return random.Random(seed)
