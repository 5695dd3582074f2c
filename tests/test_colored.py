import random
import time
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromatic_semigroups import (
    ColoredSemigroup,
    DiophantineInstance,
    build_unique_expression_family,
    caratheodory_exceptions,
    classify,
    enumerate_solutions,
    find_colorful,
    find_k_chromatic,
    is_member,
    lift_family,
    monochromatic_profile,
    verify_unique_expressions,
)
from chromatic_semigroups.colored import count_chromatic_solutions
from chromatic_semigroups.errors import NotPointedError

from conftest import EXAMPLE_32_TARGET


def test_classify_reference_quadruple(example_one):
    c = classify(example_one, (6, 1, 0, 0, 0, 0))
    assert c.is_monochromatic and not c.is_chromatic and not c.is_colorful
    c = classify(example_one, (3, 1, 0, 1, 0, 1))
    assert c.is_chromatic and not c.is_colorful and c.chromatic_level == 3
    c = classify(example_one, (0, 1, 0, 2, 0, 2))
    assert c.is_chromatic and c.is_colorful
    c = classify(example_one, (0, 0, 2, 0, 4, 0))
    assert c.is_colorful and c.chromatic_level == 2 and not c.is_chromatic


def test_classify_zero_solution(example_one):
    c = classify(example_one, (0,) * 6)
    assert c.colors_used == frozenset()
    assert c.is_monochromatic and c.is_colorful and not c.is_chromatic


def test_classify_length_mismatch(example_one):
    with pytest.raises(ValueError):
        classify(example_one, (1, 2, 3))


def test_find_k_chromatic_example32(example_32):
    assert find_k_chromatic(example_32, EXAMPLE_32_TARGET, 3) is None
    got = find_k_chromatic(example_32, EXAMPLE_32_TARGET, 1)
    assert got is not None


def test_find_k_chromatic_constructed_pair(example_one):
    b = (9 + 11,)  # one generator from each of two distinct classes
    got = find_k_chromatic(example_one, b, 2)
    assert got is not None
    assert classify(example_one, got).chromatic_level >= 2


def test_find_colorful(example_one, example_32):
    got = find_colorful(example_one, (70,))
    assert got is not None
    assert classify(example_one, got).is_colorful
    got = find_colorful(example_one, (9,))
    assert got is not None and sum(got) == 1
    # the lifted family admits no colorful expression of (p, 1)
    fam = build_unique_expression_family(2)
    lifted = lift_family(fam.colored)
    assert find_colorful(lifted, fam.target + (1,)) is None


def test_monochromatic_profile(example_one, example_32):
    prof = monochromatic_profile(example_32, EXAMPLE_32_TARGET)
    assert prof == ((1, 1, 1, 0, 0, 0, 0, 0, 0),
                    (0, 0, 0, 1, 1, 1, 0, 0, 0),
                    (0, 0, 0, 0, 0, 0, 1, 1, 1))
    prof = monochromatic_profile(example_one, (70,))
    assert prof[0] is not None  # e.g. (6,1,0,0,0,0)
    # classes 2 and 3: decided by scan
    sols = enumerate_solutions(DiophantineInstance(example_one.columns, (70,)))
    for ci, cls in enumerate(example_one.classes):
        reachable = any(set(i for i, v in enumerate(x) if v) <= set(cls)
                        for x in sols)
        assert (prof[ci] is not None) == reachable
    prof0 = monochromatic_profile(example_one, (0,))
    assert all(w == (0,) * 6 for w in prof0)


def test_caratheodory_single_color(example_one):
    one = ColoredSemigroup(1, example_one.columns, (tuple(range(6)),))
    rep = caratheodory_exceptions(one)
    assert rep.exceptions == ()


def test_caratheodory_two_singleton_classes():
    s = ColoredSemigroup(1, ((3,), (5,)), ((0,), (1,)))
    rep = caratheodory_exceptions(s)
    assert rep.intersection_generators == ((15,),)
    # oracle: 15 = 3*5 has only the monochromatic expressions 5*3 and 3*5
    assert [b for b, _ in rep.exceptions] == [(15,)]


def test_caratheodory_example32(example_32):
    rep = caratheodory_exceptions(example_32)
    targets = [b for b, _ in rep.exceptions]
    assert EXAMPLE_32_TARGET in targets
    for b, wits in rep.exceptions:
        assert all(w is not None for w in wits)
        assert find_k_chromatic(example_32, b, 3) is None


def test_build_family_n6_reference_values():
    fam = build_unique_expression_family(6)
    assert fam.rows == (
        ((0, 1, 2), (1, 7, 9), (2, 9, 9)),
        ((0, 3, 4), (1, 9, 11), (2, 5, 5)),
        ((0, 7, 8), (1, 13, 15), (2, -3, -3)),
        ((0, 15, 16), (1, 21, 23), (2, -19, -19)),
        ((0, 31, 32), (1, 37, 39), (2, -51, -51)),
        ((0, 63, 64), (1, 69, 71), (2, -115, -115)),
    )
    assert fam.target == (3, 17, 20)


def test_build_family_smallest():
    fam = build_unique_expression_family(1)
    (g, gp, gpp), = fam.rows
    assert (g, gp, gpp) == ((0, 1, 2), (1, 2, 4), (2, -1, -1))
    assert fam.target == (3, 2, 5)
    assert tuple(a + b + c for a, b, c in zip(g, gp, gpp)) == fam.target


def test_row_sums_hit_target():
    for n in (1, 2, 3, 6):
        fam = build_unique_expression_family(n)
        for row in fam.rows:
            assert tuple(sum(col) for col in zip(*row)) == fam.target


def test_verify_unique_expressions_counts():
    for n in (1, 3, 6):
        rep = verify_unique_expressions(n)
        assert rep.matches
        assert len(rep.solutions) == n
        assert rep.all_monochromatic
        # every expression uses one generator of each first coordinate
        for x in rep.solutions:
            firsts = sorted(fam_col[0]
                            for fam_col, mult in
                            zip(build_unique_expression_family(n).colored.columns, x)
                            for _ in range(mult))
            assert firsts == [0, 1, 2]


def test_verify_budget_guard():
    with pytest.raises(ValueError):
        verify_unique_expressions(13)


def test_lift_family_shape():
    fam = build_unique_expression_family(2)
    lifted = lift_family(fam.colored)
    assert lifted.dimension == 4
    assert lifted.classes == ((0, 1, 2, 3), (4, 5, 6, 7))
    unit = (0, 0, 0, 1)
    for cls in lifted.classes:
        assert lifted.columns[cls[-1]] == unit
        for i in cls[:-1]:
            assert lifted.columns[i][3] == 0


def test_lift_family_monochromatic_but_not_colorful():
    fam = build_unique_expression_family(2)
    lifted = lift_family(fam.colored)
    for k in range(3):
        b = fam.target + (k,)
        prof = monochromatic_profile(lifted, b)
        assert all(w is not None for w in prof)
        assert find_colorful(lifted, b) is None


def test_not_pointed_rejected():
    line = ColoredSemigroup(1, ((1,), (-1,)), ((0,), (1,)))
    plane = ColoredSemigroup(2, ((1, 0), (-1, 0), (0, 1)), ((0,), (1, 2)))
    for s, b in ((line, (5,)), (plane, (2, 3))):
        with pytest.raises(NotPointedError):
            find_k_chromatic(s, b, 1)
        with pytest.raises(NotPointedError):
            find_k_chromatic(s, b, 2)
        with pytest.raises(NotPointedError):
            find_colorful(s, b)


def test_find_k_chromatic_rejects_a_target_of_the_wrong_length():
    s = ColoredSemigroup(1, ((3,), (5,)), ((0,), (1,)))
    for b in ((8, 99), ()):
        with pytest.raises(ValueError):
            find_k_chromatic(s, b, 2)
    plane = ColoredSemigroup(2, ((1, 0), (0, 1)), ((0,), (1,)))
    with pytest.raises(ValueError):
        find_k_chromatic(plane, (1, 1, 1), 2)
    with pytest.raises(ValueError):
        find_colorful(plane, (1,))


def test_chromatic_counts_reject_k_outside_the_colors():
    s = ColoredSemigroup(1, ((1,), (2,), (3,)), ((0,), (1,), (2,)))
    assert count_chromatic_solutions(s, (3,), 1) == 3
    for k in (0, -1, 4):
        with pytest.raises(ValueError):
            count_chromatic_solutions(s, (3,), k)


# ---------------------------------------------------------------------------
# oracles: one membership query per choice


def _pick_loop(s, b, k):
    """A solution with >= k colors as one column from each of k distinct
    classes plus a member of the semigroup, over every such pick."""
    for chosen in combinations(range(s.n_colors), k):
        for pick in product(*[s.classes[i] for i in chosen]):
            residual = list(b)
            for i in pick:
                residual = [r - c for r, c in zip(residual, s.columns[i])]
            found, x = is_member(DiophantineInstance(s.columns, residual))
            if found:
                x = list(x)
                for i in pick:
                    x[i] += 1
                return tuple(x)
    return None


def _restricted_solves(s, b):
    """A colorful solution from one restricted solve per selection of at
    most one column per class."""
    for choice in product(*[(None,) + cls for cls in s.classes]):
        idx = sorted(i for i in choice if i is not None)
        found, sub = is_member(
            DiophantineInstance(tuple(s.columns[i] for i in idx), b))
        if found:
            x = [0] * len(s.columns)
            for i, v in zip(idx, sub):
                x[i] = v
            return tuple(x)
    return None


def _solves(s, x, b):
    return all(sum(v * col[j] for v, col in zip(x, s.columns)) == b[j]
               for j in range(s.dimension))


@st.composite
def _colored_instances(draw):
    d = draw(st.integers(1, 3))
    entry = st.integers(0, 4)
    column = st.tuples(*[entry] * d).filter(any)
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    n = sum(sizes)
    cols = draw(st.lists(column, min_size=n, max_size=n))
    perm = draw(st.permutations(range(n)))  # classes need not be contiguous
    starts = [sum(sizes[:j]) for j in range(len(sizes))]
    classes = tuple(tuple(perm[a:a + m]) for a, m in zip(starts, sizes))
    b = draw(st.tuples(*[st.integers(0, 12)] * d))
    return ColoredSemigroup(d, tuple(cols), classes), b


@settings(max_examples=300)
@given(_colored_instances())
def test_colored_search_matches_the_choice_loops(case):
    s, b = case
    sols = enumerate_solutions(DiophantineInstance(s.columns, b))
    levels = [classify(s, x).chromatic_level for x in sols]
    for k in range(1, s.n_colors + 1):
        got = find_k_chromatic(s, b, k)
        assert (got is None) == (_pick_loop(s, b, k) is None)
        if got is not None:
            assert _solves(s, got, b)
            assert classify(s, got).chromatic_level >= k
        assert count_chromatic_solutions(s, b, k) == sum(
            level >= k for level in levels)
    got = find_colorful(s, b)
    assert (got is None) == (_restricted_solves(s, b) is None)
    assert (got is None) == (not any(classify(s, x).is_colorful
                                     for x in sols))
    if got is not None:
        assert _solves(s, got, b) and classify(s, got).is_colorful


def _three_per_class(ell):
    """ell classes of 3 columns (randint(0, 4), randint(1, 4)), drawn class
    by class from random.Random(0)."""
    rng = random.Random(0)
    cols = [(rng.randint(0, 4), rng.randint(1, 4)) for _ in range(3 * ell)]
    return ColoredSemigroup(2, tuple(cols), tuple(
        tuple(range(3 * c, 3 * c + 3)) for c in range(ell)))


def test_chromatic_search_on_ten_classes_is_fast():
    # one membership query per pick took 28-34 s on a 2-core Xeon VM; the
    # colored search takes under 0.1 s
    s = _three_per_class(10)
    start = time.perf_counter()
    found = {t: find_k_chromatic(s, (t, t), 10) for t in range(7, 21)}
    assert time.perf_counter() - start < 5
    assert sorted(t for t, x in found.items() if x is not None) == [
        17, 18, 19, 20]
    for t, x in found.items():
        if x is not None:
            assert _solves(s, x, (t, t)) and classify(s, x).is_chromatic


def test_chromatic_search_on_twelve_1d_classes_is_fast():
    # a translate per pick of one value from each of 6 of the 12 classes
    # took 0.44-0.84 s on a 2-core Xeon VM; residue minima of the search's
    # suffixes take about 1 ms
    rng = random.Random(5)
    values = rng.sample(range(50, 400), 36)
    s = ColoredSemigroup(1, tuple((v,) for v in values), tuple(
        tuple(range(3 * c, 3 * c + 3)) for c in range(12)))
    start = time.perf_counter()
    assert find_k_chromatic(s, (40,), 6) is None
    found = {b: find_k_chromatic(s, (b,), 6) for b in (1000, 5000, 10 ** 6)}
    assert time.perf_counter() - start < 1
    for b, x in found.items():
        assert _solves(s, x, (b,)) and classify(s, x).chromatic_level >= 6


def test_colorful_search_on_six_classes_is_fast():
    # one restricted solve per selection took 13.4-13.6 s on a 2-core Xeon
    # VM; the colored search takes under a second
    s = _three_per_class(6)
    start = time.perf_counter()
    assert find_colorful(s, (1, 1000)) is None
    assert time.perf_counter() - start < 5


# ---------------------------------------------------------------------------
# properties


def _random_colored_numerical(rng, max_ell=3, max_gen=20):
    while True:
        ell = rng.randint(1, max_ell)
        values = rng.sample(range(1, max_gen + 1), rng.randint(ell, min(6, max_gen)))
        rng.shuffle(values)
        classes = [[] for _ in range(ell)]
        for i, v in enumerate(values):
            classes[i % ell].append(v)
        cols = []
        idx = []
        pos = 0
        for cls in classes:
            ids = []
            for v in cls:
                cols.append((v,))
                ids.append(pos)
                pos += 1
            idx.append(tuple(ids))
        return ColoredSemigroup(1, tuple(cols), tuple(idx))


def test_classification_consistency_random():
    rng = random.Random(37)
    for _ in range(50):
        s = _random_colored_numerical(rng)
        n = len(s.columns)
        x = tuple(rng.randint(0, 3) for _ in range(n))
        c = classify(s, x)
        if c.is_chromatic:
            assert c.chromatic_level == s.n_colors
        if c.is_monochromatic and c.is_chromatic:
            assert s.n_colors == 1
        assert c.is_monochromatic == (c.chromatic_level <= 1)


def test_find_k_chromatic_matches_enumeration_oracle():
    rng = random.Random(41)
    for _ in range(30):
        s = _random_colored_numerical(rng, max_gen=12)
        b = (rng.randint(0, 40),)
        sols = enumerate_solutions(DiophantineInstance(s.columns, b))
        for k in range(1, s.n_colors + 1):
            oracle = any(classify(s, x).chromatic_level >= k for x in sols)
            got = find_k_chromatic(s, b, k)
            assert (got is not None) == oracle
            if got is not None:
                assert sum(got[i] * s.columns[i][0] for i in range(len(got))) == b[0]
                assert classify(s, got).chromatic_level >= k
            assert got == _lex_first(s, sols, k)
    # gcd > 1 and one value under two colors
    for _ in range(30):
        g = rng.choice((2, 3))
        values = [g * rng.randint(1, 5) for _ in range(rng.randint(2, 4))]
        values.append(values[0])
        ell = rng.randint(2, len(values))
        labels = [0, *(rng.randrange(ell) for _ in values[2:]), 1]
        labels[1:ell] = range(1, ell)  # every class nonempty
        s = ColoredSemigroup(1, tuple((v,) for v in values), tuple(
            tuple(i for i, c in enumerate(labels) if c == j)
            for j in range(ell)))
        b = rng.randint(0, 30)
        sols = enumerate_solutions(DiophantineInstance(s.columns, (b,)))
        for k in range(1, ell + 1):
            got = find_k_chromatic(s, (b,), k)
            oracle = any(classify(s, x).chromatic_level >= k for x in sols)
            assert (got is not None) == oracle
            assert got == _lex_first(s, sols, k)


def _lex_first(s, sols, k):
    """The least solution using at least k colors, compared over the
    columns ordered by value, largest first, ties by index."""
    order = sorted(range(len(s.columns)), key=lambda i: (-s.columns[i][0], i))
    chosen = [x for x in sols if classify(s, x).chromatic_level >= k]
    return min(chosen, key=lambda x: [x[i] for i in order], default=None)


def test_find_k_chromatic_columns_past_the_modulus_cap():
    # residue minima stop at a smallest column of 10**6; the search answers
    s = ColoredSemigroup(1, ((1000003,), (1000033,)), ((0,), (1,)))
    assert find_k_chromatic(s, (3 * 1000003 + 2 * 1000033,), 2) == (3, 2)
    assert find_k_chromatic(s, (3 * 1000003,), 2) is None
    assert find_k_chromatic(s, (1000033 - 1,), 1) is None
    # a target 10**7 multiples deep is reached on the search's second path
    b = 1000003 * 10 ** 7 + 1000033
    assert find_k_chromatic(s, (b,), 2) == (10 ** 7, 1)


def test_find_k_chromatic_large_target_is_fast():
    # the witness takes each column's multiplicity at once, not one
    # generator per step
    s = ColoredSemigroup(1, ((3,), (5,)), ((0,), (1,)))
    start = time.perf_counter()
    got = find_k_chromatic(s, (4 * 10 ** 6,), 2)
    # under 1 ms on a 2-core Xeon VM; one step per generator took 1.9 s
    assert time.perf_counter() - start < 0.5
    assert got == (1333330, 2)
    assert find_k_chromatic(s, (4 * 10 ** 6 + 1,), 2) == (1333332, 1)


def test_exceptions_are_bounded_random():
    # beyond (n_colors - 1) * max generator of the common semigroup every
    # common element has a chromatic expression
    rng = random.Random(43)
    for _ in range(10):
        s = _random_colored_numerical(rng, max_ell=3, max_gen=15)
        rep = caratheodory_exceptions(s)
        if not rep.intersection_generators:
            assert rep.exceptions == ()
            continue
        gens = [g[0] for g in rep.intersection_generators]
        bound = (s.n_colors - 1) * max(gens)
        for b, _ in rep.exceptions:
            assert b[0] <= bound
        # spot-check the positive side: common elements past the bound all
        # admit a chromatic solution
        for mult in (s.n_colors, s.n_colors + 1, 2 * s.n_colors):
            big = mult * max(gens)
            if big > bound:
                assert find_k_chromatic(s, (big,), s.n_colors) is not None
