import random
import time
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from chromatic_semigroups import (
    DiophantineInstance,
    cone,
    cone_of,
    family_intersection_nontrivial,
    intersect_cones,
    intersect_semigroups,
    is_member,
    is_pointed,
    is_pointed_semigroup,
    iter_solutions,
    member,
    scale_into,
    semigroup,
)
from chromatic_semigroups.colored import build_unique_expression_family
from chromatic_semigroups import cones as cones_mod
from chromatic_semigroups import diophantine as dio_mod
from chromatic_semigroups import semigroups as semigroups_mod
from chromatic_semigroups.numerical import _member_table, frobenius
from chromatic_semigroups.errors import (
    DimensionMismatchError,
    NotPointedError,
    PointNotInConeError,
    SemigroupError,
)
from chromatic_semigroups.semigroups import (
    AffineSemigroup,
    intersect_semigroup_family,
)

from conftest import independent_cone_points, random_pointed_semigroup
from lp_reference import rref


def closure(generators, dim, max_sum):
    """All semigroup elements with coordinate sum <= max_sum (nonneg gens)."""
    seen = {(0,) * dim}
    frontier = [(0,) * dim]
    while frontier:
        cur = frontier.pop()
        for g in generators:
            nxt = tuple(a + b for a, b in zip(cur, g))
            if sum(nxt) <= max_sum and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def test_cone_of_and_trivial():
    s = semigroup([(0, 1), (1, 1)])
    assert set(cone_of(s).generators) == {(0, 1), (1, 1)}
    assert cone_of(semigroup([], dimension=2)).generators == ()
    assert cone_of(semigroup([(3,), (5,)])).generators == ((3,), (5,))


def test_pointedness():
    assert is_pointed_semigroup(semigroup([(1, 0), (0, 1)]))
    assert not is_pointed_semigroup(semigroup([(1, 0), (-1, 0)]))
    fam = build_unique_expression_family(6)
    for row in fam.rows:
        assert is_pointed_semigroup(semigroup(list(row)))


def test_intersect_numerical():
    got = intersect_semigroups(semigroup([(2,)]), semigroup([(3,)]))
    assert got.generators == ((6,),)
    # brute force: common elements up to 36 are generated by 6
    both = sorted(closure([(2,)], 1, 36) & closure([(3,)], 1, 36))
    assert all(v[0] % 6 == 0 for v in both)


def test_intersect_two_dimensional():
    got = intersect_semigroups(semigroup([(1, 0), (1, 2)]), semigroup([(1, 1)]))
    assert got.generators == ((2, 2),)


def test_intersect_idempotent_minimal():
    s = semigroup([(1, 0), (1, 2), (2, 2)])  # (2,2) = (1,0)+(1,2) redundant
    got = intersect_semigroups(s, s)
    assert got.generators == ((1, 0), (1, 2))


def test_intersect_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        intersect_semigroups(semigroup([(1,)]), semigroup([(1, 0)]))


def test_intersect_with_trivial():
    got = intersect_semigroups(semigroup([(1, 0)]),
                               semigroup([], dimension=2))
    assert got.is_trivial


def test_family_intersection_examples():
    # two coordinate axes share nothing but the origin
    assert family_intersection_nontrivial(
        [semigroup([(0, 1)]), semigroup([(1, 0)])]) == (False, None)
    ok, w = family_intersection_nontrivial([semigroup([(1, 0), (0, 1)])])
    assert ok and w is not None
    # in dimension 3, dropping a different axis per member leaves e1 common
    e = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    s2 = semigroup([e[0], e[2]])
    s3 = semigroup([e[0], e[1]])
    ok, w = family_intersection_nontrivial([s2, s3])
    assert ok and w == (1, 0, 0)


def test_family_intersection_refuses_empty_and_mixed_families():
    # the checks live in intersect_cones, which sees every member's cone
    with pytest.raises(ValueError):
        family_intersection_nontrivial([])
    with pytest.raises(DimensionMismatchError):
        family_intersection_nontrivial([semigroup([(1,)]),
                                        semigroup([(1, 0)])])
    # the zero space holds no nonzero element
    assert family_intersection_nontrivial(
        [AffineSemigroup(0, ())]) == (False, None)


def test_family_intersection_builds_one_cone_per_member(monkeypatch):
    built = []
    real = semigroups_mod.cone_of
    monkeypatch.setattr(semigroups_mod, "cone_of",
                        lambda s: built.append(s) or real(s))
    family = [semigroup([(1, 0), (1, 2)]), semigroup([(1, 1), (0, 1)])]
    ok, w = family_intersection_nontrivial(family)
    # one cone per member here, and one more in each member's scale_into
    assert ok and w == (2, 2)
    assert built == family * 2
    built.clear()
    assert family_intersection_nontrivial(
        [semigroup([(1, 0), (-1, 0)]), semigroup([(1, 0), (0, 1)])]) == (
            True, None)
    assert len(built) == 2


def test_family_intersection_builds_rows_for_its_members_only():
    # the intersection's own rows are never read, so never built
    cones_mod._checked_rows.cache_clear()
    family = [semigroup([(1, 0), (1, 2)]), semigroup([(1, 1), (0, 1)]),
              semigroup([(2, 1), (1, 3), (1, 1)])]
    ok, w = family_intersection_nontrivial(family)
    assert ok and w is not None
    assert cones_mod._checked_rows.cache_info().misses == len(family)


def test_member_reads_off_independent_generators():
    # each case is on independent generators, where the read-off answers
    cases = [
        (semigroup([(1, 0), (0, 1)]), (-1, 2)),  # outside the cone
        (semigroup([(2, 0), (0, 3)]), (1, 3)),  # a non-integral coordinate
        (semigroup([(1, 0, 0), (0, 1, 0)]), (1, 1, 1)),  # outside the span
        (semigroup([(1, 0, 0), (0, 1, 0)]), (2, 3, 0)),
    ]
    for s, b in cases:
        assert cones_mod.simplicial_coordinates(
            s.generators, s.dimension, b) is not None
        # the raw search's first solution, with no read-off in between
        want = next(iter_solutions(DiophantineInstance(s.generators, b)),
                    None)
        assert member(s, b) == (want is not None, want)
    assert member(semigroup([(1, 0, 0), (0, 1, 0)]), (1, 1, 1)) == (
        False, None)
    # the solution is over the sorted generators (0, 1, 0), (1, 0, 0)
    assert member(semigroup([(1, 0, 0), (0, 1, 0)]), (2, 3, 0)) == (
        True, (3, 2))
    with pytest.raises(ValueError):
        member(semigroup([(1, 0), (0, 1)]), (1, 1, 1))
    # with no generators the instance has no column to compare b with
    with pytest.raises(ValueError, match="length mismatch"):
        member(AffineSemigroup(2, ()), (0, 0, 0))


def test_scale_into_examples():
    assert scale_into(semigroup([(2,), (3,)]), (1,)) == 2
    assert scale_into(semigroup([(1, 0), (0, 1)]), (1, 1)) == 1
    assert scale_into(semigroup([(2, 0), (0, 3)]), (1, 3)) == 2


def test_scale_into_rejects_outside_points():
    with pytest.raises(PointNotInConeError):
        scale_into(semigroup([(2, 0), (0, 3)]), (-1, 1))
    with pytest.raises(PointNotInConeError):
        scale_into(semigroup([(2,)]), (0,))
    # a point of the wrong length is refused, not truncated
    with pytest.raises(DimensionMismatchError):
        scale_into(semigroup([(1, 0), (0, 1)]), (1, 1, 5))


def test_scale_into_refuses_a_non_pointed_semigroup():
    # (1, 0) lies in the cone, but the membership search needs a pointed one
    with pytest.raises(NotPointedError):
        scale_into(semigroup([(1, 0), (-1, 0)]), (1, 0))


def test_scale_into_cap_raises_package_error(monkeypatch):
    # the least k with k*(1, 1) in <(1, 0), (1, 5), (1, 10)> is 5; the
    # generators are dependent, so k is scanned for and the cap applies
    monkeypatch.setattr(semigroups_mod, "_SCALE_CAP", 4)
    with pytest.raises(SemigroupError, match="up to 4"):
        scale_into(semigroup([(1, 0), (1, 5), (1, 10)]), (1, 1))


def test_scale_into_returns_minimal_k():
    rng = random.Random(17)
    for _ in range(20):
        s = random_pointed_semigroup(rng, rng.randint(1, 2), 3, lo=0, hi=5)
        # pick a cone point: sum of two generators scaled down when possible
        p = s.generators[0]
        k = scale_into(s, p)
        assert is_member(DiophantineInstance(
            s.generators, tuple(k * c for c in p)))[0]
        for smaller in range(1, k):
            assert not is_member(DiophantineInstance(
                s.generators, tuple(smaller * c for c in p)))[0]


@given(independent_cone_points())
def test_closed_form_scaling_matches_the_scan(case):
    s, p = case
    assert cones_mod.simplicial_coordinates(
        s.generators, s.dimension, p) is not None
    assert scale_into(s, p) == semigroups_mod._scale_scan(s, p)


@given(st.integers(1, 3).flatmap(lambda dim: st.lists(
    st.tuples(*[st.integers(-3, 3)] * dim), min_size=1, max_size=4)))
def test_coordinates_exist_exactly_over_independent_generators(gens):
    assume(any(any(g) for g in gens))
    s = semigroup(gens)
    got = cones_mod.simplicial_coordinates(
        s.generators, s.dimension, s.generators[0])
    independent = len(rref(s.generators)[0]) == len(s.generators)
    assert (got is not None) == independent
    if independent:
        # the first generator's coordinates are the first unit vector
        assert [Fraction(num, den) for num, den in got] == (
            [1] + [0] * (len(got) - 1))


def test_intersection_matches_bruteforce_random():
    rng = random.Random(23)
    for _ in range(40):
        dim = rng.randint(1, 2)
        s1 = random_pointed_semigroup(rng, dim, 3, lo=0, hi=6)
        s2 = random_pointed_semigroup(rng, dim, 3, lo=0, hi=6)
        got = intersect_semigroups(s1, s2)
        want = closure(s1.generators, dim, 40) & closure(s2.generators, dim, 40)
        have = closure(got.generators, dim, 40)
        assert have == want
        # minimality: no generator is reachable from the others
        for i, g in enumerate(got.generators):
            others = tuple(h for j, h in enumerate(got.generators) if j != i)
            assert g not in closure(others, dim, sum(g))
    # three 1-D members: the multi-block numerical table path
    for _ in range(15):
        members = [random_pointed_semigroup(rng, 1, 3, lo=0, hi=6)
                   for _ in range(3)]
        got = intersect_semigroup_family(members)
        want = set.intersection(*(closure(s.generators, 1, 120)
                                  for s in members))
        assert closure(got.generators, 1, 120) == want
        for i, g in enumerate(got.generators):
            others = tuple(h for j, h in enumerate(got.generators) if j != i)
            assert g not in closure(others, 1, sum(g))


def drop_generated_leave_one_out(points):
    """The points that the others do not generate, each tested against all
    the others: the reference for the reduction by degree."""
    keep = []
    for i, p in enumerate(points):
        others = tuple(q for j, q in enumerate(points) if j != i)
        if not is_member(DiophantineInstance(others, p))[0]:
            keep.append(p)
    return keep


def test_drop_generated_matches_leave_one_out():
    rng = random.Random(37)
    for _ in range(40):
        dim = rng.choice([2, 3])
        gens = random_pointed_semigroup(rng, dim, 5, lo=-4, hi=4).generators
        # sums of two generators are reducible unless they repeat one
        sums = {tuple(a + b for a, b in zip(rng.choice(gens), rng.choice(gens)))
                for _ in range(rng.randint(0, 4))}
        points = sorted(set(gens) | sums)
        rng.shuffle(points)
        pointed, w = is_pointed(cone(points, dim))
        assert pointed
        assert (sorted(semigroups_mod._drop_generated(points, w))
                == sorted(drop_generated_leave_one_out(points)))


def test_intersection_builds_one_plan_per_kept_generator():
    # 27 kernel images reduce to 15 generators: testing each image against
    # the generators kept so far builds at most one search plan per kept
    # one, where leave-one-out built one per image
    members = [semigroup([(2, 1), (3, 3), (5, 4)]),
               semigroup([(1, 4), (4, 1), (4, 5)])]
    semigroups_mod._intersect_cached.cache_clear()
    dio_mod._plan_cached.cache_clear()
    got = intersect_semigroup_family(members)
    assert len(got.generators) == 15
    assert dio_mod._plan_cached.cache_info().misses <= len(got.generators)


def reach(gens, top):
    """The values in [0, top] that the positive integers `gens` reach."""
    hit = [True] + [False] * top
    for a in gens:
        for v in range(a, top + 1):
            hit[v] = hit[v] or hit[v - a]
    return {v for v in range(top + 1) if hit[v]}


@given(st.lists(st.lists(st.integers(1, 15), min_size=1, max_size=3),
                min_size=2, max_size=3))
def test_numerical_intersection_matches_reach_tables(blocks):
    got = intersect_semigroup_family(
        [semigroup([(v,) for v in block]) for block in blocks])
    gens = [g[0] for g in got.generators]
    # block gcd g and Frobenius number F of block / g give g * F < 15 ** 2,
    # so every minimal generator is below 2 * 15 ** 2 + lcm(gcds)
    top = 2 * 15 ** 2 + lcm(*(gcd(*block) for block in blocks))
    assert reach(gens, top) == set.intersection(
        *(reach(block, top) for block in blocks))
    for g in gens:
        assert g not in reach([h for h in gens if h != g], g)


@given(st.sampled_from([1, 2, 3, 4, 6]),
       st.lists(st.integers(1, 20), min_size=1, max_size=3),
       st.integers(0, 500))
def test_member_table_matches_reach(g, values, bound):
    gens = tuple(g * v for v in values)
    step = gcd(*gens)
    # below the first generator, anywhere, and past the last gap
    last_gap = step * frobenius([v // step for v in gens])
    for top in (min(gens) - 1, bound, last_gap + 2 * max(gens)):
        table = _member_table(gens, top)
        assert len(table) == top + 1
        assert {v for v in range(top + 1) if table[v]} == reach(gens, top)


def test_numerical_intersection_of_large_singletons_is_fast():
    # a reach-table DP over the 6 * 10**6 cells of each block took 0.89 s
    # on a 2-core Xeon VM; the minima fill each table in one slice
    start = time.perf_counter()
    got = intersect_semigroups(semigroup([(2 * 10 ** 6,)]),
                               semigroup([(3 * 10 ** 6,)]))
    assert got.generators == ((6 * 10 ** 6,),)
    assert time.perf_counter() - start < 0.2


def test_cone_commutes_with_intersection():
    rng = random.Random(29)
    for _ in range(20):
        dim = rng.randint(1, 2)
        s1 = random_pointed_semigroup(rng, dim, 3, lo=0, hi=5)
        s2 = random_pointed_semigroup(rng, dim, 3, lo=0, hi=5)
        inter = intersect_semigroups(s1, s2)
        lhs = intersect_cones([cone_of(s1), cone_of(s2)])
        rhs = intersect_cones([cone_of(inter)])
        assert rhs.generators == lhs.generators


def test_family_nontrivial_agrees_with_chained_intersections():
    rng = random.Random(31)
    for _ in range(25):
        dim = rng.randint(1, 3)
        members = [random_pointed_semigroup(rng, dim, 4, lo=-5, hi=5)
                   for _ in range(rng.randint(1, 3))]
        ok, w = family_intersection_nontrivial(members)
        chained = intersect_semigroup_family(members)
        assert ok == (not chained.is_trivial)
        if ok:
            for s in members:
                assert member(s, w)[0]


@pytest.mark.parametrize("mod, name, args", [
    (cones_mod, "_generator_description", lambda i: (((i,),), 1)),
    (dio_mod, "_witness", lambda i: (((i,),), 1)),
    (dio_mod, "_plan_cached", lambda i: (((i,),), 1)),
    (semigroups_mod, "_intersect_cached", lambda i: (1, (((i,),),))),
], ids=["dd", "witness", "plan", "intersect"])
def test_caches_stay_within_their_bounds(mod, name, args):
    cache, bound = getattr(mod, name), cones_mod._CACHE_SIZE
    assert cache.cache_info().maxsize == bound
    misses = cache.cache_info().misses
    for i in range(1, bound + 20):
        cache(*args(i))
        assert cache.cache_info().currsize <= bound
    assert cache.cache_info().misses - misses >= bound
    cache.cache_clear()
