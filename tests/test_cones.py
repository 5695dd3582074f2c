import random
from fractions import Fraction

import pytest

from chromatic_semigroups import (
    cone,
    cone_from_inequalities,
    contains_nonzero,
    contains_point,
    dd_convert,
    intersect_cones,
    is_pointed,
    rational_feasible,
    ray_description,
)
from chromatic_semigroups._linalg import rref
from chromatic_semigroups.colored import build_unique_expression_family
from chromatic_semigroups.errors import DimensionMismatchError


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def test_dd_orthant():
    c = dd_convert(cone([(1, 0), (0, 1)]))
    assert c.inequalities == ((0, 1), (1, 0))


def test_dd_single_ray_is_equality_pair_plus_halfline():
    c = dd_convert(cone([(1, 1)], 2))
    assert c.inequalities == ((-1, 1), (0, 1), (1, -1))
    # semantically: x1 == x2 and x1 >= 0
    assert contains_point(c, (3, 3))
    assert not contains_point(c, (1, 2))
    assert not contains_point(c, (-1, -1))


def test_dd_wedge_membership_grid_against_lp():
    # H-description must agree with direct nonnegative-combination
    # feasibility on a grid of rational points
    c = dd_convert(cone([(1, 0), (1, 2)]))
    assert c.inequalities == ((0, 1), (2, -1))
    gens = [(1, 0), (1, 2)]
    for a in range(-6, 7):
        for b in range(-6, 7):
            p = (Fraction(a, 2), Fraction(b, 2))
            by_lp = _conic_combination_exists(gens, p)
            by_h = all(_dot(row, p) >= 0 for row in c.inequalities)
            assert by_lp == by_h


def _conic_combination_exists(gens, p):
    n = len(gens)
    d = len(p)
    rows = []
    for i in range(n):  # multipliers nonnegative
        rows.append(tuple(1 if j == i else 0 for j in range(n)) + (0,))
    for j in range(d):  # equality as paired inequalities
        coeffs = tuple(g[j] for g in gens)
        rows.append(coeffs + (p[j],))
        rows.append(tuple(-x for x in coeffs) + (-p[j],))
    return rational_feasible(rows) is not None


def test_dd_trivial_cone_pins_origin():
    c = dd_convert(cone([], 2))
    assert contains_point(c, (0, 0))
    for p in [(1, 0), (0, -1), (2, 3)]:
        assert not contains_point(c, p)


def test_dd_idempotent_roundtrip():
    c = dd_convert(cone([(2, 1), (1, 3), (1, 1)]))
    lin, rays = ray_description(c)
    assert lin == ()
    again = dd_convert(cone(rays))
    assert again.inequalities == c.inequalities


def test_is_pointed_examples():
    flag, w = is_pointed(cone([(1, 0), (0, 1)]))
    assert flag and _dot(w, (1, 0)) > 0 and _dot(w, (0, 1)) > 0
    assert is_pointed(cone([(1,), (-1,)], 1)) == (False, None)


def test_is_pointed_pooled_family_witness():
    fam = build_unique_expression_family(6)
    flag, w = is_pointed(cone(fam.colored.columns, 3))
    assert flag
    for g in fam.colored.columns:
        assert _dot(w, g) > 0
    # a witness of the shape (K, 1, 1) works for large K
    k = 2 ** 7
    for g in fam.colored.columns:
        assert _dot((k, 1, 1), g) > 0


def test_intersect_shared_facet_ray():
    c = intersect_cones([cone([(1, 0), (0, 1)]), cone([(0, 1), (-1, 0)])])
    assert c.generators == ((0, 1),)


def test_intersect_wedge_with_ray():
    c = intersect_cones([cone([(1, 0), (1, 2)]), cone([(1, 1)], 2)])
    assert c.generators == ((1, 1),)
    # the wedge generators are not in the single-ray cone
    ray = dd_convert(cone([(1, 1)], 2))
    assert not contains_point(ray, (1, 0))
    assert not contains_point(ray, (1, 2))


def test_intersect_opposite_rays_is_trivial():
    c = intersect_cones([cone([(1,)], 1), cone([(-1,)], 1)])
    assert c.generators == ()
    assert contains_nonzero(c) == (False, None)


def test_intersect_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        intersect_cones([cone([(1,)], 1), cone([(1, 0)], 2)])


def test_contains_nonzero_ray_and_trivial():
    assert contains_nonzero(cone([(3, 5)], 2)) == (True, (3, 5))
    assert contains_nonzero(cone([], 2)) == (False, None)


def test_contains_nonzero_triangle_family():
    v = [(1, 0), (0, 1), (-1, -1)]
    cones = [cone([u for u in v if u != vi]) for vi in v]
    full = intersect_cones(cones)
    assert contains_nonzero(full)[0] is False
    for i in range(3):
        for j in range(i + 1, 3):
            pair = intersect_cones([cones[i], cones[j]])
            assert contains_nonzero(pair)[0] is True


def test_rational_feasible_basic():
    point = rational_feasible([(1, 0), (1, 1)])  # x >= 0, x >= 1
    assert point is not None and point[0] >= 1
    assert rational_feasible([(1, 0), (-1, 1)]) is None  # x >= 0, -x >= 1
    point = rational_feasible([(1, 0, 0), (0, 1, 0), (1, 1, 0)],
                              strict={0, 1, 2})
    assert point is not None
    for row in [(1, 0), (0, 1), (1, 1)]:
        assert _dot(row, point) > 0


def test_cone_drops_zero_generators_with_flag():
    c = cone([(0, 0), (1, 0)])
    assert c.zero_generators_dropped
    assert c.generators == ((1, 0),)


def test_cone_from_inequalities():
    c = cone_from_inequalities([(1, 0), (0, 1), (-1, -1)], 2)
    assert c.generators == ()
    half = cone_from_inequalities([(1, 0)], 2)
    lin, rays = ray_description(half)
    assert lin == ((0, 1),)
    assert rays == ((1, 0),)


# ---------------------------------------------------------------------------
# properties on random inputs


def test_roundtrip_random_cones():
    rng = random.Random(42)
    for _ in range(60):
        m = rng.randint(1, 4)
        gens = [tuple(rng.randint(-9, 9) for _ in range(m))
                for _ in range(rng.randint(1, 6))]
        c = dd_convert(cone(gens, m))
        for g in c.generators:
            for row in c.inequalities:
                assert _dot(row, g) >= 0
        # every extreme ray is a nonnegative rational combination of gens
        lin, rays = ray_description(c)
        for r in list(rays) + list(lin):
            assert _conic_combination_exists(c.generators, r)


def test_pointed_witness_random():
    # 1-3-D cones spanned by signed combinations of 1..m basis vectors, so
    # lines and spans of lower dimension both occur; the flag is checked
    # against the LP reference (pointed iff some w has w . g >= 1 on every
    # generator), and the witness must depend on the cone alone
    rng = random.Random(7)
    seen = set()
    for _ in range(300):
        m = rng.randint(1, 3)
        basis = [tuple(rng.randint(-4, 4) for _ in range(m))
                 for _ in range(rng.randint(1, m))]
        gens = [tuple(sum(rng.randint(-2, 2) * b[j] for b in basis)
                      for j in range(m))
                for _ in range(rng.randint(1, 5))]
        c = cone(gens, m)
        flag, w = is_pointed(c)
        lp = rational_feasible([g + (1,) for g in c.generators]) is not None
        assert flag == lp, c.generators
        if not flag or not c.generators:
            continue
        for g in c.generators:
            assert _dot(w, g) >= 1
        shuffled = list(c.generators)
        rng.shuffle(shuffled)
        shuffled.append(tuple(a + b for a, b in
                              zip(c.generators[0], c.generators[-1])))
        assert is_pointed(cone(shuffled, m)) == (True, w), c.generators
        seen.add((m, len(rref(c.generators)[1]) < m))
    # pointed cones of every dimension, full and lower-dimensional
    assert seen >= {(1, False), (2, False), (2, True), (3, False), (3, True)}


def test_contains_nonzero_monotone_under_intersection():
    rng = random.Random(3)
    for _ in range(30):
        m = rng.randint(1, 3)
        cones = [cone([tuple(rng.randint(-3, 3) for _ in range(m))
                       for _ in range(rng.randint(1, 3))], m)
                 for _ in range(3)]
        prev = None
        for upto in range(1, 4):
            cur = contains_nonzero(intersect_cones(cones[:upto]))[0]
            if prev is not None:
                assert not (cur and not prev)  # adding cones never gains points
            prev = cur


def test_intersection_commutative_associative():
    rng = random.Random(11)
    for _ in range(20):
        m = rng.randint(1, 3)
        cs = [cone([tuple(rng.randint(-3, 3) for _ in range(m))
                    for _ in range(rng.randint(1, 3))], m)
              for _ in range(3)]
        a = intersect_cones(cs)
        b = intersect_cones(list(reversed(cs)))
        c2 = intersect_cones([intersect_cones(cs[:2]), cs[2]])
        assert a.generators == b.generators == c2.generators
