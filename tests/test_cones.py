import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromatic_semigroups import (
    AffineSemigroup,
    ColoredSemigroup,
    DiophantineInstance,
    classify,
    colored_numerical,
    cone,
    cone_from_inequalities,
    contains_nonzero,
    contains_point,
    dd_convert,
    frobenius,
    hilbert_basis_homogeneous,
    intersect_cones,
    is_pointed,
    rational_feasible,
    ray_description,
    scale_into,
    semigroup,
)
from chromatic_semigroups import cones as cones_mod
from chromatic_semigroups._linalg import (
    dot,
    is_zero,
    vec_neg,
    vec_scale,
    vec_sub,
)
from chromatic_semigroups.colored import build_unique_expression_family
from chromatic_semigroups.cones import (
    _generator_description,
    suffix_descriptions,
)
from chromatic_semigroups.diophantine import _plan_cached
from chromatic_semigroups.errors import (
    DimensionMismatchError,
    TheoremContractError,
)
from lp_reference import (
    lp_feasible,
    primitive,
    reduce_mod_rows,
    rref,
    sign_canonical,
)


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
    return lp_feasible(rows) is not None


def test_dd_trivial_cone_pins_origin():
    c = dd_convert(cone([], 2))
    assert contains_point(c, (0, 0))
    for p in [(1, 0), (0, -1), (2, 3)]:
        assert not contains_point(c, p)


def test_dd_convert_returns_the_cone():
    # the rows are no field of the cone: they are read from one cache
    for gens in ([(1, 0), (1, 2)], [(1, 1)], [(2, 1), (1, 3), (1, 1)]):
        c = cone(gens)
        assert dd_convert(c) is c
        assert cone(gens) == dd_convert(cone(gens))


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
    # a point of the wrong length is refused, not truncated
    with pytest.raises(DimensionMismatchError):
        contains_point(cone([(1, 0), (0, 1)]), (1, 1, -7))


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


def test_rational_feasible_edge_rows():
    assert rational_feasible([]) == ()
    assert rational_feasible([(5,), (-1,)]) is None  # 0 >= -5, 0 >= 1
    assert rational_feasible([(-1,)], strict=[0]) == ()  # 0 > -1
    assert rational_feasible([(0, 0)], strict=[0]) is None  # 0 > 0
    assert rational_feasible([(0, 0, -1), (1, 0, 0)]) is not None
    assert rational_feasible([(0, 0, 1), (1, 0, 0)]) is None
    with pytest.raises(ValueError):
        rational_feasible([(1, 0), (1, 0, 0)])


@st.composite
def _affine_systems(draw):
    """Rows a . x >= c in 0-4 variables, some mixing ints and Fractions with
    denominators up to 10^4, with zero rows and rows (0, ..., 0, c) mixed
    in, and a random strict set."""
    m = draw(st.integers(0, 4))
    entry = st.integers(-3, 3)
    mixed = st.one_of(entry, st.builds(Fraction, entry, st.integers(1, 10 ** 4)))
    row = st.one_of(st.tuples(*[entry] * (m + 1)),
                    st.tuples(*[mixed] * (m + 1)),
                    st.builds(lambda c: (0,) * m + (c,), entry),
                    st.just((0,) * (m + 1)))
    rows = draw(st.lists(row, min_size=1, max_size=7))
    strict = draw(st.sets(st.integers(0, len(rows) - 1)))
    return rows, strict


@settings(max_examples=400)
@given(_affine_systems())
def test_rational_feasible_matches_lp(case):
    rows, strict = case
    point = rational_feasible(rows, strict)
    assert (point is None) == (lp_feasible(rows, strict) is None)
    if point is None:
        return
    m = len(rows[0]) - 1
    assert len(point) == m and all(isinstance(x, Fraction) for x in point)
    for i, row in enumerate(rows):
        slack = _dot(row[:m], point) - row[m]
        assert slack > 0 if i in strict else slack >= 0, (i, row)


@pytest.mark.parametrize("build", [
    lambda x: cone([(x, 1), (1, 0)]),
    lambda x: cone_from_inequalities([(x, -1)], 2),
    lambda x: DiophantineInstance(((x,), (2,)), (3,)),
    lambda x: DiophantineInstance(((2,),), (x,)),
    lambda x: hilbert_basis_homogeneous([(x, 1, -2)]),
    lambda x: AffineSemigroup(2, ((x, 1), (1, 0))),
    lambda x: scale_into(semigroup([(1, 0), (0, 1)]), (x, 1)),
    lambda x: ColoredSemigroup(1, ((x,), (3,)), ((0,), (1,))),
    lambda x: ColoredSemigroup(1, ((2,), (3,)), ((0,), (x,))),
    lambda x: classify(ColoredSemigroup(1, ((2,), (3,)), ((0,), (1,))),
                       (x, 0)),
    lambda x: colored_numerical((2,), (x + 2,)),
    lambda x: frobenius((2, x + 2)),
], ids=["cone", "cone_from_inequalities", "instance_columns", "instance_rhs",
        "hilbert_basis_homogeneous", "affine_semigroup", "scale_into",
        "colored_columns", "colored_classes", "classify", "colored_numerical",
        "frobenius"])
def test_non_integral_entries_raise(build):
    # integral values of any numeric type are accepted; a non-integral one
    # is an error, never truncated
    assert build(1) == build(1.0) == build(Fraction(2, 2))
    for bad in (Fraction(3, 2), 1.5):
        with pytest.raises(ValueError, match="non-integral"):
            build(bad)


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
        lp = lp_feasible([g + (1,) for g in c.generators]) is not None
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


@given(st.integers(1, 3).flatmap(lambda m: st.lists(st.lists(
    st.tuples(*[st.integers(-3, 3)] * m), min_size=1, max_size=3),
    min_size=1, max_size=3).map(lambda sets: (sets, m))))
def test_cones_meet_is_the_intersections_decision(case):
    sets, m = case
    cs = [cone(g, m) for g in sets]
    assert cones_mod.cones_meet([c.generators for c in cs], m) == (
        contains_nonzero(intersect_cones(cs))[0])


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


# ---------------------------------------------------------------------------
# the double description against a from-scratch reference


def _reference_dd(rows, dim):
    """Double description that recomputes every ray's zero set over all
    inserted rows at each insertion; same canonical output contract as
    `_generator_description`."""
    work = []
    seen = set()
    for r in rows:
        if is_zero(r):
            continue
        p = primitive(r)
        if p not in seen:
            seen.add(p)
            work.append(p)

    lineality = [tuple(1 if j == i else 0 for j in range(dim))
                 for i in range(dim)]
    rays = []
    processed = []
    for a in work:
        idx0 = None
        for i, l in enumerate(lineality):
            if dot(a, l) != 0:
                idx0 = i
                break
        if idx0 is not None:
            l0 = lineality.pop(idx0)
            if dot(a, l0) < 0:
                l0 = vec_neg(l0)
            d0 = dot(a, l0)
            folded = []
            for l in lineality:
                dl = dot(a, l)
                folded.append(primitive(vec_sub(vec_scale(d0, l), vec_scale(dl, l0)))
                              if dl != 0 else l)
            lineality = folded
            rays = [primitive(vec_sub(vec_scale(d0, r), vec_scale(dot(a, r), l0)))
                    if dot(a, r) != 0 else r
                    for r in rays]
            rays.append(l0)
        else:
            vals = [dot(a, r) for r in rays]
            if any(v < 0 for v in vals):
                masks = [_reference_zero_mask(r, processed) for r in rays]
                keep = [r for r, v in zip(rays, vals) if v >= 0]
                fresh = []
                for ip, rp in enumerate(rays):
                    if vals[ip] <= 0:
                        continue
                    for im, rm in enumerate(rays):
                        if vals[im] >= 0:
                            continue
                        common = masks[ip] & masks[im]
                        if any(common & mk == common
                               for k, mk in enumerate(masks)
                               if k != ip and k != im):
                            continue
                        w = vec_sub(vec_scale(vals[ip], rm),
                                    vec_scale(vals[im], rp))
                        fresh.append(primitive(w))
                rays = keep
                present = set(rays)
                for w in fresh:
                    if w not in present:
                        present.add(w)
                        rays.append(w)
        processed.append(a)

    if lineality:
        lin_rref, pivots = rref(lineality)
        lin = sorted(sign_canonical(primitive(row)) for row in lin_rref)
        red_rays = sorted({primitive(reduce_mod_rows(r, lin_rref, pivots))
                           for r in rays})
    else:
        lin = []
        red_rays = sorted({primitive(r) for r in rays})
    return tuple(lin), tuple(red_rays)


def _reference_zero_mask(ray, processed):
    mask = 0
    for i, row in enumerate(processed):
        if dot(row, ray) == 0:
            mask |= 1 << i
    return mask


@st.composite
def _row_sets(draw):
    """Rows in dimension 1-6 with zero rows, duplicates and lines mixed in;
    in d >= 5 most states keep some lineality."""
    d = draw(st.integers(1, 6))
    vec = st.tuples(*[st.integers(-1000, 1000)] * d)
    rows = draw(st.lists(vec, max_size=8))
    for kind in draw(st.lists(st.sampled_from(("zero", "duplicate", "line")),
                              max_size=3)):
        at = draw(st.integers(0, len(rows)))
        if kind == "zero":
            rows.insert(at, (0,) * d)
        elif rows:
            r = draw(st.sampled_from(rows))
            rows.insert(at, r if kind == "duplicate" else vec_neg(r))
    return tuple(rows), d


@settings(max_examples=300)
@given(_row_sets())
def test_dd_and_every_suffix_match_reference(case):
    rows, d = case
    assert _generator_description(rows, d) == _reference_dd(rows, d)
    suffixes = suffix_descriptions(rows, d)
    assert len(suffixes) == len(rows) + 1
    for k, desc in enumerate(suffixes):
        assert desc == _reference_dd(rows[k:], d), k


def _assert_plan_facets(cols, d):
    order, w, rows, steps = _plan_cached(cols, d)
    ocols = [cols[i] for i in order]
    assert rows == dd_convert(cone(ocols, d)).inequalities
    for k, (col, wc, eqs, ineqs) in enumerate(steps):
        assert col == ocols[k] and wc == dot(w, col)
        later = ocols[k + 1:]
        want = (dd_convert(cone(later, d)).inequalities if later else
                tuple(v for i in range(d) for v in
                      (tuple(int(j == i) for j in range(d)),
                       tuple(-int(j == i) for j in range(d)))))
        # the plan keeps the rows that the column moves, with their steps
        moved = [m for m in want if dot(m, col)]
        got = [m for m, _ in ineqs]
        got += [v for m, _ in eqs for v in (m, vec_neg(m))]
        assert sorted(got) == sorted(moved)
        assert all(s == dot(m, col) for m, s in eqs + ineqs)


def test_plan_suffix_facets_match_dd_convert():
    rng = random.Random(13)
    checked = 0
    while checked < 120:
        d = rng.randint(1, 3)
        cols = [tuple(rng.randint(-3, 5) for _ in range(d))
                for _ in range(rng.randint(1, 7))]
        cols = tuple(c for c in cols if not is_zero(c))
        if rng.random() < 0.3 and cols:
            cols += (rng.choice(cols),)  # repeated column, as across colors
        if not cols or not is_pointed(cone(cols, d))[0]:
            continue
        _assert_plan_facets(cols, d)
        checked += 1
    for n in range(1, 9):
        fam = build_unique_expression_family(n)
        _assert_plan_facets(fam.colored.columns, fam.colored.dimension)


def test_dd_convert_rejects_a_wrong_description(monkeypatch):
    # a generator outside a computed facet can only come from a bug; the
    # checked rows are cached, so rows cached by earlier tests go first
    cones_mod._checked_rows.cache_clear()
    real = cones_mod._generator_description
    monkeypatch.setattr(
        cones_mod, "_generator_description",
        lambda rows, dim: (real(rows, dim)[0],
                           tuple(vec_neg(r) for r in real(rows, dim)[1])))
    with pytest.raises(TheoremContractError):
        dd_convert(cone([(1, 0), (1, 2)]))
