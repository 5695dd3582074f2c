import gc
import random
import sys
import time
import tracemalloc
import weakref
from itertools import product
from math import gcd, inf, prod

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from chromatic_semigroups import (
    DiophantineInstance,
    count_solutions,
    enumerate_solutions,
    hilbert_basis_homogeneous,
    is_member,
    iter_solutions,
)
from chromatic_semigroups import diophantine as dio
from chromatic_semigroups._hilbert import _parallelepiped_points
from chromatic_semigroups import numerical
from chromatic_semigroups.errors import NotPointedError

from conftest import independent_cone_points
from lp_reference import rref

SIX_COIN_COLUMNS = tuple((v,) for v in (9, 16, 11, 14, 12, 13))


def brute_solutions(columns, rhs, bound):
    """Grid scan with an explicit per-coordinate bound."""
    out = []
    for x in product(*[range(b + 1) for b in bound]):
        val = tuple(sum(x[i] * columns[i][j] for i in range(len(columns)))
                    for j in range(len(rhs)))
        if val == tuple(rhs):
            out.append(x)
    return sorted(out)


def test_enumerate_3_5():
    inst = DiophantineInstance(((3,), (5,)), (8,))
    assert enumerate_solutions(inst) == ((1, 1),)
    assert enumerate_solutions(inst) == tuple(
        brute_solutions(inst.columns, inst.rhs, (2, 1)))


def test_enumerate_six_coin_example_contains_reference_solutions():
    inst = DiophantineInstance(SIX_COIN_COLUMNS, (70,))
    sols = enumerate_solutions(inst)
    for x in [(6, 1, 0, 0, 0, 0), (3, 1, 0, 1, 0, 1),
              (0, 1, 0, 2, 0, 2), (0, 0, 2, 0, 4, 0)]:
        assert x in sols
    assert sols == tuple(sorted(set(sols)))


def test_enumerate_zero_rhs():
    inst = DiophantineInstance(SIX_COIN_COLUMNS, (0,))
    assert enumerate_solutions(inst) == ((0,) * 6,)


def test_enumerate_not_pointed():
    with pytest.raises(NotPointedError):
        enumerate_solutions(DiophantineInstance(((1,), (-1,)), (0,)))


def test_enumerate_rejects_zero_column():
    with pytest.raises(ValueError):
        enumerate_solutions(DiophantineInstance(((0,), (2,)), (4,)))


def test_member():
    assert is_member(DiophantineInstance(((3,), (5,)), (7,))) == (False, None)
    found, w = is_member(DiophantineInstance(((3,), (5,)), (0,)))
    assert found and w == (0, 0)
    # pooled family point: one valid expression suffices
    from chromatic_semigroups.colored import build_unique_expression_family
    fam = build_unique_expression_family(6)
    found, w = is_member(DiophantineInstance(fam.colored.columns, fam.target))
    assert found
    hit = tuple(sum(w[i] * fam.colored.columns[i][j] for i in range(18))
                for j in range(3))
    assert hit == fam.target


@given(independent_cone_points(), st.integers(0, 3),
       st.sampled_from(["as drawn", "duplicate", "zero", "empty"]))
def test_is_member_matches_the_raw_search(case, q, variant):
    # over independent columns `is_member` reads b's coordinates off; the
    # raw search must give the same first solution.  A repeated column
    # makes the columns dependent, a zero column is refused and no columns
    # reach the origin alone
    s, p = case
    cols = s.generators
    if variant == "duplicate":
        cols += cols[:1]
    elif variant == "zero":
        cols += ((0,) * s.dimension,)
    elif variant == "empty":
        cols = ()
    point = tuple(q * v for v in p)
    # one more in the first coordinate leaves the lattice, the span or the
    # cone at times
    for b in (point, (point[0] + 1,) + point[1:]):
        inst = DiophantineInstance(cols, b)
        if variant == "zero":
            with pytest.raises(ValueError):
                is_member(inst)
            with pytest.raises(ValueError):
                next(iter_solutions(inst))
            continue
        want = next(iter_solutions(inst), None)
        assert is_member(inst) == (want is not None, want)


def test_hilbert_basis_small():
    assert hilbert_basis_homogeneous([(1, -1)]) == ((1, 1),)
    assert hilbert_basis_homogeneous([(2, -3)]) == ((3, 2),)


def test_hilbert_basis_two_equations_against_bruteforce():
    rows = [(1, 1, -1, 0), (0, 2, 0, -1)]
    basis = hilbert_basis_homogeneous(rows)
    # oracle: all solutions with entries <= 4, filtered to minimal ones
    sols = []
    for z in product(range(5), repeat=4):
        if any(z) and all(sum(r[i] * z[i] for i in range(4)) == 0 for r in rows):
            sols.append(z)
    minimal = [z for z in sols
               if not any(s != z and all(a <= b for a, b in zip(s, z))
                          for s in sols)]
    assert basis == tuple(sorted(minimal))


def hilbert_basis_completion(rows):
    """Hilbert basis by completion over the componentwise order.

    Frontier vectors t grow by one unit step e_j at a time, allowed only
    when <Bt, Be_j> < 0, and are discarded as soon as they dominate a known
    solution.  Exponential on systems whose minimal solutions are large;
    the reference for `hilbert_basis_homogeneous` on small systems.
    """
    k = len(rows[0])
    bcols = [tuple(r[j] for r in rows) for j in range(k)]

    basis = []
    frontier = {}
    for j in range(k):
        t = tuple(1 if i == j else 0 for i in range(k))
        frontier[t] = bcols[j]
    while frontier:
        for t, val in frontier.items():
            if all(v == 0 for v in val) and not _dominates_any(t, basis):
                basis.append(t)
        nxt = {}
        for t, val in frontier.items():
            if all(v == 0 for v in val):
                continue
            for j in range(k):
                if sum(a * b for a, b in zip(val, bcols[j])) < 0:
                    u = t[:j] + (t[j] + 1,) + t[j + 1:]
                    if u in nxt or _dominates_any(u, basis):
                        continue
                    nxt[u] = tuple(a + b for a, b in zip(val, bcols[j]))
        frontier = nxt
    minimal = [t for t in basis
               if not any(s != t and all(a >= b for a, b in zip(t, s))
                          for s in basis)]
    return tuple(sorted(minimal))


def _dominates_any(t, basis):
    for s in basis:
        if all(a >= b for a, b in zip(t, s)):
            return True
    return False


def test_hilbert_matches_completion_reference():
    rng = random.Random(5)
    for _ in range(25):
        k = rng.randint(2, 4)
        d = rng.randint(1, 2)
        rows = [tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(d)]
        assert hilbert_basis_homogeneous(rows) == hilbert_basis_completion(rows)


def test_hilbert_minimality_and_coverage():
    rng = random.Random(9)
    for _ in range(15):
        k = rng.randint(2, 4)
        rows = [tuple(rng.randint(-3, 3) for _ in range(k))]
        basis = hilbert_basis_homogeneous(rows)
        for a in basis:
            for b in basis:
                if a != b:
                    assert not all(x <= y for x, y in zip(a, b))
        # every small solution decomposes over the basis
        for z in product(range(6), repeat=k):
            if not any(z):
                continue
            if any(sum(r[i] * z[i] for i in range(k)) != 0 for r in rows):
                continue
            assert _decomposes(z, basis)


def _decomposes(z, basis):
    if not any(z):
        return True
    for b in basis:
        if all(x >= y for x, y in zip(z, b)):
            rest = tuple(x - y for x, y in zip(z, b))
            if _decomposes(rest, basis):
                return True
    return False


def parallelepiped_scan(cell):
    """Nonzero integer points of {lambda G : lambda in [0, 1)^t} by a scan.

    A point of the span is fixed by its coordinates on t pivot columns of
    the rays G, so those coordinates run over the cell's bounding box and
    lambda is solved from them in Fractions; the point is kept when lambda
    lies in [0, 1)^t and lambda G is integral.  None for dependent rays.
    """
    t = len(cell)
    _, pivots = rref(cell)
    if len(pivots) < t:
        return None
    aug, _ = rref([[r[p] for p in pivots] + [int(i == j) for j in range(t)]
                   for i, r in enumerate(cell)])
    inverse = [row[t:] for row in aug]
    box = [range(sum(min(r[p], 0) for r in cell),
                 sum(max(r[p], 0) for r in cell) + 1) for p in pivots]
    points = set()
    for zp in product(*box):
        lam = [sum(z * row[j] for z, row in zip(zp, inverse))
               for j in range(t)]
        if not all(0 <= x < 1 for x in lam):
            continue
        z = [sum(x * r[c] for x, r in zip(lam, cell))
             for c in range(len(cell[0]))]
        if any(z) and all(c.denominator == 1 for c in z):
            points.add(tuple(int(c) for c in z))
    return points


@example(((2, 0), (0, 3)))  # index 6, full rank
@example(((1, 1, 0), (1, -1, 0)))  # index 2 inside a plane
@example(((3, 0, 1, 0), (0, 3, 1, 0), (1, 1, 0, 3)))  # index 3, t = 3, k = 4
@given(st.integers(1, 4).flatmap(lambda k: st.lists(
    st.tuples(*[st.integers(-3, 3)] * k), min_size=1, max_size=min(k, 3))))
def test_parallelepiped_points_match_a_box_scan(cell):
    cell = tuple(cell)
    want = parallelepiped_scan(cell)
    assume(want is not None)
    assert _parallelepiped_points(cell) == want


def test_count_solutions_examples():
    inst = DiophantineInstance(((3,), (5,)), (15,))
    assert count_solutions(inst, [0, 1]) == 2
    inst0 = DiophantineInstance(((3,), (5,)), (0,))
    assert count_solutions(inst0, []) == 1
    instn = DiophantineInstance(((3,), (5,)), (4,))
    assert count_solutions(instn, []) == 0
    inst6 = DiophantineInstance(((2,), (3,)), (6,))
    assert count_solutions(inst6, [0, 1]) == 2


def test_count_matches_enumeration_length():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(1, 4)
        cols = tuple((rng.randint(1, 9),) for _ in range(n))
        b = (rng.randint(0, 25),)
        inst = DiophantineInstance(cols, b)
        assert count_solutions(inst, range(n)) == len(enumerate_solutions(inst))


def test_count_monotone_in_allowed():
    inst = DiophantineInstance(((2,), (3,), (5,)), (17,))
    prev = 0
    for upto in range(4):
        cur = count_solutions(inst, range(upto))
        assert cur >= prev or upto == 1  # allowing more columns never loses
        prev = max(prev, cur)
    assert count_solutions(inst, [0, 1, 2]) >= count_solutions(inst, [0, 1])


def test_enumeration_agrees_with_witness_bounded_scan_signed():
    # signed entries: the witness functional supplies the grid bounds.  The
    # search yields the solutions in lexicographic order over the plan's
    # column order, and `is_member`'s witness is the first of them.  Some
    # cases repeat a column or have a coordinate that one column alone
    # touches, where a row of the later columns' cone fixes a multiplicity.
    from chromatic_semigroups.cones import cone, is_pointed
    from chromatic_semigroups.diophantine import _plan_cached
    rng = random.Random(55)
    shape = random.Random(56)
    done = found = 0
    while done < 60:
        d = rng.randint(1, 3)
        n = rng.randint(1, 5)
        cols = [tuple(rng.randint(-8, 8) for _ in range(d)) for _ in range(n)]
        kind = shape.choice(["plain", "repeat", "lone"])
        if kind == "repeat":
            cols.insert(shape.randrange(n + 1), shape.choice(cols))
        elif kind == "lone":
            j = shape.randrange(d)
            cols = [c[:j] + ((c[j] or 1) if i == 0 else 0,) + c[j + 1:]
                    for i, c in enumerate(cols)]
            shape.shuffle(cols)
        if any(not any(c) for c in cols):
            continue
        pointed, w = is_pointed(cone(cols, d))
        if not pointed:
            continue
        if shape.random() < 0.5:
            b = tuple(rng.randint(-30, 30) for _ in range(d))
        else:  # a semigroup element, so that solutions are common
            mult = [shape.randint(0, 3) for _ in cols]
            b = tuple(sum(m * c[j] for m, c in zip(mult, cols))
                      for j in range(d))
        inst = DiophantineInstance(tuple(cols), b)
        wb = sum(x * y for x, y in zip(w, b))
        if wb < 0:
            assert enumerate_solutions(inst) == ()
            assert is_member(inst) == (False, None)
            done += 1
            continue
        bound = [wb // sum(x * y for x, y in zip(w, c)) for c in cols]
        if prod(v + 1 for v in bound) > 20000:
            continue  # keep the grid scan small
        want = tuple(brute_solutions(cols, b, bound))
        assert enumerate_solutions(inst) == want
        order = _plan_cached(tuple(cols), d)[0]
        in_order = sorted(want, key=lambda x: [x[i] for i in order])
        assert list(iter_solutions(inst)) == in_order
        assert is_member(inst) == ((True, in_order[0]) if want
                                   else (False, None))
        found += bool(want)
        done += 1
    assert found >= 20


def test_enumeration_agrees_with_bounded_grid_scan():
    rng = random.Random(21)
    for _ in range(30):
        d = rng.randint(1, 3)
        n = rng.randint(1, 4)
        cols = []
        for _ in range(n):
            v = tuple(rng.randint(0, 8) for _ in range(d))
            cols.append(v if any(v) else (1,) * d)
        b = tuple(rng.randint(0, 30) for _ in range(d))
        inst = DiophantineInstance(tuple(cols), b)
        # nonnegative columns: per-coordinate bounds are exact
        bound = []
        for i in range(n):
            best = None
            for j in range(d):
                if cols[i][j] > 0:
                    q = b[j] // cols[i][j]
                    best = q if best is None else min(best, q)
            bound.append(0 if best is None else best)
        assert enumerate_solutions(inst) == tuple(
            brute_solutions(cols, b, bound))


def test_member_agrees_with_bruteforce_and_first_solution_signed():
    # signed pointed instances: the flag matches a witness-bounded grid
    # scan, the witness solves the system, and it is the first solution the
    # search yields (so `member` reports do not depend on the pruning)
    from chromatic_semigroups.cones import cone, is_pointed
    rng = random.Random(77)
    done = hits = 0
    while done < 150:
        d = rng.randint(1, 3)
        n = rng.randint(1, 4)
        cols = [tuple(rng.randint(-6, 6) for _ in range(d)) for _ in range(n)]
        if any(not any(c) for c in cols):
            continue
        pointed, w = is_pointed(cone(cols, d))
        if not pointed:
            continue
        if rng.random() < 0.5:
            b = tuple(rng.randint(-20, 20) for _ in range(d))
        else:  # a semigroup element, so that members are common
            mult = [rng.randint(0, 3) for _ in range(n)]
            b = tuple(sum(m * c[j] for m, c in zip(mult, cols))
                      for j in range(d))
        inst = DiophantineInstance(tuple(cols), b)
        wb = sum(x * y for x, y in zip(w, b))
        bound = [max(wb, 0) // sum(x * y for x, y in zip(w, c)) for c in cols]
        if prod(v + 1 for v in bound) > 20000:
            continue  # keep the grid scan small
        found, x = is_member(inst)
        assert found == bool(brute_solutions(cols, b, bound))
        if found:
            assert all(v >= 0 for v in x)
            assert tuple(sum(x[i] * cols[i][j] for i in range(n))
                         for j in range(d)) == b
            assert x == next(iter_solutions(inst))
            hits += 1
        else:
            assert x is None
        done += 1
    assert hits >= 50


def _search_calls(fn, inst):
    """fn(inst) and the number of times the search's inner `descend` was
    entered (each new node and each resumption of a node's generator)."""
    code = dio._search.__code__
    calls = [0]

    def profile(frame, event, arg):
        if (event == "call" and frame.f_code.co_name == "descend"
                and frame.f_code.co_filename == code.co_filename):
            calls[0] += 1

    sys.setprofile(profile)
    try:
        out = fn(inst)
    finally:
        sys.setprofile(None)
    return out, calls[0]


def _dense_minima(values, a):
    """Least element of <values> in each residue class mod a, from a reach
    table up to a * max(values) (a least element uses under a columns)."""
    top = a * max(values)
    reach = [True] + [False] * top
    for v in range(1, top + 1):
        reach[v] = any(c <= v and reach[v - c] for c in values)
    least = [inf] * a
    for v in range(top, -1, -1):
        if reach[v]:
            least[v % a] = v
    return least


def _count_builds(monkeypatch):
    """The weight lists that the search builds residue minima for."""
    builds = []
    real = dio._suffix_minima

    def counted(wcs):
        builds.append(tuple(wcs))
        return real(wcs)

    monkeypatch.setattr(dio, "_suffix_minima", counted)
    return builds


def test_suffix_minima_match_dense_reach_tables():
    # 1-D plans order the columns by weight, heaviest first; the weights
    # are the absolute values, so negative columns share the rule
    rng = random.Random(71)
    for _ in range(60):
        scale = rng.choice((1, 1, 2, 3))  # gcd > 1 leaves minima at inf
        values = [scale * rng.randint(1, 9) for _ in range(rng.randint(1, 5))]
        values.append(rng.choice(values))  # a repeated column
        sign = rng.choice((1, -1))
        cols = tuple((sign * v,) for v in values)
        # a non-member this far out is only answered through the minima
        found, x = is_member(DiophantineInstance(cols, (sign * 10 ** 9,)))
        assert found == (10 ** 9 % gcd(*values) == 0)
        order, w, rows, steps = dio._plan_cached(cols, 1)
        wcs = [wc for _, wc, _, _ in steps]
        assert w == (sign,) and wcs == sorted(values, reverse=True)
        minima = dio._suffix_minima(wcs)
        a = wcs[-1]
        for k in range(len(wcs)):
            assert minima[k] == _dense_minima(wcs[k:], a), (values, k)


def test_member_on_a_huge_1d_target_is_fast(monkeypatch):
    # the search walked one multiplicity of 15 per step: 0.39 s at
    # 10**6 + 1, 4.3-5.1 s at 10**7 + 1 and no answer in 300 s at
    # 10**12 + 1 on a 2-core Xeon VM; residue minima answer in under 1 ms
    builds = _count_builds(monkeypatch)
    start = time.perf_counter()
    for cols in (((6,), (10,), (15,)), ((-6,), (-10,), (-15,))):
        b = cols[2][0] // 15 * (10 ** 12 + 1)
        found, x = is_member(DiophantineInstance(cols, (b,)))
        assert found and sum(v * c[0] for v, c in zip(x, cols)) == b
    assert is_member(DiophantineInstance(((6,), (10,)), (10 ** 12 + 1,))) == (
        False, None)
    assert time.perf_counter() - start < 1
    assert builds == [(15, 10, 6), (15, 10, 6), (10, 6)]


def test_member_with_large_columns_and_a_small_target_is_fast(monkeypatch):
    # residue minima mod 999983 cost about 2 s and 190 MB; searches that
    # answer within a few states do not build them, whatever the target
    builds = _count_builds(monkeypatch)
    cols = ((999983,), (1000003,), (1000033,))
    start = time.perf_counter()
    assert is_member(DiophantineInstance(cols, (2999949,))) == (
        True, (3, 0, 0))
    assert is_member(DiophantineInstance(cols, (2999950,))) == (False, None)
    assert is_member(DiophantineInstance(cols, (999983 * 3000,))) == (
        True, (3000, 0, 0))
    assert time.perf_counter() - start < 0.1
    assert builds == []


def test_member_memory_does_not_grow_with_the_last_columns_divisions():
    # the search fails 2 * 10**4 divisions of the last column before the
    # member: a dead key for each of them peaked at 5.2 MB traced
    cols = ((1000003,), (1000033,))
    b = 1000003 + 1000033 * 2 * 10 ** 4
    tracemalloc.start()
    try:
        assert is_member(DiophantineInstance(cols, (b,))) == (
            True, (1, 2 * 10 ** 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6


class _Minima(list):
    """A list that takes weak references."""


def test_minima_are_dropped_when_the_search_ends(monkeypatch):
    # each call builds its own minima and frees them when its search ends
    # or is dropped, without waiting for a garbage collection: many
    # distinct column sets leave only their plans behind
    real = dio._suffix_minima
    built = []

    def tracked(wcs):
        chain = [_Minima(m) for m in real(wcs)]
        built.extend(weakref.ref(m) for m in chain)
        return chain

    monkeypatch.setattr(dio, "_suffix_minima", tracked)
    sets = [tuple((2 * v,) for v in (m, m + 1, m + 3))
            for m in range(100, 120)]
    gc.disable()
    try:
        for cols in sets:
            assert is_member(DiophantineInstance(cols, (10 ** 9 + 1,))) == (
                False, None)
        # a member: the search is dropped at its first solution
        found, _ = is_member(
            DiophantineInstance(((6,), (10,), (15,)), (10 ** 12 + 1,)))
        assert found
        assert len(built) == 3 * len(sets) + 3
        assert all(ref() is None for ref in built)
    finally:
        gc.enable()


def test_minima_need_a_modulus_under_the_cap(monkeypatch):
    # _residue_minima refuses a modulus past _MODULUS_CAP, so the search
    # walks on without the minima rather than raise
    builds = _count_builds(monkeypatch)
    monkeypatch.setattr(numerical, "_MODULUS_CAP", 5)
    monkeypatch.setattr(dio, "_MODULUS_CAP", 5)
    assert is_member(DiophantineInstance(((6,), (10,)), (10 ** 4 + 1,))) == (
        False, None)
    assert builds == []


def test_search_pruning_does_not_widen():
    # the leaf's residual-is-zero check keeps answers right under any
    # looser bound, so only the size of the search shows a pruning rule
    # going missing.  Counts are those of the one-interval search; in the
    # 2-D and 3-D instances, one column alone moves the last coordinate,
    # so the rows vanishing on the later columns fix its multiplicity
    from chromatic_semigroups.colored import build_unique_expression_family
    fam = build_unique_expression_family(6)
    cases = [
        (fam.colored.columns, fam.target, 6, 303, 58),
        (((1, 0), (2, 0), (0, 5), (3, 1)), (17, 21), 8, 59, 10),
        (((1, 0, 0), (0, 1, 0), (1, 2, 0), (2, 1, 0), (0, 0, 7), (1, 1, 3)),
         (9, 8, 23), 9, 99, 16),
        (SIX_COIN_COLUMNS, (70,), 32, 588, 24),
    ]
    for cols, rhs, n_sols, most_enum, most_member in cases:
        inst = DiophantineInstance(cols, rhs)
        sols, calls = _search_calls(enumerate_solutions, inst)
        assert len(sols) == n_sols and calls <= most_enum, (rhs, calls)
        (found, _), calls = _search_calls(is_member, inst)
        assert found and calls <= most_member, (rhs, calls)
