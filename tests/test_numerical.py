import random
import time
from fractions import Fraction
from itertools import chain, combinations, product
from math import factorial, gcd, lcm, prod

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from chromatic_semigroups import (
    ColoredNumericalSemigroup,
    DiophantineInstance,
    apery_set,
    build_reduction_instance,
    check_frobenius_inequalities,
    chromatic_frobenius,
    chromatic_offsets,
    classify,
    colored_numerical,
    count_k_chromatic,
    count_solutions,
    enumerate_solutions,
    fit_quasipolynomial,
    frobenius,
    gap_set,
    k_chromatic_member,
    singleton_formula_check,
)
from chromatic_semigroups.colored import ColoredSemigroup
from chromatic_semigroups.errors import NotPrimitiveError, SemigroupError
from chromatic_semigroups.numerical import (
    _denumerants, _mask_tables, _start_table)


def random_instance(rng, max_ell=4, max_gen=30):
    """Random colored numerical semigroup with gcd 1."""
    while True:
        ell = rng.randint(1, max_ell)
        count = rng.randint(ell, min(2 * ell, 7))
        values = rng.sample(range(1, max_gen + 1), count)
        g = 0
        for v in values:
            g = gcd(g, v)
        if g != 1:
            continue
        classes = [[] for _ in range(ell)]
        for i, v in enumerate(values):
            classes[i % ell].append(v)
        return ColoredNumericalSemigroup(tuple(tuple(c) for c in classes))


def to_colored(s):
    cols = []
    classes = []
    pos = 0
    for cls in s.classes:
        ids = []
        for v in cls:
            cols.append((v,))
            ids.append(pos)
            pos += 1
        classes.append(tuple(ids))
    return ColoredSemigroup(1, tuple(cols), tuple(classes))


def test_frobenius_values():
    assert frobenius([3, 5]) == 3 * 5 - 3 - 5
    assert frobenius([3, 5, 7]) == 4
    assert frobenius([1]) == -1
    for a in range(2, 13):
        for b in range(a + 1, 13):
            if gcd(a, b) == 1:
                assert frobenius([a, b]) == a * b - a - b


def test_frobenius_requires_gcd_one():
    with pytest.raises(NotPrimitiveError):
        frobenius([4, 6])


def test_gap_sets():
    assert gap_set([3, 5]) == (1, 2, 4, 7)
    assert gap_set([2, 3]) == (1,)
    assert gap_set([1]) == ()
    assert gap_set([3, 5, 7]) == (1, 2, 4)


def test_frobenius_and_gaps_match_closure_random():
    rng = random.Random(73)
    for _ in range(60):
        values = sorted(rng.sample(range(2, 41), rng.randint(3, 5)))
        if gcd(*values) != 1:
            continue
        # every sum of generators up to the bound, by repeated addition
        bound = sum(values) * values[-1]
        reached = frontier = {0}
        while frontier:
            frontier = {v + a for v in frontier for a in values
                        if v + a <= bound} - reached
            reached = reached | frontier
        gaps = [v for v in range(1, bound + 1) if v not in reached]
        # values[0] consecutive members above the last gap reach every
        # larger integer, so no gap lies beyond the bound
        top = gaps[-1]
        assert all(v in reached for v in range(top + 1, top + values[0] + 1))
        assert frobenius(values) == top
        assert gap_set(values) == tuple(gaps)


# ---------------------------------------------------------------------------
# residue minima against dense reach tables


def dense_reach(gens, bound):
    """Which of 0..bound the generators represent, by a coin DP over every
    value (a different algorithm from the residue minima under test)."""
    table = [True] + [False] * bound
    for a in gens:
        for v in range(a, bound + 1):
            table[v] = table[v] or table[v - a]
    return table


@st.composite
def colored_semigroups(draw, low=1, high=60, max_size=8, max_colors=5):
    """At most `max_colors` disjoint classes of at most `max_size` distinct
    generators in low..high, with gcd 1."""
    values = draw(st.lists(st.integers(low, high), min_size=1,
                           max_size=max_size, unique=True)
                  .filter(lambda v: gcd(*v) == 1))
    ell = draw(st.integers(1, min(max_colors, len(values))))
    classes = [[v] for v in values[:ell]]
    for v in values[ell:]:
        classes[draw(st.integers(0, ell - 1))].append(v)
    return ColoredNumericalSemigroup(tuple(tuple(c) for c in classes))


@given(colored_semigroups())
def test_apery_frobenius_gaps_match_dense_scan(s):
    gens = s.generators
    a = gens[0]
    # Schur: F <= (a - 1)(max - 1) - 1, and each Apery element is at most
    # F + a
    bound = (a - 1) * (gens[-1] - 1) + a
    table = dense_reach(gens, bound)
    gaps = tuple(v for v in range(bound + 1) if not table[v])
    assert apery_set(gens) == tuple(
        next(v for v in range(r, bound + 1, a) if table[v]) for r in range(a))
    assert frobenius(gens) == max(gaps, default=-1)
    assert gap_set(gens) == gaps


@given(colored_semigroups())
def test_chromatic_frobenius_and_membership_match_dense_scan(s):
    gens = s.generators
    table = dense_reach(gens, (gens[0] - 1) * (gens[-1] - 1))
    f = max((v for v, hit in enumerate(table) if not hit), default=-1)
    for k in range(1, s.n_colors + 1):
        offsets = sorted({sum(pick) for chosen in combinations(s.classes, k)
                          for pick in product(*chosen)})
        upper = offsets[0] + f
        # past upper, b - min(offsets) > F is a member; scan 60 beyond it
        reach = dense_reach(gens, upper + 60)
        hit = [any(v <= b and reach[b - v] for v in offsets)
               for b in range(upper + 61)]
        gaps = tuple(b for b in range(upper + 61) if not hit[b])
        rep = chromatic_frobenius(s, k)
        assert rep.offsets == tuple(offsets)
        assert (rep.lower_bound, rep.upper_bound) == (offsets[0] - 1, upper)
        assert rep.gap_set == gaps
        assert rep.value == gaps[-1]
        assert [k_chromatic_member(s, b, k) for b in range(upper + 61)] == hit


def test_singleton_formula_large_classes_is_fast():
    start = time.perf_counter()
    r = singleton_formula_check([10007, 10009, 10037])
    # about 1 s on a 2-core Xeon VM; a reach table over the 6.8 million
    # targets below the chromatic upper bound would take tens of seconds
    assert time.perf_counter() - start < 20
    assert r.matches and r.computed_value == 6844814


def test_value_only_checks_list_no_gaps():
    # about 1e9 gaps lie below this CF_3, past the listing cap, but the
    # singleton formula needs only the value
    r = singleton_formula_check([100003, 100019, 100043])
    assert r.matches and r.computed_value == 2001360119


def test_size_caps_refuse_before_allocating():
    with pytest.raises(SemigroupError, match="exceeds the cap"):
        apery_set([10 ** 18 + 3, 10 ** 18 + 9])
    with pytest.raises(SemigroupError, match="exceeds the cap"):
        k_chromatic_member(colored_numerical([10 ** 9 + 7], [10 ** 9 + 9]),
                           0, 1)
    # about 5e11 gaps behind a Frobenius number that the minima give at once
    assert frobenius([1000, 10 ** 9 + 1]) == 998999999999
    with pytest.raises(SemigroupError, match="gaps exceed the cap"):
        gap_set([1000, 10 ** 9 + 1])
    with pytest.raises(SemigroupError, match="gaps exceed the cap"):
        chromatic_frobenius(colored_numerical([1000], [10 ** 9 + 1]), 2)
    # count tables: refused where k + 1 tables of b + 1 cells would pass
    # the cap (b = n L for a fit); the kernel holds one such table and k
    # numerator rows of at most min(generator sum, b) + 1 cells
    with pytest.raises(SemigroupError, match="cells exceed the cap"):
        count_k_chromatic(colored_numerical([3], [5]), 10 ** 12, 1)
    with pytest.raises(SemigroupError, match="cells exceed the cap"):
        fit_quasipolynomial(colored_numerical([97], [89], [83], [79]), 2)
    with pytest.raises(SemigroupError, match="cells exceed the cap"):
        count_solutions(DiophantineInstance(((3,), (5,)), (10 ** 12,)),
                        [0, 1])
    with pytest.raises(SemigroupError, match="cells exceed the cap"):
        _start_table(4 * 10 ** 6, 3)
    # four singleton classes at b = 400000, k = 4 stay under it
    assert len(_start_table(400000, 5)) == 400001


def test_chromatic_offsets():
    assert chromatic_offsets(colored_numerical([3], [5]), 2) == (8,)
    assert chromatic_offsets(colored_numerical([3], [5], [7]), 2) == (8, 10, 12)
    s = colored_numerical([3], [5], [7])
    assert chromatic_offsets(s, 1) == (3, 5, 7)


@given(colored_semigroups())
def test_offsets_match_pick_enumeration(s):
    for k in range(1, s.n_colors + 1):
        picks = {sum(pick) for chosen in combinations(s.classes, k)
                 for pick in product(*chosen)}
        assert chromatic_offsets(s, k) == tuple(sorted(picks))


def test_k_chromatic_member():
    s = colored_numerical([3], [5])
    assert k_chromatic_member(s, 8, 2)
    assert not k_chromatic_member(s, 15, 2)
    s3 = colored_numerical([3], [5], [7])
    assert not k_chromatic_member(s3, 9, 2)  # 9 = 3+3+3 only


def test_chromatic_frobenius_values():
    assert chromatic_frobenius(colored_numerical([3], [5]), 2).value == 15
    assert chromatic_frobenius(colored_numerical([3, 16], [5]), 2).value == 15
    assert chromatic_frobenius(colored_numerical([3], [5], [7]), 2).value == 9
    # k = 1 recovers the plain Frobenius number (or 0 when that is -1)
    for vals in ([3, 5], [2, 3, 7], [1, 4]):
        s = colored_numerical(vals)
        assert chromatic_frobenius(s, 1).value == max(frobenius(vals), 0)


def test_chromatic_frobenius_report_fields():
    rep = chromatic_frobenius(colored_numerical([3], [5]), 2)
    assert rep.gap_set[-1] == rep.value
    assert rep.lower_bound == 7 and rep.upper_bound == 15
    assert 0 in rep.gap_set


def test_level_one_gaps_extend_plain_gaps():
    rng = random.Random(19)
    for _ in range(15):
        s = random_instance(rng, max_ell=3, max_gen=18)
        rep = chromatic_frobenius(s, 1)
        assert 0 in rep.gap_set
        assert set(gap_set(s.generators)) <= set(rep.gap_set)


def test_singleton_formula():
    assert singleton_formula_check([3, 5]).matches
    r = singleton_formula_check([3, 5, 7])
    assert r.formula_value == r.computed_value == 19
    r = singleton_formula_check([2, 3])
    assert r.formula_value == r.computed_value == 6


def test_inequalities_chain():
    s = colored_numerical([3], [5], [7])
    rep = check_frobenius_inequalities(s, k=1)
    assert rep.monotonic_applicable and rep.monotonic_holds
    assert rep.cf_k == 4 and rep.cf_k_plus_1 == 9
    rep = check_frobenius_inequalities(s, k=2, class_index=2)
    assert rep.monotonic_holds
    assert rep.sandwich_applicable
    assert rep.cf_full == 19 and rep.cf_deleted == 15
    assert rep.sandwich_first_holds and rep.sandwich_second_holds


def test_inequalities_single_class_not_applicable():
    rep = check_frobenius_inequalities(colored_numerical([2, 3]), k=1)
    assert not rep.monotonic_applicable
    assert not rep.sandwich_applicable
    assert rep.all_hold


def test_inequalities_deletion_needs_gcd_one():
    s = colored_numerical([2, 4], [3])
    with pytest.raises(NotPrimitiveError):
        check_frobenius_inequalities(s, k=1, class_index=1)


def test_reduction_mode_a():
    rep = build_reduction_instance(colored_numerical([3], [5], [7]), 1, "a")
    assert rep.constructed.classes == ((6,), (10,), (14,), (11,))
    assert rep.appended_value == 11
    assert rep.predicted == rep.computed == 19


def test_reduction_mode_b():
    rep = build_reduction_instance(colored_numerical([3], [5]), 2, "b")
    assert rep.appended_value == 16
    assert rep.predicted == rep.computed == 31
    rep = build_reduction_instance(colored_numerical([2], [3]), 2, "b")
    assert rep.appended_value == 7
    assert rep.predicted == rep.computed == 13


def test_reduction_mode_validation():
    s = colored_numerical([3], [5])
    with pytest.raises(ValueError):
        build_reduction_instance(s, 2, "a")  # needs k < number of classes
    with pytest.raises(ValueError):
        build_reduction_instance(s, 1, "b")  # needs k == number of classes
    with pytest.raises(ValueError):
        build_reduction_instance(colored_numerical([3, 5], [7]), 1, "a")


def test_count_k_chromatic():
    s = colored_numerical([3], [5])
    assert count_k_chromatic(s, 23, 2) == 2  # (6,1) and (1,4)
    assert count_k_chromatic(s, 7, 1) == 0
    assert count_k_chromatic(s, 7, 2) == 0
    assert count_k_chromatic(s, 0, 1) == 0


def test_count_totals_match_denumerant():
    rng = random.Random(51)
    for _ in range(20):
        s = random_instance(rng, max_ell=3, max_gen=12)
        b = rng.randint(0, 40)
        total = count_k_chromatic(s, b, 1)
        cols = tuple((v,) for cls in s.classes for v in cls)
        sols = enumerate_solutions(DiophantineInstance(cols, (b,)))
        nonzero = [x for x in sols if any(x)]
        assert total == len(nonzero)


def test_quasipolynomial_three_five():
    s = colored_numerical([3], [5])
    qp = fit_quasipolynomial(s, 2)
    assert qp.period == 15
    # residue 8 carries the line (b + 7) / 15
    assert qp.constituents[8] == (Fraction(7, 15), Fraction(1, 15))
    assert qp.evaluate(8) == 1
    assert qp.evaluate(23) == 2
    assert qp.evaluate(38) == 3
    assert qp.evaluate(53) == 4
    assert qp.threshold <= 8


def test_quasipolynomial_two_three_validates_forward():
    s = colored_numerical([2], [3])
    qp = fit_quasipolynomial(s, 2)
    start = max(qp.threshold, 5)
    for b in range(start, start + 40):
        assert qp.evaluate(b) == count_k_chromatic(s, b, 2)


def test_quasipolynomial_unit_generator():
    qp = fit_quasipolynomial(colored_numerical([1]), 1)
    assert qp.period == 1
    assert qp.evaluate(5) == 1
    assert qp.threshold == 1  # the zero target has no 1-color solution


def test_quasipolynomial_matches_enumeration_random():
    rng = random.Random(79)
    for ell in (1, 2, 3, 4) * 4:
        while True:
            values = rng.sample(range(1, 13), rng.randint(ell, 4))
            n, period = len(values), lcm(*values)
            # keep the solutions enumerated up to (n + 1) * period
            # (about top^n / (n! prod(values))) few
            top = (n + 1) * period
            if (gcd(*values) == 1 and period <= 60
                    and top ** n <= 20000 * factorial(n) * prod(values)):
                break
        s = ColoredNumericalSemigroup(
            tuple(tuple(values[i::ell]) for i in range(ell)))
        colored = to_colored(s)
        fits = [fit_quasipolynomial(s, k) for k in range(1, ell + 1)]
        for b in range(1, top + 1):
            sols = enumerate_solutions(DiophantineInstance(colored.columns,
                                                           (b,)))
            levels = [classify(colored, x).chromatic_level for x in sols]
            for k, qp in enumerate(fits, 1):
                assert qp.evaluate(b) == sum(1 for c in levels if c >= k), \
                    (s.classes, k, b)
        for qp in fits:
            assert qp.period == period
            assert qp.threshold == 1
            assert qp.evaluate(0) != 0  # the count at 0 is 0


def colors_used_per_solution(s, top):
    """For each b <= top, the number of classes each solution of b uses,
    by listing every multiplicity vector."""
    coins = [(v, i) for i, cls in enumerate(s.classes) for v in cls]
    out = [[] for _ in range(top + 1)]

    def extend(j, total, used):
        if j == len(coins):
            out[total].append(len(used))
            return
        v, color = coins[j]
        extend(j + 1, total, used)
        for t in range(v, top - total + 1, v):
            extend(j + 1, total + t, used | {color})

    extend(0, 0, frozenset())
    return out


# generators in 2..25, at most 6 of them: few enough solutions below 60 to
# list them all
@given(colored_semigroups(low=2, high=25, max_size=6, max_colors=4))
def test_counts_match_enumerate_and_classify(s):
    top = 60
    used = colors_used_per_solution(s, top)
    ell = s.n_colors
    for k in range(1, ell + 1):
        want = [sum(1 for c in used[b] if c >= k) for b in range(top + 1)]
        assert [count_k_chromatic(s, b, k) for b in range(top + 1)] == want
        if lcm(*s.generators) <= 200:
            qp = fit_quasipolynomial(s, k)
            assert [qp.evaluate(b) for b in range(1, top + 1)] == want[1:]


def interpolate(xs, ys):
    """Newton divided differences in Fraction, expanded to power-basis
    coefficients (lowest degree first, trailing zeros stripped)."""
    m = len(xs)
    dd = [Fraction(y) for y in ys]
    for level in range(1, m):
        for i in range(m - 1, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - level])
    poly = [dd[m - 1]]
    for i in range(m - 2, -1, -1):
        shifted = [Fraction(0)] + poly
        minus = [-Fraction(xs[i]) * c for c in poly]
        poly = [a + b for a, b in
                zip(shifted, minus + [Fraction(0)])]
        poly[0] += dd[i]
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    return tuple(poly)


# up to 6 generators (degree 5) with a small period, so that the Fraction
# oracle stays fast
@given(colored_semigroups(low=1, high=12, max_size=6, max_colors=6)
       .filter(lambda s: lcm(*s.generators) <= 360))
def test_fit_matches_divided_differences(s):
    n, period = len(s.generators), lcm(*s.generators)
    for k in range(1, s.n_colors + 1):
        counts = _mask_tables(s.classes, n * period, k)
        want = []
        for r in range(period):
            xs = [(r or period) + j * period for j in range(n)]
            want.append(interpolate(xs, [counts[x] for x in xs]))
        assert fit_quasipolynomial(s, k).constituents == tuple(want)


# ---------------------------------------------------------------------------
# the count table against a fold over target-sized rows


def denumerants_by_cell(coins, counts):
    """The coin DP one cell at a time, on a copy."""
    counts = list(counts)
    for a in coins:
        for v in range(a, len(counts)):
            counts[v] += counts[v - a]
    return counts


def mask_tables_by_rows(classes, bound, k):
    """The count table from k + 1 rows of bound + 1 cells.  Row j < k of
    `exact` counts the solutions that use exactly j of the classes folded
    in so far; class c adds to it the coin DP over c started from row
    j - 1, less row j - 1 (no coin of c).  The solutions in no row use at
    least k classes."""
    start = [1] + [0] * bound
    exact = [start] + [[0] * (bound + 1) for _ in range(k - 1)]
    for i, cls in enumerate(classes):
        for j in range(min(k - 1, i + 1), 0, -1):  # rows above i are still 0
            grown = denumerants_by_cell(cls, exact[j - 1])
            exact[j] = [e + g - p
                        for e, g, p in zip(exact[j], grown, exact[j - 1])]
    total = denumerants_by_cell(chain.from_iterable(classes), start)
    for row in exact:
        total = [t - e for t, e in zip(total, row)]
    return total


# bounds on both sides of the numerators' degree, the generator sum
@given(colored_semigroups(low=1, high=15, max_colors=5), st.data())
def test_mask_tables_match_the_row_fold(s, data):
    bound = data.draw(st.integers(0, 3 * sum(s.generators)), label="bound")
    for k in range(1, s.n_colors + 1):
        assert _mask_tables(s.classes, bound, k) == \
            mask_tables_by_rows(s.classes, bound, k)


def test_mask_tables_truncate_past_the_bound():
    # untruncated, the numerators would hold 10^12 + 1 cells
    classes = ((3,), (5,), (10 ** 12,))
    for k in (1, 2, 3):
        assert _mask_tables(classes, 100, k) == \
            mask_tables_by_rows(classes, 100, k)


@given(st.lists(st.integers(1, 40), max_size=6),
       st.lists(st.integers(-50, 50), min_size=1, max_size=30))
@example([1], [1, 0, 0, 0, 0])
@example([1, 3, 7], [2, -1, 0, 5, 0, 0, 0, 0])
@example([31, 40], [1, 2, 3])
@example([1, 2, 50], [4])
def test_strided_denumerants_match_the_cell_loop(coins, counts):
    assert _denumerants(coins, list(counts)) == \
        denumerants_by_cell(coins, counts)


# ---------------------------------------------------------------------------
# randomized identities


def test_translate_membership_identity_random():
    rng = random.Random(61)
    for _ in range(25):
        s = random_instance(rng, max_ell=4, max_gen=25)
        colored = to_colored(s)
        k = rng.randint(1, s.n_colors)
        offsets = chromatic_offsets(s, k)
        upper = offsets[0] + max(frobenius(s.generators), 0)
        for b in rng.sample(range(0, upper + 21), 12):
            via_translate = k_chromatic_member(s, b, k)
            via_count = count_k_chromatic(s, b, k) > 0
            cols = colored.columns
            sols = enumerate_solutions(DiophantineInstance(cols, (b,)))
            via_enum = any(classify(colored, x).chromatic_level >= k
                           for x in sols)
            assert via_translate == via_count == via_enum


def test_bounds_and_monotonicity_random():
    rng = random.Random(67)
    for _ in range(40):
        s = random_instance(rng)
        values = []
        for k in range(1, s.n_colors + 1):
            rep = chromatic_frobenius(s, k)
            lo, hi = rep.lower_bound, rep.upper_bound
            assert lo <= rep.value <= hi
            values.append(rep.value)
        for a, b in zip(values, values[1:]):
            assert a <= b


def test_reduction_identities_random():
    rng = random.Random(71)
    done_a = done_b = 0
    while done_a < 5 or done_b < 5:
        s = random_instance(rng, max_ell=3, max_gen=15)
        if s.n_colors >= 2 and all(len(c) == 1 for c in s.classes) and done_a < 5:
            rep = build_reduction_instance(s, rng.randint(1, s.n_colors - 1), "a")
            assert rep.matches
            done_a += 1
        elif done_b < 5:
            rep = build_reduction_instance(s, s.n_colors, "b")
            assert rep.matches
            done_b += 1
