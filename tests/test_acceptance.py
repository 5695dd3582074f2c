"""Acceptance battery: one test per shipped guarantee, each printing a
pass/fail line with its runtime (run with -s to see them live)."""

import random
import time
from math import gcd

from chromatic_semigroups import (
    ColoredNumericalSemigroup,
    ColoredSemigroup,
    DiophantineInstance,
    SemigroupFamily,
    build_reduction_instance,
    build_sharpness_family,
    build_unique_expression_family,
    caratheodory_exceptions,
    chromatic_frobenius,
    classify,
    colored_numerical,
    enumerate_solutions,
    find_colorful,
    find_k_chromatic,
    fit_quasipolynomial,
    frobenius,
    helly_audit,
    intersect_semigroups,
    lift_family,
    monochromatic_profile,
    semigroup,
    verify_unique_expressions,
)
from conftest import (
    EXAMPLE_32_CLASSES,
    EXAMPLE_32_COLUMNS,
    EXAMPLE_32_TARGET,
    random_pointed_semigroup,
)

TABLE_N6 = (
    ((0, 1, 2), (1, 7, 9), (2, 9, 9)),
    ((0, 3, 4), (1, 9, 11), (2, 5, 5)),
    ((0, 7, 8), (1, 13, 15), (2, -3, -3)),
    ((0, 15, 16), (1, 21, 23), (2, -19, -19)),
    ((0, 31, 32), (1, 37, 39), (2, -51, -51)),
    ((0, 63, 64), (1, 69, 71), (2, -115, -115)),
)


class _clock:
    def __init__(self, number, label, limit):
        self.number = number
        self.label = label
        self.limit = limit

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} criterion {self.number}: {self.label} "
              f"({elapsed:.2f}s, limit {self.limit:.0f}s)")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.2f}s >= {self.limit}s")
        return False


def test_criterion_01_definition_fidelity():
    with _clock(1, "solution labels on the six-generator example", 1.0):
        cols = tuple((v,) for v in (9, 16, 11, 14, 12, 13))
        s = ColoredSemigroup(1, cols, ((0, 1), (2, 3), (4, 5)))
        cases = [
            ((6, 1, 0, 0, 0, 0), dict(mono=True, chrom=False, colorful=False)),
            ((3, 1, 0, 1, 0, 1), dict(mono=False, chrom=True, colorful=False)),
            ((0, 1, 0, 2, 0, 2), dict(mono=False, chrom=True, colorful=True)),
            ((0, 0, 2, 0, 4, 0), dict(mono=False, chrom=False, colorful=True,
                                      level=2)),
        ]
        for x, want in cases:
            assert sum(x[i] * cols[i][0] for i in range(6)) == 70
            c = classify(s, x)
            assert c.is_monochromatic == want["mono"]
            assert c.is_chromatic == want["chrom"]
            assert c.is_colorful == want["colorful"]
            if "level" in want:
                assert c.chromatic_level == want["level"]


def test_criterion_02_unique_expression_families():
    with _clock(2, "families n=1..8 decompose the target exactly n ways", 60.0):
        for n in range(1, 9):
            rep = verify_unique_expressions(n)
            assert rep.matches, f"n={n}"
            assert len(rep.solutions) == n
            assert rep.all_monochromatic
        assert build_unique_expression_family(6).rows == TABLE_N6


def test_criterion_03_three_color_counterexample():
    with _clock(3, "no 3-color solution despite per-color solutions", 10.0):
        s = ColoredSemigroup(3, EXAMPLE_32_COLUMNS, EXAMPLE_32_CLASSES)
        prof = monochromatic_profile(s, EXAMPLE_32_TARGET)
        assert prof == ((1, 1, 1, 0, 0, 0, 0, 0, 0),
                        (0, 0, 0, 1, 1, 1, 0, 0, 0),
                        (0, 0, 0, 0, 0, 0, 1, 1, 1))
        # exhaustive: every solution of the target is monochromatic
        sols = enumerate_solutions(
            DiophantineInstance(EXAMPLE_32_COLUMNS, EXAMPLE_32_TARGET))
        assert sols and all(classify(s, x).chromatic_level <= 1 for x in sols)
        assert find_k_chromatic(s, EXAMPLE_32_TARGET, 3) is None


def test_criterion_04_lifted_family():
    with _clock(4, "lifted family: per-color solutions, never colorful", 30.0):
        fam = build_unique_expression_family(2)
        lifted = lift_family(fam.colored)
        for k in range(6):
            b = fam.target + (k,)
            prof = monochromatic_profile(lifted, b)
            assert all(w is not None for w in prof)
            assert find_colorful(lifted, b) is None


def test_criterion_05_two_class_exact_values():
    with _clock(5, "two-class chromatic values match the closed form", 5.0):
        for a in range(2, 13):
            for b in range(a + 1, 13):
                if gcd(a, b) != 1:
                    continue
                got = chromatic_frobenius(colored_numerical([a], [b]), 2).value
                assert got == a * b, (a, b, got)
        got = chromatic_frobenius(colored_numerical([3, 16], [5]), 2).value
        assert got == 15


def _random_numerical(rng, max_ell, max_gen, max_count):
    while True:
        ell = rng.randint(1, max_ell)
        count = rng.randint(ell, max_count)
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


def test_criterion_06_bounds_and_monotonicity():
    with _clock(6, "bounds and monotonicity on 200 random instances", 120.0):
        rng = random.Random(2024)
        for _ in range(200):
            s = _random_numerical(rng, max_ell=4, max_gen=30, max_count=7)
            previous = None
            for k in range(1, s.n_colors + 1):
                rep = chromatic_frobenius(s, k)  # report re-checks its bounds
                assert rep.lower_bound <= rep.value <= rep.upper_bound
                if previous is not None:
                    assert previous <= rep.value
                previous = rep.value


def test_criterion_07_reduction_identities():
    with _clock(7, "20 constructed instances per mode hit the prediction", 120.0):
        rng = random.Random(4096)
        built_a = 0
        while built_a < 20:
            ell = rng.randint(2, 4)
            values = rng.sample(range(2, 16), ell)
            if _gcd_all(values) != 1:
                continue
            s = colored_numerical(*[[v] for v in values])
            rep = build_reduction_instance(s, rng.randint(1, ell - 1), "a")
            assert rep.matches
            built_a += 1
        built_b = 0
        while built_b < 20:
            s = _random_numerical(rng, max_ell=3, max_gen=15, max_count=5)
            rep = build_reduction_instance(s, s.n_colors, "b")
            assert rep.matches
            built_b += 1


def _gcd_all(values):
    g = 0
    for v in values:
        g = gcd(g, v)
    return g


def test_criterion_08_quasipolynomial_fit():
    with _clock(8, "period-lcm fits validate on 30 held-out targets", 30.0):
        for classes in (([3], [5]), ([2], [3])):
            s = colored_numerical(*classes)
            qp = fit_quasipolynomial(s, 2)
            cols = tuple((v,) for cls in classes for v in cls)
            col_classes = []
            pos = 0
            for cls in classes:
                col_classes.append(tuple(range(pos, pos + len(cls))))
                pos += len(cls)
            colored = ColoredSemigroup(1, cols, tuple(col_classes))
            # independent oracle: enumerate and classify
            nvals = len(s.generators)
            start = (min(a + b for a in classes[0] for b in classes[1])
                     + frobenius(s.generators) + 1)
            hold_out_start = start + nvals * qp.period
            for b in range(hold_out_start, hold_out_start + 30):
                sols = enumerate_solutions(DiophantineInstance(cols, (b,)))
                exact = sum(1 for x in sols
                            if classify(colored, x).chromatic_level >= 2)
                assert qp.evaluate(b) == exact, (classes, b)


def test_criterion_09_helly_audits():
    with _clock(9, "sharpness families and 300 random family audits", 180.0):
        for d in range(1, 5):
            for case in "abc":
                fam = build_sharpness_family(case, d)
                size = min(fam.case_subset_size, len(fam.members))
                below = helly_audit(fam, subset_size=max(size - 1, 0))
                assert below.premise_holds
                assert not below.conclusion_holds
        rng = random.Random(777)
        for case in ("pointed-noncover", "pointed-cover", "general"):
            for _ in range(100):
                m = rng.randint(1, 3)
                count = rng.randint(1, 5)
                if case == "pointed-noncover":
                    members = [random_pointed_semigroup(rng, m, 4, lo=0, hi=4)
                               for _ in range(count)]
                elif case == "pointed-cover":
                    members = list(build_sharpness_family("b", m).members)
                    members += [random_pointed_semigroup(rng, m, 4, lo=-4, hi=4)
                                for _ in range(count)]
                else:
                    members = [random_pointed_semigroup(rng, m, 4, lo=-4, hi=4)
                               for _ in range(count)]
                fam = SemigroupFamily(tuple(members), case)
                helly_audit(fam)  # raises on premise/conclusion gap


def _closure(generators, dim, max_sum):
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


def test_criterion_10_intersection_oracle():
    with _clock(10, "intersections match brute force on 100 random pairs", 180.0):
        got = intersect_semigroups(semigroup([(2,)]), semigroup([(3,)]))
        assert got.generators == ((6,),)
        got = intersect_semigroups(semigroup([(1, 0), (1, 2)]),
                                   semigroup([(1, 1)]))
        assert got.generators == ((2, 2),)
        rng = random.Random(31337)
        for _ in range(100):
            dim = rng.randint(1, 2)
            if dim == 1:
                s1 = semigroup([(v,) for v in
                                rng.sample(range(1, 13), rng.randint(1, 3))])
                s2 = semigroup([(v,) for v in
                                rng.sample(range(1, 13), rng.randint(1, 3))])
            else:
                s1 = random_pointed_semigroup(rng, 2, 3, lo=0, hi=6)
                s2 = random_pointed_semigroup(rng, 2, 3, lo=0, hi=6)
            inter = intersect_semigroups(s1, s2)
            want = (_closure(s1.generators, dim, 40)
                    & _closure(s2.generators, dim, 40))
            assert _closure(inter.generators, dim, 40) == want


def _denumerant_table(values, bound):
    table = [0] * (bound + 1)
    table[0] = 1
    for a in values:
        for v in range(a, bound + 1):
            table[v] += table[v - a]
    return table


def _brute_exceptions(s, bound):
    """Independent oracle: membership tables per class plus subset counting."""
    ell = s.n_colors
    class_tables = []
    for cls in s.classes:
        t = bytearray(bound + 1)
        t[0] = 1
        for a in cls:
            for v in range(a, bound + 1):
                if t[v - a]:
                    t[v] = 1
        class_tables.append(t)
    mask_tables = {}
    for mask in range(1 << ell):
        vals = [a for i in range(ell) if mask >> i & 1 for a in s.classes[i]]
        mask_tables[mask] = _denumerant_table(vals, bound)
    full = (1 << ell) - 1
    out = []
    for b in range(1, bound + 1):
        if not all(t[b] for t in class_tables):
            continue
        chromatic = 0
        sub = full
        while True:
            sign = -1 if bin(full ^ sub).count("1") % 2 else 1
            chromatic += sign * mask_tables[sub][b]
            if sub == 0:
                break
            sub = (sub - 1) & full
        if chromatic == 0:
            out.append((b,))
    return out


def test_criterion_11_caratheodory_exceptions():
    with _clock(11, "exception sets match brute force on random + reference instances", 180.0):
        s32 = ColoredSemigroup(3, EXAMPLE_32_COLUMNS, EXAMPLE_32_CLASSES)
        rep = caratheodory_exceptions(s32)
        assert EXAMPLE_32_TARGET in [b for b, _ in rep.exceptions]

        rng = random.Random(90210)
        lcm = 1
        for _ in range(50):
            s = _random_numerical(rng, max_ell=3, max_gen=12, max_count=5)
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
            colored = ColoredSemigroup(1, tuple(cols), tuple(classes))
            rep = caratheodory_exceptions(colored)
            gens = [g[0] for g in rep.intersection_generators]
            lcm_all = 1
            for v in s.generators:
                lcm_all = lcm_all * v // gcd(lcm_all, v)
            bound = ((s.n_colors - 1) * (max(gens) if gens else 0)
                     + max(frobenius(s.generators), 0) + lcm_all)
            want = _brute_exceptions(s, bound)
            got = sorted(b for b, _ in rep.exceptions)
            assert got == want, (s.classes, got, want)
