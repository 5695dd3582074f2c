"""Colored numerical semigroups and the chromatic Frobenius problem.

Reachability comes from residue minima: the least element of seeds + S in
each class mod the smallest generator (the Apery set for the seed 0).  The
k-color targets are the translates offsets + S, an offset being a sum of
one generator from each of k distinct classes, so Frobenius numbers, gaps
and chromatic membership all read one minima vector.  Offsets and counts
come from one fold over the classes that carries the number of classes
used so far: the offsets as sets of sums, the counts as the numerators of
their generating functions, truncated at the bound, which one coin DP over
all generators divides by prod (1 - t^a).  The count's quasipolynomial,
exact for every positive target by Ehrhart-Macdonald reciprocity, is
interpolated through n equally spaced counts per residue mod L: integer
forward differences give the Newton form, its power basis scaled by
(n - 1)! L^(n - 1) is integer, and each coefficient becomes one Fraction at
the end.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, compress
from math import factorial, gcd, inf, lcm
from operator import add, sub

from ._linalg import int_vector
from ._record import record
from .errors import NotPrimitiveError, SemigroupError, TheoremContractError

_ZERO_NOTE = ("0 is counted as a chromatic gap: the empty solution uses no "
              "colors")
# Refused before allocating: residue minima hold one entry per residue of
# the smallest generator, a gap listing one entry per gap (the CF_3 of the
# classes 10007 | 10009 | 10037 has 3.4 million gaps), and the count tables
# one entry per target up to the bound in each row.
_MODULUS_CAP = 10 ** 6
_GAP_CAP = 10 ** 7
_COUNT_CAP = 10 ** 7


@record
class ColoredNumericalSemigroup:
    """Disjoint classes of positive integers whose union has gcd 1."""

    classes: tuple

    def __post_init__(self):
        classes = tuple(tuple(sorted(set(int_vector(cls))))
                        for cls in self.classes)
        object.__setattr__(self, "classes", classes)
        if not classes:
            raise ValueError("at least one class required")
        seen = set()
        for cls in classes:
            if not cls:
                raise ValueError("classes must be nonempty")
            for a in cls:
                if a < 1:
                    raise ValueError("generators must be positive")
                if a in seen:
                    raise ValueError(f"generator {a} appears in two classes")
                seen.add(a)
        g = gcd(*seen)
        if g != 1:
            raise NotPrimitiveError(f"gcd of the generators is {g}, not 1")

    @property
    def n_colors(self):
        return len(self.classes)

    @property
    def generators(self):
        return tuple(sorted(a for cls in self.classes for a in cls))


def colored_numerical(*classes):
    return ColoredNumericalSemigroup(tuple(tuple(c) for c in classes))


@lru_cache(maxsize=None)
def _member_table(gens, bound):
    """Whether each v <= bound lies in the semigroup of the positive `gens`,
    one byte per v.  With g their gcd and m the residue minima of gens / g
    mod a = min(gens) / g, the members are g m[r] + j g a: one slice per r.
    """
    g = gcd(*gens)
    minima = _residue_minima(tuple(v // g for v in gens), (0,))
    step = g * len(minima)
    table = bytearray(bound + 1)
    for m in minima:
        table[g * m::step] = b"\1" * ((bound - g * m) // step + 1)
    return bytes(table)


def _check_primitive(vals):
    vals = tuple(sorted(set(int_vector(vals))))
    if not vals or any(v < 1 for v in vals):
        raise ValueError("generators must be positive integers")
    g = gcd(*vals)
    if g != 1:
        raise NotPrimitiveError(f"gcd of {vals} is {g}, not 1")
    return vals


def _residue_minima(gens, seeds):
    """Least element of seeds + <gens> in each residue class mod min(gens).

    Round-robin (Boecker & Liptak, Algorithmica 2007): adding a generator g
    splits the classes into gcd(a, g) cycles r -> r + g, and one walk round
    each from its least entry (which nothing can lower) relaxes the rest.
    """
    a = min(gens)
    if a > _MODULUS_CAP:
        raise SemigroupError(
            f"smallest generator {a} exceeds the cap of {_MODULUS_CAP}")
    minima = [inf] * a
    for v in seeds:
        minima[v % a] = min(minima[v % a], v)
    for g in (g for g in gens if g % a):  # multiples of a change nothing
        d = gcd(a, g)
        for start in range(d):
            cycle = [(start + j * g) % a for j in range(a // d)]
            i = min(range(a // d), key=lambda j: minima[cycle[j]])
            v = minima[cycle[i]]
            if v == inf:
                continue
            for r in cycle[i + 1:] + cycle[:i]:
                v = minima[r] = min(minima[r], v + g)
    return minima


def _below_minima(minima):
    """Sorted v >= 0 with v < minima[v % a], counted before listing."""
    a = len(minima)
    count = sum((m - r) // a for r, m in enumerate(minima))
    if count > _GAP_CAP:
        raise SemigroupError(f"{count} gaps exceed the cap of {_GAP_CAP}")
    # max(minima) < 2 * count + a: the set holds at most half of [0, F]
    below = bytearray(max(minima))
    for r, m in enumerate(minima):
        below[r:m:a] = b"\1" * ((m - r) // a)
    return tuple(compress(range(len(below)), below))


def apery_set(values):
    """Least member in each residue class mod the smallest generator a (the
    Apery set of a): v is a member exactly when v >= entry v % a."""
    return tuple(_residue_minima(_check_primitive(values), (0,)))


def frobenius(values):
    """Largest integer with no representation (-1 when 1 is a generator):
    max(Ap) - a by Selmer's formula, Ap the Apery set of the smallest a."""
    ap = apery_set(values)
    return max(ap) - len(ap)


def gap_set(values):
    """All nonrepresentable nonnegative integers (those below the Apery
    element of their class), as a sorted tuple."""
    return _below_minima(apery_set(values))


def chromatic_offsets(s, k):
    """Sums of one generator from each class of a k-subset of the classes:
    sums[j] holds the sums over j distinct classes of those taken in so far,
    and j runs down so that no sum takes the new class twice."""
    if not 1 <= k <= s.n_colors:
        raise ValueError(f"k must be between 1 and {s.n_colors}")
    sums = [{0}] + [set() for _ in range(k)]
    for cls in s.classes:
        for j in range(k, 0, -1):
            sums[j] |= {v + a for v in sums[j - 1] for a in cls}
    return tuple(sorted(sums[k]))


def k_chromatic_member(s, b, k):
    """Whether b has a solution using at least k colors: the k-chromatic
    targets are the translates offsets + S, so b is one exactly when it
    reaches their least element in its class mod the smallest generator.
    """
    if b < 0:
        raise ValueError("b must be nonnegative")
    minima = _residue_minima(s.generators, chromatic_offsets(s, k))
    return b >= minima[b % len(minima)]


@record
class ChromaticFrobeniusReport:
    k: int
    value: int
    gap_set: tuple
    offsets: tuple
    lower_bound: int
    upper_bound: int
    note: str

    def __post_init__(self):
        if self.gap_set and max(self.gap_set) != self.value:
            raise TheoremContractError("gap set maximum differs from the value")
        _check_bounds(self.value, self.lower_bound, self.upper_bound)


def _check_bounds(value, lower, upper):
    if not lower <= value <= upper:
        raise TheoremContractError(
            f"chromatic Frobenius value {value} escapes the bounds "
            f"[{lower}, {upper}]")


def chromatic_frobenius(s, k):
    """Largest target with no k-color solution, with gaps and bounds.

    With m_r the least k-color target in class r mod the smallest generator
    a, b is a gap exactly when b < m[b mod a], and the value is max(m) - a.
    The bounds min(offsets) - 1 and min(offsets) + F are verified.
    """
    offsets = chromatic_offsets(s, k)
    minima = _residue_minima(s.generators, offsets)
    return ChromaticFrobeniusReport(
        k=k,
        value=max(minima) - len(minima),
        gap_set=_below_minima(minima),
        offsets=offsets,
        lower_bound=offsets[0] - 1,
        upper_bound=offsets[0] + frobenius(s.generators),
        note=_ZERO_NOTE,
    )


def _chromatic_value(s, k):
    """The value of chromatic_frobenius(s, k) and its bound checks, read off
    the minima without listing the gaps."""
    offsets = chromatic_offsets(s, k)
    value = max(_residue_minima(s.generators, offsets)) - min(s.generators)
    _check_bounds(value, offsets[0] - 1, offsets[0] + frobenius(s.generators))
    return value


@record
class SingletonFormulaReport:
    values: tuple
    formula_value: int
    computed_value: int
    matches: bool


def singleton_formula_check(values):
    """Compare sum(values) + F(values) against the computed chromatic value
    when every class is a singleton."""
    vals = _check_primitive(values)
    if len(vals) != len(tuple(values)):
        raise ValueError("singleton classes must be distinct")
    s = ColoredNumericalSemigroup(tuple((v,) for v in vals))
    formula = sum(vals) + frobenius(vals)
    computed = _chromatic_value(s, s.n_colors)
    return SingletonFormulaReport(vals, formula, computed, formula == computed)


@record
class InequalityReport:
    monotonic_applicable: bool
    monotonic_holds: bool
    cf_k: int
    cf_k_plus_1: int
    sandwich_applicable: bool
    sandwich_first_holds: bool
    sandwich_second_holds: bool
    cf_full: int
    cf_deleted: int
    min_deleted_class: int
    frobenius_remaining: int

    @property
    def all_hold(self):
        ok = True
        if self.monotonic_applicable:
            ok = ok and self.monotonic_holds
        if self.sandwich_applicable:
            ok = ok and self.sandwich_first_holds and self.sandwich_second_holds
        return ok


def check_frobenius_inequalities(s, k=1, class_index=None):
    """Evaluate the monotonicity and deletion inequalities numerically.

    Monotonicity (needs k < n_colors): CF_k <= CF_{k+1}.  Deletion sandwich
    (needs a class index i with gcd of the remaining generators equal 1):
    CF_l <= CF_{l-1}(without class i) + min(class i)
         <= CF_l + F(remaining generators) + 1.
    """
    ell = s.n_colors
    mono_applicable = 1 <= k < ell
    cf_k = cf_k1 = -1
    mono_holds = True
    if mono_applicable:
        cf_k = _chromatic_value(s, k)
        cf_k1 = _chromatic_value(s, k + 1)
        mono_holds = cf_k <= cf_k1
    sandwich_applicable = class_index is not None and ell >= 2
    cf_full = cf_del = min_del = f_rest = -1
    first = second = True
    if sandwich_applicable:
        if not 0 <= class_index < ell:
            raise ValueError("class index out of range")
        rest = tuple(cls for i, cls in enumerate(s.classes) if i != class_index)
        rest_values = tuple(a for cls in rest for a in cls)
        f_rest = frobenius(rest_values)  # raises NotPrimitiveError if gcd != 1
        deleted = ColoredNumericalSemigroup(rest)
        cf_full = _chromatic_value(s, ell)
        cf_del = _chromatic_value(deleted, ell - 1)
        min_del = min(s.classes[class_index])
        first = cf_full <= cf_del + min_del
        second = cf_del + min_del <= cf_full + f_rest + 1
    return InequalityReport(
        monotonic_applicable=mono_applicable,
        monotonic_holds=mono_holds,
        cf_k=cf_k,
        cf_k_plus_1=cf_k1,
        sandwich_applicable=sandwich_applicable,
        sandwich_first_holds=first,
        sandwich_second_holds=second,
        cf_full=cf_full,
        cf_deleted=cf_del,
        min_deleted_class=min_del,
        frobenius_remaining=f_rest,
    )


@record
class ReductionReport:
    mode: str
    base: ColoredNumericalSemigroup
    constructed: ColoredNumericalSemigroup
    appended_value: int
    predicted: int
    computed: int

    @property
    def matches(self):
        return self.predicted == self.computed


def build_reduction_instance(s, k, mode):
    """Append a fresh singleton class whose chromatic value is predictable.

    Mode "a" (requires k < n_colors and singleton classes): double every
    generator, append the smallest valid odd b; the (k+1)-chromatic value of
    the result must be 2 CF_k + b.  Mode "b" (requires k == n_colors):
    append the smallest fresh b above CF_k; the (k+1)-chromatic value must
    be CF_k + b.  The prediction is checked against the computed value; a
    violation raises, since it would contradict an exact identity.
    """
    ell = s.n_colors
    if mode == "a":
        if not 1 <= k < ell:
            raise ValueError('mode "a" needs k < the number of classes')
        if any(len(cls) != 1 for cls in s.classes):
            # with multi-element classes the doubled instance can acquire
            # extra k-chromatic decompositions of 2*CF_k (sums of two class
            # members act like new generators), so the identity is only
            # guaranteed in the singleton case
            raise ValueError('mode "a" requires singleton classes')
        cf_k = _chromatic_value(s, k)
        cf_k1 = _chromatic_value(s, k + 1)
        b = max(2 * (cf_k1 - cf_k), 2 * cf_k) + 1
        doubled = tuple((2 * cls[0],) for cls in s.classes)
        values = {cls[0] for cls in doubled}
        while b in values:
            b += 2
        constructed = ColoredNumericalSemigroup(doubled + ((b,),))
        predicted = 2 * cf_k + b
        computed = _chromatic_value(constructed, k + 1)
    elif mode == "b":
        if k != ell:
            raise ValueError('mode "b" needs k equal to the number of classes')
        cf = _chromatic_value(s, ell)
        b = cf + 1
        existing = set(s.generators)
        while b in existing:
            b += 1
        constructed = ColoredNumericalSemigroup(s.classes + ((b,),))
        predicted = cf + b
        computed = _chromatic_value(constructed, ell + 1)
    else:
        raise ValueError(f'unknown mode {mode!r}; expected "a" or "b"')
    report = ReductionReport(mode, s, constructed, b, predicted, computed)
    if not report.matches:
        raise TheoremContractError(
            f"reduction identity failed: predicted {predicted}, "
            f"computed {computed}")
    return report


# ---------------------------------------------------------------------------
# counting k-chromatic solutions


def _mask_tables(classes, bound, k):
    """Number of solutions of each v <= bound that use at least k of the
    classes, as one table: the series P/Q truncated at the bound.

    With Q_c = prod_{a in c} (1 - t^a) and Q the product of all Q_c, the
    solutions using exactly the set U of classes have the series
    prod_{c in U} (1 - Q_c) prod_{c not in U} Q_c / Q.  Row j holds R_j,
    the sum of those numerators over the j-sets U of the classes folded in
    so far; class c folds in as R_j <- R_{j-1} + (R_j - R_{j-1}) Q_c, j
    running down, from R_0 = 1.  Then P = 1 - sum_{j<k} R_j.  Every R_j
    has degree at most the sum of the generators folded in, so the k rows
    grow to at most min(sum, bound) + 1 cells, truncated at the bound: a
    generator past it costs nothing.  One coin DP over all generators
    divides by Q.
    """
    start = _start_table(bound, k + 1)
    rows = [[1]] + [[] for _ in range(k - 1)]
    for i, cls in enumerate(classes):
        size = min(len(rows[0]) + sum(cls), bound + 1)
        for row in rows:
            row += [0] * (size - len(row))
        for j in range(min(k - 1, i + 1), 0, -1):  # rows above i + 1 stay 0
            lower = rows[j - 1]
            diff = list(map(sub, rows[j], lower))
            _times_binomials(diff, cls)
            rows[j] = list(map(add, lower, diff))
        _times_binomials(rows[0], cls)
    start[:size] = map(sub, start[:size], map(sum, zip(*rows)))
    del rows
    return _denumerants(chain.from_iterable(classes), start)


def _times_binomials(poly, coins):
    """Multiply poly by prod_a (1 - t^a) in place, truncated at its length."""
    for a in coins:
        poly[a:] = map(sub, poly[a:], poly[:-a])


def _start_table(bound, rows):
    """The table [v = 0] for v <= bound, refused before it is allocated
    when `rows` tables of its length would exceed the cap."""
    cells = rows * (bound + 1)
    if cells > _COUNT_CAP:
        raise SemigroupError(
            f"count tables of {cells} cells exceed the cap of {_COUNT_CAP}")
    return [1] + [0] * bound


def _denumerants(coins, counts):
    """Coin DP over a start table, in place: entry v becomes the sum, over
    u weighted by counts[u], of the ways to write v - u as a sum of the
    coins.  Dividing by 1 - t^a is a running sum along each residue class
    mod a; only the classes with two or more entries change."""
    for a in coins:
        for r in range(min(a, len(counts) - a)):
            counts[r::a] = accumulate(counts[r::a])
    return counts


def count_k_chromatic(s, b, k):
    """Exact number of solutions of b that use at least k colors."""
    if b < 0:
        raise ValueError("b must be nonnegative")
    if not 1 <= k <= s.n_colors:
        raise ValueError(f"k must be between 1 and {s.n_colors}")
    return _mask_tables(s.classes, b, k)[b]


# ---------------------------------------------------------------------------
# quasipolynomial counting


@record
class QuasiPolynomial:
    """One polynomial constituent per residue class modulo the period."""

    period: int
    constituents: tuple     # coefficient tuples, lowest degree first
    threshold: int          # smallest b from which evaluation is exact

    def evaluate(self, b):
        coeffs = self.constituents[b % self.period]
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * b + c
        if acc.denominator == 1:
            return int(acc)
        return acc


def fit_quasipolynomial(s, k):
    """Fit the count of k-color solutions per residue class mod L = lcm(A).

    For each residue r, a polynomial of degree < n (n = number of
    generators) is interpolated through the exact counts at the n targets
    x_j = r0 + jL, j < n, with r0 = r, or L when r = 0.  The fit is exact
    for every b >= 1 and wrong at b = 0, so the threshold is 1.  With D_U
    the denumerant over the classes in U (l classes in all),
    inclusion-exclusion by subset size gives the count as

        D_all + sum_{|U| < k} (-1)^(k-|U|) C(l-|U|-1, k-|U|-1) D_U.

    - For a nonempty set U of classes, D_U(b) equals a quasipolynomial of
      period dividing L and degree < n for every b > -sum(U), sum(U) being
      the sum of the generators in U.  By Ehrhart-Macdonald reciprocity
      that quasipolynomial at -b counts, up to sign, the solutions of b
      with every variable positive, and there are none for 0 < b < sum(U).
    - U empty has D(b) = [b = 0] and the weight (-1)^k C(l - 1, k - 1),
      nonzero for 1 <= k <= l (l classes).

    So the count is a quasipolynomial plus (-1)^k C(l - 1, k - 1) [b = 0],
    and n samples per residue, all at b >= 1, determine it.

    The samples are spaced by L, so with D^i y the integer forward
    differences of y_0, ..., y_{n-1} the Newton form is
    sum_i D^i y C((x - r0)/L, i).  Times den = (n - 1)! L^(n - 1) it is
    sum_i D^i y (n - 1)!/i! L^(n - 1 - i) prod_{m < i} (x - x_m), whose
    power-basis coefficients are integers.  Sample j of every residue is
    one slice of the count table, so both steps run over all residues at
    once, and each coefficient becomes Fraction(numerator, den) last.
    Equal coefficients are one shared `Fraction` object.
    """
    if not 1 <= k <= s.n_colors:
        raise ValueError(f"k must be between 1 and {s.n_colors}")
    n = len(s.generators)
    period = lcm(*s.generators)
    counts = _mask_tables(s.classes, n * period, k)
    # rows[j][r0 - 1] is the count at x_j = r0 + jL, r0 = 1..L
    rows = [counts[1 + j * period:1 + (j + 1) * period] for j in range(n)]
    den = factorial(n - 1) * period ** (n - 1)
    newton = []  # D^i y scaled by den / (i! L^i)
    for i in range(n):
        weight = den // (factorial(i) * period ** i)
        newton.append([weight * y for y in rows[0]])
        rows = [[b - a for a, b in zip(lo, hi)]
                for lo, hi in zip(rows, rows[1:])]
    # Horner from the top difference: poly <- poly (x - x_i) + newton[i],
    # one list per power of x, lowest first
    poly = [newton[-1]]
    for i in range(n - 2, -1, -1):
        xs = range(1 + i * period, 1 + (i + 1) * period)
        poly = ([[d - x * c for d, x, c in zip(newton[i], xs, poly[0])]]
                + [[p - x * q for p, x, q in zip(lo, xs, hi)]
                   for lo, hi in zip(poly, poly[1:])]
                + [poly[-1]])
    # the lead coefficient is that of D_all, 1 / ((n - 1)! prod(A)) in every
    # residue (each row below k leaves out a class, so has lower degree):
    # no trailing zeros to strip
    uniq = {c: Fraction(c, den) for c in set(chain.from_iterable(poly))}
    constituents = [tuple(map(uniq.__getitem__, coeffs))
                    for coeffs in zip(*poly)]
    # r0 = L is residue 0
    return QuasiPolynomial(period, (constituents[-1], *constituents[:-1]), 1)
