"""Colored affine semigroups: generators carry colors, solutions are graded
by how many colors they use.

A coloring partitions the column indices (the same vector may appear under
several colors as distinct columns).  Solutions of A x = b are classified
as monochromatic / k-chromatic / chromatic / colorful from the color
classes touched by their support.  The k-chromatic, colorful and counting
questions run one search that carries the classes used (`_search`), in
every dimension.
"""

from itertools import combinations_with_replacement

from ._linalg import int_vector, is_zero
from ._record import record
from .cones import cone, is_pointed
from .diophantine import (
    DiophantineInstance, _search, enumerate_solutions, is_member)
from .errors import NotPointedError, TheoremContractError
from .semigroups import AffineSemigroup, intersect_semigroup_family


@record
class ColoredSemigroup:
    """Indexed generator columns plus a partition of the indices into colors."""

    dimension: int
    columns: tuple
    classes: tuple

    def __post_init__(self):
        cols = tuple(int_vector(col) for col in self.columns)
        object.__setattr__(self, "columns", cols)
        classes = tuple(int_vector(cls) for cls in self.classes)
        object.__setattr__(self, "classes", classes)
        n = len(cols)
        for col in cols:
            if len(col) != self.dimension:
                raise ValueError(f"column {col} does not have dimension {self.dimension}")
            if is_zero(col):
                raise ValueError("zero columns are not allowed")
        if not classes:
            raise ValueError("at least one color class required")
        seen = set()
        for cls in classes:
            if not cls:
                raise ValueError("color classes must be nonempty")
            for i in cls:
                if not 0 <= i < n or i in seen:
                    raise ValueError("classes must partition the column indices")
                seen.add(i)
        if len(seen) != n:
            raise ValueError("classes must cover every column index")

    @property
    def n_colors(self):
        return len(self.classes)

    @property
    def base(self):
        """The underlying (color-blind) affine semigroup."""
        return AffineSemigroup(self.dimension, self.columns)

    def class_semigroup(self, i):
        return AffineSemigroup(self.dimension,
                               tuple(self.columns[j] for j in self.classes[i]))


@record
class SolutionClassification:
    colors_used: frozenset
    chromatic_level: int
    is_monochromatic: bool
    is_chromatic: bool
    is_colorful: bool


def classify(s, x):
    """Color profile of a solution vector (not checked against any target)."""
    x = int_vector(x)
    if len(x) != len(s.columns):
        raise ValueError("solution length does not match the column count")
    if any(v < 0 for v in x):
        raise ValueError("solution entries must be nonnegative")
    support = {i for i, v in enumerate(x) if v != 0}
    used = frozenset(ci for ci, cls in enumerate(s.classes)
                     if support & set(cls))
    colorful = all(len(support & set(cls)) <= 1 for cls in s.classes)
    level = len(used)
    # positional: one record per solution, and a record's keyword
    # construction costs about three times its positional one
    return SolutionClassification(used, level, level <= 1,
                                  level == s.n_colors, colorful)


def _require_pointed(s):
    pointed, _ = is_pointed(cone(s.columns, s.dimension))
    if not pointed:
        raise NotPointedError("the generator columns must span a pointed cone")


def find_k_chromatic(s, b, k):
    """Some solution of A x = b using at least k colors, or None.

    One search over all columns carries the classes used and cuts a branch
    whose used and later classes number fewer than k.  The solution is the
    search's first: the lexicographically first one using at least k
    colors, over the columns in the search's plan order (in 1-D, largest
    absolute value first, ties by index).
    """
    if not 1 <= k <= s.n_colors:
        raise ValueError(f"k must be between 1 and {s.n_colors}")
    return next(_search(DiophantineInstance(s.columns, b), s.classes, k), None)


def _solve_within(s, idx, b):
    """A solution of b supported inside the columns `idx`, as a full-length
    vector, or None."""
    found, sub = is_member(
        DiophantineInstance(tuple(s.columns[i] for i in idx), b))
    if not found:
        return None
    full = [0] * len(s.columns)
    for i, x in zip(idx, sub):
        full[i] = x
    return tuple(full)


def find_colorful(s, b):
    """A solution using at most one column per color, or None.

    One search over all columns carries the classes used and keeps a
    column at x = 0 once another column of its class is nonzero.
    """
    inst = DiophantineInstance(s.columns, b)
    return next(_search(inst, s.classes, colorful=True), None)


def count_chromatic_solutions(s, b, k):
    """Number of solutions of A x = b using at least k colors."""
    if not 1 <= k <= s.n_colors:
        raise ValueError(f"k must be between 1 and {s.n_colors}")
    inst = DiophantineInstance(s.columns, b)
    return sum(1 for _ in _search(inst, s.classes, k))


def monochromatic_profile(s, b):
    """Per color class, a solution supported inside that class (or None)."""
    _require_pointed(s)
    b = tuple(b)
    return tuple(_solve_within(s, cls, b) for cls in s.classes)


@record
class CaratheodoryReport:
    exceptions: tuple       # (target, per-class monochromatic witnesses)
    intersection_generators: tuple
    candidates_checked: tuple
    note: str


def caratheodory_exceptions(s):
    """Targets with a monochromatic solution per color but no chromatic one.

    The common semigroup of the color classes is intersected out first;
    any target whose factorizations over its minimal generators G all have
    total length < n_colors is a candidate (longer
    factorizations always concatenate into chromatic solutions), so the
    candidate set is every sum of at most n_colors - 1 elements of G with
    repetition.  The zero target is excluded: the empty solution uses no
    colors, which we do not count as "one solution per color".
    """
    _require_pointed(s)
    ell = s.n_colors
    common = intersect_semigroup_family(
        [s.class_semigroup(i) for i in range(ell)])
    gens = common.generators
    candidates = set()
    for size in range(1, ell):
        for combo in combinations_with_replacement(gens, size):
            candidates.add(tuple(map(sum, zip(*combo))))
    candidates = sorted(candidates)
    exceptions = []
    for b in candidates:
        if find_k_chromatic(s, b, ell) is None:
            witnesses = monochromatic_profile(s, b)
            if any(wit is None for wit in witnesses):
                raise TheoremContractError(
                    f"{b} lies in the intersection semigroup but lacks a "
                    "monochromatic solution for some color")
            exceptions.append((b, witnesses))
    return CaratheodoryReport(
        exceptions=tuple(exceptions),
        intersection_generators=gens,
        candidates_checked=tuple(candidates),
        note="zero target excluded by convention (empty solution uses no colors)",
    )


# ---------------------------------------------------------------------------
# counterexample family: a point whose expressions never mix colors


@record
class UniqueExpressionFamily:
    n: int
    rows: tuple             # (g_i, g_i', g_i'') generator triples
    colored: ColoredSemigroup
    target: tuple


def build_unique_expression_family(n):
    """Family of n generator triples sharing the target (3, 3n-1, 3n+2).

    Row i consists of (0, 2^i - 1, 2^i), (1, n + 2^i - 1, n + 2^i + 1) and
    (2, 2(n - 2^i) + 1, 2(n - 2^i) + 1); the target decomposes exactly once
    over each row and in no other way over the pooled generators.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rows = []
    for i in range(1, n + 1):
        g = (0, 2 ** i - 1, 2 ** i)
        gp = (1, n + 2 ** i - 1, n + 2 ** i + 1)
        gpp = (2, 2 * (n - 2 ** i) + 1, 2 * (n - 2 ** i) + 1)
        rows.append((g, gp, gpp))
    columns = tuple(v for row in rows for v in row)
    classes = tuple((3 * j, 3 * j + 1, 3 * j + 2) for j in range(n))
    colored = ColoredSemigroup(3, columns, classes)
    target = (3, 3 * n - 1, 3 * n + 2)
    return UniqueExpressionFamily(n, tuple(rows), colored, target)


@record
class UniqueExpressionReport:
    n: int
    target: tuple
    solutions: tuple
    expected_solutions: tuple
    matches: bool
    all_monochromatic: bool


def verify_unique_expressions(n):
    """Exhaustively confirm that the family target decomposes exactly n ways."""
    if n > 12:
        raise ValueError("n > 12 exceeds the intended search budget")
    fam = build_unique_expression_family(n)
    pooled = fam.colored
    solutions = enumerate_solutions(
        DiophantineInstance(pooled.columns, fam.target))
    expected = []
    for j in range(n):
        x = [0] * (3 * n)
        x[3 * j] = x[3 * j + 1] = x[3 * j + 2] = 1
        expected.append(tuple(x))
    expected = tuple(sorted(expected))
    mono = all(classify(pooled, x).chromatic_level <= 1 for x in solutions)
    return UniqueExpressionReport(
        n=n,
        target=fam.target,
        solutions=solutions,
        expected_solutions=expected,
        matches=solutions == expected,
        all_monochromatic=mono,
    )


def lift_family(s):
    """Append a shared unit direction: each class gains (0, ..., 0, 1).

    Every original column is embedded with a trailing zero; the new unit
    column is appended once per class (same vector, different colors).
    """
    new_columns = []
    new_classes = []
    unit = (0,) * s.dimension + (1,)
    for cls in s.classes:
        idxs = []
        for i in cls:
            new_columns.append(s.columns[i] + (0,))
            idxs.append(len(new_columns) - 1)
        new_columns.append(unit)
        idxs.append(len(new_columns) - 1)
        new_classes.append(tuple(idxs))
    return ColoredSemigroup(s.dimension + 1, tuple(new_columns),
                            tuple(new_classes))
