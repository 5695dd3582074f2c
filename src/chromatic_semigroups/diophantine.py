"""Exact solvers for linear Diophantine systems A x = b, x >= 0, x integer.

Enumeration relies on a pointedness witness w (an integer functional that
is positive on every column, read off the double description of the
column cone) and on the description of the cone of every suffix of the
column list, all read off one reverse double description pass.  One
depth-first search serves enumeration, membership (its first solution)
and the colored questions, carrying the classes used.  At each column
the budget <w, residual> and the rows of the later columns' cone bound
the column's multiplicity to one interval, and dead states are skipped.
In dimension 1 the residue minima of every suffix's semigroup (Boecker &
Liptak, Algorithmica 2007) cut each residual that no completion reaches.
Homogeneous systems get their Hilbert basis geometrically (see `_hilbert`).
"""

from functools import lru_cache
from math import inf

from ._linalg import dot, int_vector, is_zero
from ._record import record
from .cones import (
    _CACHE_SIZE, _checked_rows, checked_inequalities, cone, is_pointed,
    simplicial_coordinates, suffix_descriptions)
from .errors import NotPointedError
from .numerical import (
    _COUNT_CAP, _MODULUS_CAP, _denumerants, _residue_minima, _start_table)


# a dead state of the 1-D search costs about as much as this many cells of
# residue minima (3 * 10**6 of each over <999983, 1000003, 1000033>: 29.7 s
# against 2.0 s on a 2-core Xeon VM), or as one column's round-robin set-up
_CELLS_PER_DEAD_STATE = 16


@record
class DiophantineInstance:
    """System A x = b with the columns of A stored as generator vectors."""

    columns: tuple
    rhs: tuple

    def __post_init__(self):
        cols = tuple(int_vector(col) for col in self.columns)
        rhs = int_vector(self.rhs)
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "rhs", rhs)
        for col in cols:
            if len(col) != len(rhs):
                raise ValueError("column/right-hand-side length mismatch")


@lru_cache(maxsize=_CACHE_SIZE)
def _witness(columns, dim):
    """Integer functional positive on every column, or NotPointedError."""
    pointed, w = is_pointed(cone(columns, dim))
    if not pointed:
        raise NotPointedError(
            "columns do not span a pointed cone; enumeration is unbounded")
    return w


def enumerate_solutions(inst):
    """All nonnegative integer solutions, duplicate-free and lex sorted.

    Requires the conic hull of the columns to be pointed.  An empty list
    means the right-hand side is not in the semigroup of the columns.
    """
    return tuple(sorted(iter_solutions(inst)))


def iter_solutions(inst):
    """Yield the solutions in depth-first search order (not sorted)."""
    return _search(inst)


def is_member(inst):
    """(flag, witness solution or None): the first solution that
    `iter_solutions` yields.

    Over linearly independent columns it is the only one, b's coordinate
    vector (`cones.simplicial_coordinates`), read off and checked.
    Otherwise the search skips residual states already shown dead, which
    keeps membership fast on targets whose enumeration tree is enormous.
    """
    cols, rhs = inst.columns, inst.rhs
    coords = simplicial_coordinates(cols, len(rhs), rhs)
    if coords is None:
        for sol in _search(inst):
            return True, sol
        return False, None
    x = tuple(num // den for num, den in coords)
    if all(v >= 0 for v in x) and rhs == tuple(
            sum(v * g[j] for v, g in zip(x, cols)) for j in range(len(rhs))):
        return True, x
    return False, None


def count_solutions(inst, allowed):
    """Number of solutions supported inside the `allowed` column set."""
    n = len(inst.columns)
    allowed = sorted(set(allowed))
    for i in allowed:
        if not 0 <= i < n:
            raise ValueError(f"column index {i} out of range")
    cols = [inst.columns[i] for i in allowed]
    d = len(inst.rhs)
    if d == 1 and cols and all(c[0] > 0 for c in cols):
        b = inst.rhs[0]
        if b < 0:
            return 0
        return _denumerants((c[0] for c in cols), _start_table(b, 1))[b]
    sub = DiophantineInstance(tuple(cols), inst.rhs)
    return sum(1 for _ in _search(sub))


@lru_cache(maxsize=_CACHE_SIZE)
def _plan_cached(cols, d):
    n = len(cols)
    w = _witness(cols, d)
    # heaviest columns first: large columns branch less, and the residual
    # cone of every suffix stays small
    order = sorted(range(n), key=lambda i: (-dot(w, cols[i]), i))
    ocols = [cols[i] for i in order]
    # a residual outside the cone of the columns after column k can never
    # be completed.  These cones come from one reverse double description
    # pass, their rows checked (TheoremContractError); the full cone's are
    # the rows cached for the distinct columns, whose description gave w
    descs = suffix_descriptions(ocols[1:], d)
    for k in range(n - 1):
        checked_inequalities(descs[k], ocols[k + 1:])
    # column k is weighed against the cone of the columns after it.  A row
    # that the column leaves unchanged holds on the cone of columns k..,
    # where the residual already lies, so only the rows it moves are kept.
    steps = [(col, dot(w, col), _moved(lin, col), _moved(rays, col))
             for col, (lin, rays) in zip(ocols, descs)]
    return order, w, _checked_rows(tuple(dict.fromkeys(cols)), d), steps


def _moved(rows, col):
    """(m, m . col) for each row m that `col` moves."""
    pairs = ((m, dot(m, col)) for m in rows)
    return tuple((m, s) for m, s in pairs if s)


def _suffix_minima(wcs):
    """Residue minima mod the last weight a of each suffix of `wcs`: the
    semigroup of wcs[k:] is the multiples of wcs[k] plus that of wcs[k + 1:],
    its finite minima plus multiples of a, so one round-robin pass seeded
    with those minima gives the next."""
    a = wcs[-1]
    chain = [_residue_minima((a,), (0,))]
    for c in reversed(wcs[:-1]):
        seeds = [m for m in chain[-1] if m != inf]
        chain.append(_residue_minima((a, c), seeds))
    return chain[::-1]


def _plan(inst):
    cols = inst.columns
    for col in cols:
        if is_zero(col):
            raise ValueError(
                "zero column makes the solution set infinite; drop it first")
    if not cols:
        return None
    return _plan_cached(cols, len(inst.rhs))


def _search(inst, classes=(), need=0, colorful=False):
    """Depth-first search over the columns in plan order.

    A target outside the cone of all columns has no solution.  Otherwise
    the multiplicity x of column k ranges over one interval [lo, hi], read
    off the residual: the budget <w, residual> >= x <w, col> bounds it from
    above, each facet row m of the later columns' cone needs
    m . residual >= x m . col (a bound from above or below, by the sign of
    m . col), and each row vanishing on the later columns fixes
    x = m . residual / m . col.  x runs from lo up, so solutions come in
    lexicographic order over the plan's columns.

    Given color `classes` (tuples of column indices), the search carries
    `used`, the bit mask of the classes with a column at x > 0 so far, and
    yields only the solutions using at least `need` classes or, if
    `colorful`, at most one column per class.  A completion adds only the
    classes of later columns, so a state whose used and later classes
    number fewer than `need` is cut; in colorful mode a column of a used
    class stays at 0.  A state (k, residual, used) whose subtree yielded
    nothing is recorded as dead and skipped when another prefix reaches
    it: <w, residual> fixes the remaining budget and `used` which
    completions qualify.  Once `need` classes are used all completions
    qualify, so `used` becomes the mask of all classes: one key for them.
    No state of the last column is recorded: one division decides it, and
    a key per failed division would grow with the target.

    In dimension 1 a weighted residual at column k below the residue
    minima mod a of the weights from k on is dead.  The minima cost about
    n (a / _CELLS_PER_DEAD_STATE + 1) failed states; a call builds them once
    that many of its states have failed, and drops them when it ends.
    """
    rhs = inst.rhs
    plan = _plan(inst)
    if plan is None:
        if is_zero(rhs):
            yield ()
        return
    order, w, rows, steps = plan
    if any(dot(m, rhs) < 0 for m in rows):
        return
    n = len(order)
    a = steps[-1][1]
    fits = len(rhs) == 1 and a <= _MODULUS_CAP and n * a <= _COUNT_CAP
    # the count of failed states that builds the minima; 0 never does
    build = n * (a // _CELLS_PER_DEAD_STATE + 1) if fits else 0
    minima = []
    bits = later = [0] * (n + 1)
    if classes:
        bit = {i: 1 << c for c, cls in enumerate(classes) for i in cls}
        bits = [bit.get(i, 0) for i in order]
        # the classes of the columns from k on
        later = bits + [0]
        for k in range(n - 1, -1, -1):
            later[k] |= later[k + 1]
    full = later[0]

    acc = [0] * n
    dead = set()
    hits = [0]
    failed = [0]

    def descend(k, residual, wres, used):
        if used != full and (used | later[k]).bit_count() < need:
            return
        if k == n:
            if all(v == 0 for v in residual):
                hits[0] += 1
                sol = [0] * n
                for pos, i in enumerate(order):
                    sol[i] = acc[pos]
                yield tuple(sol)
            return
        if minima and wres < minima[k][wres % a]:
            return
        key = (k, residual, used) if k < n - 1 else None
        if key in dead:
            return
        before = hits[0]
        col, wc, eqs, ineqs = steps[k]
        lo, hi = 0, (0 if colorful and used & bits[k] else wres // wc)
        for m, s in eqs:
            q, r = divmod(dot(m, residual), s)
            if r or not lo <= q <= hi:
                hi = -1
            else:
                lo = hi = q
        for m, s in ineqs:
            if s > 0:
                hi = min(hi, dot(m, residual) // s)
            else:
                lo = max(lo, -(dot(m, residual) // -s))
        grown = used | bits[k]
        if grown != used and not colorful and grown.bit_count() >= need:
            grown = full
        if lo <= hi:
            res = tuple(v - lo * c for v, c in zip(residual, col))
            rest = wres - lo * wc
            for x in range(lo, hi + 1):
                acc[k] = x
                yield from descend(k + 1, res, rest, grown if x else used)
                # minima built below this state may show it dead as well
                if minima and wres < minima[k][wres % a]:
                    break
                res = tuple(v - c for v, c in zip(res, col))
                rest -= wc
        if hits[0] == before:
            if key is not None:
                dead.add(key)
            failed[0] += 1
            if failed[0] == build:
                minima.extend(_suffix_minima([wc for _, wc, _, _ in steps]))

    try:
        yield from descend(0, rhs, dot(w, rhs), 0)
    finally:
        del descend  # it refers to itself: free its states now, not at a gc


def hilbert_basis_homogeneous(rows):
    """Minimal generating set (Hilbert basis) of {z >= 0 integer : B z = 0}.

    The solution monoid is the lattice-point monoid of a pointed cone, so
    the basis is extracted geometrically (rays, triangulation, fundamental
    parallelepipeds, minimality filter); the tests cross-check it against
    a slow completion procedure.  The Hilbert basis is unique, so both
    agree.  Canonically sorted.
    """
    rows = [int_vector(r) for r in rows]
    if not rows:
        raise ValueError("empty system; pass at least one row")
    k = len(rows[0])
    for r in rows:
        if len(r) != k:
            raise ValueError("ragged matrix")
    if k == 0:
        return ()
    from ._hilbert import hilbert_basis_pointed
    return hilbert_basis_pointed(rows, k)
