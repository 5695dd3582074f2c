"""Exact solvers for linear Diophantine systems A x = b, x >= 0, x integer.

Enumeration relies on a pointedness witness w (an integer functional that
is positive on every column, read off the double description of the
column cone), which bounds every branch of the search by
<w, residual> >= 0, and on the facets of the cone of every suffix of the
column list, all read off one reverse double description pass.  One search
serves enumeration and membership (its first solution) and skips residual
states already shown dead.  Homogeneous systems get their Hilbert basis
geometrically (see `_hilbert`), with a completion procedure kept as a
reference.
"""

from dataclasses import dataclass
from functools import lru_cache

from ._linalg import dot, is_zero, vec_add
from .cones import checked_inequalities, cone, is_pointed, suffix_descriptions
from .errors import NotPointedError
from .numerical import _denumerants, _start_table


@dataclass(frozen=True)
class DiophantineInstance:
    """System A x = b with the columns of A stored as generator vectors."""

    columns: tuple
    rhs: tuple

    def __post_init__(self):
        cols = tuple(tuple(int(c) for c in col) for col in self.columns)
        rhs = tuple(int(c) for c in self.rhs)
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "rhs", rhs)
        for col in cols:
            if len(col) != len(rhs):
                raise ValueError("column/right-hand-side length mismatch")


@lru_cache(maxsize=None)
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
    """(flag, witness solution or None).

    The witness is the first solution of the depth-first search, so it
    matches the first one `iter_solutions` yields; residual states already
    shown dead are skipped, which keeps membership fast on targets whose
    enumeration tree is enormous.
    """
    for sol in _search(inst):
        return True, sol
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


@lru_cache(maxsize=None)
def _plan_cached(cols, d):
    n = len(cols)
    w = _witness(cols, d)
    # heaviest columns first: large columns branch less, and the residual
    # cone of every suffix stays small
    order = sorted(range(n), key=lambda i: (-dot(w, cols[i]), i))
    ocols = [cols[i] for i in order]
    wvals = [dot(w, c) for c in ocols]
    # facet rows of the cone of each suffix, all from one reverse double
    # description pass: a residual that violates one can never be completed
    # with the remaining columns
    descs = suffix_descriptions(ocols, d)
    suffix_rows = [checked_inequalities(descs[k], ocols[k:]) for k in range(n)]
    suffix_rows.append(tuple(tuple(s if j == i else 0 for j in range(d))
                             for i in range(d) for s in (1, -1)))
    # how each facet value moves per copy of the current column
    row_steps = [tuple(dot(m, ocols[k]) for m in suffix_rows[k + 1])
                 for k in range(n)]
    suffix_zero = [[True] * d for _ in range(n + 1)]
    for k in range(n - 1, -1, -1):
        for j in range(d):
            suffix_zero[k][j] = suffix_zero[k + 1][j] and ocols[k][j] == 0
    # coordinates untouched by later columns force the multiplicity exactly
    forced_coord = [None] * n
    for k in range(n):
        for j in range(d):
            if ocols[k][j] != 0 and suffix_zero[k + 1][j]:
                forced_coord[k] = j
                break
    return order, ocols, wvals, suffix_rows, row_steps, forced_coord


def _plan(inst):
    cols = inst.columns
    for col in cols:
        if is_zero(col):
            raise ValueError(
                "zero column makes the solution set infinite; drop it first")
    if not cols:
        return None
    return _plan_cached(cols, len(inst.rhs))


def _search(inst):
    """Depth-first search over the columns in plan order.

    A state (k, residual) whose subtree yielded nothing is recorded as dead
    and skipped when another prefix reaches it: the subtree depends only on
    that pair, since <w, residual> fixes the remaining budget.
    """
    rhs = inst.rhs
    d = len(rhs)
    plan = _plan(inst)
    if plan is None:
        if is_zero(rhs):
            yield ()
        return
    order, ocols, wvals, suffix_rows, row_steps, forced_coord = plan
    n = len(ocols)
    w = _witness(inst.columns, d)

    acc = [0] * n
    dead = set()
    hits = [0]

    def descend(k, residual, wres):
        if k == n:
            if all(v == 0 for v in residual):
                hits[0] += 1
                sol = [0] * n
                for pos, i in enumerate(order):
                    sol[i] = acc[pos]
                yield tuple(sol)
            return
        key = (k, residual)
        if key in dead:
            return
        before = hits[0]
        col = ocols[k]
        wc = wvals[k]
        rows = suffix_rows[k + 1]
        steps = row_steps[k]
        fj = forced_coord[k]
        if fj is not None:
            q, r = divmod(residual[fj], col[fj])
            if r == 0 and q >= 0 and wres - q * wc >= 0:
                res = tuple(a - q * c for a, c in zip(residual, col))
                if all(dot(m, res) >= 0 for m in rows):
                    acc[k] = q
                    yield from descend(k + 1, res, wres - q * wc)
        else:
            vals = [dot(m, residual) for m in rows]
            x = 0
            res = residual
            while wres >= 0:
                skip = False
                stop = False
                for v, mc in zip(vals, steps):
                    if v < 0:
                        if mc >= 0:
                            stop = True
                            break
                        skip = True
                if stop:
                    break
                if not skip:
                    acc[k] = x
                    yield from descend(k + 1, res, wres)
                x += 1
                wres -= wc
                res = tuple(a - c for a, c in zip(res, col))
                vals = [v - mc for v, mc in zip(vals, steps)]
        if hits[0] == before:
            dead.add(key)

    yield from descend(0, rhs, dot(w, rhs))


def hilbert_basis_homogeneous(rows):
    """Minimal generating set (Hilbert basis) of {z >= 0 integer : B z = 0}.

    The solution monoid is the lattice-point monoid of a pointed cone, so
    the basis is extracted geometrically (rays, triangulation, fundamental
    parallelepipeds, minimality filter); see `hilbert_basis_completion` for
    the slow completion procedure used as an independent cross-check in the
    tests.  The Hilbert basis is unique, so both agree.  Canonically sorted.
    """
    rows = _checked_rows(rows)
    k = len(rows[0])
    if k == 0:
        return ()
    from ._hilbert import hilbert_basis_pointed
    return hilbert_basis_pointed(rows, k)


def _checked_rows(rows):
    rows = [tuple(int(c) for c in r) for r in rows]
    if not rows:
        raise ValueError("empty system; pass at least one row")
    k = len(rows[0])
    for r in rows:
        if len(r) != k:
            raise ValueError("ragged matrix")
    return rows


def hilbert_basis_completion(rows):
    """Hilbert basis by completion over the componentwise order.

    Frontier vectors t grow by one unit step e_j at a time, allowed only
    when <Bt, Be_j> < 0, and are discarded as soon as they dominate a known
    solution.  Exponential on systems whose minimal solutions are large;
    kept as a reference implementation.
    """
    rows = _checked_rows(rows)
    k = len(rows[0])
    if k == 0:
        return ()
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
                if dot(val, bcols[j]) < 0:
                    u = t[:j] + (t[j] + 1,) + t[j + 1:]
                    if u in nxt or _dominates_any(u, basis):
                        continue
                    nxt[u] = vec_add(val, bcols[j])
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
