"""Exact LP feasibility and rational row reduction, the tests' independent
references for the double description.

A two-phase simplex over the rationals with Bland's pivot rule: small and
deterministic, and every coefficient is a Fraction, so there is no
tolerance anywhere.  `lp_feasible` decides the same systems as the
package's `cones.rational_feasible`, which reads its answer off the double
description instead; the tests check the two against each other and check
membership of rational points in cones and pointedness against the LP.

`rref`, `reduce_mod_rows`, `sign_canonical` and the Fraction-aware
`primitive` put a double description state in canonical form over the
rationals, the oracle for the package's integer Gauss-Jordan pass.
"""

from fractions import Fraction
from math import gcd, lcm

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def lp_feasible(rows, strict=()):
    """Exact feasibility for a system of affine inequalities over Q.

    Each row has length m+1 and reads a . x >= c with c the trailing entry;
    row indices listed in `strict` are required to hold strictly.  Returns a
    tuple of Fractions or None; `()` for no rows.  With strict rows, one
    margin t in [0, 1] is asked of every strict row (a . x >= c + t) and
    maximized: the system is feasible iff the optimum is positive.
    """
    rows = [tuple(r) for r in rows]
    if not rows:
        return ()
    m = len(rows[0]) - 1
    strict = frozenset(strict)
    use_t = bool(strict)
    nvars = 2 * m + (1 if use_t else 0)
    constraints = []
    for i, r in enumerate(rows):
        if len(r) != m + 1:
            raise ValueError("ragged inequality system")
        a, const = r[:m], r[m]
        coeffs = [-x for x in a] + [x for x in a]
        if use_t:
            coeffs.append(1 if i in strict else 0)
        constraints.append((coeffs, -const))
    objective = [0] * nvars
    if use_t:
        constraints.append(([0] * (2 * m) + [1], 1))
        objective[-1] = 1
    status, value, z = maximize(objective, constraints)
    if status != OPTIMAL:
        return None
    if use_t and value == 0:
        return None
    return tuple(z[i] - z[m + i] for i in range(m))


def maximize(objective, constraints):
    """Maximize objective . z subject to row . z <= rhs for each constraint
    and z >= 0.

    `objective` is a sequence of n cost coefficients; `constraints` is a list
    of (row, rhs) pairs with len(row) == n.  Returns (status, value, z) where
    z is a tuple of Fractions (or None unless status == "optimal").
    """
    n = len(objective)
    m = len(constraints)
    rows = []
    rhs = []
    negated = []
    for coeffs, b in constraints:
        coeffs = [Fraction(a) for a in coeffs]
        b = Fraction(b)
        if b < 0:
            coeffs = [-a for a in coeffs]
            b = -b
            negated.append(True)
        else:
            negated.append(False)
        rows.append(coeffs)
        rhs.append(b)

    art_of_row = {}
    n_art = sum(1 for f in negated if f)
    total = n + m + n_art
    tableau = []
    basis = []
    art_seen = 0
    for i in range(m):
        row = rows[i] + [Fraction(0)] * (m + n_art) + [rhs[i]]
        row[n + i] = Fraction(-1) if negated[i] else Fraction(1)
        if negated[i]:
            col = n + m + art_seen
            row[col] = Fraction(1)
            art_of_row[i] = col
            basis.append(col)
            art_seen += 1
        else:
            basis.append(n + i)
        tableau.append(row)

    artificial = set(art_of_row.values())

    if artificial:
        cost1 = [Fraction(0)] * total
        for c in artificial:
            cost1[c] = Fraction(-1)
        _bland(tableau, basis, cost1, total)
        if any(tableau[i][total] != 0 for i in range(m) if basis[i] in artificial):
            return INFEASIBLE, None, None
        # drive basic artificials out or drop redundant rows
        for i in range(m - 1, -1, -1):
            if basis[i] in artificial:
                piv = None
                for j in range(n + m):
                    if tableau[i][j] != 0:
                        piv = j
                        break
                if piv is None:
                    del tableau[i]
                    del basis[i]
                else:
                    _pivot(tableau, basis, i, piv)
        m = len(tableau)

    cost2 = [Fraction(a) for a in objective] + [Fraction(0)] * (total - n)
    status = _bland(tableau, basis, cost2, n + m if artificial else total,
                    forbid=artificial)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    z = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            z[b] = tableau[i][total]
    value = sum(c * x for c, x in zip(objective, z))
    return OPTIMAL, value, tuple(z)


def _bland(tableau, basis, cost, ncols, forbid=()):
    total = len(tableau[0]) - 1 if tableau else ncols
    # objective row maintained under pivots (reduced costs)
    objrow = list(cost) + [Fraction(0)] * (total + 1 - len(cost))
    for i, b in enumerate(basis):
        cb = objrow[b]
        if cb != 0:
            row = tableau[i]
            objrow = [a - cb * r for a, r in zip(objrow, row)]
    while True:
        enter = None
        for j in range(ncols):
            if j in forbid:
                continue
            if objrow[j] > 0:
                enter = j
                break
        if enter is None:
            return OPTIMAL
        leave = None
        best = None
        for i in range(len(tableau)):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][total] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return UNBOUNDED
        _pivot(tableau, basis, leave, enter)
        f = objrow[enter]
        if f != 0:
            prow = tableau[leave]
            objrow = [a - f * b for a, b in zip(objrow, prow)]


def _pivot(tableau, basis, r, c):
    piv = tableau[r][c]
    tableau[r] = [a / piv for a in tableau[r]]
    prow = tableau[r]
    for i in range(len(tableau)):
        if i != r and tableau[i][c] != 0:
            f = tableau[i][c]
            tableau[i] = [a - f * b for a, b in zip(tableau[i], prow)]
    basis[r] = c


# ---------------------------------------------------------------------------
# rational row reduction


def primitive(v):
    """Scale a nonzero rational vector by a positive factor to coprime ints."""
    mult = lcm(*(Fraction(a).denominator for a in v))
    ints = tuple(int(a * mult) for a in v)
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(a // g for a in ints)


def sign_canonical(v):
    """Flip sign so the first nonzero coordinate is positive."""
    for a in v:
        if a != 0:
            return v if a > 0 else tuple(-a for a in v)
    return v


def rref(rows):
    """Reduced row echelon form over the rationals.

    Returns (rref_rows, pivot_columns); zero rows are dropped.
    """
    mat = [[Fraction(a) for a in row] for row in rows]
    pivots = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0),
                         None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        pv = mat[r][c]
        mat[r] = [a / pv for a in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots


def reduce_mod_rows(v, rref_rows, pivots):
    """Subtract multiples of RREF rows from v to zero out the pivot columns."""
    w = [Fraction(a) for a in v]
    for row, c in zip(rref_rows, pivots):
        if w[c] != 0:
            f = w[c]  # row[c] == 1 in RREF
            w = [a - f * b for a, b in zip(w, row)]
    return tuple(w)
