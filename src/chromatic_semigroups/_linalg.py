"""Small exact linear-algebra helpers on tuples of ints / Fractions."""

from fractions import Fraction
from math import gcd, lcm


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, v):
    return tuple(c * a for a in v)


def vec_neg(v):
    return tuple(-a for a in v)


def is_zero(v):
    return all(a == 0 for a in v)


def primitive(v):
    """Scale a nonzero rational vector by a positive factor to coprime ints.

    The direction is preserved (the scaling factor is always positive).
    """
    denoms = [a.denominator for a in v if isinstance(a, Fraction)]
    if denoms:
        mult = lcm(*denoms)
        ints = tuple(int(a * mult) for a in v)
    else:
        ints = tuple(int(a) for a in v)
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(a // g for a in ints)


def sign_canonical(v):
    """Flip sign so the first nonzero coordinate is positive (for vectors
    whose negation denotes the same object, e.g. lineality directions)."""
    for a in v:
        if a != 0:
            return v if a > 0 else vec_neg(v)
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
        pivot_row = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pivot_row = i
                break
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
            for j in range(len(w)):
                w[j] -= f * row[j]
    return tuple(w)
