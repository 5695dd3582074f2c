"""Geometric Hilbert basis engine for pointed cones inside the orthant.

The monoid {z >= 0 integer : B z = 0} is the lattice-point monoid of a
pointed rational cone.  Its Hilbert basis is computed from the extreme
rays: the cone is triangulated by pulling from a ray, the half-open
fundamental parallelepiped of every simplicial cell is enumerated through
coset representatives of the ray lattice inside the saturated span lattice,
and the union of parallelepiped points and rays is reduced to the minimal
elements.  Output is unique, so it agrees with any correct completion
procedure while staying fast when minimal solutions have large entries.
"""

from itertools import product

from ._lattice import column_hnf, saturation_basis, solve_exact
from ._linalg import dot, rref
from .cones import _generator_description
from .errors import TheoremContractError


def hilbert_basis_pointed(rows, k):
    """Hilbert basis of {z in Z^k : z >= 0, row . z = 0 for every row}."""
    ineqs = [tuple(1 if j == i else 0 for j in range(k)) for i in range(k)]
    for r in rows:
        r = tuple(r)
        ineqs.append(r)
        ineqs.append(tuple(-c for c in r))
    lin, rays = _generator_description(tuple(ineqs), k)
    if lin:
        raise TheoremContractError("orthant cone contains a line")
    if not rays:
        return ()
    sat = saturation_basis(rays, k)
    candidates = set(rays)
    for cell in _triangulate(list(rays), k):
        candidates |= _parallelepiped_points(cell, sat)
    return _minimal_elements(candidates)


def _minimal_elements(candidates):
    basis = []
    for c in sorted(candidates, key=lambda v: (sum(v), v)):
        if not any(all(ci >= bi for ci, bi in zip(c, b)) for b in basis):
            basis.append(c)
    return tuple(sorted(basis))


def _rank(vectors):
    if not vectors:
        return 0
    reduced, _ = rref([list(v) for v in vectors])
    return len(reduced)


def _triangulate(rays, k):
    """Simplicial cells covering cone(rays), by pulling from the first ray."""
    t = _rank(rays)
    if len(rays) == t:
        return [tuple(rays)]
    _, facets = _generator_description(tuple(rays), k)
    apex = rays[0]
    cells = []
    for row in facets:
        if dot(row, apex) == 0:
            continue
        sub = [r for r in rays if dot(row, r) == 0]
        for cell in _triangulate(sub, k):
            cells.append(cell + (apex,))
    return cells


def _parallelepiped_points(cell, sat):
    """Nonzero lattice points of {sum l_i r_i : 0 <= l_i < 1} for a cell.

    Enumerated as coset representatives of the cell-ray lattice inside the
    saturated span lattice, each folded into the half-open box.
    """
    t = len(cell)
    if len(sat) != t:
        raise TheoremContractError("cell does not span the saturated lattice")
    coord_cols = []
    for r in cell:
        coords = solve_exact(sat, r)
        if coords is None or any(c.denominator != 1 for c in coords):
            raise TheoremContractError("ray escapes the saturated lattice")
        coord_cols.append(tuple(int(c) for c in coords))
    c_rows = [tuple(col[i] for col in coord_cols) for i in range(t)]
    h, _ = column_hnf(c_rows)
    diag = [h[i][i] for i in range(t)]
    if any(d <= 0 for d in diag):
        raise TheoremContractError("cell rays are linearly dependent")
    # integer adjugate over the common denominator D = |det C|, so the box
    # scan below stays in integer arithmetic
    denom = 1
    for d in diag:
        denom *= d
    adj = []
    for i in range(t):
        unit = tuple(1 if j == i else 0 for j in range(t))
        inv_col = solve_exact(coord_cols, unit)
        adj.append(tuple(int(c * denom) for c in inv_col))
    dim = len(cell[0])
    points = set()
    for a in product(*[range(d) for d in diag]):
        if not any(a):
            continue
        z = [0] * dim
        for i in range(t):
            ai = a[i]
            if ai:
                row = sat[i]
                for j in range(dim):
                    z[j] += ai * row[j]
        for j in range(t):
            num = sum(a[i] * adj[i][j] for i in range(t))
            f = num // denom
            if f:
                row = cell[j]
                for x in range(dim):
                    z[x] -= f * row[x]
        if any(z):
            points.add(tuple(z))
    return points
