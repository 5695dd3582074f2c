"""Geometric Hilbert basis engine for pointed cones inside the orthant.

The monoid {z >= 0 integer : B z = 0} is the lattice-point monoid of a
pointed rational cone.  Its Hilbert basis is computed from the extreme
rays: the cone is triangulated by pulling from a ray, the half-open
fundamental parallelepiped of every simplicial cell is enumerated, and
the union of parallelepiped points and rays is reduced to the minimal
elements.  Each cell is brought to one lower-triangular form by unimodular
column operations; the lattice of its span, the coset representatives of
its ray lattice and the fold into the parallelepiped all follow from that
form by forward substitution, in integer arithmetic.  Output is unique,
so it agrees with any correct completion procedure while staying fast
when minimal solutions have large entries.
"""

from itertools import product
from math import prod
from operator import mul

from ._linalg import dot
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
    candidates = set(rays)
    for cell in _triangulate(list(rays), k):
        candidates |= _parallelepiped_points(cell)
    return _minimal_elements(candidates)


def _minimal_elements(candidates):
    basis = []
    for c in sorted(candidates, key=lambda v: (sum(v), v)):
        if not any(all(ci >= bi for ci, bi in zip(c, b)) for b in basis):
            basis.append(c)
    return tuple(sorted(basis))


def _triangulate(rays, k):
    """Simplicial cells covering cone(rays), by pulling from the first ray.

    The lineality of the dual cone is the orthogonal complement of the
    rays' span, so the rank of the rays is k less its dimension.
    """
    lin, facets = _generator_description(tuple(rays), k)
    if len(rays) == k - len(lin):
        return [tuple(rays)]
    apex = rays[0]
    cells = []
    for row in facets:
        if dot(row, apex) == 0:
            continue
        sub = [r for r in rays if dot(row, r) == 0]
        for cell in _triangulate(sub, k):
            cells.append(cell + (apex,))
    return cells


def _parallelepiped_points(cell):
    """Nonzero lattice points of {sum l_i r_i : 0 <= l_i < 1} for a cell.

    Unimodular column operations (Euclid's algorithm, row by row) bring
    the ray rows G to [B 0], with B lower-triangular and B_ii > 0.  The
    rows of E = B^-1 G are then a basis of the lattice points of the
    cell's span, in which ray i has the coordinates of row i of B, so the
    mu E with mu in the box prod [0, B_ii) represent the cosets of the
    ray lattice.  Each is folded into the half-open parallelepiped by
    subtracting floor(mu B^-1) G, read off the integer D B^-1, D = det B.
    """
    t = len(cell)
    dim = len(cell[0])
    cols = [list(c) for c in zip(*cell)]
    for i in range(t):
        # columns from i on vanish in the rows above i, so whole columns
        # are combined
        while True:
            live = [j for j in range(i, dim) if cols[j][i]]
            if not live:
                raise TheoremContractError("cell rays are linearly dependent")
            p = min(live, key=lambda j: abs(cols[j][i]))
            if len(live) == 1:
                break
            for j in live:
                if j != p:
                    q = cols[j][i] // cols[p][i]
                    cols[j] = [a - q * b for a, b in zip(cols[j], cols[p])]
        cols[i], cols[p] = cols[p], cols[i]
        if cols[i][i] < 0:
            cols[i] = [-a for a in cols[i]]
    tri = [[cols[j][i] for j in range(i + 1)] for i in range(t)]
    diag = [tri[i][i] for i in range(t)]
    denom = prod(diag)

    def forward(rhs):
        """The rows X with B X = rhs; every division must be exact."""
        out = []
        for i in range(t):
            acc = list(rhs[i])
            for j in range(i):
                f = tri[i][j]
                if f:
                    acc = [a - f * x for a, x in zip(acc, out[j])]
            if any(a % diag[i] for a in acc):
                raise TheoremContractError(
                    "inexact division in a cell's triangular form")
            out.append([a // diag[i] for a in acc])
        return out

    basis_cols = list(zip(*forward(cell)))
    adj_cols = list(zip(*forward(
        [[denom if j == i else 0 for j in range(t)] for i in range(t)])))
    points = set()
    for mu in product(*[range(d) for d in diag]):
        z = [sum(map(mul, mu, e)) for e in basis_cols]
        for col, ray in zip(adj_cols, cell):
            f = sum(map(mul, mu, col)) // denom
            if f:
                z = [a - f * b for a, b in zip(z, ray)]
        if any(z):
            points.add(tuple(z))
    return points
