"""Integer lattice helpers: column Hermite form, kernels, exact solving."""

from fractions import Fraction

from ._linalg import rref


def column_hnf(rows):
    """Lower-triangular column Hermite form.

    `rows` is an integer matrix (list of row tuples).  Returns (H, U) with
    H = M U, U unimodular, and H[i][j] == 0 for j > i at every pivot step
    (columns past the final pivot are entirely zero).
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    h = [list(r) for r in rows]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def colsub(dst, src, q):
        for i in range(m):
            h[i][dst] -= q * h[i][src]
        for i in range(n):
            u[i][dst] -= q * u[i][src]

    def colswap(a, b):
        for i in range(m):
            h[i][a], h[i][b] = h[i][b], h[i][a]
        for i in range(n):
            u[i][a], u[i][b] = u[i][b], u[i][a]

    def colneg(a):
        for i in range(m):
            h[i][a] = -h[i][a]
        for i in range(n):
            u[i][a] = -u[i][a]

    c = 0
    for i in range(m):
        if c >= n:
            break
        while True:
            nz = [j for j in range(c, n) if h[i][j] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda j: abs(h[i][j]))
            if h[i][piv] < 0:
                colneg(piv)
            done = True
            for j in nz:
                if j == piv:
                    continue
                q = h[i][j] // h[i][piv]
                colsub(j, piv, q)
                if h[i][j] != 0:
                    done = False
            if done:
                if piv != c:
                    colswap(piv, c)
                c += 1
                break
    return [tuple(r) for r in h], [tuple(r) for r in u]


def integer_kernel(rows):
    """Basis of {z integer : rows . z = 0}, as a tuple of integer vectors.

    The result is saturated: it spans the full rational kernel.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    if m == 0:
        return tuple(tuple(1 if j == i else 0 for j in range(n))
                     for i in range(n))
    h, u = column_hnf(rows)
    basis = []
    for j in range(n):
        if all(h[i][j] == 0 for i in range(m)):
            basis.append(tuple(u[i][j] for i in range(n)))
    return tuple(basis)


def saturation_basis(vectors, dim):
    """Basis of the lattice (integer points) of the rational span of vectors."""
    # the vectors as rows: their kernel is the orthogonal complement of the
    # span, and the saturation is the integer kernel of that complement
    complement = integer_kernel(list(vectors))
    if not complement:
        return tuple(tuple(1 if j == i else 0 for j in range(dim))
                     for i in range(dim))
    return integer_kernel([list(w) for w in complement])


def solve_exact(columns, target):
    """Solve sum_i x_i * columns[i] = target exactly; columns independent.

    Returns a tuple of Fractions, or None when the target is outside the
    span.  `columns` are integer (or Fraction) vectors of common length.
    """
    t = len(columns)
    if t == 0:
        return () if all(c == 0 for c in target) else None
    n = len(columns[0])
    aug = [[Fraction(columns[j][i]) for j in range(t)] + [Fraction(target[i])]
           for i in range(n)]
    reduced, pivots = rref(aug)
    x = [Fraction(0)] * t
    for row, p in zip(reduced, pivots):
        if p == t:
            return None  # pivot in the constant column: inconsistent
        x[p] = row[t]
    return tuple(x)
