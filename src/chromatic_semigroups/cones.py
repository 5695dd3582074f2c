"""Exact rational polyhedral cone arithmetic.

Cones are handled in arbitrary-precision integers: generator (V)
descriptions, inequality (H) descriptions, conversion between the two by
the double description method (one incremental pass that carries each
ray's zero set as a bit mask and can report every intermediate cone),
canonical forms by fraction-free Gauss-Jordan elimination, pointedness
read off the dual cone, and exact intersections with canonically
normalized extreme rays.  Feasibility of affine inequality systems
(`rational_feasible`, public API that no other function here calls) is
read off the same double description; it is the one function here that
takes and returns rationals, and the package holds no LP.
"""

from functools import lru_cache
from math import lcm

from ._linalg import (
    dot,
    int_vector,
    is_zero,
    primitive,
    vec_neg,
    vec_scale,
    vec_sub,
)
from ._record import record
from .errors import DimensionMismatchError, TheoremContractError

# entries in each of the package's bounded caches (double descriptions here,
# witnesses and plans in diophantine, intersections in semigroups): a
# long-running caller's memory stays bounded, and one chromsg job meets far
# fewer distinct inputs
_CACHE_SIZE = 1024


@record
class RationalCone:
    """Finitely generated rational cone.

    `generators` spans the cone as nonnegative real combinations.
    `inequalities` is a minimal canonically ordered list of integer rows M
    with cone == {x : M x >= 0}; it is not a field but read off the double
    description, checked and cached per (generators, dimension).
    """

    dimension: int
    generators: tuple
    zero_generators_dropped: bool = False

    @property
    def inequalities(self):
        return _checked_rows(self.generators, self.dimension)


def cone(generators, dimension=None):
    """Build a cone from integer generator vectors.

    Zero generators are dropped (recorded in `zero_generators_dropped`) and
    exact duplicates are removed.  `dimension` is required when the
    generator list is empty.
    """
    gens = [int_vector(g) for g in generators]
    if dimension is None:
        if not gens:
            raise ValueError("dimension required for a cone with no generators")
        dimension = len(gens[0])
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    for g in gens:
        if len(g) != dimension:
            raise DimensionMismatchError(
                f"generator {g} does not have dimension {dimension}")
    dropped = any(is_zero(g) for g in gens)
    out = []
    seen = set()
    for g in gens:
        if is_zero(g) or g in seen:
            continue
        seen.add(g)
        out.append(g)
    return RationalCone(dimension, tuple(out), dropped)


def cone_from_inequalities(rows, dimension):
    """Cone {x : row . x >= 0 for every row}, with generators computed."""
    rows = tuple(int_vector(r) for r in rows)
    for r in rows:
        if len(r) != dimension:
            raise DimensionMismatchError(f"row {r} does not have dimension {dimension}")
    lin, rays = _generator_description(rows, dimension)
    return RationalCone(dimension, _canonical_generators(lin, rays), False)


def dd_convert(c):
    """The cone itself, once its inequality description is built.

    The dual cone of the generators is converted to generator form by the
    double description method; its rays become facet inequalities and its
    lineality directions become paired inequalities.  A generator that
    violates one raises TheoremContractError.  The rows are cached per
    (generators, dimension), where `c.inequalities` reads them.
    """
    _checked_rows(c.generators, c.dimension)
    return c


@lru_cache(maxsize=_CACHE_SIZE)
def _checked_rows(generators, dim):
    """`checked_inequalities` of the cone of `generators`, checked once per
    generator set."""
    return checked_inequalities(_generator_description(generators, dim),
                                generators)


def checked_inequalities(description, generators):
    """Sorted inequality rows of the cone of `generators` (the extreme rays
    and both signs of each lineality direction of its dual description);
    raises TheoremContractError if some generator violates one."""
    ineqs = _canonical_generators(*description)
    for g in generators:
        for row in ineqs:
            if dot(row, g) < 0:
                raise TheoremContractError(
                    "internal: generator violates computed inequality")
    return ineqs


def ray_description(c):
    """(lineality basis, extreme rays) of the cone, canonically normalized.

    The lineality basis is the reduced row echelon basis of the lineality
    space with each row scaled to a primitive integer vector (so its
    pivot, its first nonzero coordinate, is positive); extreme rays are
    reduced modulo the lineality (zero in every pivot column), primitive,
    and keep their cone-membership direction; both lists are
    lexicographically sorted.
    """
    return _generator_description(c.inequalities, c.dimension)


def contains_point(c, point):
    """Exact membership of a rational point via the H-description."""
    if len(point) != c.dimension:
        raise DimensionMismatchError(
            f"point {tuple(point)} does not have dimension {c.dimension}")
    return all(dot(row, point) >= 0 for row in c.inequalities)


def is_pointed(c):
    """Decide pointedness; returns (flag, witness).

    A cone is pointed iff some functional is positive on every nonzero
    generator (Schrijver 1986, section 7).  The sum of the extreme rays of
    the dual cone (read off the same cached double description that
    `dd_convert` makes) lies in its relative interior, so it is such a
    functional whenever one exists.  The witness, that sum made primitive,
    is an integer functional with w . g >= 1 for every nonzero generator;
    it depends only on the cone, not on the generating set.  It is None
    when the cone contains a line.
    """
    if all(is_zero(g) for g in c.generators):
        return True, (1,) * c.dimension
    rays = _generator_description(c.generators, c.dimension)[1]
    w = [sum(col) for col in zip(*rays)]
    if not rays or any(dot(w, g) <= 0 for g in c.generators
                       if not is_zero(g)):
        return False, None
    return True, primitive(w)


def intersect_cones(cones):
    """Intersect a nonempty family of cones in one ambient dimension.

    The result carries canonical generators (primitive extreme rays plus
    paired lineality directions, lexicographically sorted); its rows are
    built only when read.
    """
    cones = list(cones)
    if not cones:
        raise ValueError("empty cone family")
    dim = cones[0].dimension
    for c in cones:
        if c.dimension != dim:
            raise DimensionMismatchError("cones live in different dimensions")
    return cone_from_inequalities(
        _stacked_rows(c.inequalities for c in cones), dim)


def cones_meet(generator_sets, dim):
    """Whether the cones of a nonempty family of generator tuples in R^dim
    share a nonzero point.

    The decision of `intersect_cones` followed by `contains_nonzero`,
    without building the intersection: the sets' cached rows are stacked
    as `intersect_cones` stacks them, and the intersection is {0} exactly
    when their double description has neither lineality nor rays.
    """
    lin, rays = _generator_description(
        _stacked_rows(_checked_rows(g, dim) for g in generator_sets), dim)
    return bool(lin or rays)


def _stacked_rows(row_sets):
    """The inequality rows of several cones in one tuple; the cone they cut
    out is the cones' intersection."""
    return tuple(row for rows in row_sets for row in rows)


def simplicial_coordinates(gens, dim, p):
    """The coordinates of a point p of the cone of the generators, as
    (numerator, denominator) pairs in generator order with positive
    denominators, if the generators are linearly independent; None
    otherwise.

    Independent generators are distinct and number at most dim, so other
    lists are refused before a double description (one with a repeat
    would get its own, apart from its distinct members').  The lineality
    of the dual description is the orthogonal complement of the
    generators' span, so they are independent exactly when they number dim
    minus its size.  The cone is then simplicial: each facet row m
    vanishes on every generator but one, g, and p's coordinate on g is
    m . p / m . g.
    """
    if len(gens) > dim or len(set(gens)) < len(gens):
        return None
    lin, rays = _generator_description(gens, dim)
    if len(gens) != dim - len(lin):
        return None
    coords = [None] * len(gens)
    for m in rays:
        i = next(i for i, g in enumerate(gens) if dot(m, g))
        coords[i] = (dot(m, p), dot(m, gens[i]))
    return coords


def contains_nonzero(c):
    """Whether the cone strictly contains {0}; returns (flag, witness).

    The generators span the cone, so it is {0} exactly when all of them
    are zero.  The witness is a nonzero primitive integer point of the
    cone (the lexicographically least nonzero generator, made primitive).
    """
    nonzero = [g for g in c.generators if not is_zero(g)]
    if nonzero:
        return True, primitive(min(nonzero))
    return False, None


def rational_feasible(rows, strict=()):
    """Exact feasibility for a system of affine inequalities over Q.

    Each row has length m+1 and reads a . x >= c with c the trailing entry;
    row indices listed in `strict` are required to hold strictly.  Returns a
    tuple of Fractions or None; `()` for no rows.  The rows become the cone
    {(x, t) : a . x >= c t, t >= 0}, read off the double description.  Every
    row vanishes on its lineality, so a row positive anywhere on the cone
    is positive at z, the sum of its extreme rays: the system is feasible
    iff t and every strict row are positive at z, and then z / t is a
    solution.
    """
    from fractions import Fraction

    rows = [tuple(map(Fraction, r)) for r in rows]
    if not rows:
        return ()
    m = len(rows[0]) - 1
    if any(len(r) != m + 1 for r in rows):
        raise ValueError("ragged inequality system")
    strict = frozenset(strict)
    cone_rows = []
    for r in rows:
        # times the lcm of its denominators: the same primitive row
        d = lcm(*(c.denominator for c in r))
        cone_rows.append(tuple(int(c * d) for c in r[:m] + (-r[m],)))
    cone_rows = tuple(cone_rows)
    rays = _generator_description(cone_rows + ((0,) * m + (1,),), m + 1)[1]
    z = [sum(col) for col in zip(*rays)] or [0] * (m + 1)
    if z[m] <= 0 or any(dot(r, z) <= 0 for i, r in enumerate(cone_rows)
                        if i in strict):
        return None
    return tuple(Fraction(c, z[m]) for c in z[:m])


# ---------------------------------------------------------------------------
# double description core


@lru_cache(maxsize=_CACHE_SIZE)
def _generator_description(rows, dim):
    """Generators of {x in R^dim : row . x >= 0 for all rows}.

    Returns (lineality, rays): canonical primitive integer vectors, the
    lineality basis in reduced row echelon form with positive pivots, the
    extreme rays reduced modulo the lineality; both sorted.  Incremental
    double description with the combinatorial adjacency test; each ray
    carries the bit mask of the inserted rows that vanish on it, updated
    at each insertion.  Once the cone is {0}, no later row changes it.
    """
    for state in _dd_steps(rows, dim):
        if not any(state):
            break
    return _canonical_description(*state)


def suffix_descriptions(rows, dim):
    """`_generator_description(rows[k:], dim)` for k = 0..len(rows).

    The suffix cones are nested, so one double description pass over the
    rows in reverse order goes through every one of them.
    """
    out = []
    prev = None
    for state in _dd_steps(rows[::-1], dim):
        out.append(out[-1] if state is prev else _canonical_description(*state))
        prev = state
    return out[::-1]


def _dd_steps(rows, dim):
    """Raw (lineality, rays) state before any row and after each row.

    `rays` maps each ray to the bit mask of the inserted rows vanishing on
    it.  A zero or repeated row yields the previous state object again.
    """
    lineality = [tuple(1 if j == i else 0 for j in range(dim))
                 for i in range(dim)]
    rays = {}
    seen = set()
    state = (lineality, rays)
    yield state
    for r in rows:
        a = None if is_zero(r) else primitive(r)
        if a is None or a in seen:
            yield state
            continue
        bit = 1 << len(seen)
        seen.add(a)
        idx0 = next((i for i, l in enumerate(lineality) if dot(a, l) != 0),
                    None)
        if idx0 is not None:
            l0 = lineality[idx0]
            if dot(a, l0) < 0:
                l0 = vec_neg(l0)
            d0 = dot(a, l0)
            lineality = [_fold(d0, l, dot(a, l), l0)
                         for i, l in enumerate(lineality) if i != idx0]
            rays = {_fold(d0, r, dot(a, r), l0): m | bit
                    for r, m in rays.items()}
            rays[l0] = bit - 1
        else:
            vals = [dot(a, r) for r in rays]
            masks = list(rays.values())
            new = {r: m | bit if v == 0 else m
                   for (r, m), v in zip(rays.items(), vals) if v >= 0}
            if any(v < 0 for v in vals):
                items = list(rays)
                for ip, rp in enumerate(items):
                    if vals[ip] <= 0:
                        continue
                    for im, rm in enumerate(items):
                        if vals[im] >= 0:
                            continue
                        common = masks[ip] & masks[im]
                        if not _adjacent(common, ip, im, masks):
                            continue
                        w = vec_sub(vec_scale(vals[ip], rm),
                                    vec_scale(vals[im], rp))
                        new.setdefault(primitive(w), common | bit)
            rays = new
        state = (lineality, rays)
        yield state


def _fold(d0, v, dv, l0):
    """v moved along l0 onto the hyperplane of the row (unchanged if on it)."""
    return primitive(vec_sub(vec_scale(d0, v), vec_scale(dv, l0))) if dv else v


def _canonical_description(lineality, rays):
    """A raw double description state in canonical form, in integers.

    Gauss-Jordan elimination without division (Bareiss 1968): each
    lineality vector is reduced against the rows kept so far and led by a
    positive pivot, and the kept rows are cleared in its pivot column.
    Every row is then zero in the other rows' pivot columns, primitive,
    with a positive pivot: the primitive multiple of a row of the reduced
    row echelon form, which is unique.  Every ray is reduced the same way.
    The rays of a `_dd_steps` state are already primitive.
    """
    if not lineality:
        return (), tuple(sorted(rays))
    basis = []
    for l in lineality:
        l = _reduce(l, basis)
        c = next(j for j, a in enumerate(l) if a)
        if l[c] < 0:
            l = vec_neg(l)
        basis = [(_fold(l[c], row, row[c], l), k) for row, k in basis]
        basis.append((l, c))
    return (tuple(sorted(row for row, _ in basis)),
            tuple(sorted({_reduce(r, basis) for r in rays})))


def _reduce(v, basis):
    """v cleared in every pivot column of `basis` (pairs of a row and its
    pivot column) by `_fold`: v plus a combination of the rows, times a
    positive factor, and primitive when v is."""
    for row, c in basis:
        v = _fold(row[c], v, v[c], row)
    return v


def _adjacent(common, ip, im, masks):
    for k, mk in enumerate(masks):
        if k == ip or k == im:
            continue
        if common & mk == common:
            return False
    return True


def _canonical_generators(lin, rays):
    gens = list(rays)
    for l in lin:
        gens.append(l)
        gens.append(vec_neg(l))
    return tuple(sorted(gens))
