"""Affine semigroups: membership, intersections, and scaling of cone points.

An affine semigroup is the set of nonnegative integer combinations of a
finite list of integer generators.  Intersections are computed through the
Hilbert basis of the combined homogeneous system (generators x of one side
matched against generators y of the other via A x - B y = 0), whose image
is then reduced to the minimal generating set.
"""

from functools import lru_cache
from math import gcd, lcm

from ._linalg import dot, int_vector, is_zero, vec_scale
from ._record import record
from .cones import (
    _CACHE_SIZE,
    RationalCone,
    cone,
    contains_nonzero,
    contains_point,
    intersect_cones,
    is_pointed,
    simplicial_coordinates,
)
from .diophantine import DiophantineInstance, hilbert_basis_homogeneous, is_member
from .errors import DimensionMismatchError, PointNotInConeError, SemigroupError
from .numerical import _member_table, frobenius

_SCALE_CAP = 10 ** 6


@record
class AffineSemigroup:
    """Semigroup generated by integer vectors (deduplicated, zeros dropped)."""

    dimension: int
    generators: tuple

    def __post_init__(self):
        gens = []
        seen = set()
        for g in self.generators:
            t = int_vector(g)
            if len(t) != self.dimension:
                raise DimensionMismatchError(
                    f"generator {t} does not have dimension {self.dimension}")
            if is_zero(t) or t in seen:
                continue
            seen.add(t)
            gens.append(t)
        object.__setattr__(self, "generators", tuple(sorted(gens)))

    @property
    def is_trivial(self):
        return not self.generators


def semigroup(generators, dimension=None):
    gens = [tuple(g) for g in generators]
    if dimension is None:
        if not gens:
            raise ValueError("dimension required for the trivial semigroup")
        dimension = len(gens[0])
    return AffineSemigroup(dimension, tuple(gens))


def cone_of(s):
    """Associated cone: nonnegative real combinations of the generators."""
    return RationalCone(s.dimension, s.generators, False)


def is_pointed_semigroup(s):
    return is_pointed(cone_of(s))[0]


def member(s, b):
    """(flag, solution vector over s.generators) by `is_member`, for a
    target of length s.dimension; requires pointedness."""
    inst = DiophantineInstance(s.generators, b)
    if len(inst.rhs) != s.dimension:
        raise ValueError("column/right-hand-side length mismatch")
    return is_member(inst)


def intersect_semigroups(s1, s2):
    """Minimal generating set of the intersection of two affine semigroups.

    Pipeline: Hilbert basis of {(x,y) >= 0 : A x - B y = 0}, image of each
    basis element under (x,y) -> A x, then removal of every image point that
    the remaining ones already generate.  When the intersection is not
    pointed the last reduction step is skipped (a minimal generating set is
    not unique there) and the deduplicated image set is returned.
    """
    return intersect_semigroup_family([s1, s2])


def intersect_semigroup_family(members):
    """Common semigroup of several members through one homogeneous system.

    Generalizes the pairwise pipeline: with one multiplicity block per
    member and the chained equations A_1 x_1 = A_2 x_2 = ... the Hilbert
    basis images A_1 x_1 generate the intersection.  Solving all members at
    once keeps the system dimension at the total generator count, whereas
    chaining pairwise intersections would re-embed every (large)
    intermediate generating set as fresh variables.
    """
    members = list(members)
    if not members:
        raise ValueError("empty family")
    dim = members[0].dimension
    for s in members:
        if s.dimension != dim:
            raise DimensionMismatchError("semigroups live in different dimensions")
    if any(s.is_trivial for s in members):
        return AffineSemigroup(dim, ())
    return _intersect_cached(dim, tuple(s.generators for s in members))


@lru_cache(maxsize=_CACHE_SIZE)
def _intersect_cached(dim, gens_blocks):
    blocks = [list(g) for g in gens_blocks]
    if len(blocks) == 1:
        images = blocks[0]
    elif dim == 1 and all(g[0] > 0 for b in blocks for g in b):
        gens = _numerical_intersection([[g[0] for g in b] for b in blocks])
        return AffineSemigroup(1, tuple((g,) for g in gens))
    else:
        images = _kernel_images(dim, blocks)
    pointed, w = is_pointed(cone(images, dim))
    if pointed:
        images = _drop_generated(images, w)
    return AffineSemigroup(dim, tuple(images))


def _kernel_images(dim, blocks):
    """The nonzero images A_1 x_1 of the Hilbert basis of the block kernel
    {(x_1, ..., x_l) >= 0 : A_1 x_1 = ... = A_l x_l}, sorted."""
    sizes = [len(b) for b in blocks]
    total = sum(sizes)
    offsets = []
    pos = 0
    for size in sizes:
        offsets.append(pos)
        pos += size
    rows = []
    for b in range(len(blocks) - 1):
        for j in range(dim):
            row = [0] * total
            for i, g in enumerate(blocks[b]):
                row[offsets[b] + i] = g[j]
            for i, g in enumerate(blocks[b + 1]):
                row[offsets[b + 1] + i] = -g[j]
            rows.append(tuple(row))
    basis = hilbert_basis_homogeneous(rows)
    n1 = sizes[0]
    images = set()
    for z in basis:
        img = tuple(sum(z[i] * blocks[0][i][j] for i in range(n1))
                    for j in range(dim))
        if not is_zero(img):
            images.add(img)
    return sorted(images)


def _drop_generated(points, w):
    """The points that the others do not generate, for distinct nonzero
    points of a pointed cone on which w is positive.

    A sum of nonzero points has larger degree w . p than each summand, so
    one pass by degree tests each point against the points kept so far
    (Rosales & Garcia-Sanchez 1999): every dropped one is a sum of kept
    ones of smaller degree.
    """
    kept = []
    for p in sorted(points, key=lambda p: (dot(w, p), p)):
        if not (kept and is_member(DiophantineInstance(tuple(kept), p))[0]):
            kept.append(p)
    return kept


def _numerical_intersection(value_blocks):
    """Minimal generators of the common set of several numerical monoids.

    Each monoid holds every multiple of its gcd g above g * F(generators /
    g), so the intersection holds every multiple of L = lcm(gcds) above the
    largest such product C.  Its least element m <= C + L plus its last gap
    bounds the minimal generators by 2C + L, where the tables stop: the
    members are the multiples of L in every block's table, and the
    generators those up to m plus the last gap that are no sum of two
    smaller members.
    """
    gcds = [gcd(*block) for block in value_blocks]
    period = lcm(*gcds)
    gap_bound = max(g * frobenius([v // g for v in block])
                    for g, block in zip(gcds, value_blocks))
    bound = 2 * max(gap_bound, 0) + period
    tables = [_member_table(tuple(block), bound) for block in value_blocks]
    members = [v for v in range(period, bound + 1, period)
               if all(table[v] for table in tables)]
    member_set = set(members)
    largest_gap = next((v for v in range(gap_bound - gap_bound % period, 0,
                                         -period) if v not in member_set), 0)
    low = [v for v in members if v <= largest_gap + members[0]]
    return tuple(v for v in low
                 if not any(u < v and v - u in member_set for u in low))


def family_intersection_nontrivial(family):
    """Decide whether a family of semigroups shares a nonzero element.

    Decided on the cone side (never by chaining semigroup intersections):
    the cones are intersected and tested for a nonzero point.  When that
    point exists and every member is pointed, it is scaled into each member
    and the lcm of the scalings gives a common semigroup element, returned
    as the witness; with a non-pointed member the decision is still exact
    but the witness is None.  `intersect_cones` refuses an empty family
    (ValueError) and mixed dimensions (DimensionMismatchError).  A caller
    that needs only the decision asks `cones.cones_meet`.
    """
    family = list(family)
    cones = [cone_of(s) for s in family]
    nonzero, ray = contains_nonzero(intersect_cones(cones))
    if not nonzero:
        return False, None
    if not all(is_pointed(c)[0] for c in cones):
        return True, None
    return True, vec_scale(lcm(*(scale_into(s, ray) for s in family)), ray)


def scale_into(s, p):
    """Smallest k >= 1 with k*p in the semigroup.

    `p` must be a nonzero integer point of the associated cone; existence of
    k is guaranteed for such points.  Over linearly independent generators
    p has one coordinate vector, so k is the lcm of its denominators, read
    off the cone's rows with no cap (`cones.simplicial_coordinates`).
    Otherwise k = 1, 2, ... is tried by membership search, which requires
    the semigroup to be pointed (NotPointedError), up to 10**6.
    """
    p = int_vector(p)
    if is_zero(p):
        raise PointNotInConeError("the zero vector is excluded")
    if not contains_point(cone_of(s), p):
        raise PointNotInConeError(f"{p} is not in the cone of the semigroup")
    coords = simplicial_coordinates(s.generators, s.dimension, p)
    if coords is not None:
        return lcm(*(den // gcd(num, den) for num, den in coords))
    return _scale_scan(s, p)


def _scale_scan(s, p):
    """The least k up to `_SCALE_CAP` with k*p in s, one search per k."""
    for k in range(1, _SCALE_CAP + 1):
        if is_member(DiophantineInstance(s.generators, vec_scale(k, p)))[0]:
            return k
    raise SemigroupError(f"no multiple of {p} found up to {_SCALE_CAP}")

