"""Family-level intersection audits for affine semigroups.

A family carries a caller-supplied case assertion that selects the subset
size whose premise should force a nonzero common element:
`pointed-noncover` (size m), `pointed-cover` (size m + 1), `general`
(size 2m).  Cone coverage of space is deliberately not decided here; the
assertion is trusted, pointedness is checked.
"""

from itertools import combinations, product
from math import comb

from ._linalg import vec_neg
from ._record import record
from .cones import cones_meet
from .errors import (
    CaseAssertionError,
    DimensionMismatchError,
    HypothesisUnmetError,
    NotPointedError,
    TheoremContractError,
)
from .semigroups import (
    AffineSemigroup,
    family_intersection_nontrivial,
    is_pointed_semigroup,
    member,
)

DEFAULT_SAMPLED_SUBSETS = 2000


@record
class SemigroupFamily:
    members: tuple
    case_assertion: str

    def __post_init__(self):
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        if not members:
            raise ValueError("family must be nonempty")
        dim = members[0].dimension
        for s in members:
            if s.dimension != dim:
                raise DimensionMismatchError("family members differ in dimension")
        if self.case_assertion not in ("pointed-noncover", "pointed-cover",
                                       "general"):
            raise ValueError(f"unknown case assertion {self.case_assertion!r}")
        if self.case_assertion.startswith("pointed"):
            for s in members:
                if not is_pointed_semigroup(s):
                    raise CaseAssertionError(
                        "case assertion requires every member pointed, but "
                        f"{s.generators} spans a line")

    @property
    def dimension(self):
        return self.members[0].dimension

    @property
    def case_subset_size(self):
        m = self.dimension
        if self.case_assertion == "pointed-noncover":
            return m
        if self.case_assertion == "pointed-cover":
            return m + 1
        return 2 * m


@record
class HellyAuditReport:
    case_assertion: str
    case_size: int
    subset_size: int
    premise_holds: bool
    conclusion_holds: bool
    counterexample_subset: tuple
    witness: tuple
    sampled: bool
    seed: object
    note: str = ""


def helly_audit(family, subset_size=None, seed=None,
                max_subsets=DEFAULT_SAMPLED_SUBSETS):
    """Test the subset premise against the full-family conclusion.

    All subsets of the given size (default: the case size, clamped to the
    family size) are intersected; the premise holds when every one shares a
    nonzero element, decided on the cone side alone (`cones_meet`); only
    the full family's witness is built.  A true premise at the case size
    with a trivial full intersection contradicts the audit contract and
    raises.  Size-0 subsets make the premise vacuously true.  Past
    `max_subsets` subsets (positive; 2000 exceed the 924 of any size from
    12 members) that many are sampled pseudo-randomly, the seed is echoed
    and the report notes that the premise was sampled.
    """
    n = len(family.members)
    case_size = min(family.case_subset_size, n)
    size = case_size if subset_size is None else subset_size
    if size < 0 or size > n:
        raise ValueError(f"subset size {size} out of range 0..{n}")
    if max_subsets <= 0:
        # sampling no subsets would make the premise vacuously true
        raise ValueError(f"max_subsets must be positive, got {max_subsets}")

    sampled = False
    if comb(n, size) <= max_subsets:
        subsets = combinations(range(n), size)
    else:
        # only sampled audits use random, and every job is a fresh process
        import random
        rng = random.Random(seed)
        chosen = set()
        while len(chosen) < max_subsets:
            chosen.add(tuple(sorted(rng.sample(range(n), size))))
        subsets = sorted(chosen)
        sampled = True

    premise = True
    counterexample = ()
    for idxs in subsets:
        if not idxs:
            continue
        if not cones_meet([family.members[i].generators for i in idxs],
                          family.dimension):
            premise = False
            counterexample = idxs
            break
    conclusion, witness = family_intersection_nontrivial(family.members)
    if premise and not conclusion and size >= case_size:
        raise TheoremContractError(
            f"premise held on all size-{size} subsets but the full "
            "intersection is trivial")
    return HellyAuditReport(
        case_assertion=family.case_assertion,
        case_size=case_size,
        subset_size=size,
        premise_holds=premise,
        conclusion_holds=conclusion,
        counterexample_subset=counterexample,
        witness=witness if witness is not None else (),
        sampled=sampled,
        seed=seed,
        note=("premise checked on a random sample of subsets, not a proof"
              if sampled else ""),
    )


def build_sharpness_family(case, d):
    """Extremal families showing each audit subset size cannot be lowered.

    case "a": drop one coordinate direction per member (cones stay in the
    nonnegative orthant, so they never cover space).  case "b": members span
    the facets of a simplex with the origin interior (cones cover space).
    case "c": both directions of every axis, with one signed direction
    removed per member.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    e = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
    if case == "a":
        members = [AffineSemigroup(d, tuple(v for j, v in enumerate(e) if j != i))
                   for i in range(d)]
        return SemigroupFamily(tuple(members), "pointed-noncover")
    if case == "b":
        vertices = e + [tuple(-1 for _ in range(d))]
        members = [AffineSemigroup(d, tuple(v for j, v in enumerate(vertices)
                                            if j != i))
                   for i in range(d + 1)]
        return SemigroupFamily(tuple(members), "pointed-cover")
    if case == "c":
        signed = []
        for i in range(d):
            signed.append(e[i])
            signed.append(vec_neg(e[i]))
        members = []
        for i in range(d):
            plus = tuple(v for v in signed if v != vec_neg(e[i]))
            minus = tuple(v for v in signed if v != e[i])
            members.append(AffineSemigroup(d, plus))
            members.append(AffineSemigroup(d, minus))
        return SemigroupFamily(tuple(members), "general")
    raise ValueError(f"unknown case {case!r}; expected 'a', 'b' or 'c'")


@record
class ColorfulHellyReport:
    premise_holds: bool
    failing_transversal: tuple
    family_index: int
    witness: tuple


def colorful_helly_audit(families):
    """Transversal premise over d+1 pointed families in dimension d.

    When every transversal (one member per family) shares a nonzero
    element, some single family must intersect nontrivially; the first such
    index and a common element are returned.  Absence of such a family
    would contradict the audit contract and raises.
    """
    families = list(families)
    if not families:
        raise ValueError("no families given")
    dim = families[0].dimension
    if len(families) != dim + 1:
        raise DimensionMismatchError(
            f"need exactly {dim + 1} families in dimension {dim}, "
            f"got {len(families)}")
    for fam in families:
        if fam.dimension != dim:
            raise DimensionMismatchError("families differ in dimension")
        for s in fam.members:
            if not is_pointed_semigroup(s):
                raise NotPointedError("every member must be pointed")
    sizes = [range(len(f.members)) for f in families]
    for pick in product(*sizes):
        transversal = [families[j].members[i].generators
                       for j, i in enumerate(pick)]
        if not cones_meet(transversal, dim):
            return ColorfulHellyReport(False, tuple(pick), -1, ())
    for j, fam in enumerate(families):
        ok, witness = family_intersection_nontrivial(fam.members)
        if ok:
            return ColorfulHellyReport(True, (), j,
                                       witness if witness else ())
    raise TheoremContractError(
        "every transversal intersects nontrivially but no single family does")


@record
class TverbergReport:
    partition: tuple
    common_element: tuple
    block_witnesses: tuple
    hypothesis_met: bool


def tverberg_partition(s, r):
    """Split the generators into r color blocks sharing a semigroup element.

    Partitions are scanned as restricted growth strings in lexicographic
    order; the first block structure whose cones meet nontrivially wins,
    decided on the cone side alone (`cones_meet`).  Only the winner's
    common element is built: a scaled common ray, verified by an explicit
    representation inside every block.  With fewer than d(r-1)+1 generators
    the search still runs, but a miss raises HypothesisUnmetError instead
    of flagging a contract violation.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if not is_pointed_semigroup(s):
        raise NotPointedError("the semigroup must be pointed")
    gens = s.generators
    k = len(gens)
    d = s.dimension
    hypothesis = k >= d * (r - 1) + 1
    if k < r:
        raise HypothesisUnmetError(
            f"cannot split {k} generators into {r} nonempty blocks")
    for labels in _growth_strings(k, r):
        blocks = [[] for _ in range(r)]
        for idx, lab in enumerate(labels):
            blocks[lab].append(idx)
        block_gens = [tuple(gens[i] for i in blk) for blk in blocks]
        if not cones_meet(block_gens, d):
            continue
        block_sgs = [AffineSemigroup(d, b) for b in block_gens]
        _, p = family_intersection_nontrivial(block_sgs)
        witnesses = []
        for b in block_sgs:
            found, x = member(b, p)
            if not found:
                raise TheoremContractError(
                    "scaled common ray missed a block semigroup")
            witnesses.append(x)
        return TverbergReport(
            partition=tuple(tuple(blk) for blk in blocks),
            common_element=p,
            block_witnesses=tuple(witnesses),
            hypothesis_met=hypothesis,
        )
    if hypothesis:
        raise TheoremContractError(
            "no partition found although the generator count meets the bound")
    raise HypothesisUnmetError(
        f"no partition found; {k} generators < {d * (r - 1) + 1} required")


def _growth_strings(k, r):
    """Restricted growth strings on k items with exactly r blocks, lex order."""
    labels = [0] * k

    def rec(i, used):
        if i == k:
            if used == r:
                yield tuple(labels)
            return
        if used + (k - i) < r:
            return
        for lab in range(min(used + 1, r)):
            labels[i] = lab
            yield from rec(i + 1, max(used, lab + 1))

    yield from rec(1, 1)
