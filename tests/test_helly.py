import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from chromatic_semigroups import (
    DiophantineInstance,
    SemigroupFamily,
    build_sharpness_family,
    colorful_helly_audit,
    helly_audit,
    is_member,
    member,
    semigroup,
    tverberg_partition,
)
from chromatic_semigroups.errors import (
    CaseAssertionError,
    DimensionMismatchError,
    HypothesisUnmetError,
    NotPointedError,
)
from chromatic_semigroups.helly import _growth_strings
from chromatic_semigroups.semigroups import (
    AffineSemigroup,
    family_intersection_nontrivial,
    is_pointed_semigroup,
    scale_into,
)

from conftest import independent_cone_points, random_pointed_semigroup


def test_case_assertion_checks_pointedness():
    with pytest.raises(CaseAssertionError):
        SemigroupFamily((semigroup([(1,), (-1,)]),), "pointed-noncover")
    # the general assertion accepts anything
    SemigroupFamily((semigroup([(1,), (-1,)]),), "general")


def test_case_sizes():
    fam = build_sharpness_family("a", 3)
    assert fam.case_subset_size == 3
    fam = build_sharpness_family("b", 3)
    assert fam.case_subset_size == 4
    fam = build_sharpness_family("c", 3)
    assert fam.case_subset_size == 6


def test_sharpness_families_all_cases():
    for d in range(1, 5):
        for case in "abc":
            fam = build_sharpness_family(case, d)
            size = min(fam.case_subset_size, len(fam.members))
            below = helly_audit(fam, subset_size=max(size - 1, 0))
            assert below.premise_holds
            assert not below.conclusion_holds
            full = helly_audit(fam)
            assert not full.premise_holds


def test_single_member_family():
    fam = SemigroupFamily((semigroup([(1, 0), (0, 1)]),), "pointed-noncover")
    rep = helly_audit(fam)
    assert rep.premise_holds and rep.conclusion_holds
    assert rep.witness != ()


def test_helly_audit_subset_sampling_is_seeded():
    members = tuple(semigroup([(1, i)]) for i in range(14))
    fam = SemigroupFamily(members, "pointed-noncover")
    r1 = helly_audit(fam, seed=5, max_subsets=10)
    r2 = helly_audit(fam, seed=5, max_subsets=10)
    assert r1 == r2
    assert r1.sampled and r1.seed == 5


def test_helly_audit_samples_large_families_by_default():
    # 14 members <a> and <-a>, a = 2..8: past 12 members and without
    # max_subsets, 2,000 of the 3,432 subsets of size 7 are sampled
    members = tuple(semigroup([(sign * a,)]) for a in range(2, 9)
                    for sign in (1, -1))
    fam = SemigroupFamily(members, "general")
    rep = helly_audit(fam, subset_size=7, seed=5)
    assert rep.sampled and rep.seed == 5
    assert rep.note == ("premise checked on a random sample of subsets, "
                        "not a proof")
    # a subset holding some <a> and some <-b> shares only 0
    assert not rep.premise_holds and not rep.conclusion_holds
    assert len(rep.counterexample_subset) == 7
    # the one empty subset is not sampled and makes the premise vacuous
    rep = helly_audit(fam, subset_size=0, seed=5)
    assert rep.premise_holds and not rep.sampled and rep.note == ""


def test_helly_audit_rejects_nonpositive_max_subsets():
    # sampling no subsets would make the premise vacuously true and report
    # a false anomaly on a family whose premise fails
    fam = SemigroupFamily((semigroup([(1, 0)]), semigroup([(0, 1)])),
                          "pointed-noncover")
    assert not helly_audit(fam).premise_holds
    for bad in (0, -3):
        with pytest.raises(ValueError):
            helly_audit(fam, max_subsets=bad)


def test_colorful_helly_equal_families():
    d = 2
    base = semigroup([(1, 0), (0, 1)])
    fams = [SemigroupFamily((base,), "general") for _ in range(d + 1)]
    rep = colorful_helly_audit(fams)
    assert rep.premise_holds and rep.family_index == 0


def test_colorful_helly_one_dimensional():
    f1 = SemigroupFamily((semigroup([(1,)]),), "general")
    f2 = SemigroupFamily((semigroup([(2,)]), semigroup([(3,)])), "general")
    rep = colorful_helly_audit([f1, f2])
    assert rep.premise_holds
    # the second family shares 6; the first family alone also intersects,
    # and the first hit is reported
    assert rep.family_index == 0
    for s in f2.members:
        assert member(s, (6,))[0]


def test_colorful_helly_failing_transversal():
    e1, e2 = (1, 0), (0, 1)
    fams = [SemigroupFamily((semigroup([e2]),), "general"),
            SemigroupFamily((semigroup([e1]),), "general"),
            SemigroupFamily((semigroup([e1, e2]),), "general")]
    rep = colorful_helly_audit(fams)
    assert not rep.premise_holds
    assert rep.failing_transversal == (0, 0, 0)


def test_colorful_helly_needs_d_plus_one():
    f = SemigroupFamily((semigroup([(1, 0)]),), "general")
    with pytest.raises(DimensionMismatchError):
        colorful_helly_audit([f, f])


def test_colorful_helly_rejects_unpointed():
    f1 = SemigroupFamily((semigroup([(1,), (-1,)]),), "general")
    f2 = SemigroupFamily((semigroup([(1,)]),), "general")
    with pytest.raises(NotPointedError):
        colorful_helly_audit([f1, f2])


def test_tverberg_planar_example():
    rep = tverberg_partition(semigroup([(1, 0), (1, 1), (1, 2)]), 2)
    assert rep.partition == ((0, 2), (1,))
    assert rep.common_element == (2, 2)
    assert rep.hypothesis_met


def test_tverberg_numerical_example():
    rep = tverberg_partition(semigroup([(2,), (3,), (5,)]), 3)
    assert rep.common_element[0] % 2 == 0
    assert rep.common_element[0] % 3 == 0
    assert rep.common_element[0] % 5 == 0


def test_tverberg_single_block():
    rep = tverberg_partition(semigroup([(3,), (5,)]), 1)
    assert rep.partition == ((0, 1),)


def test_tverberg_witnesses_are_checked():
    rng = random.Random(77)
    for _ in range(10):
        s = random_pointed_semigroup(rng, 2, 5, lo=0, hi=4)
        k = len(s.generators)
        r = 2
        if k < 2:
            continue
        try:
            rep = tverberg_partition(s, r)
        except HypothesisUnmetError:
            assert k < 2 * (r - 1) + 1
            continue
        for blk, wit in zip(rep.partition, rep.block_witnesses):
            hit = tuple(
                sum(wit[i] * s.generators[b][j] for i, b in enumerate(blk))
                for j in range(2))
            assert hit == rep.common_element


def _tverberg_oracle(s, r):
    """The first partition in growth-string order whose blocks share a
    nonzero element by `family_intersection_nontrivial`, that element and
    the search's witnesses; None when no partition does."""
    d = s.dimension
    for labels in _growth_strings(len(s.generators), r):
        blocks = tuple(tuple(i for i, lab in enumerate(labels) if lab == b)
                       for b in range(r))
        sgs = [AffineSemigroup(d, tuple(s.generators[i] for i in blk))
               for blk in blocks]
        ok, p = family_intersection_nontrivial(sgs)
        if ok:
            return blocks, p, tuple(
                is_member(DiophantineInstance(b.generators, p))[1]
                for b in sgs)
    return None


@given(st.sampled_from([2, 3]).flatmap(lambda dim: st.lists(
    st.tuples(*[st.integers(-2, 5)] * dim), min_size=2, max_size=7)),
    st.integers(2, 3))
def test_tverberg_matches_a_scan_through_family_intersections(gens, r):
    assume(any(any(g) for g in gens))
    s = semigroup(gens)
    assume(is_pointed_semigroup(s))
    want = _tverberg_oracle(s, r)
    try:
        rep = tverberg_partition(s, r)
    except HypothesisUnmetError:
        assert want is None
        return
    assert (rep.partition, rep.common_element, rep.block_witnesses) == want


@given(independent_cone_points(), st.integers(1, 4))
def test_block_witness_is_the_first_search_solution(case, extra):
    # over independent generators: p's least multiple in the semigroup,
    # that times `extra`, and one more, which is in it only when k = 1
    s, p = case
    k = scale_into(s, p)
    for q in (k * extra, k * extra + 1):
        point = tuple(q * v for v in p)
        assert member(s, point) == is_member(
            DiophantineInstance(s.generators, point))


def test_tverberg_rejects_unpointed():
    with pytest.raises(NotPointedError):
        tverberg_partition(semigroup([(1,), (-1,)]), 1)


def test_random_contract_per_case():
    # premise at the case size must force the conclusion
    rng = random.Random(83)
    for _ in range(25):
        m = rng.randint(1, 3)
        count = rng.randint(1, 4)
        case = rng.choice(["pointed-noncover", "pointed-cover", "general"])
        if case == "pointed-noncover":
            members = [random_pointed_semigroup(rng, m, 3, lo=0, hi=4)
                       for _ in range(count)]
        elif case == "pointed-cover":
            base = build_sharpness_family("b", m).members
            extra = [random_pointed_semigroup(rng, m, 3, lo=-3, hi=3)
                     for _ in range(count)]
            members = list(base) + extra
        else:
            members = [random_pointed_semigroup(rng, m, 3, lo=-3, hi=3)
                       for _ in range(count)]
        fam = SemigroupFamily(tuple(members), case)
        helly_audit(fam)  # raises on any violation
