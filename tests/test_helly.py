import random

import pytest

from chromatic_semigroups import (
    SemigroupFamily,
    build_sharpness_family,
    colorful_helly_audit,
    helly_audit,
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

from conftest import random_pointed_semigroup


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
