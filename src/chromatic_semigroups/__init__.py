"""Exact computations with colored affine and numerical semigroups."""

from .cones import (
    RationalCone,
    cone,
    cone_from_inequalities,
    contains_nonzero,
    contains_point,
    dd_convert,
    intersect_cones,
    is_pointed,
    rational_feasible,
    ray_description,
)
from .colored import (
    ColoredSemigroup,
    SolutionClassification,
    build_unique_expression_family,
    caratheodory_exceptions,
    classify,
    find_colorful,
    find_k_chromatic,
    lift_family,
    monochromatic_profile,
    verify_unique_expressions,
)
from .diophantine import (
    DiophantineInstance,
    count_solutions,
    enumerate_solutions,
    hilbert_basis_homogeneous,
    is_member,
    iter_solutions,
)
from .errors import (
    CaseAssertionError,
    DimensionMismatchError,
    HypothesisUnmetError,
    InstanceParseError,
    InstanceValidationError,
    NotPointedError,
    NotPrimitiveError,
    PointNotInConeError,
    SemigroupError,
    TheoremContractError,
)
from .helly import (
    SemigroupFamily,
    build_sharpness_family,
    colorful_helly_audit,
    helly_audit,
    tverberg_partition,
)
from .instances import InstanceDocument, parse_instance
from .numerical import (
    ColoredNumericalSemigroup,
    QuasiPolynomial,
    apery_set,
    build_reduction_instance,
    check_frobenius_inequalities,
    chromatic_frobenius,
    chromatic_offsets,
    colored_numerical,
    count_k_chromatic,
    fit_quasipolynomial,
    frobenius,
    gap_set,
    k_chromatic_member,
    singleton_formula_check,
)
from .semigroups import (
    AffineSemigroup,
    cone_of,
    family_intersection_nontrivial,
    intersect_semigroup_family,
    intersect_semigroups,
    is_pointed_semigroup,
    member,
    scale_into,
    semigroup,
)

__version__ = "0.1.0"
