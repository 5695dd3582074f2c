"""Batch command-line front end.

Every subcommand reads a JSON instance document (path or "-" for stdin),
runs one computation, and writes a single report, as indented text by
default or as JSON with --json; both carry the same numeric content.

Exit codes: 0 success; 1 definite negative on a decision subcommand
(`member` false, `tverberg` miss under an unmet hypothesis); 2 usage or
validation problem; 3 internal anomaly (a verified identity failed, which
indicates a bug rather than a negative answer).
"""

import argparse
import json
import sys
from fractions import Fraction

from .colored import (
    build_unique_expression_family,
    caratheodory_exceptions,
    classify,
    verify_unique_expressions,
)
from .diophantine import (
    DiophantineInstance,
    enumerate_solutions,
    hilbert_basis_homogeneous,
    is_member,
)
from .errors import (
    HypothesisUnmetError,
    InstanceParseError,
    InstanceValidationError,
    SemigroupError,
    TheoremContractError,
)
from .helly import SemigroupFamily, helly_audit, tverberg_partition
from .instances import parse_instance
from .numerical import (
    build_reduction_instance,
    chromatic_frobenius,
    count_k_chromatic,
    fit_quasipolynomial,
    frobenius,
    gap_set,
)
from .semigroups import AffineSemigroup, intersect_semigroup_family

_CASE_ASSERTIONS = {
    "noncover": "pointed-noncover",
    "cover": "pointed-cover",
    "general": "general",
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        payload, negative = args.handler(args)
    except (InstanceParseError, InstanceValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HypothesisUnmetError as exc:
        print(f"no result: {exc}", file=sys.stderr)
        return 1
    except TheoremContractError as exc:
        print(f"anomaly: {exc}", file=sys.stderr)
        return 3
    except (SemigroupError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(payload, indent=2) if args.json else "\n".join(_render(payload))
    print(text)
    return 1 if negative else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chromsg",
        description="Exact computations with colored affine and numerical semigroups.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def cmd(name, handler, needs_instance=True, help=None):
        p = sub.add_parser(name, help=help)
        if needs_instance:
            p.add_argument("instance", help="instance document path, or - for stdin")
        p.add_argument("--json", action="store_true",
                       help="emit the report as JSON")
        p.set_defaults(handler=handler)
        return p

    p = cmd("solve", _run_solve, help="enumerate and classify all solutions")
    p.add_argument("--target", action="append",
                   help="comma-separated target vector (repeatable)")

    p = cmd("classify", _run_classify, help="classify one solution vector")
    p.add_argument("--solution", required=True,
                   help="comma-separated multiplicities")
    p.add_argument("--target", help="verify the solution hits this target")

    p = cmd("member", _run_member, help="decide semigroup membership")
    p.add_argument("--target", required=True)

    cmd("intersect", _run_intersect,
        help="minimal generators of the intersection of the color semigroups")

    cmd("hilbert", _run_hilbert,
        help="Hilbert basis of the homogeneous system A x = 0, x >= 0")

    p = cmd("helly-audit", _run_helly, help="subset-intersection audit")
    p.add_argument("--case", choices=sorted(_CASE_ASSERTIONS),
                   default="general", help="case assertion for the family")
    p.add_argument("--subset-size", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-subsets", type=int, default=None)

    p = cmd("tverberg", _run_tverberg,
            help="partition generators into blocks sharing an element")
    p.add_argument("--r", type=int, required=True, help="number of blocks")

    cmd("caratheodory", _run_caratheodory,
        help="targets with per-color solutions but no all-color solution")

    cmd("frobenius", _run_frobenius, help="classical Frobenius number")

    cmd("gaps", _run_gaps, help="nonrepresentable nonnegative integers")

    p = cmd("chromatic-frobenius", _run_chromatic_frobenius,
            help="largest target with no k-color solution")
    p.add_argument("--k", type=int, required=True)

    p = cmd("count", _run_count, help="number of k-color solutions of a target")
    p.add_argument("--target", required=True)
    p.add_argument("--k", type=int, default=1)

    p = cmd("quasipoly", _run_quasipoly,
            help="fit the k-color solution count per residue class")
    p.add_argument("--k", type=int, required=True)

    p = cmd("cteg", _run_cteg, needs_instance=False,
            help="build the single-color-expressions family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--verify", action="store_true",
                   help="exhaustively verify the expression count")

    p = cmd("reduce", _run_reduce,
            help="append a class with a predictable chromatic value")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=["a", "b"], required=True)

    return parser


# ---------------------------------------------------------------------------
# handlers


def _run_solve(args):
    doc = parse_instance(args.instance)
    colored = doc.to_colored_semigroup()
    targets = [_vector_arg(t, doc.dimension) for t in args.target or []]
    if not targets:
        targets = list(doc.targets)
    if not targets:
        raise InstanceValidationError("no targets given (flag or document)")
    results = []
    for b in targets:
        sols = enumerate_solutions(DiophantineInstance(colored.columns, b))
        entries = []
        for x in sols:
            c = classify(colored, x)
            entries.append({
                "solution": list(x),
                "colors_used": sorted(c.colors_used),
                "chromatic_level": c.chromatic_level,
                "monochromatic": c.is_monochromatic,
                "chromatic": c.is_chromatic,
                "colorful": c.is_colorful,
            })
        results.append({"target": list(b), "solution_count": len(sols),
                        "solutions": entries})
    return {"subcommand": "solve", "results": results}, False


def _run_classify(args):
    doc = parse_instance(args.instance)
    colored = doc.to_colored_semigroup()
    x = _vector_arg(args.solution, len(colored.columns))
    if args.target is not None:
        b = _vector_arg(args.target, doc.dimension)
        hit = tuple(sum(x[i] * colored.columns[i][j] for i in range(len(x)))
                    for j in range(doc.dimension))
        if hit != b:
            raise InstanceValidationError(
                f"solution reaches {list(hit)}, not {list(b)}")
    c = classify(colored, x)
    payload = {
        "subcommand": "classify",
        "solution": list(x),
        "colors_used": sorted(c.colors_used),
        "chromatic_level": c.chromatic_level,
        "monochromatic": c.is_monochromatic,
        "chromatic": c.is_chromatic,
        "colorful": c.is_colorful,
        "labels": _labels(c),
    }
    return payload, False


def _labels(c):
    out = []
    if c.is_monochromatic:
        out.append("monochromatic")
    if c.chromatic_level >= 2:
        out.append(f"{c.chromatic_level}-chromatic")
    if c.is_chromatic:
        out.append("chromatic")
    if c.is_colorful:
        out.append("colorful")
    if not c.is_chromatic:
        out.append("not chromatic")
    if not c.is_colorful:
        out.append("not colorful")
    return out


def _run_member(args):
    doc = parse_instance(args.instance)
    b = _vector_arg(args.target, doc.dimension)
    found, witness = is_member(DiophantineInstance(doc.pooled_generators, b))
    payload = {
        "subcommand": "member",
        "target": list(b),
        "member": found,
        "witness": list(witness) if witness else None,
    }
    return payload, not found


def _run_intersect(args):
    doc = parse_instance(args.instance)
    colored = doc.to_colored_semigroup()
    common = intersect_semigroup_family(
        colored.class_semigroup(i) for i in range(colored.n_colors))
    payload = {
        "subcommand": "intersect",
        "dimension": doc.dimension,
        "generators": [list(g) for g in common.generators],
        "trivial": common.is_trivial,
    }
    return payload, False


def _run_hilbert(args):
    doc = parse_instance(args.instance)
    cols = doc.pooled_generators
    rows = [tuple(col[j] for col in cols) for j in range(doc.dimension)]
    basis = hilbert_basis_homogeneous(rows)
    payload = {
        "subcommand": "hilbert",
        "columns": [list(c) for c in cols],
        "basis": [list(z) for z in basis],
    }
    return payload, False


def _run_helly(args):
    doc = parse_instance(args.instance)
    colored = doc.to_colored_semigroup()
    members = tuple(colored.class_semigroup(i) for i in range(colored.n_colors))
    family = SemigroupFamily(members, _CASE_ASSERTIONS[args.case])
    report = helly_audit(family, subset_size=args.subset_size,
                         seed=args.seed, max_subsets=args.max_subsets)
    payload = {
        "subcommand": "helly-audit",
        "case_assertion": report.case_assertion,
        "case_size": report.case_size,
        "subset_size": report.subset_size,
        "premise_holds": report.premise_holds,
        "conclusion_holds": report.conclusion_holds,
        "counterexample_subset": list(report.counterexample_subset),
        "witness": list(report.witness),
        "sampled": report.sampled,
        "seed": report.seed,
        "note": report.note,
    }
    return payload, False


def _run_tverberg(args):
    doc = parse_instance(args.instance)
    s = AffineSemigroup(doc.dimension, doc.pooled_generators)
    report = tverberg_partition(s, args.r)
    payload = {
        "subcommand": "tverberg",
        "generators": [list(g) for g in s.generators],
        "partition": [list(b) for b in report.partition],
        "common_element": list(report.common_element),
        "block_witnesses": [list(w) for w in report.block_witnesses],
        "hypothesis_met": report.hypothesis_met,
    }
    return payload, False


def _run_caratheodory(args):
    doc = parse_instance(args.instance)
    colored = doc.to_colored_semigroup()
    report = caratheodory_exceptions(colored)
    payload = {
        "subcommand": "caratheodory",
        "intersection_generators": [list(g) for g in
                                    report.intersection_generators],
        "candidates_checked": [list(b) for b in report.candidates_checked],
        "exceptions": [
            {"target": list(b),
             "monochromatic_witnesses": [list(w) for w in wits]}
            for b, wits in report.exceptions
        ],
        "note": report.note,
    }
    return payload, False


def _run_frobenius(args):
    doc = parse_instance(args.instance)
    s = doc.to_numerical()
    payload = {
        "subcommand": "frobenius",
        "generators": list(s.generators),
        "frobenius": frobenius(s.generators),
    }
    return payload, False


def _run_gaps(args):
    doc = parse_instance(args.instance)
    s = doc.to_numerical()
    gaps = gap_set(s.generators)
    payload = {
        "subcommand": "gaps",
        "generators": list(s.generators),
        "gap_count": len(gaps),
        "gaps": list(gaps),
    }
    return payload, False


def _run_chromatic_frobenius(args):
    doc = parse_instance(args.instance)
    s = doc.to_numerical()
    report = chromatic_frobenius(s, args.k)
    payload = {
        "subcommand": "chromatic-frobenius",
        "classes": [list(cls) for cls in s.classes],
        "k": report.k,
        "value": report.value,
        "bounds": [report.lower_bound, report.upper_bound],
        "offsets": list(report.offsets),
        "gap_set": list(report.gap_set),
        "note": report.note,
    }
    return payload, False


def _run_count(args):
    doc = parse_instance(args.instance)
    if not 1 <= args.k <= len(doc.colors):
        raise InstanceValidationError(
            f"--k must be between 1 and {len(doc.colors)}")
    b = _vector_arg(args.target, doc.dimension)
    if doc.dimension == 1:
        s = doc.to_numerical()
        count = count_k_chromatic(s, b[0], args.k)
    else:
        colored = doc.to_colored_semigroup()
        count = sum(
            1 for x in enumerate_solutions(
                DiophantineInstance(colored.columns, b))
            if classify(colored, x).chromatic_level >= args.k)
    payload = {
        "subcommand": "count",
        "target": list(b),
        "k": args.k,
        "count": count,
    }
    return payload, False


def _run_quasipoly(args):
    doc = parse_instance(args.instance)
    s = doc.to_numerical()
    qp = fit_quasipolynomial(s, args.k)
    payload = {
        "subcommand": "quasipoly",
        "k": args.k,
        "period": qp.period,
        "threshold": qp.threshold,
        "constituents": [[_frac(c) for c in coeffs]
                         for coeffs in qp.constituents],
    }
    return payload, False


def _run_cteg(args):
    fam = build_unique_expression_family(args.n)
    payload = {
        "subcommand": "cteg",
        "n": fam.n,
        "target": list(fam.target),
        "rows": [[list(v) for v in row] for row in fam.rows],
    }
    if args.verify:
        report = verify_unique_expressions(args.n)
        payload["verified"] = report.matches
        payload["expression_count"] = len(report.solutions)
        payload["all_monochromatic"] = report.all_monochromatic
        payload["expressions"] = [list(x) for x in report.solutions]
        if not report.matches:
            raise TheoremContractError(
                "expression search disagrees with the family construction")
    return payload, False


def _run_reduce(args):
    doc = parse_instance(args.instance)
    s = doc.to_numerical()
    report = build_reduction_instance(s, args.k, args.mode)
    payload = {
        "subcommand": "reduce",
        "mode": report.mode,
        "base_classes": [list(cls) for cls in report.base.classes],
        "constructed_classes": [list(cls) for cls in
                                report.constructed.classes],
        "appended_value": report.appended_value,
        "predicted": report.predicted,
        "computed": report.computed,
        "matches": report.matches,
    }
    return payload, False


# ---------------------------------------------------------------------------
# small helpers


def _vector_arg(text, dim):
    try:
        parts = [int(p) for p in str(text).split(",")]
    except ValueError as exc:
        raise InstanceValidationError(
            f"expected comma-separated integers, got {text!r}") from exc
    if len(parts) != dim:
        raise InstanceValidationError(
            f"expected {dim} comma-separated integers, got {len(parts)}")
    return tuple(parts)


def _frac(value):
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{value.numerator}/{value.denominator}"
    return int(value)


def _render(payload, indent=0):
    pad = "  " * indent
    lines = []
    for key, val in payload.items():
        if isinstance(val, dict):
            lines.append(f"{pad}{key}:")
            lines.extend(_render(val, indent + 1))
        elif isinstance(val, list) and val and isinstance(val[0], dict):
            lines.append(f"{pad}{key}:")
            for item in val:
                lines.append(f"{pad}  -")
                lines.extend(_render(item, indent + 2))
        else:
            lines.append(f"{pad}{key}: {_fmt(val)}")
    return lines


def _fmt(val):
    if val is None:
        return "none"
    if isinstance(val, bool):
        return "true" if val else "false"
    if isinstance(val, list):
        return "[" + ", ".join(_fmt(v) for v in val) + "]"
    return str(val)


if __name__ == "__main__":
    sys.exit(main())
