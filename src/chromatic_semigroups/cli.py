"""Batch command-line front end.

Every subcommand but `cteg` reads a JSON instance document (path or "-"
for stdin), runs one computation, and writes a single report, as indented
text by default or as JSON with --json; both carry the same numeric
content.  Each subcommand is declared once, in the `_SUBCOMMANDS` table.
`main` reads a plain argv (the subcommand's own flags with their values,
and the instance) straight off that table, and builds the argparse
parser only for help and usage errors.  It then reads the instance for
the handler.

Exit codes: 0 success; 1 definite negative on a decision subcommand
(`member` false, `tverberg` miss under an unmet hypothesis); 2 usage or
validation problem, or an input too large for this machine; 3 internal
anomaly (a verified identity failed, which indicates a bug rather than a
negative answer).
"""

import json
import sys
from collections import namedtuple
from fractions import Fraction
from math import log10
from types import SimpleNamespace

from .colored import (
    build_unique_expression_family,
    caratheodory_exceptions,
    classify,
    count_chromatic_solutions,
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
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv)
    if args is None:  # argparse reads it, or prints help or a usage error
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
    command = _SUBCOMMANDS[args.subcommand]
    try:
        doc = parse_instance(args.instance) if command.reads_instance else None
        payload = {"subcommand": args.subcommand, **command.handler(doc, args)}
    except HypothesisUnmetError as exc:
        print(f"no result: {exc}", file=sys.stderr)
        return 1
    except TheoremContractError as exc:
        print(f"anomaly: {exc}", file=sys.stderr)
        return 3
    except (SemigroupError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, OverflowError, RecursionError) as exc:
        print(f"error: input too large for this machine ({type(exc).__name__})",
              file=sys.stderr)
        return 2
    pieces = _dumps(payload) if args.json else ["\n".join(_render(payload))]
    sys.stdout.writelines(pieces)
    print()
    return 1 if payload.get("member") is False else 0  # the one negative report


def _read_argv(argv):
    """The namespace argparse gives a plain argv, or None for argparse.

    Plain means: an exact subcommand name, then that subcommand's exact
    flags, each but `store_true` ones followed by a value that does not
    start with "-" (a lone "-" may), and the instance if the subcommand
    reads one.  The options' `type`, `choices`, `required`, `default` and
    `action` act as in argparse.  Anything else (help, `--flag=value`, an
    abbreviation, a negative value, `--`, a bad or missing value) is left
    to argparse, which words the help or the usage error.
    """
    command = _SUBCOMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    options = dict((_JSON_FLAG, *command.arguments))
    given, positionals = {}, []
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "-" or not token.startswith("-"):
            positionals.append(token)
            continue
        spec = options.get(token)
        if spec is None:
            return None
        if spec.get("action") == "store_true":
            given[token] = True
            continue
        text = next(tokens, None)
        if text is None or (text != "-" and text.startswith("-")):
            return None
        try:
            value = spec.get("type", str)(text)
        except ValueError:
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        if spec.get("action") == "append":
            value = given.get(token, []) + [value]
        given[token] = value
    if len(positionals) != command.reads_instance:
        return None
    args = {"subcommand": argv[0]}
    if positionals:
        args["instance"] = positionals[0]
    for flag, spec in options.items():
        if flag not in given and spec.get("required"):
            return None
        unset = False if spec.get("action") == "store_true" else None
        args[flag[2:].replace("-", "_")] = given.get(
            flag, spec.get("default", unset))
    return SimpleNamespace(**args)


def build_parser():
    """The argparse parser, with one subparser per table entry."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="chromsg",
        description="Exact computations with colored affine and numerical semigroups.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=command.summary)
        if command.reads_instance:
            p.add_argument("instance", help="instance document path, or - for stdin")
        for flag, options in (_JSON_FLAG, *command.arguments):
            p.add_argument(flag, **options)
    return parser


# ---------------------------------------------------------------------------
# handlers: handler(doc, args) -> report fields after "subcommand"


def _run_solve(doc, args):
    colored = doc.to_colored_semigroup()
    targets = ([_vector_arg(t, doc.dimension) for t in args.target or []]
               or list(doc.targets))
    if not targets:
        raise InstanceValidationError("no targets given (flag or document)")
    results = []
    for b in targets:
        sols = enumerate_solutions(DiophantineInstance(colored.columns, b))
        results.append({
            "target": list(b),
            "solution_count": len(sols),
            "solutions": [_classified(x, classify(colored, x)) for x in sols],
        })
    return {"results": results}


def _run_classify(doc, args):
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
    return {**_classified(x, c), "labels": _labels(c)}


def _classified(x, c):
    return {
        "solution": list(x),
        "colors_used": sorted(c.colors_used),
        "chromatic_level": c.chromatic_level,
        "monochromatic": c.is_monochromatic,
        "chromatic": c.is_chromatic,
        "colorful": c.is_colorful,
    }


def _labels(c):
    return [label for label, holds in (
        ("monochromatic", c.is_monochromatic),
        (f"{c.chromatic_level}-chromatic", c.chromatic_level >= 2),
        ("chromatic", c.is_chromatic),
        ("colorful", c.is_colorful),
        ("not chromatic", not c.is_chromatic),
        ("not colorful", not c.is_colorful),
    ) if holds]


def _run_member(doc, args):
    b = _vector_arg(args.target, doc.dimension)
    found, witness = is_member(DiophantineInstance(doc.pooled_generators, b))
    return {
        "target": list(b),
        "member": found,
        "witness": list(witness) if witness else None,
    }


def _run_intersect(doc, args):
    colored = doc.to_colored_semigroup()
    common = intersect_semigroup_family(
        colored.class_semigroup(i) for i in range(colored.n_colors))
    return {
        "dimension": doc.dimension,
        "generators": [list(g) for g in common.generators],
        "trivial": common.is_trivial,
    }


def _run_hilbert(doc, args):
    cols = doc.pooled_generators
    rows = [tuple(col[j] for col in cols) for j in range(doc.dimension)]
    basis = hilbert_basis_homogeneous(rows)
    return {
        "columns": [list(c) for c in cols],
        "basis": [list(z) for z in basis],
    }


def _run_helly(doc, args):
    colored = doc.to_colored_semigroup()
    members = tuple(colored.class_semigroup(i) for i in range(colored.n_colors))
    family = SemigroupFamily(members, _CASE_ASSERTIONS[args.case])
    report = helly_audit(family, subset_size=args.subset_size,
                         seed=args.seed, max_subsets=args.max_subsets)
    return {
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


def _run_tverberg(doc, args):
    s = AffineSemigroup(doc.dimension, doc.pooled_generators)
    report = tverberg_partition(s, args.r)
    return {
        "generators": [list(g) for g in s.generators],
        "partition": [list(b) for b in report.partition],
        "common_element": list(report.common_element),
        "block_witnesses": [list(w) for w in report.block_witnesses],
        "hypothesis_met": report.hypothesis_met,
    }


def _run_caratheodory(doc, args):
    report = caratheodory_exceptions(doc.to_colored_semigroup())
    return {
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


def _run_frobenius(doc, args):
    s = doc.to_numerical()
    return {
        "generators": list(s.generators),
        "frobenius": frobenius(s.generators),
    }


def _run_gaps(doc, args):
    s = doc.to_numerical()
    gaps = gap_set(s.generators)
    return {
        "generators": list(s.generators),
        "gap_count": len(gaps),
        "gaps": list(gaps),
    }


def _run_chromatic_frobenius(doc, args):
    s = doc.to_numerical()
    report = chromatic_frobenius(s, args.k)
    return {
        "classes": [list(cls) for cls in s.classes],
        "k": report.k,
        "value": report.value,
        "bounds": [report.lower_bound, report.upper_bound],
        "offsets": list(report.offsets),
        "gap_set": list(report.gap_set),
        "note": report.note,
    }


def _run_count(doc, args):
    if not 1 <= args.k <= len(doc.colors):
        raise InstanceValidationError(
            f"--k must be between 1 and {len(doc.colors)}")
    b = _vector_arg(args.target, doc.dimension)
    if doc.dimension == 1:
        count = count_k_chromatic(doc.to_numerical(), b[0], args.k)
    else:
        count = count_chromatic_solutions(
            doc.to_colored_semigroup(), b, args.k)
    return {"target": list(b), "k": args.k, "count": count}


def _run_quasipoly(doc, args):
    qp = fit_quasipolynomial(doc.to_numerical(), args.k)
    # the fit shares equal coefficients, so each distinct object is rendered
    # once; qp keeps every coefficient alive, so an id names one object
    distinct = {id(c): c for coeffs in qp.constituents for c in coeffs}
    text = {key: _frac(c) for key, c in distinct.items()}
    return {
        "k": args.k,
        "period": qp.period,
        "threshold": qp.threshold,
        "constituents": [list(map(text.__getitem__, map(id, coeffs)))
                         for coeffs in qp.constituents],
    }


def _run_cteg(doc, args):
    # entries reach 2^(n+1) in size; refuse an n whose report the interpreter
    # would refuse to print (CPython's int-to-str digit limit)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and (args.n + 1) * log10(2) >= limit:
        raise ValueError(f"--n {args.n} is too large: entries near "
                         f"2^{args.n + 1} pass the {limit}-digit limit on "
                         "printing an int")
    fam = build_unique_expression_family(args.n)
    payload = {
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
    return payload


def _run_reduce(doc, args):
    report = build_reduction_instance(doc.to_numerical(), args.k, args.mode)
    return {
        "mode": report.mode,
        "base_classes": [list(cls) for cls in report.base.classes],
        "constructed_classes": [list(cls) for cls in
                                report.constructed.classes],
        "appended_value": report.appended_value,
        "predicted": report.predicted,
        "computed": report.computed,
        "matches": report.matches,
    }


# ---------------------------------------------------------------------------
# the subcommand table


_Subcommand = namedtuple(
    "_Subcommand", "handler summary arguments reads_instance", defaults=((), True))

# every subcommand's first flag
_JSON_FLAG = ("--json", dict(action="store_true", help="emit the report as JSON"))


# Each subcommand once, in the order `--help` lists them.  Entries hold the
# `_run_*` handlers, never kernels: a handler looks its kernels up in this
# module's globals at call time, so a kernel rebound there (a test's patch,
# a tracing wrapper) still sees every call.
_SUBCOMMANDS = {
    "solve": _Subcommand(_run_solve, "enumerate and classify all solutions", (
        ("--target", dict(action="append",
                          help="comma-separated target vector (repeatable)")),)),
    "classify": _Subcommand(_run_classify, "classify one solution vector", (
        ("--solution", dict(required=True, help="comma-separated multiplicities")),
        ("--target", dict(help="verify the solution hits this target")))),
    "member": _Subcommand(_run_member, "decide semigroup membership", (
        ("--target", dict(required=True)),)),
    "intersect": _Subcommand(
        _run_intersect,
        "minimal generators of the intersection of the color semigroups"),
    "hilbert": _Subcommand(
        _run_hilbert, "Hilbert basis of the homogeneous system A x = 0, x >= 0"),
    "helly-audit": _Subcommand(_run_helly, "subset-intersection audit", (
        ("--case", dict(choices=sorted(_CASE_ASSERTIONS), default="general",
                        help="case assertion for the family")),
        ("--subset-size", dict(type=int, default=None)),
        ("--seed", dict(type=int, default=None)),
        ("--max-subsets", dict(type=int, default=None)))),
    "tverberg": _Subcommand(
        _run_tverberg, "partition generators into blocks sharing an element", (
            ("--r", dict(type=int, required=True, help="number of blocks")),)),
    "caratheodory": _Subcommand(
        _run_caratheodory,
        "targets with per-color solutions but no all-color solution"),
    "frobenius": _Subcommand(_run_frobenius, "classical Frobenius number"),
    "gaps": _Subcommand(_run_gaps, "nonrepresentable nonnegative integers"),
    "chromatic-frobenius": _Subcommand(
        _run_chromatic_frobenius, "largest target with no k-color solution", (
            ("--k", dict(type=int, required=True)),)),
    "count": _Subcommand(_run_count, "number of k-color solutions of a target", (
        ("--target", dict(required=True)),
        ("--k", dict(type=int, default=1)))),
    "quasipoly": _Subcommand(
        _run_quasipoly, "fit the k-color solution count per residue class", (
            ("--k", dict(type=int, required=True)),)),
    "cteg": _Subcommand(_run_cteg, "build the single-color-expressions family", (
        ("--n", dict(type=int, required=True)),
        ("--verify", dict(action="store_true",
                          help="exhaustively verify the expression count"))),
        reads_instance=False),
    "reduce": _Subcommand(
        _run_reduce, "append a class with a predictable chromatic value", (
            ("--k", dict(type=int, required=True)),
            ("--mode", dict(choices=["a", "b"], required=True)))),
}


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


_INDENTED = json.JSONEncoder(indent=2).encode
_SLICE = 1 << 16  # ints per `str` call in `_dumps`


def _dumps(payload):
    """`json.dumps(payload, indent=2)` byte for byte, as pieces of text.

    Indenting runs json's pure-Python encoder, so two shapes of value skip
    it.  A flat int list (gap sets run to millions) goes through `str`, as
    in `_fmt`, a slice at a time, with the separators indenting puts in.
    A nonempty list of nonempty flat lists of scalars (quasipoly
    constituents, vectors) goes through json's C encoder without indent,
    and its ", " and "], [" become the indenting separators.  That holds
    only if the text has one ", " per separator and one "[" per list and
    no "{": a string holding ", ", "[" or "{", a nested list or dict, or an
    empty inner list breaks a count, and the value takes the indenting
    encoder."""
    sep = "{"
    for key, val in payload.items():
        yield f"{sep}\n  {json.dumps(key)}: "
        sep = ","
        if isinstance(val, list):
            types = set(map(type, val))
            if types == {int}:
                for lo in range(0, len(val), _SLICE):
                    part = str(val[lo:lo + _SLICE])[1:-1]
                    yield (("," if lo else "[") + "\n    "
                           + part.replace(", ", ",\n    "))
                yield "\n  ]"
                continue
            # a first row that holds a list (cteg's rows) would fail the
            # counts below, so such a value skips the C encoder
            if types == {list} and list not in map(type, val[0]):
                text = json.dumps(val)
                if (text.count(", ") == sum(map(len, val)) - 1
                        and text.count("[") == len(val) + 1
                        and "{" not in text):
                    rows = text[2:-2].split("], [")
                    yield ("[\n    [\n      "
                           + "\n    ],\n    [\n      ".join(rows).replace(
                               ", ", ",\n      ")
                           + "\n    ]\n  ]")
                    continue
        yield _INDENTED(val).replace("\n", "\n  ")
    yield "\n}"


def _render(payload, indent=0):
    pad = "  " * indent
    lines = []
    for key, val in payload.items():
        if isinstance(val, list) and val and isinstance(val[0], dict):
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
        if set(map(type, val)) == {int}:  # gap sets: list repr runs in C
            return str(val)
        return "[" + ", ".join(_fmt(v) for v in val) + "]"
    return str(val)


if __name__ == "__main__":
    sys.exit(main())
