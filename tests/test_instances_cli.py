import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chromatic_semigroups import (
    DiophantineInstance,
    classify,
    enumerate_solutions,
    parse_instance,
)
from chromatic_semigroups.numerical import (
    QuasiPolynomial,
    colored_numerical,
    fit_quasipolynomial,
)
import chromatic_semigroups.cli as cli_mod
from chromatic_semigroups.cli import _SLICE, _dumps, _fmt, main
from chromatic_semigroups.errors import (
    InstanceParseError,
    InstanceValidationError,
)

TWO_COLOR = {
    "dimension": 1,
    "colors": [{"name": "red", "generators": [[3]]},
               {"name": "blue", "generators": [[5]]}],
}

TWO_THREE = {
    "dimension": 1,
    "colors": [{"name": "red", "generators": [[2]]},
               {"name": "blue", "generators": [[3]]}],
}

TWO_D = {
    "dimension": 2,
    "colors": [{"name": "red", "generators": [[1, 0], [1, 2]]},
               {"name": "blue", "generators": [[1, 1], [0, 1]]}],
    "targets": [[3, 4]],
}

# counts at (6, 6): 11 solutions with at least one color, 9 with both
COUNT_2D = {
    "dimension": 2,
    "colors": [{"name": "red", "generators": [[1, 0], [1, 2]]},
               {"name": "blue", "generators": [[0, 1], [2, 1]]}],
}

HUGE = {
    "dimension": 1,
    "colors": [{"name": "red", "generators": [[10 ** 18 + 3]]},
               {"name": "blue", "generators": [[10 ** 18 + 9]]}],
}

# F = 998999999999 from residue minima mod 1000, behind about 5e11 gaps
WIDE = {
    "dimension": 1,
    "colors": [{"name": "red", "generators": [[1000]]},
               {"name": "blue", "generators": [[10 ** 9 + 1]]}],
}

# CF_3 = 2001360119 from residue minima, behind about 1e9 gaps
SINGLETONS = {
    "dimension": 1,
    "colors": [{"name": "red", "generators": [[100003]]},
               {"name": "blue", "generators": [[100019]]},
               {"name": "green", "generators": [[100043]]}],
}

EXAMPLE_ONE_DOC = {
    "dimension": 1,
    "colors": [{"name": "c1", "generators": [[9], [16]]},
               {"name": "c2", "generators": [[11], [14]]},
               {"name": "c3", "generators": [[12], [13]]}],
    "targets": [[70]],
}


@pytest.fixture
def two_color_path(tmp_path):
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(TWO_COLOR))
    return str(p)


@pytest.fixture
def two_three_path(tmp_path):
    p = tmp_path / "two_three.json"
    p.write_text(json.dumps(TWO_THREE))
    return str(p)


@pytest.fixture
def two_d_path(tmp_path):
    p = tmp_path / "two_d.json"
    p.write_text(json.dumps(TWO_D))
    return str(p)


@pytest.fixture
def huge_path(tmp_path):
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(HUGE))
    return str(p)


@pytest.fixture
def singletons_path(tmp_path):
    p = tmp_path / "singletons.json"
    p.write_text(json.dumps(SINGLETONS))
    return str(p)


@pytest.fixture
def wide_path(tmp_path):
    p = tmp_path / "wide.json"
    p.write_text(json.dumps(WIDE))
    return str(p)


@pytest.fixture
def example_one_path(tmp_path):
    p = tmp_path / "ex1.json"
    p.write_text(json.dumps(EXAMPLE_ONE_DOC))
    return str(p)


def test_parse_two_color(two_color_path):
    doc = parse_instance(two_color_path)
    assert doc.dimension == 1
    assert doc.colors == (("red", ((3,),)), ("blue", ((5,),)))
    s = doc.to_numerical()
    assert s.classes == ((3,), (5,))


def test_parse_example_one_document():
    doc = parse_instance(io.StringIO(json.dumps(EXAMPLE_ONE_DOC)))
    colored = doc.to_colored_semigroup()
    assert len(colored.columns) == 6
    assert colored.n_colors == 3
    assert doc.targets == ((70,),)


def test_parse_rejects_wrong_vector_length():
    bad = {"dimension": 3,
           "colors": [{"name": "a", "generators": [[1, 2]]}]}
    with pytest.raises(InstanceValidationError) as err:
        parse_instance(io.StringIO(json.dumps(bad)))
    assert "colors[0].generators[0]" in str(err.value)


def test_parse_rejects_duplicate_color_names():
    bad = {"dimension": 1,
           "colors": [{"name": "a", "generators": [[1]]},
                      {"name": "a", "generators": [[2]]}]}
    with pytest.raises(InstanceValidationError):
        parse_instance(io.StringIO(json.dumps(bad)))


def test_parse_rejects_non_integer_entries():
    bad = {"dimension": 1,
           "colors": [{"name": "a", "generators": [[1.5]]}]}
    with pytest.raises(InstanceValidationError):
        parse_instance(io.StringIO(json.dumps(bad)))
    bad["colors"][0]["generators"] = [[True]]
    with pytest.raises(InstanceValidationError):
        parse_instance(io.StringIO(json.dumps(bad)))


def test_parse_rejects_unknown_keys():
    bad = dict(TWO_COLOR)
    bad["extra"] = 1
    with pytest.raises(InstanceValidationError):
        parse_instance(io.StringIO(json.dumps(bad)))


def test_parse_reports_syntax_location():
    with pytest.raises(InstanceParseError) as err:
        parse_instance(io.StringIO("{broken"))
    assert "line 1" in str(err.value)


# ---------------------------------------------------------------------------
# CLI behaviour


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_member_exit_codes(two_color_path, capsys):
    code, out, _ = run_cli(capsys, "member", "--target", "8", two_color_path)
    assert code == 0 and "member: true" in out
    code, out, _ = run_cli(capsys, "member", "--target", "7", two_color_path)
    assert code == 1 and "member: false" in out


def test_usage_errors_exit_2(two_color_path, capsys):
    code, _, err = run_cli(capsys, "member", "--target", "x", two_color_path)
    assert code == 2 and "error" in err
    code, _, _ = run_cli(capsys, "definitely-not-a-subcommand")
    assert code == 2
    code, _, err = run_cli(capsys, "member", "--target", "5", "/nonexistent.json")
    assert code == 2


def test_chromatic_frobenius_text_and_json_agree(two_color_path, capsys):
    code, text, _ = run_cli(capsys, "chromatic-frobenius", "--k", "2",
                            two_color_path)
    assert code == 0
    assert "value: 15" in text
    assert "bounds: [7, 15]" in text
    code, out, _ = run_cli(capsys, "chromatic-frobenius", "--k", "2",
                           "--json", two_color_path)
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 15
    assert payload["bounds"] == [7, 15]
    assert payload["gap_set"][-1] == 15
    # identical numeric content in both renderings
    assert f"value: {payload['value']}" in text
    assert f"gap_set: {payload['gap_set']}".replace("'", "") in text


def test_classify_cli(example_one_path, capsys):
    code, out, _ = run_cli(capsys, "classify", "--solution", "3,1,0,1,0,1",
                           "--target", "70", example_one_path)
    assert code == 0
    assert "chromatic: true" in out
    assert "colorful: false" in out
    code, _, err = run_cli(capsys, "classify", "--solution", "1,0,0,0,0,0",
                           "--target", "70", example_one_path)
    assert code == 2  # solution does not reach the target


def test_solve_cli(example_one_path, capsys):
    code, out, _ = run_cli(capsys, "solve", example_one_path)
    assert code == 0
    assert "solution_count: 32" in out


def test_count_2d_matches_enumerate_and_classify(tmp_path, capsys):
    path = tmp_path / "count_2d.json"
    path.write_text(json.dumps(COUNT_2D))
    s = parse_instance(str(path)).to_colored_semigroup()
    counts = {}
    for b in ((6, 6), (0, 0), (5, 3), (2, 7), (9, 9)):
        sols = enumerate_solutions(DiophantineInstance(s.columns, b))
        for k in (1, 2):
            code, out, _ = run_cli(capsys, "count", "--target", "%d,%d" % b,
                                   "--k", str(k), "--json", str(path))
            assert code == 0
            counts[b, k] = json.loads(out)["count"]
            assert counts[b, k] == sum(
                classify(s, x).chromatic_level >= k for x in sols)
    assert counts[(6, 6), 1] == 11 and counts[(6, 6), 2] == 9


def test_cteg_verify_cli(capsys):
    code, out, _ = run_cli(capsys, "cteg", "--n", "6", "--verify")
    assert code == 0
    assert "expression_count: 6" in out
    assert "all_monochromatic: true" in out
    assert "[0, 63, 64]" in out  # sixth row of the n=6 family


def test_intersect_and_caratheodory_cli(two_color_path, tmp_path, capsys):
    code, out, _ = run_cli(capsys, "intersect", two_color_path)
    assert code == 0 and "generators: [[15]]" in out
    # one non-pointed color is its own intersection, with no element added
    p = tmp_path / "line.json"
    p.write_text(json.dumps({"dimension": 1, "colors": [
        {"name": "a", "generators": [[-3], [2], [3]]}]}))
    code, out, _ = run_cli(capsys, "intersect", str(p))
    assert code == 0 and "generators: [[-3], [2], [3]]" in out
    code, out, _ = run_cli(capsys, "caratheodory", two_color_path)
    assert code == 0 and "target: [15]" in out


def test_numerical_subcommands_cli(two_color_path, capsys):
    code, out, _ = run_cli(capsys, "frobenius", two_color_path)
    assert code == 0 and "frobenius: 7" in out
    code, out, _ = run_cli(capsys, "gaps", two_color_path)
    assert code == 0 and "gaps: [1, 2, 4, 7]" in out
    code, out, _ = run_cli(capsys, "count", "--target", "23", "--k", "2",
                           two_color_path)
    assert code == 0 and "count: 2" in out
    code, out, _ = run_cli(capsys, "quasipoly", "--k", "2", "--json",
                           two_color_path)
    assert code == 0
    payload = json.loads(out)
    assert payload["period"] == 15
    assert payload["constituents"][8] == ["7/15", "1/15"]


def test_reduce_cli(two_color_path, capsys):
    code, out, _ = run_cli(capsys, "reduce", "--k", "2", "--mode", "b",
                           two_color_path)
    assert code == 0
    assert "predicted: 31" in out and "computed: 31" in out


def test_helly_and_tverberg_cli(example_one_path, capsys):
    code, out, _ = run_cli(capsys, "helly-audit", "--case", "noncover",
                           example_one_path)
    assert code == 0
    assert "premise_holds: true" in out
    assert "conclusion_holds: true" in out
    code, out, _ = run_cli(capsys, "tverberg", "--r", "2", example_one_path)
    assert code == 0
    assert "hypothesis_met: true" in out


def test_hilbert_cli(tmp_path, capsys):
    doc = {"dimension": 1,
           "colors": [{"name": "a", "generators": [[2]]},
                      {"name": "b", "generators": [[3]]}]}
    p = tmp_path / "h.json"
    p.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "hilbert", str(p))
    assert code == 0 and "basis: []" in out


def test_stdin_instance(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(TWO_COLOR)))
    code, out, _ = run_cli(capsys, "member", "--target", "8", "-")
    assert code == 0 and "member: true" in out


def test_anomaly_exit_code(two_color_path, capsys, monkeypatch):
    from chromatic_semigroups.errors import TheoremContractError
    import chromatic_semigroups.cli as cli_mod

    def boom(inst):
        raise TheoremContractError("forced for the exit-code contract")

    monkeypatch.setattr(cli_mod, "is_member", boom)
    code = main(["member", "--target", "8", two_color_path])
    captured = capsys.readouterr()
    assert code == 3
    assert "anomaly" in captured.err


def test_json_reports_roundtrip(two_color_path, capsys):
    for argv in (["frobenius"], ["gaps"], ["chromatic-frobenius", "--k", "2"],
                 ["caratheodory"], ["intersect"]):
        code, out, _ = run_cli(capsys, *argv, "--json", two_color_path)
        assert code == 0
        payload = json.loads(out)
        assert json.loads(json.dumps(payload)) == payload


JSON_LEAVES = (st.none() | st.booleans() | st.integers()
               | st.floats(allow_nan=False) | st.text())
JSON_VALUES = st.recursive(
    JSON_LEAVES, lambda inner: st.lists(inner)
    | st.dictionaries(st.text(), inner), max_leaves=20)


@given(st.dictionaries(st.text(), JSON_VALUES | st.lists(st.integers()),
                       min_size=1))
def test_json_report_text_is_json_dumps_indent_2(payload):
    assert "".join(_dumps(payload)) == json.dumps(payload, indent=2)


def test_json_int_list_spanning_slices_is_json_dumps_indent_2():
    # flat int lists are encoded a slice at a time
    payload = {"subcommand": "gaps",
               "gap_set": list(range(-3, 2 * _SLICE + 5)),
               "offsets": [],
               "nested": {"rows": [[1, 2], [3]], "empty": []},
               "value": 7}
    assert "".join(_dumps(payload)) == json.dumps(payload, indent=2)


# strings that could pass for the separators or brackets json writes
ROW_SCALARS = (st.integers() | st.floats() | st.booleans() | st.none()
               | st.sampled_from([", ", "], [", "[", "{", '"', "å ∑ 𝔽",
                                  "7/15"]))


@given(st.lists(st.lists(ROW_SCALARS)))
@example([[], [1, "7/15"]])
@example([[2, "7/15"], [], [-3]])
@example([[True, None], [0.5], []])
@example([[1, "], ["], [2]])
@example([[[1]]])  # not flat: the guards send these to the indenting encoder
@example([[{"a": 1}]])
def test_json_rows_are_json_dumps_indent_2(rows):
    # a list of flat lists goes through json's C encoder and is re-indented
    payload = {"subcommand": "quasipoly", "constituents": rows, "k": 2}
    assert "".join(_dumps(payload)) == json.dumps(payload, indent=2)


def test_json_rows_skip_the_indenting_encoder():
    rows = [[1, "7/15", -2.5], [None, True], ["1/3"]]
    with mock.patch.object(cli_mod, "_INDENTED", side_effect=AssertionError):
        text = "".join(_dumps({"constituents": rows}))
    assert text == json.dumps({"constituents": rows}, indent=2)


def _quasipoly_report(qp):
    with mock.patch.object(cli_mod, "fit_quasipolynomial", return_value=qp):
        return cli_mod._run_quasipoly(
            SimpleNamespace(to_numerical=lambda: None), SimpleNamespace(k=2))


def test_quasipoly_report_renders_every_coefficient():
    # the report renders each coefficient object once; equal values held
    # by distinct objects and by one shared object render alike
    assert Fraction(7, 15) is not Fraction(7, 15)
    distinct = QuasiPolynomial(2, ((Fraction(7, 15), Fraction(7, 15),
                                    Fraction(2)),
                                   (Fraction(-1, 4), Fraction(7, 15))), 1)
    h = Fraction(7, 15)
    shared = QuasiPolynomial(2, ((h, h, Fraction(1)), (Fraction(-1, 4), h)),
                             1)
    fitted = fit_quasipolynomial(colored_numerical((3,), (5,)), 2)
    for qp in (distinct, shared, fitted):
        assert _quasipoly_report(qp)["constituents"] == [
            [cli_mod._frac(c) for c in row] for row in qp.constituents]
    assert _quasipoly_report(fitted)["constituents"][8] == ["7/15", "1/15"]


@given(st.lists(st.integers() | st.booleans() | st.none()))
def test_text_list_is_rendered_item_by_item(val):
    # flat int lists take a fast path, which must render the same bytes
    assert _fmt(val) == "[" + ", ".join(_fmt(v) for v in val) + "]"


@pytest.fixture
def golden_exit_codes(two_color_path, two_three_path, two_d_path,
                      example_one_path, huge_path, wide_path, singletons_path):
    return [
        (["solve", example_one_path], 0),
        (["classify", "--solution", "3,1,0,1,0,1", example_one_path], 0),
        (["member", "--target", "8", two_color_path], 0),
        (["member", "--target", "7", two_color_path], 1),
        (["member", two_color_path], 2),  # missing --target
        (["intersect", two_color_path], 0),
        (["hilbert", two_color_path], 0),
        (["helly-audit", "--case", "noncover", two_color_path], 0),
        (["helly-audit", "--case", "bogus", two_color_path], 2),
        (["helly-audit", "--max-subsets", "0", two_color_path], 2),
        (["helly-audit", "--max-subsets", "-1", two_color_path], 2),
        (["tverberg", "--r", "2", two_color_path], 0),
        (["tverberg", "--r", "3", two_color_path], 1),  # 2 gens, 3 blocks
        (["caratheodory", two_color_path], 0),
        (["frobenius", two_color_path], 0),
        (["gaps", two_color_path], 0),
        (["frobenius", huge_path], 2),  # smallest generator past the cap
        (["frobenius", wide_path], 0),
        (["gaps", wide_path], 2),  # gap count past the cap
        (["chromatic-frobenius", "--k", "2", wide_path], 2),
        (["chromatic-frobenius", "--k", "2", two_color_path], 0),
        (["chromatic-frobenius", "--k", "5", two_color_path], 2),
        (["count", "--target", "23", "--k", "2", two_color_path], 0),
        (["count", "--target", "3,4", "--k", "2", two_d_path], 0),
        (["count", "--target", "3,4", "--k", "0", two_d_path], 2),
        (["count", "--target", "3,4", "--k", "3", two_d_path], 2),
        (["quasipoly", "--k", "2", two_color_path], 0),
        (["quasipoly", "--k", "2", "--start", "0", two_color_path], 2),
        (["quasipoly", "--k", "2", "--start", "0", "--window", "0",
          two_three_path], 2),
        (["quasipoly", "--k", "0", two_color_path], 2),
        (["quasipoly", "--k", "3", two_color_path], 2),
        (["cteg", "--n", "3"], 0),
        (["cteg", "--n", "0"], 2),
        (["cteg", "--n", "14300"], 2),  # entries past the int-to-str limit
        (["reduce", "--k", "2", "--mode", "b", two_color_path], 0),
        (["reduce", "--k", "1", "--mode", "b", two_color_path], 2),
        # the reduction reads values only, so the gap cap does not apply
        (["reduce", "--k", "3", "--mode", "b", singletons_path], 0),
        (["chromatic-frobenius", "--k", "3", singletons_path], 2),
    ]


def test_golden_exit_codes_every_subcommand(golden_exit_codes, wide_path,
                                            capsys):
    for argv, want in golden_exit_codes:
        code = main(list(argv))
        capsys.readouterr()
        assert code == want, (argv, code, want)
    code, out, _ = run_cli(capsys, "frobenius", wide_path)
    assert "frobenius: 998999999999" in out


def test_plain_argv_never_builds_a_parser(golden_exit_codes, capsys,
                                          monkeypatch):
    # the golden argv that argparse accepts, less the one with a negative
    # value, are plain: `main` must read them without argparse, and answer
    # as it does through argparse, with a path and on stdin, as text and
    # as JSON
    def accepted(argv):
        try:
            cli_mod.build_parser().parse_args(argv)
        except SystemExit:
            return False
        finally:
            capsys.readouterr()
        return True

    def run(argv):
        runs = []
        for tail in ([], ["--json"]):
            runs.append(run_cli(capsys, *argv, *tail))
            for doc in (a for a in argv if a.endswith(".json")):
                monkeypatch.setattr("sys.stdin", io.StringIO(
                    Path(doc).read_text()))
                stdin_argv = ["-" if a == doc else a for a in argv]
                runs.append(run_cli(capsys, *stdin_argv, *tail))
        return runs

    plain = [(argv, want) for argv, want in golden_exit_codes
             if accepted(argv) and "-1" not in argv]
    assert len(plain) == 33
    with monkeypatch.context() as patch:
        patch.setattr(cli_mod, "_read_argv", lambda argv: None)
        through_argparse = [run(argv) for argv, _ in plain]

    def boom():
        raise AssertionError("a plain argv built an argparse parser")

    monkeypatch.setattr(cli_mod, "build_parser", boom)
    for (argv, want), before in zip(plain, through_argparse):
        after = run(argv)
        assert after == before, argv
        assert {code for code, _, _ in after} == {want}, argv


# the words of the subcommand table, and the argv shapes that argparse
# reads apart from a plain argv: help, abbreviations, `--flag=value`, `--`
_FLAGS = sorted({flag for command in cli_mod._SUBCOMMANDS.values()
                 for flag, _ in (cli_mod._JSON_FLAG, *command.arguments)})
_ODD_TOKENS = sorted({*_FLAGS, *(f[:3] for f in _FLAGS),
                     *(f[:-1] for f in _FLAGS), *(f + "=3" for f in _FLAGS),
                     "-h", "--help", "--", "-"})
_VALUES = sorted({
    "3", "0", "-1", "-2", "-1,2", "2,3", "x", "1.5", "", "-", "doc.json",
    *(v for command in cli_mod._SUBCOMMANDS.values()
      for _, options in command.arguments
      for v in options.get("choices", ()))})


@st.composite
def _argvs(draw):
    # a plain argv with each flag given zero to two times, in any order,
    # plus up to two stray words
    name = draw(st.sampled_from([*cli_mod._SUBCOMMANDS, "bogus"]))
    command = cli_mod._SUBCOMMANDS.get(name, cli_mod._Subcommand(None, ""))
    value = st.sampled_from(_VALUES) | st.integers(-3, 20).map(str)
    chunks = [("doc.json",)] if command.reads_instance else []
    for flag, options in (cli_mod._JSON_FLAG, *command.arguments):
        if options.get("action") == "store_true":
            chunks += [(flag,)] * draw(st.integers(0, 2))
            continue
        own = value | st.sampled_from(options.get("choices", ["3"]))
        chunks += [(flag, draw(own)) for _ in range(draw(st.integers(0, 2)))]
    chunks += draw(st.lists(st.tuples(st.sampled_from(_ODD_TOKENS) | value),
                            max_size=2))
    return [name, *(t for c in draw(st.permutations(chunks)) for t in c)]


@settings(max_examples=400)
@example(["cteg", "--n", "7"])
@given(_argvs())
def test_read_argv_matches_argparse(argv):
    read = cli_mod._read_argv(argv)
    parser = cli_mod.build_parser()
    with mock.patch.dict(os.environ, COLUMNS="80"), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            parsed = vars(parser.parse_args(argv))
        except SystemExit:
            parsed = None
    assert read is None or vars(read) == parsed


def test_read_argv_reads_a_plain_argv():
    # a store_true flag left out is False, as argparse has it, not None
    assert vars(cli_mod._read_argv(["cteg", "--n", "7"])) == {
        "subcommand": "cteg", "json": False, "n": 7, "verify": False}
    assert vars(cli_mod._read_argv(
        ["solve", "--target", "1,2", "doc.json", "--target", "-", "--json"])
    ) == {"subcommand": "solve", "instance": "doc.json", "json": True,
          "target": ["1,2", "-"]}


def test_numerical_subcommands_refuse_a_generator_listed_twice(tmp_path,
                                                               capsys):
    # the numerical classes are sets: <3, 3> | <5> would count as <3> | <5>,
    # while the colored subcommands keep both columns
    p = tmp_path / "repeat.json"
    p.write_text(json.dumps({"dimension": 1, "colors": [
        {"name": "a", "generators": [[3], [3]]},
        {"name": "b", "generators": [[5]]}]}))
    for argv in (["count", "--target", "6", "--k", "1"],
                 ["count", "--target", "11", "--k", "2"],
                 ["quasipoly", "--k", "1"], ["frobenius"], ["gaps"],
                 ["chromatic-frobenius", "--k", "1"],
                 ["reduce", "--k", "2", "--mode", "b"]):
        code, out, err = run_cli(capsys, *argv, str(p))
        assert code == 2 and out == "", argv
        assert err == "error: color 'a' lists a generator twice\n", argv
    code, out, _ = run_cli(capsys, "solve", "--target", "6", str(p))
    assert code == 0 and "solution_count: 3" in out


def test_helly_audit_exits_3_on_a_false_case_assertion(tmp_path, capsys):
    # <2> | <-3> covers the line, so the noncover assertion is false: each
    # member is nontrivial, the full intersection is not
    p = tmp_path / "cover.json"
    p.write_text(json.dumps({"dimension": 1, "colors": [
        {"name": "a", "generators": [[2]]},
        {"name": "b", "generators": [[-3]]}]}))
    code, out, err = run_cli(capsys, "helly-audit", "--case", "noncover",
                             str(p))
    assert code == 3 and out == ""
    assert err == ("anomaly: premise held on all size-1 subsets but the "
                   "full intersection is trivial\n")
    code, out, _ = run_cli(capsys, "helly-audit", "--case", "cover", str(p))
    assert code == 0 and "premise_holds: false" in out


def test_count_tables_past_the_cap_exit_2(two_color_path, tmp_path, capsys):
    # a failed allocation also exits 2, so the message tells the guard apart
    p = tmp_path / "primes.json"
    p.write_text(json.dumps({"dimension": 1, "colors": [
        {"name": str(v), "generators": [[v]]} for v in (97, 89, 83, 79)]}))
    for argv in (["count", "--target", "1000000000000", "--k", "1",
                  two_color_path],
                 ["quasipoly", "--k", "2", str(p)]):  # n L about 2.3e8
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert "exceed the cap of 10000000" in err, argv


def test_hilbert_invariant_failure_is_an_anomaly(two_color_path, capsys,
                                                 monkeypatch):
    # a double description with a line inside the orthant can only come
    # from a bug, which the CLI reports as exit 3, not as a traceback
    import chromatic_semigroups._hilbert as hilbert_mod

    monkeypatch.setattr(hilbert_mod, "_generator_description",
                        lambda ineqs, k: (((1,) * k,), ()))
    code, out, err = run_cli(capsys, "hilbert", two_color_path)
    assert code == 3 and out == ""
    assert err == "anomaly: orthant cone contains a line\n"


def test_search_facet_failure_is_an_anomaly(two_d_path, capsys, monkeypatch):
    # suffix facets that cut off one of their own columns can only come
    # from a bug in the double description: exit 3, not a usage error
    import functools

    import chromatic_semigroups.diophantine as dio

    real = dio.suffix_descriptions
    monkeypatch.setattr(
        dio, "suffix_descriptions",
        lambda rows, dim: [(lin, tuple(tuple(-c for c in r) for r in rays))
                           for lin, rays in real(rows, dim)])
    monkeypatch.setattr(dio, "_plan_cached",
                        functools.lru_cache(None)(dio._plan_cached.__wrapped__))
    code, out, err = run_cli(capsys, "solve", two_d_path)
    assert code == 3 and out == ""
    assert err == "anomaly: internal: generator violates computed inequality\n"


def test_no_lp_on_any_subcommand(two_d_path, example_one_path, capsys,
                                 monkeypatch):
    # pointedness comes from the double description; affine feasibility
    # is public API that no report may need, under any name a package
    # module holds it by
    holders = [m for name, m in list(sys.modules.items())
               if name.split(".")[0] == "chromatic_semigroups"
               and hasattr(m, "rational_feasible")]
    assert len(holders) >= 2  # the package and `cones`

    def boom(*args):
        raise AssertionError("rational_feasible ran on a production path")

    argvs = [
        ["member", "--target", "3,4", two_d_path],
        ["member", "--target=-1,2", two_d_path],
        ["intersect", two_d_path],
        ["caratheodory", two_d_path],
        ["helly-audit", two_d_path],
        ["tverberg", "--r", "2", two_d_path],
        ["solve", two_d_path],
        ["count", "--target", "3,4", "--k", "2", two_d_path],
        ["hilbert", two_d_path],
        ["member", "--target", "70", example_one_path],
        ["intersect", example_one_path],
        ["cteg", "--n", "4", "--verify"],
    ]
    with monkeypatch.context() as patch:
        for mod in holders:
            patch.setattr(mod, "rational_feasible", boom)
        patched = [main(list(argv)) for argv in argvs]
    plain = [main(list(argv)) for argv in argvs]
    capsys.readouterr()
    assert patched == plain


@pytest.mark.parametrize("error", [MemoryError, OverflowError, RecursionError])
def test_resource_errors_exit_2(two_color_path, capsys, monkeypatch, error):
    import chromatic_semigroups.cli as cli_mod

    def boom(generators):
        raise error()

    monkeypatch.setattr(cli_mod, "frobenius", boom)
    code, out, err = run_cli(capsys, "frobenius", two_color_path)
    assert code == 2 and out == ""
    assert err == f"error: input too large for this machine ({error.__name__})\n"


HELP_GOLDEN = Path(__file__).with_name("cli_help_golden.json")


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="help text recorded with CPython 3.11's argparse")
def test_help_and_usage_text_golden(two_color_path, capsys, monkeypatch):
    # argparse wraps help text at $COLUMNS; the golden file is 80 wide.
    # One parser with every subparser words all help and usage errors.
    monkeypatch.setenv("COLUMNS", "80")
    rows = json.loads(HELP_GOLDEN.read_text())
    for row in rows:
        argv = [two_color_path if a == "<doc>" else a for a in row["argv"]]
        code, out, err = run_cli(capsys, *argv)
        got = {"argv": row["argv"], "code": code,
               "stdout": out.replace(two_color_path, "<doc>"),
               "stderr": err.replace(two_color_path, "<doc>")}
        assert got == row
    assert len(rows) == 20


def test_module_entry_point_reads_sys_argv(two_color_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "chromatic_semigroups", *argv], env=env,
            capture_output=True, text=True, timeout=60)

    done = run("member", "--target", "8", two_color_path)
    assert done.returncode == 0 and "member: true" in done.stdout
    done = run("--help")
    assert done.returncode == 0 and done.stdout.startswith("usage: chromsg")


COLD_START_PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
from chromatic_semigroups.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(["cteg", "--n", "3"])
print(json.dumps([rc, sorted(set(sys.modules) - before)]))
"""


def test_a_plain_job_imports_no_dataclasses_inspect_or_argparse(tmp_path):
    # each chromsg job is a fresh process, so these imports would be paid
    # by every job; diffing against the modules loaded before the import
    # leaves out whatever `site` preloads
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", COLD_START_PROBE], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=60)
    rc, loaded = json.loads(done.stdout.splitlines()[-1])
    assert rc == 0
    assert "chromatic_semigroups.cli" in loaded
    assert not {"dataclasses", "inspect", "argparse"} & set(loaded)


def test_the_package_import_leaves_random_unloaded(tmp_path):
    # only sampled Helly audits use random; -S keeps `site`, which may load
    # it for its own reasons, out of the picture
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = ("import sys, chromatic_semigroups.cli; "
             "print('random' in sys.modules)")
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]
