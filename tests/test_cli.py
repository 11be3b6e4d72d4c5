"""Serialization round-trips and the command line front door."""

import json
import sys

import numpy as np
import pytest

from pisomlab import cli
from pisomlab.cli import (
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    AnalysisRequest,
    main,
    run,
)
from pisomlab.jsonio import (
    ParseError,
    SchemaError,
    generator_problem_to_dict,
    load_generator_check,
    load_generator_problem,
    matrix_from_json,
    matrix_to_json,
    parse_generator_problem,
)
from pisomlab.numlin import ToleranceConfig, approx_equal
from pisomlab.pisom import partial_isometry_defect


def test_matrix_json_roundtrip():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    again = matrix_from_json(matrix_to_json(m))
    assert np.allclose(again, m)


def test_matrix_json_accepts_bare_numbers():
    m = matrix_from_json([[1, 0], [0, [0.0, 1.0]]])
    assert m[1, 1] == 1j


def test_matrix_json_schema_errors():
    with pytest.raises(SchemaError, match=r"row 1 has 1 entries"):
        matrix_from_json([[1, 0], [1]])
    with pytest.raises(SchemaError, match=r"matrix\[0\]\[1\]"):
        matrix_from_json([[1, "x"]])


def test_generator_problem_roundtrip(fixtures_dir):
    problem = load_generator_problem(str(fixtures_dir / "example-1-3.json"))
    data = generator_problem_to_dict(problem)
    again = parse_generator_problem(data)
    assert again.gens.dim == problem.gens.dim
    for (n1, m1), (n2, m2) in zip(problem.gens.named_generators,
                                  again.gens.named_generators):
        assert n1 == n2
        assert approx_equal(m1, m2)


def test_generator_problem_schema_validation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2, "generators": [{"name": "A"}]}))
    with pytest.raises(SchemaError, match="generators\\[0\\]"):
        load_generator_problem(str(bad))
    bad.write_text("{not json")
    with pytest.raises(ParseError, match="line 1"):
        load_generator_problem(str(bad))
    bad.write_text(json.dumps({"dim": 2, "generators": [], "extra": 1}))
    with pytest.raises(SchemaError, match="unknown fields"):
        load_generator_problem(str(bad))


def test_run_report_golden(fixtures_dir):
    request = AnalysisRequest("report", str(fixtures_dir / "example-1-3.json"))
    code, report = run(request)
    assert code == EXIT_OK
    assert report["certificate"]["verdict"] == "NotExtendable"
    assert report["deviation"] == pytest.approx(0.25, abs=1e-6)
    assert sorted(report["atoms"]["ranks"], reverse=True) == [5, 1, 1, 1]
    assert report["atoms"]["uniform"] is False
    assert report["irreducible"] is False
    assert report["q_commuting"] is True


def test_file_level_tolerance_and_limits(tmp_path, fixtures_dir):
    data = json.loads((fixtures_dir / "matrix-units-2.json").read_text())
    data["tolerance"] = 1e-6
    data["limits"] = {"max_elements": 3, "max_word_length": 2}
    path = tmp_path / "limited.json"
    path.write_text(json.dumps(data))

    problem = load_generator_problem(str(path))
    assert problem.tolerance.eq_tol == 1e-6
    assert problem.limits.max_elements == 3

    # file limits apply when the request has none
    _, report = run(AnalysisRequest("closure", str(path)))
    assert report["status"] == "truncated"
    # a request override takes precedence over the file
    from pisomlab.sgroup import Limits
    _, report = run(AnalysisRequest("closure", str(path), limits=Limits(100, 10)))
    assert report["status"] == "closed"


def test_report_provenance_records_seed(fixtures_dir):
    _, report = run(AnalysisRequest("report", str(fixtures_dir / "identity-only.json"),
                                    seed=17))
    assert report["certificate"]["provenance"]["seed"] == 17


def _no_op_hook(frame, event, arg):
    return None


@pytest.mark.parametrize("command", ("closure", "report"))
@pytest.mark.parametrize("hook", ("setprofile", "settrace"))
def test_commands_run_alike_under_a_profile_or_trace_hook(command, hook, fixtures_dir, capsys):
    # profilers, debuggers and coverage tools install such hooks
    argv = [command, str(fixtures_dir / "example-1-3.json")]
    assert main(argv) == EXIT_OK
    plain = capsys.readouterr().out
    install = getattr(sys, hook)
    previous = sys.getprofile() if hook == "setprofile" else sys.gettrace()
    install(_no_op_hook)
    try:
        code = main(argv)
    finally:
        install(previous)
    assert code == EXIT_OK
    assert capsys.readouterr().out == plain


def test_run_report_identity(fixtures_dir):
    code, report = run(AnalysisRequest("report", str(fixtures_dir / "identity-only.json")))
    assert code == EXIT_OK
    assert report["certificate"]["verdict"] == "Extendable"
    assert report["status"] == "closed"


def test_run_report_pauli(fixtures_dir):
    code, report = run(AnalysisRequest("report", str(fixtures_dir / "pauli-tensor-units.json")))
    assert code == EXIT_OK
    assert report["certificate"]["verdict"] == "Extendable"
    assert report["atoms"] == {"ranks": [2, 2, 2], "uniform": True, "multiplicity": 2}
    assert report["irreducible"] is True
    assert report["span_dim"] == 36


def test_witness_replays_within_ten_percent(fixtures_dir):
    path = str(fixtures_dir / "example-1-3.json")
    _, report = run(AnalysisRequest("report", path))
    problem = load_generator_problem(path)
    name_map = dict(problem.gens.named_generators)
    name_map.update({name + "*": mat.conj().T for name, mat in problem.gens.named_generators})
    mat = np.eye(8, dtype=complex)
    for token in report["witness_word"]:
        mat = mat @ name_map[token]
    replayed = partial_isometry_defect(mat)
    assert abs(replayed - report["deviation"]) <= 0.1 * report["deviation"]


def test_single_stage_commands(fixtures_dir):
    path = str(fixtures_dir / "matrix-units-2.json")
    code, report = run(AnalysisRequest("check", path))
    assert code == EXIT_OK
    assert all(g["valid"] for g in report["generators"])
    code, report = run(AnalysisRequest("closure", path))
    assert report["status"] == "closed" and report["element_count"] == 6
    code, report = run(AnalysisRequest("extend", path))
    assert report["certificate"]["verdict"] == "Extendable"
    code, report = run(AnalysisRequest("atoms", path))
    assert report["atoms"]["ranks"] == [1, 1]
    code, report = run(AnalysisRequest("multiplicity", path))
    assert report["atoms"]["multiplicity"] == 1
    code, report = run(AnalysisRequest("decompose", path))
    assert [op["decomposable"] for op in report["operators"]] == [False, False]
    code, report = run(AnalysisRequest("brandt", path))
    assert report["brandt"]["family_ranks"] == [1, 1]


def test_brandt_command_reports_structured_error(fixtures_dir):
    code, report = run(AnalysisRequest("brandt", str(fixtures_dir / "example-1-3.json")))
    assert code == EXIT_OK
    assert report["brandt"] is None
    assert report["brandt_error"]["kind"] in (
        "NoMinimalWithLoop", "CoverageGap", "MembershipViolation")


def test_barnes_command(fixtures_dir):
    code, report = run(AnalysisRequest("barnes", str(fixtures_dir / "tables" / "i2.json")))
    assert code == EXIT_OK
    assert report["valid"] and report["injective"]
    assert report["closure_status"] == "closed"
    assert report["closure_elements"] == 7


def test_main_exit_codes(fixtures_dir, tmp_path, capsys):
    assert main(["report", str(fixtures_dir / "identity-only.json"), "--format", "json"]) == EXIT_OK
    out = capsys.readouterr().out
    assert json.loads(out)["certificate"]["verdict"] == "Extendable"

    missing = str(tmp_path / "nope.json")
    assert main(["report", missing]) == EXIT_INPUT

    garbage = tmp_path / "garbage.json"
    garbage.write_text("{")
    assert main(["report", str(garbage)]) == EXIT_INPUT

    # a generator that is not a partial isometry is an input error for
    # analysis commands but a reportable result for `check`
    bad = tmp_path / "bad-gen.json"
    bad.write_text(json.dumps({
        "dim": 2,
        "generators": [{"name": "G", "matrix": [[2, 0], [0, 0]]}],
    }))
    assert main(["closure", str(bad)]) == EXIT_INPUT
    code, report = run(AnalysisRequest("check", str(bad)))
    assert code == EXIT_OK
    assert report["all_valid"] is False
    assert report["generators"][0]["deviation"] == pytest.approx(12.0)

    assert main(["report", str(fixtures_dir / "identity-only.json"), "--tol", "0.5"]) == EXIT_INPUT


def test_negative_seed_is_an_input_error(fixtures_dir, capsys):
    path = str(fixtures_dir / "identity-only.json")
    with pytest.raises(SchemaError, match="seed must be non-negative"):
        run(AnalysisRequest("report", path, seed=-1))
    assert main(["report", path, "--seed", "-1"]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"


@pytest.mark.parametrize("command,document", [
    ("report", b'{"dim": 1, "generators": [{"name": "\xe9", "matrix": [[1]]}]}'),
    ("barnes", b'{"n": 1, "mult": [[0]], "star": [0], "names": ["\xe9"]}'),
])
def test_non_utf8_input_is_a_parse_error(command, document, tmp_path, capsys):
    # a Latin-1 e-acute: one byte that starts no UTF-8 sequence
    path = tmp_path / "latin1.json"
    path.write_bytes(document)
    with pytest.raises(ParseError, match="not UTF-8 text at byte"):
        run(AnalysisRequest(command, str(path)))
    assert main([command, str(path)]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith(f"error: {path}: not UTF-8 text at byte ")


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_deeply_nested_json_is_a_parse_error(command, tmp_path, capsys):
    # arrays nested past the interpreter's recursion limit, in a generator
    # file or, for barnes, a table file
    depth = 100_000
    field = "mult" if command == "barnes" else "generators"
    path = tmp_path / "nested.json"
    path.write_text(f'{{"{field}": {"[" * depth}{"]" * depth}}}')
    with pytest.raises(ParseError, match="nests too deeply"):
        run(AnalysisRequest(command, str(path)))
    assert main([command, str(path)]) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"error: {path}: JSON nests too deeply to parse\n")


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_huge_json_integer_is_a_parse_error(command, tmp_path, capsys):
    # json.load refuses an integer of more than 4,300 digits with a plain
    # ValueError, in a generator file or, for barnes, a table file
    document = ('{"n": 1, "mult": [[%s]], "star": [0]}' if command == "barnes"
                else '{"dim": 1, "generators": [{"name": "A", "matrix": [[%s]]}]}')
    path = tmp_path / "huge.json"
    path.write_text(document % ("1" * 5000))
    with pytest.raises(ParseError, match="Exceeds the limit"):
        run(AnalysisRequest(command, str(path)))
    assert main([command, str(path)]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert len(err) < len(str(path)) + 120


@pytest.mark.parametrize("field,value", [
    ("matrix", [0.5] * 2000),
    ("matrix", "x" * 2000),
    ("matrix", [[0.5] * 2000, 0.0]),
    ("matrix", 10 ** 400),
    ("limits", {"max_elements": [3] * 2000}),
    ("tolerance", {"eq_tol": {"x": "y" * 2000}}),
], ids=lambda value: value if isinstance(value, str) and len(value) < 20 else type(value).__name__)
def test_schema_error_quotes_a_long_value_in_brief(tmp_path, capsys, field, value):
    # a bad value whose text is long prints as its type, length and a prefix
    doc = {"dim": 1, "generators": [{"name": "A", "matrix": [[1.0]]}]}
    if field == "matrix":
        doc["generators"][0]["matrix"] = [[value]]
    else:
        doc[field] = value
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    assert main(["report", str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) < 200, err


def test_matrix_entry_error_names_the_first_bad_entry():
    for entry, message in (("x", "expected [re, im] or a number, got 'x'"),
                           (float("nan"), "expected finite numbers, got nan"),
                           ([1e308, 1e308, 1.0], "got [1e+308, 1e+308, 1.0]")):
        with pytest.raises(SchemaError) as err:
            matrix_from_json([[1, 0], [0.5, entry], [entry, 1]], "m")
        assert str(err.value).startswith("m[1][1]: ") and str(err.value).endswith(message)


@pytest.mark.parametrize("flag", ["--max-elements", "--max-word-len"])
def test_zero_limit_is_an_input_error(fixtures_dir, capsys, flag):
    assert main(["closure", str(fixtures_dir / "identity-only.json"), flag, "0"]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: limits must be positive\n"


@pytest.mark.parametrize("field,value", [
    ("dim", True),
    ("limits", {"max_elements": None}),
    ("limits", {"max_elements": [3]}),
    ("limits", {"max_elements": 2.5}),
    ("limits", {"max_elements": True}),
    ("limits", {"max_elements": "7"}),
    ("limits", {"max_word_length": 4.0}),
    ("tolerance", {"eq_tol": None}),
    ("tolerance", {"eq_tol": "1e-6"}),
    ("tolerance", {"proj_tol": False}),
], ids=repr)
def test_badly_typed_field_is_an_input_error(tmp_path, capsys, field, value):
    # dim and limits must be JSON integers, tolerances JSON numbers, and
    # neither may be a boolean
    path = tmp_path / "typed.json"
    path.write_text(json.dumps({"dim": 2, "generators": [], field: value}))
    assert main(["report", str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}") and err.count("\n") == 1


# the semilattice {0, 1}
TABLE = {"n": 2, "mult": [[0, 0], [0, 1]], "star": [0, 1]}


@pytest.mark.parametrize("changes", [
    {"mult": None},
    {"n": 2.7},
    {"n": True, "mult": [[0]], "star": [0]},
    {"mult": [[0, 0], [0, 1.9]]},
    {"star": [0.4, 1.2]},
    {"mult": [[False, False], [False, True]]},
    {"mult": [["0", "0"], ["0", "1"]]},
    {"star": [0, "1"]},
    {"mult": [[0, 0], [0, 10 ** 30]]},
    {"names": [1, 2]},
    {"names": "ab"},
    {"names": None},
    {"extra": 1},
], ids=repr)
def test_badly_typed_table_is_an_input_error(tmp_path, capsys, changes):
    # n and every mult and star entry must be JSON integers and not booleans,
    # names an array of strings, and no other field is allowed
    path = tmp_path / "table.json"
    path.write_text(json.dumps({**TABLE, **changes}))
    assert main(["barnes", str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("names", [["a*", "a'"], ["", "s0"]])
def test_barnes_output_does_not_depend_on_names(tmp_path, names):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(TABLE))
    _, plain = run(AnalysisRequest("barnes", str(path)))
    path.write_text(json.dumps({**TABLE, "names": names}))
    code, report = run(AnalysisRequest("barnes", str(path)))
    assert code == EXIT_OK
    assert report == plain
    assert report["closure_status"] == "closed"


def test_generator_named_zero_is_reserved_with_include_zero(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"dim": 2, "include_zero": True, "generators": [
        {"name": "0", "matrix": [[0, 1], [1, 0]]}, {"name": "A", "matrix": [[0, 0], [1, 0]]}]}))
    assert main(["closure", str(path)]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: generators: generator name '0' is reserved for the zero matrix\n")


@pytest.mark.parametrize("command", ["check", "closure", "report"])
@pytest.mark.parametrize("names,include_zero,message", [
    (["A", "A"], False, "duplicate generator name 'A'"),
    (["A*", "B"], False, "generator name 'A*' contains reserved character '*'"),
    (["0", "A"], True, "generator name '0' is reserved for the zero matrix"),
    (["", "A"], False, "generator names must be non-empty strings"),
])
def test_generator_names_are_input_errors_for_every_command(tmp_path, capsys, command,
                                                            names, include_zero, message):
    # check applies the name rules of the analysis commands; the second
    # generator is not a partial isometry, which check would report as a result
    mats = [[[0, 1], [1, 0]], [[2, 0], [0, 0]]]
    path = tmp_path / "names.json"
    path.write_text(json.dumps({"dim": 2, "include_zero": include_zero, "generators": [
        {"name": name, "matrix": mat} for name, mat in zip(names, mats)]}))
    assert main([command, str(path)]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: generators: {message}\n"


@pytest.mark.parametrize("command", [c for c in cli.COMMANDS if c != "barnes"])
@pytest.mark.parametrize("entry", ["NaN", "Infinity", "1e100", "1e200"])
def test_unrepresentable_entries_are_input_errors(tmp_path, capsys, command, entry):
    # json reads NaN and Infinity; 1e100 and 1e200 are doubles, but the
    # partial isometry defect of a matrix holding them overflows.  Warnings
    # are errors in this suite, so none may be raised on the way.
    path = tmp_path / "entry.json"
    path.write_text('{"dim": 2, "generators": [{"name": "A", "matrix": [[0, %s], [0, 0]]}]}'
                    % entry)
    assert main([command, str(path), "--format", "json"]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: generators") and err.count("\n") == 1


@pytest.mark.parametrize("command", [c for c in cli.COMMANDS if c not in ("barnes", "check")])
def test_generator_that_is_no_partial_isometry_is_named(tmp_path, capsys, command):
    # check reports such a generator; every other generator command refuses
    # the file and names the generator that failed
    path = tmp_path / "diag.json"
    path.write_text(json.dumps({"dim": 2, "generators": [
        {"name": "A", "matrix": [[1, 0], [0, 0]]}, {"name": "B", "matrix": [[2, 0], [0, 0]]}]}))
    assert main([command, str(path)]) == EXIT_INPUT
    assert capsys.readouterr().err == ("error: generators[1]: 'B' is not a partial isometry: "
                                       "V*V is not a projection (idempotency defect 12)\n")


@pytest.mark.parametrize("command", ["closure", "report"])
@pytest.mark.parametrize("eq_tol", [1e-20, 1e-300])
def test_tiny_eq_tol_is_accepted_without_warnings(tmp_path, capsys, command, eq_tol):
    # any eq_tol in (0, 1e-2] is valid; A = E12 still closes to I, A and 0
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"dim": 2, "tolerance": {"eq_tol": eq_tol}, "generators": [
        {"name": "A", "matrix": [[0, 1], [0, 0]]}]}))
    assert main([command, str(path), "--format", "json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    if command == "closure":
        assert report["words"] == ["I", "A", "A.A"]
    else:
        assert report["base_closure"] == {"status": "closed", "element_count": 3}


@pytest.mark.parametrize("flag,file_tol,want", [
    (None, None, 1e-8), (None, 1e-2, 1e-2), (1e-3, 1e-2, 1e-3)])
def test_check_takes_the_tolerance_of_the_analysis_commands(tmp_path, flag, file_tol, want):
    # flag > file > default; G = [[1.001]] is a partial isometry at 1e-2,
    # not at 1e-3 or at the default
    doc = {"dim": 1, "generators": [{"name": "G", "matrix": [[1.001]]}]}
    if file_tol is not None:
        doc["tolerance"] = file_tol
    path = tmp_path / "tol.json"
    path.write_text(json.dumps(doc))
    tolerance = None if flag is None else ToleranceConfig(flag, flag, flag)
    code, report = run(AnalysisRequest("check", str(path), tolerance=tolerance))
    assert code == EXIT_OK
    assert report["all_valid"] == (want == 1e-2)
    assert load_generator_check(str(path), tolerance)[1] == ToleranceConfig(*[want] * 3)


def test_well_typed_fields_are_accepted(tmp_path):
    # an integer is a JSON number: proj_tol = 1 fails the range check, not the type check
    path = tmp_path / "typed.json"
    path.write_text(json.dumps({"dim": 2, "generators": [],
                                "limits": {"max_elements": 7, "max_word_length": 3},
                                "tolerance": {"eq_tol": 1e-6, "proj_tol": 1}}))
    with pytest.raises(SchemaError, match=r"proj_tol must lie in \(0, 1e-2\], got 1\.0"):
        load_generator_problem(str(path))
    path.write_text(json.dumps({"dim": 2, "generators": [],
                                "limits": {"max_elements": 7, "max_word_length": 3},
                                "tolerance": {"eq_tol": 1e-6}}))
    problem = load_generator_problem(str(path))
    assert (problem.limits.max_elements, problem.limits.max_word_length) == (7, 3)
    assert (problem.tolerance.eq_tol, problem.tolerance.proj_tol) == (1e-6, 1e-8)


def unit(*v) -> np.ndarray:
    return np.array(v, dtype=float) / np.linalg.norm(v)


def two_generators(shape: str, d: float) -> dict:
    """A generator file of two partial isometries A, B that come within d
    of commuting final projections:
    100      A = diag(1,0,0), B onto (1,d,0);
    110      A = diag(1,1,0), B onto (1,0,d);
    offdiag  A = e1 e3*, B = v e4* with v = (1,d,0,0)/||.||: Q does not
             commute, yet every product of A and B is 0;
    tilted   A = diag(1,1,0,0), B onto the span of (cos d, 0, sin d, 0)
             and (0, cos d, 0, sin d)."""
    e = np.eye(4)
    a, b = {
        "100": (np.diag([1.0, 0.0, 0.0]), np.outer(unit(1.0, d, 0.0), unit(1.0, d, 0.0))),
        "110": (np.diag([1.0, 1.0, 0.0]), np.outer(unit(1.0, 0.0, d), unit(1.0, 0.0, d))),
        "offdiag": (np.outer(e[0], e[2]), np.outer(unit(1.0, d, 0.0, 0.0), e[3])),
        "tilted": (np.diag([1.0, 1.0, 0.0, 0.0]),
                   sum(np.outer(u, u) for u in ([np.cos(d), 0.0, np.sin(d), 0.0],
                                                [0.0, np.cos(d), 0.0, np.sin(d)]))),
    }[shape]
    return {"dim": len(a), "generators": [{"name": "A", "matrix": a.tolist()},
                                          {"name": "B", "matrix": b.tolist()}]}


def run_json(tmp_path, capsys, command: str, document: dict) -> dict:
    path = tmp_path / "in.json"
    path.write_text(json.dumps(document))
    assert main([command, str(path), "--format", "json"]) == EXIT_OK
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("eps,kind", [(1e-9, "IllConditionedSplit"),
                                       (2e-9, "IllConditionedSplit"),
                                       (5e-9, "IllConditionedSplit")])
@pytest.mark.parametrize("command", ["report", "atoms", "multiplicity", "decompose"])
def test_atoms_failure_is_a_result(tmp_path, capsys, eps, kind, command):
    # proj_tol = eps and the 100 shape at d = sqrt(eps / 2): B compresses the
    # range of A to lambda = 1 / (1 + d^2), so every product of A and B is a
    # partial isometry within proj_tol, yet lambda(1 - lambda) = eps / 2 lies
    # inside the band of the split, which is too close to call
    document = two_generators("100", np.sqrt(eps / 2))
    document["tolerance"] = {"proj_tol": eps}
    report = run_json(tmp_path, capsys, command, document)
    assert report["q_commuting"] is True
    assert report["atoms_error"]["kind"] == kind
    assert (f"lambda(1 - lambda) = {eps / 2:.3e}, within a factor 10 of proj_tol {eps:.3e}"
            in report["atoms_error"]["message"])
    assert report.get("atoms") is None


@pytest.mark.parametrize("command", ["report", "atoms", "multiplicity", "decompose"])
def test_noncommuting_final_projections_are_a_result(tmp_path, capsys, command):
    # the offdiag shape at d = 1e-2: the final projections e1 e1* and v v*
    # do not commute (lambda(1 - lambda) = 1.0e-4), which q_commuting says
    # alone: the atoms are null and carry no error
    report = run_json(tmp_path, capsys, command, two_generators("offdiag", 1e-2))
    assert report["q_commuting"] is False
    assert "atoms_error" not in report
    assert report.get("atoms", report.get("operators")) is None


@pytest.mark.parametrize("diag,direction", [((1.0, 0.0, 0.0), (1.0, 1e-7, 0.0)),
                                            ((1.0, 1.0, 0.0), (1.0, 0.0, 1e-8))])
def test_extendable_report_does_not_contradict_itself(tmp_path, capsys, diag, direction):
    # A = diag(...) and B the projection onto direction/||.||: an Extendable
    # certificate needs a commuting Q family whose atoms split
    v = unit(*direction)
    report = run_json(tmp_path, capsys, "report", {"dim": 3, "generators": [
        {"name": "A", "matrix": np.diag(diag).tolist()},
        {"name": "B", "matrix": np.outer(v, v).tolist()}]})
    if report["certificate"]["verdict"] == "Extendable":
        assert report["q_commuting"] is not False
        assert (report.get("atoms_error") or {}).get("kind") != "NonCommuting"


@pytest.mark.parametrize("shape", ["100", "110", "offdiag", "tilted"])
def test_no_report_contradicts_itself_across_the_thresholds(tmp_path, capsys, shape):
    # d sweeps every tolerance scale the report decides by: the closure's
    # partial-isometry defect (about d^2), the split's lambda(1 - lambda)
    # (about d^2) and its band, and the equality scale (about d)
    for d in np.logspace(-10, -2, 33):
        report = run_json(tmp_path, capsys, "report", two_generators(shape, float(d)))
        if report["certificate"]["verdict"] == "Extendable":
            assert report["q_commuting"] is not False, d
            assert "atoms_error" not in report, d
        elif "atoms_error" in report and report["status"] == "closed":
            assert report["certificate"]["reason"] == report["atoms_error"], d


def test_library_errors_exit_internal(fixtures_dir, monkeypatch, capsys):
    from pisomlab import cli
    from pisomlab.sgroup import NonCommutingQ

    def fail(_session):
        raise NonCommutingQ("final projections do not commute")

    monkeypatch.setitem(cli.HANDLERS, "closure", fail)
    assert main(["closure", str(fixtures_dir / "identity-only.json")]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err == "error: NonCommutingQ: final projections do not commute\n"


def test_main_text_format(fixtures_dir, capsys):
    assert main(["multiplicity", str(fixtures_dir / "pauli-tensor-units.json")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "multiplicity: 2" in out


def test_verdict_stable_under_reordering_and_conjugation(fixtures_dir):
    import sys
    sys.path.insert(0, str(fixtures_dir.parent / "tests"))
    from factories import random_unitary

    path = str(fixtures_dir / "matrix-units-2.json")
    problem = load_generator_problem(path)
    baseline = _verdict_and_ranks(problem.gens)
    rng = np.random.default_rng(42)
    named = list(problem.gens.named_generators)
    for trial in range(3):
        shuffled = [named[i] for i in rng.permutation(len(named))]
        w = random_unitary(rng, problem.gens.dim)
        conjugated = [(n, w @ m @ w.conj().T) for n, m in shuffled]
        from pisomlab.sgroup import generator_set
        gens = generator_set(conjugated, dim=problem.gens.dim)
        assert _verdict_and_ranks(gens) == baseline


def _verdict_and_ranks(gens):
    from pisomlab.projlat import boolean_atoms
    from pisomlab.sgroup import close, family_projections, selfadjoint_closure

    ext = selfadjoint_closure(gens)
    verdict = {"closed": "Extendable", "failure": "NotExtendable",
               "truncated": "Inconclusive"}[ext.status]
    base = close(gens)
    atoms = boolean_atoms(family_projections(base).q_set)
    return verdict, tuple(sorted(atoms.ranks))


@pytest.mark.parametrize("name", ["example-1-3.json", "matrix-units-3.json"])
def test_report_builds_no_element_objects(fixtures_dir, monkeypatch, name):
    sessions = []

    class Recorded(cli.Session):
        def __init__(self, *args):
            super().__init__(*args)
            sessions.append(self)

    monkeypatch.setattr(cli, "Session", Recorded)
    run(AnalysisRequest("report", str(fixtures_dir / name)))
    (session,) = sessions
    assert "elements" not in vars(session.base)
    assert "elements" not in vars(session.extended)
