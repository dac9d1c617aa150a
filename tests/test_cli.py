import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dglcalc import cli
from dglcalc.cli import main
from dglcalc.complexes import DglComplex
from dglcalc.errors import InternalError
from dglcalc.model import DglModel
from dglcalc.modelfile import parse_workspace

from . import oracles

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(argv, capsys):
    code, out, err = run(argv + ["--format", "json"], capsys)
    return code, (json.loads(out) if out else None), err


def fixture(name):
    return str(FIXTURES / name)


def test_validate_all_fixtures_green(capsys):
    for path in sorted(FIXTURES.glob("*.dgl")):
        code, out, err = run(["validate", str(path)], capsys)
        assert code == 0, (path.name, err)


def test_evsub_pinch_degree_4(capsys):
    code, out, err = run_json(
        ["evsub", fixture("cp2_to_s4.dgl"), "f", "--top-degree", "4", "--max-degree", "10"],
        capsys,
    )
    assert code == 0
    entry = out["degrees"][0]
    assert entry["topological"] == 4 and entry["internal"] == 3
    assert entry["dimension"] == 0


def test_gvp_pinch_degree_4(capsys):
    code, out, err = run_json(
        ["gvp", fixture("cp2_to_s4.dgl"), "f", "--top-degree", "4", "--max-degree", "10"],
        capsys,
    )
    assert code == 0
    entry = out["degrees"][0]
    assert entry["quotient_dim"] == 1
    assert entry["center_dim"] == 1 and entry["evaluation_dim"] == 0


def test_center_pinch_degree_4(capsys):
    code, out, err = run_json(
        ["center", fixture("cp2_to_s4.dgl"), "f", "--top-degree", "4", "--max-degree", "10"],
        capsys,
    )
    assert code == 0
    entry = out["degrees"][0]
    assert entry["dimension"] == 1
    assert entry["representatives"] == ["u3"]


def test_homology_command(capsys):
    code, out, err = run_json(
        ["homology", fixture("cp2_to_s4.dgl"), "CP2", "--degrees", "2:5", "--max-degree", "10"],
        capsys,
    )
    assert code == 0
    dims = {e["internal"]: e["dimension"] for e in out["degrees"]}
    assert dims == {1: 1, 2: 0, 3: 0, 4: 1}


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.dgl")), ids=lambda p: p.name)
def test_homology_entries_match_the_two_elimination_oracle(path, capsys):
    # every field of every entry, against fresh eliminations of Z_n and B_n;
    # internal degree 10 has no C_11, so its entry is untrusted
    ws = parse_workspace(path.read_text(), truncation=10)
    for name, model in ws.models.items():
        argv = ["homology", str(path), name, "--max-degree", "10", "--degrees", "2:11"]
        code, out, err = run_json(argv, capsys)
        assert code == 0, err
        assert [e["internal"] for e in out["degrees"]] == list(range(1, 11))
        assert [e["trusted"] for e in out["degrees"]] == [True] * 9 + [False]
        cx = DglComplex(model)
        for entry in out["degrees"]:
            n = entry["internal"]
            cycles, boundaries, reps, trusted = oracles.two_elimination_homology(cx, n)
            assert entry["dimension"] == len(reps), (name, n)
            assert entry["cycle_dim"] == len(cycles), (name, n)
            assert entry["boundary_dim"] == len(boundaries), (name, n)
            assert entry["trusted"] is trusted, (name, n)
            assert entry["low_degree_caveat"] is (n <= 2), (name, n)
            assert entry["representatives"] == [str(cx.from_vector(n, r)) for r in reps], (name, n)


def test_gottlieb_command_spheres(capsys):
    code, out, err = run_json(
        ["gottlieb", fixture("spheres.dgl"), "S2", "--degrees", "2:4"], capsys
    )
    assert code == 0
    dims = {e["topological"]: e["dimension"] for e in out["degrees"]}
    assert dims == {2: 0, 3: 1, 4: 0}


def test_omega_one_cell(capsys):
    code, out, err = run_json(
        ["omega", fixture("one_cell_attachment.dgl"), "i", "--top-degree", "3"], capsys
    )
    assert code == 0
    assert out["degrees"][0]["omega_dim"] == 1


def test_les_command(capsys):
    code, out, err = run_json(
        ["les", fixture("s3_into_s3xs3.dgl"), "j", "--degrees", "3:5"], capsys
    )
    assert code == 0
    assert out["all_exact"] is True


def test_grel_identity_like(capsys):
    code, out, err = run_json(
        ["grel", fixture("contractible_pair.dgl"), "i", "--top-degree", "4", "--max-degree", "9"],
        capsys,
    )
    assert code == 0
    assert out["degrees"][0]["dimension"] >= 1


def test_product_command_emits_parseable_model(capsys):
    code, out, err = run_json(
        ["product", fixture("spheres.dgl"), "S3", "--spheres", "2", "--emit"], capsys
    )
    assert code == 0
    assert out["result"]["d_squared_ok"] and out["result"]["minimal"]
    ws = parse_workspace(out["model_text"], truncation=12)
    assert len(ws.models) == 1


def test_cylinder_command(capsys):
    code, out, err = run_json(
        ["cylinder", fixture("spheres.dgl"), "S3", "--max-degree", "8"], capsys
    )
    assert code == 0
    assert out["result"]["far_end_chain_map"] is True
    assert out["result"]["cycle_generators_shift"] is True


def test_verify_homotopy_command(capsys):
    code, out, err = run_json(
        [
            "verify-homotopy",
            fixture("homotopy_demo.dgl"),
            "--start",
            "start",
            "--end",
            "end",
            "--svalues",
            "h",
            "--max-degree",
            "8",
        ],
        capsys,
    )
    assert code == 0
    assert out["holds"] is True


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.dgl"
    bad.write_text("model M { gen x deg 2; }")
    code, out, err = run(["validate", str(bad)], capsys)
    assert code == 2
    assert "parse error" in err


_M = "model M { gen a : deg 2; gen c : deg 3; gen b : deg 4; "


@pytest.mark.parametrize(
    "text, where, message",
    [
        (_M + "d c = [a,q]; }", "1:65", "unknown generator 'q'"),
        ("model M { gen a : deg 2; } map f : M -> M { a -> q; }", "1:50", "unknown generator 'q'"),
        (_M + "d z = c; }", "1:58", "unknown generator 'z'"),
        ("model M { gen a : deg 7; gen b : deg 12; d b = [a,a]; }", "1:44",
         "bracket of degrees 7 and 7 exceeds truncation 12"),
        (_M + "d b = c + a; }", "1:58", "element is not homogeneous"),
        (_M + "d b = 1/0 c; }", "1:62", "zero denominator"),
        (_M + "d b = 2 ; }", "1:64", "a coefficient must be followed by a monomial"),
        (_M + "d b = ; }", "1:62", "expected a monomial, found ';'"),
        (_M + "d b = a; }", "1:58", "d b must have degree 3, got degree 2"),
        (_M + "d b = c; d b = c; }", "1:67", "duplicate differential for 'b'"),
        (_M + "d b = 0; d b = c; }", "1:67", "duplicate differential for 'b'"),
        ("model M { gen a : deg 1; gen b : deg 2; d b = " + "[" * 13 + "a" + ",a]" * 13 + "; }",
         "1:59", "brackets nested deeper than the truncation degree 12"),
    ],
    ids=[
        "unknown-in-d", "unknown-in-map", "undeclared-d", "bracket-past-n", "not-homogeneous",
        "zero-denominator", "coefficient-alone", "missing-monomial", "wrong-degree",
        "duplicate-d", "duplicate-d-after-zero", "too-deep",
    ],
)
def test_element_error_is_one_positioned_line(tmp_path, text, where, message, capsys):
    path = tmp_path / "bad.dgl"
    path.write_text(text)
    code, out, err = run(["validate", str(path)], capsys)
    assert (code, out, err) == (2, "", f"parse error: {where}: {message}\n")


def test_generator_after_a_differential_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "late.dgl"
    path.write_text("model M { gen a : deg 2; d a = 0; gen b : deg 3; }")
    code, out, err = run(["validate", str(path)], capsys)
    assert code == 2 and out == ""
    assert err == "parse error: 1:35: 'gen' after a 'd' line; declare every generator first\n"


def test_non_utf8_file_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "latin1.dgl"
    bad.write_bytes("model M { gen x : deg 2; } # caf\xe9".encode("latin-1"))
    code, out, err = run(["validate", str(bad)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("parse error:") and err.count("\n") == 1
    assert "not UTF-8" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "make, reason",
    [
        (lambda p: None, "No such file or directory"),
        (lambda p: p.mkdir(), "Is a directory"),
    ],
    ids=["missing", "directory"],
)
def test_unreadable_model_file_is_a_precondition_error(tmp_path, make, reason, capsys):
    path = tmp_path / "model.dgl"
    make(path)
    code, out, err = run(["validate", str(path)], capsys)
    assert code == 3 and out == ""
    assert err == f"precondition error: cannot read {path}: {reason}\n"


def test_deep_bracket_nesting_is_a_parse_error(tmp_path, capsys):
    # nesting beyond the truncation is refused before the parser recurses
    deep = "x1"
    for _ in range(400):
        deep = f"[{deep},x1]"
    path = tmp_path / "deep.dgl"
    path.write_text(f"model M {{ gen x1 : deg 1; gen y : deg 2; d y = {deep}; }}")
    code, out, err = run(["validate", str(path)], capsys)
    assert code == 2
    assert "nested deeper than the truncation degree 12" in err
    # a truncation high enough to admit the nesting can still exhaust the stack
    for n in ("300", "330", "500"):
        code, out, err = run(["validate", str(path), "--max-degree", n], capsys)
        assert code == 2 and out == ""
        assert err.startswith("parse error:") and "Traceback" not in err


def test_validation_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad_map.dgl"
    bad.write_text(
        "model Y { gen w : deg 2; gen y : deg 3; d y = w; }\n"
        "map b : Y -> Y { w -> 0; y -> y; }\n"
    )
    code, out, err = run(["validate", str(bad)], capsys)
    assert code == 1
    assert "validation error" in err


def test_broken_differential_reported_by_validate(tmp_path, capsys):
    broken = tmp_path / "broken.dgl"
    broken.write_text(
        "model M { gen a : deg 2; gen b : deg 3; gen c : deg 4; d b = a; d c = b; }"
    )
    code, out, err = run(["validate", str(broken)], capsys)
    assert code == 1
    assert "FAILED" in out
    # d^2 is checked on generators, and the problem names the generator
    assert "! d(d(c)) = a in degree 2" in out
    # any computing command refuses to run on an invalid model
    code, out, err = run(["homology", str(broken), "M"], capsys)
    assert code == 1
    assert "validation error" in err


def test_gottlieb_default_window_is_the_computable_window(capsys):
    # Der(L,L;1) of CP2 = L(x1, x3) reaches internal degree 12 - 3 = 9 at N = 12
    code, out, err = run_json(["gottlieb", fixture("cp2_to_s4.dgl"), "CP2"], capsys)
    assert code == 0, err
    entries = {e["topological"]: e for e in out["degrees"]}
    assert sorted(entries) == list(range(2, 11))
    assert entries[10]["trusted"] is False
    assert entries[5]["dimension"] == 1


def test_precondition_exit_code(capsys):
    # a top degree whose homology window is beyond the truncation
    code, out, err = run(
        ["evsub", fixture("cp2_to_s4.dgl"), "f", "--top-degree", "11", "--max-degree", "6"],
        capsys,
    )
    assert code == 3
    assert "precondition" in err


@pytest.mark.parametrize(
    "command, name, subgroup",
    [
        ("evsub", "f", "evaluation"),
        ("gottlieb", "S4", "gottlieb"),
        ("grel", "f", "relative"),
        ("gseq", "f", "gottlieb"),
    ],
)
def test_subgroup_outside_the_window_names_the_subgroup(command, name, subgroup, capsys):
    argv = [command, fixture("cp2_to_s4.dgl"), name, "--top-degree", "40"]
    code, out, err = run(argv, capsys)
    assert code == 3 and out == ""
    assert err == (
        f"precondition error: {subgroup} subgroup at internal degree 39 "
        "is outside the computable window\n"
    )


# dimensions of H(V), H(W), H(Rel) in the adjoint cone's LES below degree 1
_LOW_LES = {1: [0, 1, 1], 0: [0, 0, 0], -1: [0, 0, 0]}


@pytest.mark.parametrize("command", ["evsub", "gottlieb", "grel", "gseq", "les"])
@pytest.mark.parametrize("top", [1, 0, -1])
def test_degrees_below_two_report_zero_subgroups(command, top, capsys):
    name = "S4" if command == "gottlieb" else "f"
    argv = [command, fixture("cp2_to_s4.dgl"), name, "--top-degree", str(top)]
    code, out, err = run_json(argv, capsys)
    assert code == 0 and err == ""
    entries = out["degrees"]
    assert all(e["topological"] == top and e["internal"] == top - 1 for e in entries)
    assert all(e["trusted"] is True and e["representatives"] == [] for e in entries)
    if command == "les":
        assert [e["position"] for e in entries] == ["V", "W", "Rel"]
        assert [e["dimension"] for e in entries] == _LOW_LES[top]
        assert out["all_exact"] is True
        return
    (entry,) = entries
    assert entry["dimension"] == 0 and entry["low_degree_caveat"] is True
    if command == "gseq":
        dims = ("gottlieb_dim", "evaluation_dim", "relative_dim", "omega_dim")
        assert [entry[k] for k in dims] == [0, 0, 0, 0] and entry["composites_zero"]
    else:
        assert entry["ambient_dim"] == 0


@pytest.mark.parametrize("command", ["validate", "homology"])
def test_truncation_below_one_is_a_precondition_error(command, tmp_path, capsys):
    # a model without generators gets past the parser, so its algebra is
    # what refuses the truncation
    path = tmp_path / "empty.dgl"
    path.write_text("model E { }\n")
    for n in ("0", "-3"):
        code, out, err = run([command, str(path), "E", "--max-degree", n], capsys)
        assert code == 3 and out == ""
        assert err.startswith("precondition error:") and err.count("\n") == 1


def test_truncation_below_one_names_the_flag_not_the_model(capsys):
    # a model with generators used to be blamed for exceeding truncation 0
    for n in ("0", "-2"):
        code, out, err = run(["homology", fixture("spheres.dgl"), "S2", "--max-degree", n], capsys)
        assert (code, out) == (3, "")
        assert err == f"precondition error: --max-degree must be at least 1, got {n}\n"


def test_reversed_degree_range_is_a_precondition_error(capsys):
    code, out, err = run(["homology", fixture("spheres.dgl"), "S2", "--degrees", "5:2"], capsys)
    assert code == 3
    assert "precondition" in err and out == ""


def test_top_degree_and_degree_range_exclude_each_other(capsys):
    argv = ["homology", fixture("spheres.dgl"), "S2", "--top-degree", "3", "--degrees", "2:5"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert "argument --degrees: not allowed with argument --top-degree" in out.err


@pytest.mark.parametrize(
    "option, value, command",
    [
        ("--degrees", "2", "homology"),
        ("--degrees", "a:b", "homology"),
        ("--degrees", "2:3:4", "evsub"),
        ("--degrees", "", "gseq"),
        ("--spheres", "2,,3", "product"),
        ("--spheres", "x", "product"),
        ("--spheres", "2.5", "product"),
    ],
)
def test_malformed_degree_range_or_sphere_list_is_a_usage_error(option, value, command, capsys):
    name = "S4" if command in ("homology", "product") else "f"
    with pytest.raises(SystemExit) as exc:
        main([command, fixture("cp2_to_s4.dgl"), name, option, value])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert f"argument {option}: malformed value {value!r}; expected" in out.err


def test_sphere_dimension_below_two_is_a_precondition_error_and_spheres_echo_as_given(capsys):
    code, out, err = run(["product", fixture("cp2_to_s4.dgl"), "S4", "--spheres", "2,1"], capsys)
    assert code == 3 and out == ""
    assert err == "precondition error: sphere dimensions must be at least 2\n"
    code, out, err = run_json(["product", fixture("cp2_to_s4.dgl"), "S4", "--spheres", "02, 3",
                               "--max-degree", "6"], capsys)
    assert code == 0 and out["inputs"]["spheres"] == "02, 3"
    degrees = {g["name"]: g["degree"] for g in out["result"]["generators"]}
    assert (degrees["v1"], degrees["v2"]) == (1, 2)


@pytest.mark.parametrize(
    "exc", [InternalError("basis is inconsistent"), RecursionError("maximum recursion depth exceeded")]
)
def test_unexpected_errors_exit_4_without_traceback(exc, monkeypatch, capsys):
    def fail(*args):
        raise exc

    monkeypatch.setitem(cli.COMMANDS, "homology", fail)
    code, out, err = run(["homology", fixture("spheres.dgl"), "S2"], capsys)
    assert code == 4 and out == ""
    assert err.startswith("internal error:") and err.count("\n") == 1
    assert "Traceback" not in err and str(exc) in err
    # the up-front validation of every model is covered too
    monkeypatch.setattr(DglModel, "validate", fail)
    code, out, err = run(["gottlieb", fixture("spheres.dgl"), "S2"], capsys)
    assert code == 4 and out == "" and err.startswith("internal error:")


def test_untrusted_degrees_flagged_not_silent(capsys):
    code, out, err = run_json(
        ["homology", fixture("spheres.dgl"), "S3", "--degrees", "8:9", "--max-degree", "8"],
        capsys,
    )
    assert code == 0
    flagged = {e["internal"]: e["trusted"] for e in out["degrees"]}
    assert flagged[7] is True and flagged[8] is False


def test_internal_degrees_flag(capsys):
    code, out, err = run_json(
        [
            "homology",
            fixture("cp2_to_s4.dgl"),
            "CP2",
            "--degrees",
            "4:4",
            "--internal-degrees",
            "--max-degree",
            "10",
        ],
        capsys,
    )
    assert code == 0
    entry = out["degrees"][0]
    assert entry["internal"] == 4 and entry["topological"] is None
    assert entry["dimension"] == 1


def test_reports_are_byte_identical(capsys):
    args = ["gseq", fixture("s3_into_s3xs3.dgl"), "j", "--degrees", "2:5", "--format", "json"]
    code1, out1, _ = run(args, capsys)
    code2, out2, _ = run(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def _run_all(calls, capsys, fresh_parser):
    results = []
    for argv in calls:
        if fresh_parser:
            cli.build_parser.cache_clear()
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        out = capsys.readouterr()
        results.append((code, out.out, out.err))
    return results


def test_shared_parser_matches_a_fresh_parser_per_call(capsys):
    calls = [
        ["gseq", fixture("one_cell_attachment.dgl"), "i", "--max-degree", "9",
         "--internal-degrees", "--format", "json"],
        ["homology", fixture("spheres.dgl"), "S2", "--max-degree", "8"],
        ["evsub", fixture("cp2_to_s4.dgl"), "f", "--top-degree", "4", "--max-degree", "10"],
        ["product", fixture("cp2_to_s4.dgl"), "S4", "--spheres", "2", "--emit"],
        ["validate", fixture("s3_into_s3xs3.dgl")],
        ["homology", fixture("spheres.dgl"), "S2", "--degrees", "5:2"],
        ["homology", fixture("spheres.dgl")],
        ["gseq", fixture("one_cell_attachment.dgl"), "i", "--max-degree", "9"],
    ]
    cli.build_parser.cache_clear()
    shared = _run_all(calls, capsys, fresh_parser=False)
    assert cli.build_parser.cache_info().misses == 1
    fresh = _run_all(calls, capsys, fresh_parser=True)
    assert [code for code, _, _ in shared] == [0, 0, 0, 0, 0, 3, 2, 0]
    assert shared == fresh


# -- fuzzing the model-file grammar ----------------------------------------------------

FUZZ_WORKSPACE = (FIXTURES / "cp2_to_s4.dgl").read_text()
FUZZ_TOKENS = (
    "model", "map", "smap", "gen", "deg", "upper", "d", "CP2", "S4", "f", "x1", "x3", "u3",
    "x'", "y^2", "0", "1", "2", "3", "12", "1/2", "-1/0", "{", "}", "[", "]", ":", ";", ",",
    "+", "-", "/", "=", "->", "#", "\n", "@",
)
FUZZ_CHARS = "{}[]:;,+-/=>#'^ \n\t0123456789xdu@("
FUZZ_COMMANDS = (["validate"], ["homology", "CP2"], ["evsub", "f"])


def _assert_documented_exit(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.dgl"
        path.write_text(text, encoding="utf-8")
        for command, *name in FUZZ_COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, str(path), *name, "--max-degree", "6"])
            assert code in (0, 1, 2, 3), (command, text, err.getvalue())


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(FUZZ_TOKENS), max_size=60))
def test_fuzz_token_soup_exits_with_a_documented_code(tokens):
    _assert_documented_exit(" ".join(tokens))


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(("delete", "insert", "replace")),
    st.integers(min_value=0, max_value=len(FUZZ_WORKSPACE) - 1),
    st.sampled_from(FUZZ_CHARS),
)
def test_fuzz_one_character_mutation_exits_with_a_documented_code(kind, pos, char):
    head, tail = FUZZ_WORKSPACE[:pos], FUZZ_WORKSPACE[pos:]
    if kind == "delete":
        text = head + tail[1:]
    elif kind == "insert":
        text = head + char + tail
    else:
        text = head + char + tail[1:]
    _assert_documented_exit(text)
