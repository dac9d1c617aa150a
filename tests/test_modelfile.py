from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dglcalc import ParseError
from dglcalc.constructions import product_model
from dglcalc.modelfile import Workspace, _position, _tokenize, parse_workspace, print_workspace

from . import oracles
from .helpers import random_model

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

F = Fraction


def read(name):
    return (FIXTURES / name).read_text()


def test_parse_pinch_fixture():
    ws = parse_workspace(read("cp2_to_s4.dgl"), truncation=10)
    assert set(ws.models) == {"CP2", "S4"}
    assert set(ws.maps) == {"f"}
    cp2 = ws.model("CP2")
    alg = cp2.algebra
    assert cp2.diff_of("x3") == alg.gen("x1").bracket(alg.gen("x1"))
    f = ws.map("f")
    assert f.values["x1"].is_zero()
    assert f.values["x3"] == ws.model("S4").algebra.gen("u3")


def test_parse_empty_file_gives_empty_workspace():
    ws = parse_workspace("", truncation=8)
    assert not ws.models and not ws.maps and not ws.smaps


def test_degree_inconsistent_differential_rejected():
    text = """
    model M {
      gen x1 : deg 1;
      gen x3 : deg 3;
      d x3 = [x1, x3];
    }
    """
    with pytest.raises(ParseError) as err:
        parse_workspace(text, truncation=8)
    assert "x3" in str(err.value)


def test_unknown_generator_in_element():
    text = "model M { gen x : deg 2; d x = nope; }"
    with pytest.raises(ParseError) as err:
        parse_workspace(text, truncation=8)
    assert "nope" in str(err.value)


def test_duplicate_names_rejected():
    with pytest.raises(ParseError):
        parse_workspace("model M { gen x : deg 2; gen x : deg 3; }", truncation=8)
    with pytest.raises(ParseError):
        parse_workspace("model M { gen x : deg 2; } model M { gen y : deg 2; }", truncation=8)


def test_missing_map_value_is_an_error():
    text = """
    model A { gen x : deg 2; gen y : deg 3; }
    model B { gen z : deg 2; }
    map f : A -> B { x -> z; }
    """
    with pytest.raises(ParseError) as err:
        parse_workspace(text, truncation=8)
    assert "y" in str(err.value)


def test_map_that_breaks_chain_condition_is_a_validation_error():
    from dglcalc import ValidationError

    text = """
    model Y { gen w : deg 2; gen y : deg 3; d y = w; }
    map bad : Y -> Y { w -> 0; y -> y; }
    """
    with pytest.raises(ValidationError):
        parse_workspace(text, truncation=8)


def test_rational_coefficients_and_signs():
    text = """
    model M {
      gen w : deg 2;
      gen y : deg 3;
      d y = w;
    }
    smap s : M -> M {
      w -> -1/2y + 0 + 2y;
      y -> -[w,w];
    }
    """
    ws = parse_workspace(text, truncation=8)
    s = ws.smap("s")
    alg = ws.model("M").algebra
    w, y = alg.gen("w"), alg.gen("y")
    assert s.values["w"] == F(3, 2) * y
    assert s.values["y"] == -1 * w.bracket(w)


def test_integral_coefficients_parse_as_ints():
    text = "model M { gen x : deg 1; gen z : deg 3; gen y : deg 5; d z = -6/4[x,x] + 1/4[x,x];" \
        " d y = 4/2[x,z] - 3[x,z] + 0; }"
    model = parse_workspace(text, truncation=8).model("M")
    assert [(type(c), c) for c in model.diff["y"].terms.values()] == [(int, -1)]
    assert [(type(c), c) for c in model.diff["z"].terms.values()] == [(F, F(-5, 4))]


ZERO_TERM = "model M {{\n  gen x : deg 1;\n  gen y : deg 3;\n  d y = {};\n}}"


def test_zero_coefficient_before_a_monomial_drops_the_term():
    ws = parse_workspace(ZERO_TERM.format("0[x, x]"), truncation=8)
    assert ws.model("M").diff == {}
    model = parse_workspace(ZERO_TERM.format("0/5[x, x] + [x, x] - 0x"), truncation=8).model("M")
    x = model.algebra.gen("x")
    assert model.diff["y"] == x.bracket(x)
    assert model.validate().ok


@pytest.mark.parametrize("element, column, message", [
    ("0[x, q]", 14, "unknown generator 'q'"),
    ("[x, x] + 0/2 q", 22, "unknown generator 'q'"),
    ("0[x, x", 15, "expected ']', found ';'"),
])
def test_zero_term_monomial_is_still_checked(element, column, message):
    with pytest.raises(ParseError) as err:
        parse_workspace(ZERO_TERM.format(element), truncation=8)
    assert (err.value.line, err.value.column) == (4, column)
    assert message in str(err.value)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_workspace("model M {\n gen x deg 2;\n}", truncation=8)
    assert err.value.line == 2


# token text, separators, comments (one may end the input) and characters
# that start no token
PIECES = ["model", "gen", "d", "x", "y'1", "a_b^2", "0", "12", "->", "-", ">", "{", "}",
          "[", "]", ":", ";", ",", "+", "/", "=", " ", "  ", "\t", "\n", "\r\n", "\r",
          "# note\n", "#", "# tail", "@", "\u00e9", "!"]


def _scan(scanner, text):
    try:
        return scanner(text)
    except ParseError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=40))
def test_positions_from_offsets_match_the_per_token_scanner(pieces):
    text = "".join(pieces)
    got = _scan(lambda t: [(kind, tok, *_position(t, offset)) for kind, tok, offset in _tokenize(t)], text)
    assert got == _scan(oracles.tokenize, text), repr(text)


def test_parse_error_position_counts_lines_and_columns():
    text = "# header\r\nmodel M {\n\tgen x : deg 2;\n  gen y deg 3;\n}"
    with pytest.raises(ParseError) as err:
        parse_workspace(text, truncation=8)
    assert (err.value.line, err.value.column) == (4, 9)
    assert str(err.value) == "4:9: expected ':', found 'deg'"
    with pytest.raises(ParseError) as err:
        parse_workspace("model M {\n gen x : deg 2;\n", truncation=8)
    assert str(err.value) == "3:1: expected 'gen' or 'd', found 'end of input'"


def test_all_fixtures_parse_and_validate():
    for path in sorted(FIXTURES.glob("*.dgl")):
        ws = parse_workspace(path.read_text(), truncation=12)
        for model in ws.models.values():
            assert model.validate().d_squared_ok, path.name


def _assert_round_trip(ws):
    text = print_workspace(ws)
    ws2 = parse_workspace(text, truncation=ws.truncation)
    assert ws == ws2, text
    # printing is idempotent byte for byte
    assert print_workspace(ws2) == text


def test_round_trip_is_identity():
    for name in ("cp2_to_s4.dgl", "s3_into_s3xs3.dgl", "homotopy_demo.dgl"):
        _assert_round_trip(parse_workspace(read(name), truncation=10))


def test_round_trip_with_long_words():
    # a basis word prints as its standard bracketing, e.g. the word aab as
    # [a,[a,b]], and must parse back to the same element
    ws = parse_workspace(read("cp2_to_s4.dgl"), truncation=9)
    emitted = Workspace(truncation=9)
    emitted.models["CP2_product"] = product_model(ws.model("CP2"), [2]).model
    _assert_round_trip(emitted)
    long_draws = 0
    for seed in range(300):
        # at most three generators, named a, b, c ("d" is reserved)
        model = random_model(seed, max_gens=3, truncation=9, max_degree=7,
                             degree_one_budget=2, minimal=False)
        if max((len(w) for v in model.diff.values() for w in v.terms), default=0) < 3:
            continue
        long_draws += 1
        _assert_round_trip(Workspace(truncation=9, models={"M": model}))
    assert long_draws >= 5
