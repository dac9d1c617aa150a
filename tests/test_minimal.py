"""The minimal quotient r: K -> Km of a map's target, and the map commands
that compute on it: `gseq`, `omega` and `les` must report on r o psi exactly
what they report on psi, whatever contractible pairs K carries.  Every map
command, and `gottlieb` of the target, reports homotopy invariants: the same
dimensions and flags on any presentation of the target or of the source."""
import json

import pytest

from dglcalc import DglMorphism
from dglcalc.complexes import DglComplex, induced_matrix
from dglcalc import linalg
from dglcalc.model import minimal_quotient, on_minimal_target
from dglcalc.modelfile import parse_workspace

from .helpers import (
    FIXTURE_MAPS,
    FIXTURES,
    INVARIANT_COMMANDS,
    cmd_mix_map,
    cmd_mix_map_ids,
    fixture_map,
    invariant_differences,
    map_reports,
    random_validated_morphism,
    with_contractible_pairs,
    with_source_pairs,
)

# (seed, pairs, twist) of the presentations each base map is pushed through
VARIANTS = ((0, 1, False), (1, 2, True), (2, 1, True))
CASES = [f"{f}:{n}" for f, n in FIXTURE_MAPS] + [f"random-{seed}" for seed in range(12)]


def _base_map(case):
    if case.startswith("random-"):
        return random_validated_morphism(int(case.split("-")[1]), max_gens=3, truncation=8)
    return fixture_map(*case.split(":"), truncation=9)


def _targets(case):
    """The base map's target and those of its presentations with contractible pairs."""
    psi = _base_map(case)
    return [psi.target] + [with_contractible_pairs(s, psi, p, t).target for s, p, t in VARIANTS]


@pytest.mark.parametrize("case", CASES)
def test_the_quotient_is_a_minimal_quasi_isomorphism(case):
    for K in _targets(case):
        r = minimal_quotient(K)
        if r is None:
            assert K.validate().minimal
            continue
        Km = r.target
        report = Km.validate()
        assert report.minimal and report.d_squared_ok
        assert DglMorphism(K, Km, r.values) == r  # the constructor checks r d = d' r
        cK, cM = DglComplex(K), DglComplex(Km)
        for n in range(1, K.truncation):
            if not cK.trusted(n):
                continue
            dim = cK.homology(n).dim
            assert cM.homology(n).dim == dim
            assert linalg.rref(induced_matrix(cK, n, cM, n, r.apply)).rank == dim


def test_fixture_targets_reduce_to_their_minimal_models():
    r = minimal_quotient(fixture_map("one_cell_attachment.dgl", "i").target)
    assert [(g.name, g.degree) for g in r.target.generators] == [("b", 2), ("c", 5)]
    assert r.target.diff == {}
    assert {g: str(v) for g, v in r.values.items()} == {"a": "0", "b": "b", "c": "c", "y": "0"}
    r = minimal_quotient(fixture_map("contractible_pair.dgl", "i").target)
    assert r.target.generators == () and r.target.diff == {}


def test_minimal_targets_are_kept():
    maps = [fixture_map(f, n) for f, n in FIXTURE_MAPS if f not in
            ("one_cell_attachment.dgl", "contractible_pair.dgl")]
    for psi in maps + [cmd_mix_map(c) for c in cmd_mix_map_ids()]:
        assert minimal_quotient(psi.target) is None
        assert on_minimal_target(psi) is psi


def test_upper_degrees_are_kept():
    text = (FIXTURES / "one_cell_attachment.dgl").read_text()
    text = text.replace("deg 2;", "deg 2 upper 0;").replace("deg 5;", "deg 5 upper 1;")
    K = parse_workspace(text.replace("deg 3;", "deg 3 upper 1;"), truncation=9).model("Y")
    assert K.bigraded and K.validate().bigraded_ok
    Km = minimal_quotient(K).target
    assert [(g.name, g.upper) for g in Km.generators] == [("b", 0), ("c", 1)]
    assert Km.bigraded and Km.validate().bigraded_ok


def test_the_pivot_generator_is_swapped_for_the_whole_differential():
    # d y = a + b + [e, e] has its pivot at a, so r(a) = -b - [e, e], and
    # d'(c) = r([a, b]) = -[[e, e], b] = [b, [e, e]] = 2[[b, e], e]
    text = """model K {
      gen a : deg 2; gen b : deg 2; gen e : deg 1; gen y : deg 3; gen c : deg 5;
      d y = a + b + [e,e];
      d c = [a,b];
    }"""
    K = parse_workspace(text, truncation=8).model("K")
    r = minimal_quotient(K)
    assert [g.name for g in r.target.generators] == ["b", "e", "c"]
    assert str(r.values["a"]) == "-b - [e,e]"
    assert str(r.target.diff["c"]) == "2[[b,e],e]"
    assert r.target.validate().minimal


def test_a_pivot_is_never_killed():
    # p is the pivot of d u, so U_2 is drawn from x alone, though d p != 0
    text = """model K {
      gen q : deg 1; gen p : deg 2; gen x : deg 2; gen u : deg 3;
      d p = q; d x = -q; d u = p + x;
    }"""
    r = minimal_quotient(parse_workspace(text, truncation=6).model("K"))
    assert r.target.generators == ()
    assert all(v.is_zero() for v in r.values.values())


@pytest.mark.parametrize("case", CASES)
def test_map_commands_agree_with_the_unreduced_map(case):
    """Homotopy invariance: the reports on psi itself, on r o psi, and on psi
    pushed into presentations with contractible pairs, reduced or not, agree
    byte for byte, untrusted entries included."""
    psi = _base_map(case)
    want = map_reports(psi, reduced=False)
    assert map_reports(psi) == want
    for seed, pairs, twist in VARIANTS:
        moved = with_contractible_pairs(seed, psi, pairs, twist)
        assert not moved.target.validate().minimal
        assert map_reports(moved) == want
        assert map_reports(moved, reduced=False) == want


@pytest.mark.parametrize("case", CASES)
def test_every_map_report_is_an_invariant_of_the_target(case):
    """evsub, center, grel, gvp and gottlieb of the target, with gseq, omega
    and les, as the CLI computes them: the same on psi and on psi pushed into
    presentations of its target with one contractible pair and with two
    after a twist, apart from representatives.  `gottlieb` is compared on the
    degrees both report: a pair above K's top generator narrows its window."""
    psi = _base_map(case)
    want = map_reports(psi, INVARIANT_COMMANDS, reduced=False)
    for seed, pairs, twist in VARIANTS[:2]:
        got = map_reports(with_contractible_pairs(seed, psi, pairs, twist), INVARIANT_COMMANDS)
        assert invariant_differences(got, want, common=("gottlieb",)) == [], (seed, pairs, twist)


@pytest.mark.parametrize("case", CASES)
def test_every_map_report_is_an_invariant_of_the_source(case):
    """The same for psi o back, back: L' -> L from a presentation of the source
    with contractible pairs, a quasi-isomorphism, on the degrees both report:
    a pair above L's top generator narrows the derivations' window."""
    psi = _base_map(case)
    commands = INVARIANT_COMMANDS[:-1]
    want = map_reports(psi, commands, reduced=False)
    shared = set()
    for seed, pairs, twist in VARIANTS:
        got = map_reports(with_source_pairs(seed, psi, pairs, twist), commands)
        assert invariant_differences(got, want, common=commands) == [], (seed, pairs, twist)
        shared |= _internal_degrees(got["gseq"]) & _internal_degrees(want["gseq"])
    assert shared  # some presentation leaves degrees to compare


def _internal_degrees(text):
    return {entry["internal"] for entry in json.loads(text)["degrees"]}
