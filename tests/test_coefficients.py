"""Coefficient types on the fixture ops: int when integral, Fraction otherwise, never float.

Every report of every fixture morphism is walked, with the differential and
homology vectors of each complex its context builds.  A coefficient of a
`LieElement`, and an entry of a differential column or of a homology
representative row (rows of `linalg.rref`), must be an `int` when it is
integral.
"""
from fractions import Fraction

import pytest

from dglcalc import (
    DglModel, DglMorphism, EvaluationContext, GenDerivation, LieElement, cylinder, product_model,
)
from dglcalc.modelfile import parse_workspace

from .helpers import FIXTURE_MAPS, FIXTURES, exp_automorphism, fixture_map, homology_reps


def _check_number(c, where):
    assert type(c) in (int, Fraction), f"{where}: {type(c).__name__} coefficient {c!r}"


def _walk(obj, where, seen):
    """Checks every coefficient reachable from obj; returns the number of Lie terms."""
    if isinstance(obj, LieElement):
        for w, c in obj.terms.items():
            _check_number(c, where)
            assert type(c) is int or c.denominator != 1, f"{where}: integral {c!r} is not an int"
        return len(obj.terms)
    if isinstance(obj, (GenDerivation, DglMorphism)):
        return sum(_walk(v, where, seen) for v in obj.values.values())
    if isinstance(obj, DglModel):
        return sum(_walk(v, where, seen) for v in obj.diff.values())
    if isinstance(obj, dict):
        count = 0
        for k, v in obj.items():
            if isinstance(v, (int, float, Fraction)):
                _check_number(v, f"{where}[{k!r}]")
                assert type(v) is int or v.denominator != 1, f"{where}[{k!r}]: integral {v!r} is not an int"
            else:
                count += _walk(v, where, seen)
        return count
    if isinstance(obj, (list, tuple)):  # the namedtuple records among them
        return sum(_walk(x, where, seen) for x in obj)
    if isinstance(obj, (float, Fraction)):
        _check_number(obj, where)
        return 0
    slots = getattr(type(obj), "__slots__", ())
    if slots:  # the other records: Rref, LesReport, Workspace
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        return sum(_walk(getattr(obj, name), where, seen) for name in slots)
    return 0


def _complex_vectors(ctx, tops):
    """Differential columns and homology representative rows of every complex."""
    complexes = {
        "L": ctx.cL, "K": ctx.cK, "Der(L,L)": ctx.der_LL, "Der(L,K)": ctx.der_LK,
        "Rel": ctx.rel, "Rel*": ctx.rel_star, "Rel(ad)": ctx.rel_ad,
    }
    for name, cplx in complexes.items():
        for n in range(1, tops[-1] + 1):
            if not cplx.computable(n):
                continue
            yield f"{name} d_{n}", cplx.columns(n)
            rows = cplx.homology(n).rep_rows
            yield f"{name} H_{n} rows", rows
            yield f"{name} H_{n} objects", [cplx.from_vector(n, row) for row in rows]


@pytest.mark.parametrize("path,name", FIXTURE_MAPS, ids=[f"{p}-{n}" for p, n in FIXTURE_MAPS])
def test_fixture_coefficients_are_int_or_fraction(path, name):
    psi = fixture_map(path, name, truncation=9)
    ctx = EvaluationContext(psi)
    tops = ctx.computable_tops()
    assert tops
    reports = {
        "maps": [psi, psi.source, psi.target],
        "evsub": [ctx.evaluation_subgroup(t) for t in tops],
        "grel": [ctx.rel_evaluation_subgroup(t) for t in tops],
        "gvp": [ctx.g_vs_p(t) for t in tops],
        "gseq": ctx.g_sequence(tops),
        "les": ctx.les([t - 1 for t in tops]),
        "homology": [
            homology_reps(c, n) for c in (ctx.cL, ctx.cK, ctx.der_LK) for n in range(1, tops[-1])
        ],
    }
    lie_terms = 0
    for where, obj in list(reports.items()) + list(_complex_vectors(ctx, tops)):
        lie_terms += _walk(obj, where, set())
    assert lie_terms > 0


@pytest.mark.parametrize("path,name", [("cp2_to_s4.dgl", "CP2"), ("noncoformal.dgl", "NC")])
def test_construction_coefficients_are_int_or_fraction(path, name):
    # the cylinder's far end carries exp([D, sigma]), with coefficients 1/r!
    ws = parse_workspace((FIXTURES / path).read_text(), truncation=8)
    model = ws.models[name]
    cyl = cylinder(model)
    pm = product_model(model, [2])
    images = [exp_automorphism(cyl, cyl.model.algebra.gen(g.name)) for g in cyl.model.generators]
    assert _walk([cyl, pm, images], path, set()) > 0
