from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dglcalc import (
    DglModel,
    DglMorphism,
    EvaluationContext,
    FreeLieAlgebra,
    GenDerivation,
    adjoint,
    zero_morphism,
)
from dglcalc.complexes import ChainComplex, DglComplex
from dglcalc.derivations import DerComplex
from dglcalc import linalg

from . import oracles
from .conftest import make_contractible_pair, make_sphere_model
from .helpers import FIXTURE_MAPS, fixture_map, random_validated_morphism

F = Fraction


def _h_window(cplx, lo=1):
    n = lo
    out = []
    while cplx.complete(n + 1):
        out.append(n)
        n += 1
    return out


def test_cone_of_identity_is_acyclic():
    model = make_sphere_model(2, truncation=8)
    ident = DglMorphism.identity(model)
    rel = EvaluationContext(ident).rel
    for n in _h_window(rel, 1):
        assert rel.homology(n).dim == 0


def test_cone_of_zero_map_splits():
    src = make_sphere_model(1, truncation=6)
    dst = make_sphere_model(2, truncation=6)
    psi = zero_morphism(src, dst)
    rel = EvaluationContext(psi).rel
    cs, cd = DglComplex(src), DglComplex(dst)
    for n in _h_window(rel, 1):
        if cd.complete(n + 1) and cs.complete(n):
            assert rel.homology(n).dim == cd.homology(n).dim + cs.homology(n - 1).dim


def test_contractible_pair_witness_cycle():
    # (y, w) is a delta-cycle in Rel(psi) and not a boundary
    src, dst, incl = make_contractible_pair()
    rel = EvaluationContext(incl).rel
    y = dst.algebra.gen("y")
    w = src.algebra.gen("w")
    vec = rel.to_vector(3, (y, w))
    # delta(y, w) = (psi(w) - d(y), d(w)) = (w - w, 0) = 0
    img = {}
    for i, c in vec.items():
        img = linalg.vec_add(img, rel.d_columns(3)[i], c)
    assert img == {}
    h = rel.homology(3)
    assert h.class_coords(vec)  # nonzero class


def test_rel_star_of_zero_map_to_empty_target_is_shifted_der():
    src = make_sphere_model(1, truncation=6)
    empty = DglModel(FreeLieAlgebra([], truncation=6), {})
    psi = zero_morphism(src, empty)
    rel = EvaluationContext(psi).rel_star
    der_id = DerComplex(DglMorphism.identity(src))
    for n in range(0, 4):
        if rel.complete(n + 1) and der_id.complete(n):
            assert rel.dim(n) == der_id.dim(n - 1)
            assert rel.homology(n).dim == der_id.homology(n - 1).dim


def test_contractible_pair_star_boundary_identity():
    # The image of (y, w) under (ad_psi, ad) differs from delta(phi, 0) by a
    # sign: with phi(w) = -1/2 [y,y] one has D(phi) = ad_psi(y), hence
    # delta(-phi, 0) = (ad_psi(y), 0) = (ad_psi, ad)(y, w).
    src, dst, incl = make_contractible_pair()
    y = dst.algebra.gen("y")
    w = src.algebra.gen("w")
    ctx = EvaluationContext(incl)
    rel_star = ctx.rel_star
    image = (adjoint(incl, y), adjoint(DglMorphism.identity(src), w))
    assert image[1].is_zero()  # ad(w) = 0 since |w| is even and L(w) abelian
    phi = GenDerivation(incl, 4, {"w": F(-1, 2) * y.bracket(y)})
    assert phi.differential() == image[0]
    # and at the vector level the image is a boundary of Rel(psi_star)
    m = 3
    vec = rel_star.to_vector(m, image)
    sol = oracles.solve_columns(rel_star.d_columns(m + 1), vec)
    assert sol is not None


def test_rel_star_delta_squared_zero_on_pinch(pinch):
    rel = EvaluationContext(pinch).rel_star
    for n in range(0, 5):
        if not (rel.complete(n) and rel.complete(n - 1) and rel.complete(n - 2)):
            continue
        cols_n = rel.d_columns(n)
        cols_n1 = rel.d_columns(n - 1)
        for col in cols_n:
            out = {}
            for i, c in col.items():
                out = linalg.vec_add(out, cols_n1[i], c)
            assert out == {}


def test_inclusion_is_anti_chain_map():
    # delta o J = -J o d_W, exactly as stated, not plain chain commutation
    psi = random_validated_morphism(11)
    rel = EvaluationContext(psi).rel_ad
    W = rel.W
    for n in range(1, 4):
        if not (rel.complete(n) and W.complete(n) and rel.complete(n - 1)):
            continue
        dW = W.d_columns(n)
        dRel = rel.d_columns(n)
        for j in range(W.dim(n)):
            jvec = rel.join(n, {j: F(1)}, {})
            lhs = {}
            for i, c in jvec.items():
                lhs = linalg.vec_add(lhs, dRel[i], c)
            rhs = rel.join(n - 1, {k: -c for k, c in dW[j].items()}, {})
            assert lhs == rhs, (n, j)


def test_projection_kills_inclusion():
    psi = random_validated_morphism(13)
    rel = EvaluationContext(psi).rel_ad
    n = 2
    if rel.complete(n):
        for j in range(rel.W.dim(n)):
            assert rel.split(n, rel.join(n, {j: F(1)}, {}))[1] == {}


def test_les_of_identity_morphism():
    model = make_sphere_model(2, truncation=8)
    report = EvaluationContext(DglMorphism.identity(model)).les(range(1, 4))
    assert report.trusted_nodes()
    assert report.all_exact


def test_les_degenerate_for_empty_target():
    src = make_sphere_model(1, truncation=6)
    empty = DglModel(FreeLieAlgebra([], truncation=6), {})
    psi = zero_morphism(src, empty)
    # K = 0: H_{n+1}(Rel) = H_n(V) via P, so exactness holds trivially
    report = EvaluationContext(psi).les(range(1, 4))
    assert report.all_exact


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=4000))
def test_les_exact_on_random_morphisms(seed):
    psi = random_validated_morphism(seed, max_gens=3, truncation=7)
    report = EvaluationContext(psi).les(range(1, 5))
    assert report.trusted_nodes(), "window should contain trusted nodes"
    for node in report.trusted_nodes():
        assert node.exact, node


# -- the cone's LES maps against the object-level assembly --------------------------

def _assert_les_matches_oracle(psi, degrees):
    report = EvaluationContext(psi).les(degrees)
    expected = oracles.les_by_objects(
        DglComplex(psi.target), DerComplex(psi), lambda y: adjoint(psi, y), degrees
    )
    assert report.trusted_nodes()
    assert report.nodes == expected.nodes


@pytest.mark.parametrize("path, name", FIXTURE_MAPS)
def test_les_matches_object_oracle_on_fixture_maps(path, name):
    psi = fixture_map(path, name)
    tops = EvaluationContext(psi).computable_tops()
    assert tops
    _assert_les_matches_oracle(psi, [t - 1 for t in tops])


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=4000))
def test_les_matches_object_oracle_on_random_morphisms(seed):
    psi = random_validated_morphism(seed, max_gens=3, truncation=7)
    _assert_les_matches_oracle(psi, range(1, 5))


def test_cone_les_maps_are_built_afresh_to_the_same_columns():
    # the cone caches none of its sequence's maps: each call builds phi_*, J_*
    # and P_* afresh, to the same columns
    for psi in (make_contractible_pair()[2], fixture_map("one_cell_attachment.dgl", "i")):
        rel = EvaluationContext(psi).rel
        nonzero = 0
        for n in range(1, 5):
            for build in (rel.phi_star, rel.j_star, rel.p_star):
                cols = build(n)
                assert build(n) == cols, (build.__name__, n)
                nonzero += any(cols)
        assert nonzero


@pytest.mark.parametrize("path,name", FIXTURE_MAPS)
def test_a_cone_degree_reads_each_factor_block_once(path, name, monkeypatch):
    # delta's columns are the negated d_W block and one column per basis
    # vector of V_{n-1}: one degree of a cone reads W's columns and V's
    # columns at most once each, whatever its dimension
    ctx = EvaluationContext(fixture_map(path, name))
    reads, columns = [], ChainComplex.columns

    def counted(cplx, n):
        reads.append(cplx)
        return columns(cplx, n)

    monkeypatch.setattr(ChainComplex, "columns", counted)
    wide = 0
    for cone in (ctx.rel, ctx.rel_star, ctx.rel_ad_L, ctx.rel_ad, ctx.rel_ad_pair):
        for n in [n for n in range(-4, cone.trunc + 1) if cone.complete(n)]:
            reads.clear()
            cone.d_columns(n)
            counts = [sum(c is factor for c in reads) for factor in (cone.W, cone.V)]
            assert max(counts) <= 1, (cone.name, n, counts)
            wide += cone.W.dim(n) > 1 or cone.V.dim(n - 1) > 1
    assert wide


@pytest.mark.parametrize("path,name", FIXTURE_MAPS)
def test_cone_boundaries_are_the_echelon_form_of_the_stacked_columns(path, name):
    # B_n of every cone is the Bareiss elimination of the cone's columns, in
    # pivots and in the value and coefficient-rule type of every row entry
    ctx = EvaluationContext(fixture_map(path, name))
    checked = 0
    for cone in (ctx.rel, ctx.rel_star, ctx.rel_ad_L, ctx.rel_ad, ctx.rel_ad_pair):
        for n in [n for n in range(-4, cone.trunc + 1) if cone.complete(n + 1)]:
            got = cone.boundaries(n)
            want = oracles.bareiss_rref(cone.d_columns(n + 1))
            rows = [{k: linalg.coeff(v) for k, v in row.items()} for row in want.rows]
            assert got.pivots == want.pivots, (cone.name, n)
            assert _typed(got.rows) == _typed(rows), (cone.name, n)
            checked += bool(got.rank)
    assert checked


def _typed(rows):
    """Rows as sorted (index, type name, value) triples."""
    return [sorted((k, type(v).__name__, v) for k, v in row.items()) for row in rows]
