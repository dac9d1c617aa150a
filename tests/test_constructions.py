from fractions import Fraction

from hypothesis import given, settings, strategies as st

from dglcalc import (
    DglModel,
    DglMorphism,
    FreeLieAlgebra,
    GenDerivation,
)
from dglcalc.complexes import DglComplex
from dglcalc.constructions import (
    cylinder,
    product_model,
    sphere_wedge_model,
    verify_homotopy,
)
from dglcalc.derivations import adjoint

from . import oracles
from .conftest import make_cp2_model, make_sphere_model
from .helpers import basis_element, exp_automorphism, homology_dims, random_model

F = Fraction


def _homology_window(model):
    return range(1, model.truncation)


def test_product_s2_x_s3():
    base = make_sphere_model(2, truncation=8)  # S^3: L(x), |x| = 2
    pm = product_model(base, [2])
    model = pm.model
    degrees = {g.name: g.degree for g in model.generators}
    assert degrees == {"x": 2, "v": 1, "x'": 4}
    report = model.validate()
    assert report.d_squared_ok and report.minimal
    # d(x') = [v, x] since d(x) = 0
    alg = model.algebra
    assert model.diff_of("x'") == alg.gen("v").bracket(alg.gen("x"))
    # homology through the window: degree 1 (v), degree 2 (x and [v,v])
    dims = homology_dims(DglComplex(model), range(1, 7))
    assert dims[1] == 1 and dims[2] == 2
    assert dims[3] == 0 and dims[4] == 0 and dims[5] == 0 and dims[6] == 0


def test_product_of_point_is_sphere_model():
    point = DglModel(FreeLieAlgebra([], truncation=8), {}, name="pt")
    pm = product_model(point, [4])
    assert [g.degree for g in pm.model.generators] == [3]
    assert pm.model.validate().d_squared_ok


def test_product_cp2_with_s2():
    base = make_cp2_model(truncation=10)
    pm = product_model(base, [2])
    report = pm.model.validate()
    assert report.d_squared_ok and report.minimal
    assert oracles.d_squared_sweep(pm.model)
    # d(x3') = [v, x3] + S(d x3) with S extended by the derivation rule
    alg = pm.model.algebra
    s = pm.suspensions[0]
    got = pm.model.diff_of("x3'")
    v, x3 = alg.gen("v"), alg.gen("x3")
    dx3 = base.diff_of("x3")
    expected = v.bracket(x3) + s.apply(dx3)
    assert got == expected


def test_product_model_homology_additivity():
    base = make_sphere_model(2, truncation=9)
    pm = product_model(base, [3])
    wedge = sphere_wedge_model([3], truncation=9)
    prod_cx, wedge_cx, base_cx = DglComplex(pm.model), DglComplex(wedge), DglComplex(base)
    for n in _homology_window(pm.model):
        if not prod_cx.complete(n + 1):
            break
        expected = wedge_cx.homology(n).dim + base_cx.homology(n).dim
        assert prod_cx.homology(n).dim == expected


def test_suspension_derivation_identity():
    # D(S) equals the adjoint of the sphere generator along the inclusion
    base = make_cp2_model(truncation=10)
    pm = product_model(base, [2])
    s = pm.suspensions[0]
    v = pm.model.algebra.gen(pm.sphere_generators[0])
    assert s.differential() == adjoint(pm.inclusion, v)


def test_is_boundary_in_product_model():
    # [v, b] = d(b') in the S^2 x S^3 product model
    base = DglModel(FreeLieAlgebra([("b", 2)], truncation=8), {}, name="S3")
    pm = product_model(base, [2])
    alg = pm.model.algebra
    cycle = alg.gen("v").bracket(alg.gen("b"))
    assert pm.model.d(alg.gen("b'")) == cycle
    cx = DglComplex(pm.model)
    assert cx.homology(3).class_coords(cx.to_vector(3, cycle)) == {}


def test_cylinder_of_free_model():
    model = make_sphere_model(2, truncation=8)
    cyl = cylinder(model)
    x = model.algebra.gen("x")
    far = cyl.far_end.values["x"]
    alg = cyl.model.algebra
    assert far == alg.gen("x") + alg.gen("x^")
    report = cyl.model.validate()
    assert report.d_squared_ok
    assert not report.minimal  # D(sx) = x^ is linear


def test_cylinder_ends_retract():
    model = make_cp2_model(truncation=8)
    cyl = cylinder(model)
    for end in (cyl.near_end, cyl.far_end):
        comp = cyl.projection.compose(end)
        for g in model.generators:
            assert comp.values[g.name] == model.algebra.gen(g.name)


def test_cylinder_far_end_commutes_with_differential():
    model = make_cp2_model(truncation=8)
    cyl = cylinder(model)
    for g in model.generators:
        lhs = cyl.far_end.apply(model.diff_of(g.name))
        rhs = cyl.model.d(cyl.far_end.values[g.name])
        assert lhs == rhs


def test_exp_automorphism_invertible_on_basis_monomials():
    model = make_sphere_model(2, truncation=6)
    cyl = cylinder(model)
    alg = cyl.model.algebra
    for n in range(1, 6):
        for word in alg._basis_data(n).words:
            e = basis_element(alg, word)
            round_trip = exp_automorphism(cyl, exp_automorphism(cyl, e), inverse=True)
            assert round_trip == e


def test_verify_homotopy_constant():
    model = make_sphere_model(2, truncation=8)
    target = make_cp2_model(truncation=8)
    cyl = cylinder(model)
    start = DglMorphism(model, target, {"x": target.algebra.zero(2)}, name="const")
    report = verify_homotopy(cyl, target, start, {}, start)
    assert report.holds


def test_verify_homotopy_single_generator_shift():
    # start(x) = 0, s(x) = k: the homotopy ends at x -> d(k)
    model = make_sphere_model(2, truncation=8)  # L(x), |x| = 2, d = 0
    tgt_alg = FreeLieAlgebra([("p", 1), ("k", 3)], truncation=8)
    target = DglModel(tgt_alg, {"k": tgt_alg.gen("p").bracket(tgt_alg.gen("p"))})
    cyl = cylinder(model)
    start = DglMorphism(model, target, {"x": tgt_alg.zero(2)}, name="start")
    k = tgt_alg.gen("k")
    dk = target.d(k)
    end_good = DglMorphism(model, target, {"x": dk}, name="end")
    assert verify_homotopy(cyl, target, start, {"x": k}, end_good).holds
    end_bad = DglMorphism(model, target, {"x": tgt_alg.zero(2)}, name="bad")
    assert not verify_homotopy(cyl, target, start, {"x": k}, end_bad).holds


def test_verify_homotopy_verdict_invariant_under_cycle_perturbation():
    # adding a d-cycle to a suspension value does not move the end of the
    # homotopy, so the verdict is unchanged
    model = make_sphere_model(2, truncation=8)
    tgt_alg = FreeLieAlgebra([("p", 1), ("k", 3), ("u", 3)], truncation=8)
    target = DglModel(tgt_alg, {"k": tgt_alg.gen("p").bracket(tgt_alg.gen("p"))})
    cyl = cylinder(model)
    start = DglMorphism(model, target, {"x": tgt_alg.zero(2)}, name="start")
    k, u = tgt_alg.gen("k"), tgt_alg.gen("u")
    assert target.d(u).is_zero()
    end = DglMorphism(model, target, {"x": target.d(k)}, name="end")
    assert verify_homotopy(cyl, target, start, {"x": k}, end).holds
    assert verify_homotopy(cyl, target, start, {"x": k + 2 * u}, end).holds
    # and a pure-cycle suspension value keeps the homotopy constant
    assert verify_homotopy(cyl, target, start, {"x": u}, start).holds


def test_verify_homotopy_injectivity_witness():
    # the homotopy that contracts a boundary derivation: start sends the
    # suspended product generator to theta = D(Theta), the suspension values
    # send s(w') to -Theta(w), and the homotopy ends at the projection-only map.
    n = 2
    base = make_sphere_model(2, truncation=10)  # L(w), |w| = 2
    pm = product_model(base, [n])
    big = pm.model  # L(w, v, w')
    tgt_alg = FreeLieAlgebra([("u", 2), ("z", 5)], truncation=10)
    target = DglModel(tgt_alg, {"z": tgt_alg.gen("u").bracket(tgt_alg.gen("u"))})
    psi = DglMorphism(base, target, {"x": tgt_alg.gen("u")}, name="psi")
    # a degree-(n+1) derivation value along psi: Theta(w) = z
    theta_big = GenDerivation(psi, n + 1, {"x": tgt_alg.gen("z")})
    dtheta = theta_big.differential()
    # start: w -> psi(w), v -> 0, w' -> D(Theta)(w)
    start = DglMorphism(
        big,
        target,
        {
            "x": tgt_alg.gen("u"),
            "v": tgt_alg.zero(n - 1),
            "x'": dtheta.value("x"),
        },
        name="start",
    )
    end = DglMorphism(
        big,
        target,
        {"x": tgt_alg.gen("u"), "v": tgt_alg.zero(n - 1), "x'": tgt_alg.zero(2 + n)},
        name="end",
    )
    cyl = cylinder(big)
    svalues = {"x'": -1 * theta_big.values["x"]}
    report = verify_homotopy(cyl, target, start, svalues, end)
    assert report.holds, report.mismatches


# -- randomized invariants ------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=4000), st.sampled_from([2, 3, [2, 2]]))
def test_product_models_validate_randomized(seed, spheres):
    base = random_model(seed, max_gens=2, truncation=9, max_degree=3)
    spheres = spheres if isinstance(spheres, list) else [spheres]
    try:
        pm = product_model(base, spheres)
    except Exception as exc:
        from dglcalc import TruncationError

        assert isinstance(exc, TruncationError)
        return
    report = pm.model.validate()
    assert report.d_squared_ok and report.minimal
    assert oracles.d_squared_sweep(pm.model)


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=4000))
def test_cylinder_invariants_randomized(seed):
    model = random_model(seed, max_gens=2, truncation=7, max_degree=3)
    cyl = cylinder(model)
    assert cyl.model.validate().d_squared_ok
    for g in model.generators:
        lhs = cyl.far_end.apply(model.diff_of(g.name))
        rhs = cyl.model.d(cyl.far_end.values[g.name])
        assert lhs == rhs
        if model.diff_of(g.name).is_zero():
            alg = cyl.model.algebra
            assert cyl.far_end.values[g.name] == alg.gen(g.name) + alg.gen(
                cyl.hat_names[g.name]
            )
