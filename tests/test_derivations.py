from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dglcalc import (
    DglModel,
    DglMorphism,
    EvaluationContext,
    FreeLieAlgebra,
    GenDerivation,
    LieElement,
    adjoint,
    zero_morphism,
)
from dglcalc import linalg
from dglcalc.complexes import DglComplex, induced_matrix
from dglcalc.derivations import DerComplex

from .conftest import (
    make_contractible_pair,
    make_cp2_model,
    make_sphere_model,
)
from dglcalc.modelfile import parse_workspace

from .helpers import (
    FIXTURE_MAPS,
    FIXTURES,
    basis_element,
    cmd_mix_map,
    cmd_mix_map_ids,
    column_builds,
    fixture_map,
    homology_dims,
    in_order,
    random_validated_morphism,
)

F = Fraction


def test_adjoint_on_pinch_map(pinch):
    u3 = pinch.target.algebra.gen("u3")
    theta = adjoint(pinch, u3)
    assert theta.value("x1").is_zero() and theta.value("x1").degree == 1 + theta.degree
    assert theta.values["x3"] == u3.bracket(u3)


def test_zero_values_are_not_stored(pinch):
    # a derivation given explicit zero values is the one given none
    tgt = pinch.target.algebra
    u3 = tgt.gen("u3")
    bare = GenDerivation(pinch, 0, {"x3": u3})
    padded = GenDerivation(pinch, 0, {"x1": tgt.zero(1), "x3": u3})
    assert list(padded.values) == list(bare.values) == ["x3"]
    assert repr(padded) == repr(bare) and padded == bare
    cx = DerComplex(pinch)
    assert cx.to_vector(0, padded) == cx.to_vector(0, bare) != {}
    assert padded.value("x1") == tgt.zero(1) and padded.value("x1").degree == 1


@pytest.mark.parametrize("path, name", FIXTURE_MAPS)
def test_der_columns_build_no_zero_element(path, name, monkeypatch):
    # a basis derivation holds its one nonzero value, and D of it only the
    # generators where it is nonzero
    psi = fixture_map(path, name, truncation=11)
    tgt = psi.target
    for g in tgt.generators:  # d of a letter is cached on the model, zero or not
        tgt.d(tgt.algebra.gen(g.name))
    calls = []
    real = FreeLieAlgebra.zero
    monkeypatch.setattr(
        FreeLieAlgebra, "zero", lambda alg, degree: calls.append(degree) or real(alg, degree)
    )
    cx = DerComplex(psi)
    top = cx.trunc - psi.source.max_generator_degree
    columns = sum(len(cx.columns(n)) for n in range(1 - psi.source.max_generator_degree, top + 1))
    assert columns and calls == []


def test_adjoint_of_zero_morphism(cp2, s4):
    psi = zero_morphism(cp2, s4)
    theta = adjoint(psi, s4.algebra.gen("u3"))
    assert theta.is_zero()


def test_adjoint_along_identity_of_even_generator():
    model = make_sphere_model(2)
    ident = DglMorphism.identity(model)
    theta = adjoint(ident, model.algebra.gen("x"))
    assert theta.is_zero()


def test_adjoint_of_free_odd_generator_is_a_cycle(s4):
    ident = DglMorphism.identity(s4)
    theta = adjoint(ident, s4.algebra.gen("u3"))
    assert theta.differential().is_zero()


def test_der_differential_on_contractible_pair():
    src, dst, incl = make_contractible_pair()
    y = dst.algebra.gen("y")
    w = dst.algebra.gen("w")
    phi = GenDerivation(incl, 4, {"w": F(-1, 2) * y.bracket(y)})
    dphi = phi.differential()
    # D(phi)(w) = d(-1/2 [y,y]) = [y,w], which is exactly ad(y) on the source
    assert dphi.values["w"] == y.bracket(w)
    assert dphi == adjoint(incl, y)


def test_der_differential_vanishes_for_zero_differentials(s4):
    other = make_sphere_model(2)
    psi = zero_morphism(other, s4)
    theta = GenDerivation(psi, 1, {"x": s4.algebra.gen("u3") * 0})
    assert theta.differential().is_zero()


def test_der_homology_pinch_class_nonzero(pinch):
    # the adjoint of the degree-3 target generator is a nontrivial class
    cx = DerComplex(pinch)
    h = cx.homology(3)
    assert h.dim == 1
    u3 = pinch.target.algebra.gen("u3")
    coords = h.class_coords(cx.to_vector(3, adjoint(pinch, u3)))
    assert coords


def test_der_homology_identity_on_even_sphere():
    # L(x; d = 0), |x| = 2: the only derivations send x to multiples of x,
    # so the derivation homology is one-dimensional in degree 0 and vanishes
    # elsewhere in the window (frozen from the brute-force slice matrices).
    model = make_sphere_model(2, truncation=8)
    ident = DglMorphism.identity(model)
    assert homology_dims(DerComplex(ident), range(-1, 5)) == {-1: 0, 0: 1, 1: 0, 2: 0, 3: 0, 4: 0}


def test_der_homology_empty_target(cp2):
    empty = DglModel(FreeLieAlgebra([], truncation=10), {})
    psi = zero_morphism(cp2, empty)
    assert all(d == 0 for d in homology_dims(DerComplex(psi), range(0, 4)).values())


def test_adjoint_is_a_lie_map():
    # [ad x, ad y] = ad [x, y] on a free model
    alg = FreeLieAlgebra([("x", 1), ("y", 2)], truncation=8)
    model = DglModel(alg, {})
    ident = DglMorphism.identity(model)
    x, y = alg.gen("x"), alg.gen("y")
    ad_x, ad_y = adjoint(ident, x), adjoint(ident, y)
    sign = -1 if (ad_x.degree * ad_y.degree) % 2 else 1
    values = {g.name: ad_x(ad_y.value(g.name)) - sign * ad_y(ad_x.value(g.name)) for g in alg.generators}
    lhs = GenDerivation(ident, ad_x.degree + ad_y.degree, values)
    rhs = adjoint(ident, x.bracket(y))
    assert lhs == rhs


# -- randomized properties -----------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=5000))
def test_d_squared_zero_on_random_derivations(seed):
    import random

    rng = random.Random(seed)
    psi = random_validated_morphism(seed)
    cx = DerComplex(psi)
    n = rng.randint(0, 3)
    if not (cx.complete(n) and cx.complete(n - 1) and cx.complete(n - 2)):
        return
    dim = cx.dim(n)
    if not dim:
        return
    vec = {i: F(rng.randint(-3, 3)) for i in range(dim)}
    theta = cx.from_vector(n, {k: v for k, v in vec.items() if v})
    assert theta.differential().differential().is_zero()


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=5000))
def test_adjoint_is_chain_map(seed):
    import random

    rng = random.Random(seed)
    psi = random_validated_morphism(seed)
    K = psi.target
    top = K.truncation - psi.source.max_generator_degree
    if top < 1:
        return
    n = rng.randint(1, top)
    words = K.algebra.words(n)
    if not words:
        return
    y = LieElement(K.algebra, n, {w: rng.randint(-2, 2) for w in words})
    lhs = adjoint(psi, y).differential()
    rhs = adjoint(psi, K.d(y))
    assert lhs == rhs


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=5000))
def test_triangle_commutes_pointwise(seed):
    # the induced-derivation map composed with the adjoint on homology equals
    # the adjoint of the homology-level morphism: I(H(ad)(y))(xi) = <[y, psi xi]>
    import random

    rng = random.Random(seed)
    psi = random_validated_morphism(seed, max_gens=3, truncation=7)
    cK = DglComplex(psi.target)
    cL = DglComplex(psi.source)
    m = rng.randint(1, 3)
    if not (cK.complete(m + 1) and psi.source.max_generator_degree + m + 1 <= psi.target.truncation):
        return
    hK = cK.homology(m)
    for y_row in hK.rep_rows:
        y = cK.from_vector(m, y_row)
        theta = adjoint(psi, y)
        assert theta.differential().is_zero()
        for j in range(1, min(cL.trunc - 1, cK.trunc - m - 1) + 1):
            cols = induced_matrix(cL, j, cK, j + m, theta.apply)
            hL = cL.homology(j)
            hKjm = cK.homology(j + m)
            for i, xi_row in enumerate(hL.rep_rows):
                xi = cL.from_vector(j, xi_row)
                direct = psi.target.algebra.bracket(y, psi.apply(xi))
                lhs = cols[i]
                rhs = hKjm.class_coords(cK.to_vector(j + m, direct))
                assert lhs == rhs


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=5000))
def test_induced_class_independent_of_representative(seed):
    # perturbing a derivation cycle by a boundary leaves the induced map alone
    import random

    rng = random.Random(seed)
    psi = random_validated_morphism(seed)
    cx = DerComplex(psi)
    n = 2
    if not (cx.complete(n + 1) and cx.complete(n) and cx.complete(n - 1)):
        return
    h = cx.homology(n)
    if not h.dim or not cx.dim(n + 1):
        return
    theta = cx.from_vector(n, h.rep_rows[0])
    eta = cx.from_vector(n + 1, {rng.randrange(cx.dim(n + 1)): F(rng.randint(1, 2))})
    perturbed = theta + eta.differential()
    assert perturbed.differential().is_zero()
    cL, cK = DglComplex(psi.source), DglComplex(psi.target)
    for j in range(1, min(cL.trunc - 1, cK.trunc - n - 1) + 1):
        a = induced_matrix(cL, j, cK, j + n, theta.apply)
        b = induced_matrix(cL, j, cK, j + n, perturbed.apply)
        assert a == b


# -- the Leibniz evaluator against the tensor-algebra oracle ----------------------


def _random_values(rng, psi, degree):
    """Random small-integer generator values of a degree-n derivation along psi."""
    tgt = psi.target.algebra
    values = {}
    for g in psi.source.generators:
        d = g.degree + degree
        if 1 <= d <= tgt.truncation:
            values[g.name] = LieElement(tgt, d, {w: rng.randint(-2, 2) for w in tgt.words(d)})
    return values


def _seeds_with_differential(count):
    """Seeds of the first nonzero random morphisms with d != 0 on both sides."""
    seeds = []
    seed = 0
    while len(seeds) < count:
        psi = random_validated_morphism(seed, max_gens=3, truncation=7)
        if psi.source.diff and psi.target.diff and not psi.is_zero():
            seeds.append(seed)
        seed += 1
    return seeds


@pytest.mark.parametrize("seed", _seeds_with_differential(6))
def test_word_evaluators_match_tensor_oracle(seed):
    # d, morphisms and derivations along psi against their letter-by-letter
    # extensions to the tensor algebra, on every basis word up to N
    import random

    from . import oracles

    psi = random_validated_morphism(seed, max_gens=3, truncation=7)
    rng = random.Random(seed)
    for model in (psi.source, psi.target):
        alg = model.algebra
        degrees = [g.degree for g in alg.generators]
        ids = [{(i,): F(1)} for i in range(len(degrees))]
        d_letters = [oracles.tensor_expansion(model.diff_of(g.name)) for g in alg.generators]
        for n in range(1, alg.truncation + 1):
            for word in alg.words(n):
                e = oracles.expansion(alg, word)
                want = oracles.tensor_derivation(e, -1, d_letters, ids, degrees)
                assert oracles.tensor_expansion(model.d(basis_element(alg, word))) == want, word
    src = psi.source.algebra
    top = min(src.truncation, psi.target.truncation)
    degrees = [g.degree for g in src.generators]
    images = [oracles.tensor_expansion(psi.values[g.name]) for g in src.generators]
    thetas = [GenDerivation(psi, k, _random_values(rng, psi, k)) for k in range(-1, 3)]
    for n in range(1, top + 1):
        for word in src.words(n):
            w, e = basis_element(src, word), oracles.expansion(src, word)
            assert oracles.tensor_expansion(psi.apply(w)) == oracles.tensor_morphism(e, images)
            for theta in thetas:
                if n + theta.degree > top:
                    continue
                values = [oracles.tensor_expansion(theta.value(g.name)) for g in src.generators]
                want = oracles.tensor_derivation(e, theta.degree, values, images, degrees)
                assert oracles.tensor_expansion(theta.apply(w)) == want, (word, theta.degree)
    # D(theta)(g) = d_K(theta(g)) - (-1)^n theta(d_L g), each side extended
    # letter by letter to the tensor algebra
    tgt = psi.target.algebra
    d_letters = [oracles.tensor_expansion(psi.target.diff_of(g.name)) for g in tgt.generators]
    ids = [{(i,): F(1)} for i in range(len(tgt.generators))]
    tgt_degrees = [g.degree for g in tgt.generators]
    for theta in thetas:
        if theta.degree + max(degrees) > top:
            continue
        values = [oracles.tensor_expansion(theta.value(g.name)) for g in src.generators]
        sign = -1 if theta.degree % 2 else 1
        d_theta = theta.differential()
        assert d_theta.degree == theta.degree - 1
        for g in src.generators:
            d_value = oracles.tensor_derivation(
                oracles.tensor_expansion(theta.value(g.name)), -1, d_letters, ids, tgt_degrees
            )
            value_of_d = oracles.tensor_derivation(
                oracles.tensor_expansion(psi.source.diff_of(g.name)),
                theta.degree, values, images, degrees,
            )
            want = {t: d_value.get(t, 0) - sign * value_of_d.get(t, 0)
                    for t in set(d_value) | set(value_of_d)}
            want = {t: c for t, c in want.items() if c}
            assert oracles.tensor_expansion(d_theta.value(g.name)) == want, (g.name, theta.degree)


# -- the complex's columns against the per-derivation evaluators -------------------


def _assert_columns_match_oracle(psi):
    # column (g, w) of D in degree n is D(theta_{g,w}), evaluated both by the
    # package's earlier Leibniz recursion with a fresh cache per derivation and
    # by GenDerivation.differential, and equal to both in value, coefficient
    # type and dict order, whichever path d_columns took
    from . import oracles

    cx = DerComplex(psi)
    tgt = psi.target.algebra
    top = cx.trunc - psi.source.max_generator_degree
    checked = set()
    for n in range(1 - psi.source.max_generator_degree, top + 1):
        for (gi, word), column in zip(cx.record(n).labels, cx.columns(n)):
            values = {psi.source.generators[gi].name: basis_element(tgt, word)}
            oracle = cx.to_vector(n - 1, oracles.GenDerivation(psi, n, values).differential())
            package = cx.to_vector(n - 1, GenDerivation(psi, n, values).differential())
            assert in_order([column]) == in_order([oracle]) == in_order([package]), (n, gi, word)
            checked.add(n % 2)
    assert checked == {0, 1}


def _generators_through_differential(psi, monkeypatch) -> set:
    """The generators whose columns `DerComplex.d_columns` builds through
    `GenDerivation.differential`, over every degree of the complex."""
    seen = set()
    real = GenDerivation.differential
    monkeypatch.setattr(
        GenDerivation, "differential", lambda theta: seen.update(theta.values) or real(theta)
    )
    cx = DerComplex(psi)
    for n in range(1 - psi.source.max_generator_degree, cx.trunc - psi.source.max_generator_degree + 1):
        cx.columns(n)
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("path, name", FIXTURE_MAPS)
def test_der_columns_match_oracle_on_fixture_maps(path, name):
    _assert_columns_match_oracle(fixture_map(path, name, truncation=11))


@pytest.mark.parametrize("seed", _seeds_with_differential(6))
def test_der_columns_match_oracle_on_random_morphisms(seed):
    _assert_columns_match_oracle(random_validated_morphism(seed, max_gens=3, truncation=7))


@pytest.mark.parametrize("case", cmd_mix_map_ids())
def test_der_columns_match_oracle_on_cmd_mix_maps(case):
    _assert_columns_match_oracle(cmd_mix_map(case))


def test_only_generators_reached_by_d_through_psi_are_coupled(monkeypatch):
    # d c = [a, b] reaches a and b through psi's Fox table; nothing reaches c,
    # so c's columns are d_K of their words and never build a derivation
    psi = fixture_map("one_cell_attachment.dgl", "i", truncation=11)
    assert DerComplex(psi)._coupled == {"a", "b"}
    assert _generators_through_differential(psi, monkeypatch) == {"a", "b"}


def test_der_columns_of_a_zero_morphism_are_all_direct(monkeypatch):
    # every Fox chain of [a, b] passes through a zero psi(.), so no generator
    # is coupled even though d c != 0
    ws = parse_workspace((FIXTURES / "one_cell_attachment.dgl").read_text(), truncation=11)
    psi = zero_morphism(ws.model("X"), ws.model("Y"))
    assert DerComplex(psi)._coupled == set()
    assert _generators_through_differential(psi, monkeypatch) == set()
    _assert_columns_match_oracle(psi)


def _one_cell_pair(order, half=False):
    """The one-cell attachment X -> Y with X's generators in the given order,
    and d c = [a, b] scaled by 1/2 on both sides when `half` is set."""
    degrees = {"a": 2, "b": 2, "c": 5}
    scale = F(1, 2) if half else 1
    X = FreeLieAlgebra([(g, degrees[g]) for g in order], truncation=11)
    Y = FreeLieAlgebra([("a", 2), ("b", 2), ("c", 5), ("y", 3)], truncation=11)
    src = DglModel(X, {"c": scale * X.gen("a").bracket(X.gen("b"))})
    dst = DglModel(Y, {"c": scale * Y.gen("a").bracket(Y.gen("b")), "y": Y.gen("a")})
    return DglMorphism(src, dst, {g: Y.gen(g) for g in order})


def test_der_columns_with_fraction_coefficients_in_d_L(monkeypatch):
    psi = _one_cell_pair("abc", half=True)
    assert _generators_through_differential(psi, monkeypatch) == {"a", "b"}
    cx = DerComplex(psi)
    assert any(isinstance(c, Fraction) for n in range(-4, 7) for col in cx.columns(n) for c in col.values())
    _assert_columns_match_oracle(psi)


@pytest.mark.parametrize("order", ["abc", "acb", "bac", "bca", "cab", "cba"])
def test_der_columns_under_shuffled_generator_orders(order, monkeypatch):
    # c, uncoupled, comes before, between and after the coupled a and b, and
    # its couplings go to earlier and later generator indices
    psi = _one_cell_pair(order)
    assert _generators_through_differential(psi, monkeypatch) == {"a", "b"}
    _assert_columns_match_oracle(psi)


# -- boundaries against the elimination of every column ---------------------------


def _assert_boundaries_match_full_elimination(psi):
    # boundaries(n) equals the Bareiss elimination of every column of D_{n+1}
    # as the oracle derivations build them, in pivots and in the value of
    # every row entry, whose type follows the coefficient rule
    from . import oracles

    cx = DerComplex(psi)
    checked = 0
    for n in range(-psi.source.max_generator_degree, cx.trunc + 1):
        if not cx.complete(n + 1):
            continue
        got = cx.boundaries(n)
        full = oracles.bareiss_rref(oracles.der_columns(cx, n + 1))
        rows = [{k: linalg.coeff(c) for k, c in row.items()} for row in full.rows]
        assert got.pivots == full.pivots, n
        assert [sorted(r) for r in in_order(got.rows)] == [sorted(r) for r in in_order(rows)], n
        checked += 1
    assert checked


def _and_identities(maps) -> list:
    """Each (file, map name) with the identities of its source and target."""
    return [(path, name, side) for path, name in maps for side in (None, "source", "target")]


@pytest.mark.parametrize("path, name, side", _and_identities(FIXTURE_MAPS))
def test_der_boundaries_match_full_elimination_on_fixture_maps(path, name, side):
    psi = fixture_map(path, name, truncation=11)
    if side is not None:
        psi = DglMorphism.identity(getattr(psi, side))
    _assert_boundaries_match_full_elimination(psi)


@pytest.mark.parametrize("seed", _seeds_with_differential(6))
def test_der_boundaries_match_full_elimination_on_random_morphisms(seed):
    _assert_boundaries_match_full_elimination(random_validated_morphism(seed, max_gens=3, truncation=7))


@pytest.mark.parametrize("case", cmd_mix_map_ids())
def test_der_boundaries_match_full_elimination_on_cmd_mix_maps(case):
    _assert_boundaries_match_full_elimination(cmd_mix_map(case))
