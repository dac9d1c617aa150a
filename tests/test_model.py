import gc
import random
import weakref
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from dglcalc import (
    DglComplex,
    DglModel,
    DglMorphism,
    FreeLieAlgebra,
    GenDerivation,
    PreconditionError,
    zero_morphism,
)

from dglcalc.modelfile import parse_workspace

from . import oracles
from .helpers import FIXTURES, basis_element, homology_dims, homology_reps
from .conftest import (
    make_contractible_pair,
    make_cp2_model,
    make_s4_model,
    make_sphere_model,
)


def test_differential_extends_by_leibniz(cp2):
    # d[x1,x3] = [d x1, x3] - [x1, d x3] = -[x1,[x1,x1]] = 0
    alg = cp2.algebra
    e = alg.gen("x1").bracket(alg.gen("x3"))
    assert cp2.d(e).is_zero()


def test_zero_values_give_zero_evaluator(cp2, s4):
    psi = zero_morphism(cp2, s4)
    theta = GenDerivation(psi, 2, {})
    e = cp2.algebra.gen("x1").bracket(cp2.algebra.gen("x3"))
    assert theta(e).is_zero()


def test_suspension_derivation_rule():
    # S(w) = w' extended along an inclusion: S([w,w]) = [w',w] + (-1)^{2n}[w,w']
    n = 3
    src_alg = FreeLieAlgebra([("w", 2)], truncation=12)
    src = DglModel(src_alg, {})
    dst_alg = FreeLieAlgebra([("w", 2), ("v", n - 1), ("w'", 2 + n)], truncation=12)
    dst = DglModel(dst_alg, {})
    lam = DglMorphism(src, dst, {"w": dst_alg.gen("w")})
    s = GenDerivation(lam, n, {"w": dst_alg.gen("w'")})
    w = src_alg.gen("w")
    wd, wp = dst_alg.gen("w"), dst_alg.gen("w'")
    expected = wp.bracket(wd) + ((-1) ** (n * 2)) * wd.bracket(wp)
    assert s(w.bracket(w)) == expected


def test_inhomogeneous_value_rejected(cp2, s4):
    psi = zero_morphism(cp2, s4)
    # a degree-1 derivation must send x1 to a degree-2 value; u3 has degree 3
    with pytest.raises(PreconditionError):
        GenDerivation(psi, 1, {"x1": s4.algebra.gen("u3")})


def test_validate_cp2(cp2):
    report = cp2.validate()
    assert report.d_squared_ok
    assert report.minimal
    assert report.bigraded_ok is True


def test_validate_contractible_pair_not_minimal():
    _, dst, _ = make_contractible_pair()
    report = dst.validate()
    assert report.d_squared_ok
    assert not report.minimal


def test_validate_zero_differential(s4):
    report = s4.validate()
    assert report.d_squared_ok
    assert report.minimal


def test_homology_of_free_model_on_one_odd_generator(s4):
    # d = 0 on L(u3): H_3 and H_6 are one-dimensional, nothing else through 8
    dims = homology_dims(DglComplex(s4), range(1, 9))
    assert dims == {1: 0, 2: 0, 3: 1, 4: 0, 5: 0, 6: 1, 7: 0, 8: 0}
    for n in range(1, 9):
        assert dims[n] == oracles.homology_dim({"u3": 3}, {}, n)


def test_homology_cp2(cp2):
    cx = DglComplex(cp2)
    dims = homology_dims(cx, range(1, 6))
    assert dims[1] == 1 and dims[2] == 0 and dims[3] == 0 and dims[4] == 1
    rep4 = homology_reps(cx, 4)[0]
    assert rep4 == cp2.algebra.gen("x1").bracket(cp2.algebra.gen("x3"))
    diff = {"x3": {("x1", "x1"): 1}}
    for n in range(1, 6):
        assert dims[n] == oracles.homology_dim({"x1": 1, "x3": 3}, diff, n)


def test_homology_with_zero_differential_is_whole_algebra():
    model = make_sphere_model(1, truncation=6)
    dims = homology_dims(DglComplex(model), range(1, 6))
    for n in range(1, 6):
        assert dims[n] == model.algebra.dim(n)


def test_untrusted_flag_at_truncation_boundary(s4):
    assert DglComplex(s4).homology(s4.truncation).trusted is False


def test_morphism_chain_condition_enforced():
    cp2 = make_cp2_model()
    s4 = make_s4_model()
    from dglcalc import ValidationError

    # x3 -> u3 with x1 -> u3-degree mismatch is a precondition error
    with pytest.raises(PreconditionError):
        DglMorphism(cp2, s4, {"x1": s4.algebra.gen("u3"), "x3": s4.algebra.gen("u3")})
    # a degree-correct assignment that fails phi d = d phi must be rejected:
    # phi(x1) = 0 forces phi(d x3) = 0 = d(phi x3), which holds for any cycle,
    # so build the failure on the contractible pair instead.
    src, dst, _ = make_contractible_pair()
    with pytest.raises(ValidationError):
        DglMorphism(dst, dst, {"w": dst.algebra.zero(2), "y": dst.algebra.gen("y")})


def test_homology_invariant_under_renaming(cp2):
    alg = FreeLieAlgebra([("p", 1), ("q", 3)], truncation=10)
    renamed = DglModel(alg, {"q": alg.gen("p").bracket(alg.gen("p"))})
    want = homology_dims(DglComplex(cp2), range(1, 6))
    assert homology_dims(DglComplex(renamed), range(1, 6)) == want


def test_homology_invariant_under_upper_regrading(cp2):
    # same generators with the upper grading dropped or changed
    alg = FreeLieAlgebra([("x1", 1), ("x3", 3, 2)], truncation=10)
    regraded = DglModel(alg, {"x3": alg.gen("x1").bracket(alg.gen("x1"))})
    want = homology_dims(DglComplex(cp2), range(1, 6))
    assert homology_dims(DglComplex(regraded), range(1, 6)) == want


@st.composite
def random_valid_models(draw):
    """Small random models with a differential satisfying d^2 = 0."""
    from .helpers import random_model

    seed = draw(st.integers(min_value=0, max_value=10_000))
    return random_model(seed)


@pytest.mark.parametrize("kwargs", [{}, {"max_gens": 2, "truncation": 7, "max_degree": 3}])
def test_random_models_draw_nonzero_differentials(kwargs):
    from .helpers import random_model

    assert sum(1 for seed in range(100) if random_model(seed, **kwargs).diff) >= 10


def test_model_is_freed_without_the_cycle_collector():
    # the differential's evaluator may not refer back to its model
    enabled = gc.isenabled()
    gc.disable()
    try:
        model = make_cp2_model()
        assert homology_dims(DglComplex(model), range(1, 6))
        ref = weakref.ref(model)
        del model
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


@settings(max_examples=20, deadline=None)
@given(random_valid_models())
def test_random_models_validate(model):
    report = model.validate()
    assert report.d_squared_ok and oracles.d_squared_sweep(model)


@settings(max_examples=12, deadline=None)
@given(random_valid_models())
def test_induced_map_well_defined_on_homology(model):
    # images of cycles under a validated endomorphism are cycles; boundaries
    # map to boundaries (checked degreewise via the identity morphism here
    # composed with d, i.e. d itself maps cycles to zero).
    cx = DglComplex(model)
    for n in range(1, model.truncation):
        for rep in homology_reps(cx, n):
            assert model.d(rep).is_zero()


# -- d^2 = 0 on generators against the full basis sweep ---------------------------


def _perturbations(model):
    """Every model whose d differs from the given one by a basis word on one generator."""
    alg = model.algebra
    for h in model.generators:
        if h.degree < 2:
            continue
        for word in alg._basis_data(h.degree - 1).words:
            diff = dict(model.diff)
            diff[h.name] = model.diff_of(h.name) + basis_element(alg, word)
            yield DglModel(alg, diff)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_generator_check_matches_sweep_on_perturbed_models(seed):
    from .helpers import random_model

    # the first non-minimal model from the seed on that some perturbation breaks
    for s in range(seed, seed + 100):
        model = random_model(s, max_gens=4, truncation=7, min_degree=1, max_degree=4,
                             minimal=False)
        verdicts = [(p.validate().d_squared_ok, oracles.d_squared_sweep(p))
                    for p in _perturbations(model)]
        if any(not sweep for _, sweep in verdicts):
            break
    else:
        raise AssertionError("no perturbation breaks d^2 = 0 in 100 seeds")
    assert model.validate().d_squared_ok and oracles.d_squared_sweep(model)
    assert all(ours == sweep for ours, sweep in verdicts)


def _assert_d_words_match_leibniz_oracle(model):
    # value, int-or-Fraction type and dict order of d on every basis word
    alg = model.algebra
    for n in range(1, model.truncation + 1):
        for word in alg.words(n):
            got, want = model._d_word(word), oracles.leibniz_d_word(model, word)
            assert got.degree == want.degree, word
            assert [(w, type(c), c) for w, c in got.terms.items()] == \
                [(w, type(c), c) for w, c in want.terms.items()], word


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.dgl")))
def test_d_word_matches_the_leibniz_oracle_on_fixture_models(fixture):
    workspace = parse_workspace((FIXTURES / fixture).read_text(), truncation=10)
    assert workspace.models
    for model in workspace.models.values():
        _assert_d_words_match_leibniz_oracle(model)


@pytest.mark.parametrize("seed", range(16))
def test_d_word_matches_the_leibniz_oracle_with_fractions(seed):
    # d scaled per generator by a non-integer Fraction, on the generators in
    # a shuffled order, so that a term of d(u) can come after v and [d(u), v]
    # meets reversed standard pairs; d^2 may not vanish, but d on words is
    # still the Leibniz extension of its generator values
    from .helpers import random_model

    rng = random.Random(seed)
    drawn = random_model(seed, max_gens=4, truncation=8, min_degree=1, minimal=False)
    gens = [(g.name, g.degree) for g in drawn.generators]
    rng.shuffle(gens)
    alg = FreeLieAlgebra(gens, truncation=drawn.truncation)
    bare = DglMorphism(drawn, DglModel(alg), {g: alg.gen(g) for g, _ in gens}, check=False)
    diff = {g: F(rng.choice([-3, -1, 1, 2]), rng.choice([2, 3])) * bare.apply(v)
            for g, v in drawn.diff.items()}
    model = DglModel(alg, diff)
    _assert_d_words_match_leibniz_oracle(model)
    if seed == 9:  # a draw whose word differentials hold both types
        coefficients = [c for n in range(2, 9) for w in model.algebra.words(n)
                        for c in model._d_word(w).terms.values()]
        assert any(type(c) is F for c in coefficients) and any(type(c) is int for c in coefficients)
