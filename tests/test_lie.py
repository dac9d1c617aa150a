import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dglcalc import FreeLieAlgebra, LieElement, TruncationError
from dglcalc.errors import InternalError, PreconditionError
from dglcalc.modelfile import parse_workspace

from . import oracles
from .helpers import FIXTURES, basis_element, in_order

F = Fraction
PBW_WORDS = 50000  # basis words the PBW-identity test builds per generator set


@pytest.fixture
def one_odd():
    return FreeLieAlgebra([("x", 1)], truncation=8)


@pytest.fixture
def one_even():
    return FreeLieAlgebra([("a", 2)], truncation=8)


@pytest.fixture
def two_odd():
    return FreeLieAlgebra([("x", 1), ("y", 1)], truncation=6)


def test_odd_square_survives(one_odd):
    x = one_odd.gen("x")
    sq = x.bracket(x)
    assert not sq.is_zero()
    assert oracles.tensor_expansion(sq) == {(0, 0): F(2)}


def test_even_square_dies(one_even):
    a = one_even.gen("a")
    assert a.bracket(a).is_zero()


def test_odd_cube_dies(one_odd):
    # oracle: x(2xx) - (-1)^{1*2}(2xx)x = 2xxx - 2xxx = 0
    x = one_odd.gen("x")
    assert x.bracket(x.bracket(x)).is_zero()
    assert oracles.combo_expand({("x", ("x", "x")): 1}, {"x": 1}) == {}


def test_degree_basis_one_odd_generator(one_odd):
    assert one_odd.dim(2) == 1
    assert [one_odd.word_names(w) for w in one_odd.words(2)] == [("x", "x")]
    assert oracles.lie_dim({"x": 1}, 2) == 1


def test_degree_basis_one_even_generator(one_even):
    assert one_even.dim(4) == 0
    assert oracles.lie_dim({"a": 2}, 4) == 0


def test_degree_basis_two_odd_generators(two_odd):
    assert two_odd.dim(2) == 3
    assert [two_odd.word_names(w) for w in two_odd.words(2)] == [("x", "x"), ("x", "y"), ("y", "y")]
    assert oracles.lie_dim({"x": 1, "y": 1}, 2) == 3


def test_coordinates_resolve_reordered_brackets(two_odd):
    # For odd x, y the oracle gives [y,x] = [x,y] in the tensor algebra, so
    # 3[x,y] - 2[y,x] reduces to a single unit of the basis monomial [x,y].
    x, y = two_odd.gen("x"), two_odd.gen("y")
    e = 3 * x.bracket(y) - 2 * y.bracket(x)
    expected = oracles.combo_expand(
        {("x", "y"): 3, ("y", "x"): -2}, {"x": 1, "y": 1}
    )
    got = {two_odd.word_names(w): c for w, c in oracles.tensor_expansion(e).items()}
    assert got == expected
    assert e.terms == {(two_odd.index("x"), two_odd.index("y")): F(1)}


def test_equal_zero_elements_hash_alike(two_odd):
    zeros = (two_odd.zero(2), two_odd.zero(3), two_odd.gen("x") - two_odd.gen("x"))
    assert zeros[0] == zeros[1] == zeros[2]
    assert len({hash(z) for z in zeros}) == 1
    assert len(set(zeros)) == 1


def test_bracket_beyond_truncation_raises():
    alg = FreeLieAlgebra([("x", 3)], truncation=5)
    x = alg.gen("x")
    with pytest.raises(TruncationError):
        x.bracket(x)


def test_duplicate_names_rejected():
    with pytest.raises(PreconditionError):
        FreeLieAlgebra([("x", 1), ("x", 2)], truncation=5)


def test_generator_degree_must_be_positive():
    with pytest.raises(PreconditionError):
        FreeLieAlgebra([("x", 0)], truncation=5)


# -- randomized properties ----------------------------------------------------


GEN_SETS = [
    (("x", 1),),
    (("x", 1), ("y", 1)),
    (("x", 1), ("y", 2)),
    (("a", 2), ("b", 3)),
    (("x", 1), ("a", 2), ("u", 3)),
    (("a", 2), ("b", 2)),
    (("x", 1), ("y", 1), ("u", 3), ("v", 3)),
]
gen_sets = st.sampled_from(GEN_SETS)


@st.composite
def algebra_and_elements(draw, count=2, max_degree=4):
    gens = draw(gen_sets)
    alg = FreeLieAlgebra(gens, truncation=8)
    elements = []
    for _ in range(count):
        n = draw(st.integers(min_value=1, max_value=max_degree))
        terms = {w: draw(st.integers(min_value=-3, max_value=3)) for w in alg.words(n)}
        elements.append(LieElement(alg, n, terms))
    return alg, elements


@settings(max_examples=60, deadline=None)
@given(algebra_and_elements(count=2))
def test_graded_antisymmetry(data):
    alg, (a, b) = data
    sign = (-1) ** (a.degree * b.degree)
    assert (a.bracket(b) + sign * b.bracket(a)).is_zero()


@settings(max_examples=40, deadline=None)
@given(algebra_and_elements(count=3, max_degree=2))
def test_graded_jacobi(data):
    alg, (a, b, c) = data
    sign = (-1) ** (a.degree * b.degree)
    lhs = a.bracket(b.bracket(c))
    rhs = a.bracket(b).bracket(c) + sign * b.bracket(a.bracket(c))
    assert lhs == rhs


@settings(max_examples=25, deadline=None)
@given(gen_sets, st.integers(min_value=1, max_value=5))
def test_dimension_matches_tensor_rank_oracle(gens, n):
    alg = FreeLieAlgebra(gens, truncation=8)
    degrees = {name: d for name, d in gens}
    assert alg.dim(n) == oracles.lie_dim(degrees, n)


@settings(max_examples=40, deadline=None)
@given(algebra_and_elements(count=2, max_degree=3), st.integers(-4, 4), st.integers(-4, 4))
def test_coordinates_are_linear(data, s, t):
    alg, (a, b) = data
    if a.degree != b.degree:
        b = alg.zero(a.degree)
    combo = s * a + t * b
    for w in alg.words(a.degree):
        assert combo.terms.get(w, 0) == s * a.terms.get(w, 0) + t * b.terms.get(w, 0)


# -- the super-Lyndon basis against left-normed oracles ------------------------


def _oracle_tensor(alg, names_tensor):
    return {tuple(alg.index(x) for x in w): c for w, c in names_tensor.items()}


@pytest.mark.parametrize("gens", GEN_SETS)
def test_basis_words_are_the_super_lyndon_words(gens):
    alg = FreeLieAlgebra(gens, truncation=8)
    degrees = dict(gens)
    for n in range(1, 9):
        got = [alg.word_names(w) for w in alg.words(n)]
        assert got == oracles.super_lyndon_words(degrees, n), n


@pytest.mark.parametrize("gens", GEN_SETS)
def test_bases_built_in_any_degree_order_agree(gens):
    # each degree keeps its Lyndon words for the degrees above it, so a basis
    # built top-down or in a shuffled order must equal the ascending build
    top = 8
    ascending = FreeLieAlgebra(gens, truncation=top)
    for n in range(1, top + 1):
        ascending.words(n)
    degrees = dict(gens)
    for order in (range(top, 0, -1), random.Random(len(gens)).sample(range(1, top + 1), top)):
        alg = FreeLieAlgebra(gens, truncation=top)
        for n in order:
            alg.words(n)
        for n in range(1, top + 1):
            assert alg.words(n) == ascending.words(n), (list(order), n)
            assert [alg.word_names(w) for w in alg.words(n)] == oracles.super_lyndon_words(degrees, n)
        assert alg._split == ascending._split, list(order)


@pytest.mark.parametrize("gens", GEN_SETS)
def test_every_dimension_matches_tensor_rank_oracle(gens):
    alg = FreeLieAlgebra(gens, truncation=6)
    degrees = dict(gens)
    for n in range(1, 7):
        assert alg.dim(n) == oracles.lie_dim(degrees, n), n


def _degree_sets():
    """Generator degrees: the sets above, every fixture model's, and seeded
    sets of one to four generators in degrees 1-5."""
    sets = [tuple(d for _, d in gens) for gens in GEN_SETS]
    for path in sorted(FIXTURES.glob("*.dgl")):
        for model in parse_workspace(path.read_text(), truncation=12).models.values():
            sets.append(tuple(g.degree for g in model.generators))
    for seed in range(8):
        rng = random.Random(seed)
        sets.append(tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 4))))
    return sorted({tuple(sorted(s)) for s in sets if s})


@pytest.mark.parametrize("degrees", _degree_sets(), ids=lambda s: ",".join(map(str, s)))
def test_every_dimension_matches_the_pbw_identity(degrees):
    # past the tensor-rank oracle's degrees: up to the highest degree <= 40
    # whose bases together hold at most PBW_WORDS words, and at least to 9
    dims = oracles.pbw_lie_dims(degrees, 40)
    top = max([9] + [n for n in dims if sum(dims[k] for k in range(1, n + 1)) <= PBW_WORDS])
    alg = FreeLieAlgebra([(f"g{i}", d) for i, d in enumerate(degrees)], truncation=top)
    assert [alg.dim(n) for n in range(1, top + 1)] == [dims[n] for n in range(1, top + 1)]


@pytest.mark.parametrize("gens", GEN_SETS)
def test_basis_word_is_least_word_of_its_expansion(gens):
    # P_w has w as its least tensor word, with coefficient 1, or 2 for ww
    alg = FreeLieAlgebra(gens, truncation=8)
    for n in range(1, 9):
        for w in alg.words(n):
            e = oracles.expansion(alg, w)
            half = w[: len(w) // 2]
            square = len(w) > 1 and w == half + half
            assert min(e) == w and e[w] == (2 if square else 1), w
            assert all(type(c) is int for c in e.values())


@pytest.mark.parametrize("gens", GEN_SETS)
def test_left_normed_words_reduce_and_expand_back(gens):
    # the naive expansion of every left-normed word up to degree 7 lies in
    # the span of the basis, and its coordinates expand back to it exactly
    alg = FreeLieAlgebra(gens, truncation=7)
    degrees = dict(gens)
    for n in range(1, 8):
        for names in oracles.all_words(degrees, n):
            tensor = _oracle_tensor(alg, oracles.expand(oracles.left_normed(names), degrees))
            element = oracles.from_tensor(alg, n, tensor)
            assert oracles.tensor_expansion(element) == tensor, names


def test_tensor_outside_the_lie_subspace_is_an_internal_error(two_odd):
    # xy clears against [x,y] = xy + yx, and leaves yx, which is not a basis word
    with pytest.raises(InternalError):
        oracles.from_tensor(two_odd, 2, {(0, 1): F(1)})


def test_basis_word_is_the_bracket_of_its_standard_factors():
    alg = FreeLieAlgebra([("x", 1), ("y", 2)], truncation=8)
    words = [w for n in range(1, 9) for w in alg.words(n)]
    assert "[x,[x,[x,y]]]" in {str(basis_element(alg, w)) for w in words}
    for w in words:
        if len(w) > 1:
            u, v = alg.split(w)
            assert basis_element(alg, u).bracket(basis_element(alg, v)) == basis_element(alg, w), w


# -- int and Fraction coefficients against the tensor oracle ---------------------

# an integral coefficient may arrive as an int or as a Fraction with denominator 1
coefficients = st.one_of(
    st.integers(-3, 3),
    st.integers(-3, 3).map(F),
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
)
scalars = st.sampled_from([2, -3, F(2, 1), F(-3, 1), F(1, 2), F(-2, 3)])


def _tree(alg, word):
    """The bracket tree of names that a basis word stands for."""
    if len(word) == 1:
        return alg.generators[word[0]].name
    u, v = alg.split(word)
    return (_tree(alg, u), _tree(alg, v))


def _oracle(alg, element):
    """Naive tensor expansion of an element, through its bracket trees."""
    degrees = {g.name: g.degree for g in alg.generators}
    return oracles.combo_expand({_tree(alg, w): c for w, c in element.terms.items()}, degrees)


def _assert_canonical(element):
    for c in element.terms.values():
        assert type(c) is int or (type(c) is F and c.denominator != 1), repr(c)


@st.composite
def mixed_elements(draw, count=2, max_degree=3):
    gens = draw(gen_sets)
    alg = FreeLieAlgebra(gens, truncation=7)
    elements = []
    for _ in range(count):
        n = draw(st.integers(min_value=1, max_value=max_degree))
        elements.append(LieElement(alg, n, {w: draw(coefficients) for w in alg.words(n)}))
    return alg, elements


@settings(max_examples=60, deadline=None)
@given(mixed_elements(count=2), scalars)
def test_mixed_coefficient_arithmetic_matches_tensor_oracle(data, k):
    alg, (a, b) = data
    degrees = {g.name: g.degree for g in alg.generators}
    if a.degree != b.degree:
        b = alg.zero(a.degree)
    ka = k * a
    results = [a, b, a + b, ka, a - b]
    assert _oracle(alg, ka) == {t: k * c for t, c in _oracle(alg, a).items()}
    assert a * k == ka
    total = dict(_oracle(alg, a))
    for t, c in _oracle(alg, b).items():
        total[t] = total.get(t, 0) + c
    assert _oracle(alg, a + b) == {t: c for t, c in total.items() if c}
    if a.degree + b.degree <= alg.truncation:
        ab = a.bracket(b)
        results.append(ab)
        pairs = {(_tree(alg, u), _tree(alg, v)): cu * cv
                 for u, cu in a.terms.items() for v, cv in b.terms.items()}
        assert _oracle(alg, ab) == oracles.combo_expand(pairs, degrees)
        assert ka.bracket(b) == k * ab
    for x in results:
        _assert_canonical(x)
        # coordinates of the oracle's tensor, integral entries as ints: a
        # square ww with an odd coefficient divides an int by 2 exactly
        tensor = {tuple(alg.index(g) for g in t): c.numerator if c.denominator == 1 else c
                  for t, c in _oracle(alg, x).items()}
        back = oracles.from_tensor(alg, x.degree, tensor)
        assert back == x
        _assert_canonical(back)


@settings(max_examples=40, deadline=None)
@given(algebra_and_elements(count=1))
def test_int_and_fraction_coefficients_are_equal_and_hash_alike(data):
    alg, (a,) = data
    as_fractions = LieElement(alg, a.degree, {w: F(c) for w, c in a.terms.items()})
    assert as_fractions == a and hash(as_fractions) == hash(a)
    assert all(type(c) is int for c in as_fractions.terms.values())
    halved = a * F(1, 2)
    assert halved * 2 == a and hash(halved * 2) == hash(a)


@pytest.mark.parametrize("gens", GEN_SETS)
def test_brackets_leave_the_cached_expansions_unchanged(gens):
    # the cached expansions are the bracket terms of the non-standard pairs:
    # unit monomials fill them, and scaled monomials read them in place and
    # never change them
    alg = FreeLieAlgebra(gens, truncation=7)
    words = [w for n in range(1, 8) for w in alg.words(n)]
    pairs = [(basis_element(alg, u), basis_element(alg, v)) for u in words for v in words
             if alg.word_degree(u) + alg.word_degree(v) <= alg.truncation]
    for a, b in pairs:
        _assert_canonical(a.bracket(b))
    cached = {pair: dict(terms) for pair, terms in alg._bracket_cache.items()}
    assert cached
    for a, b in pairs:
        for x, y in ((a, 2 * b), (F(1, 2) * a, b), (-a, F(-3, 2) * b)):
            _assert_canonical(x.bracket(y))
    assert alg._bracket_cache == cached


def test_float_coefficients_are_refused(two_odd):
    x = two_odd.gen("x")
    with pytest.raises(PreconditionError):
        LieElement(two_odd, 1, {(0,): 0.5})
    with pytest.raises(PreconditionError):
        x * 2.0


def _basis_words(alg, top):
    return [w for n in range(1, top + 1) for w in alg.words(n)]


# -- every pair of basis words, against the tensor oracles ----------------------

REWRITE_SETS = [
    ((("x", 1), ("y", 1)), 10),
    ((("x", 1), ("y", 1), ("z", 1)), 7),
    ((("x", 1), ("a", 2), ("u", 3)), 11),
    ((("a", 2), ("b", 3), ("c", 5)), 16),
]


EVERY_PAIR_SETS = [(g, 7) for g in GEN_SETS] + REWRITE_SETS


@pytest.mark.parametrize("gens, top", EVERY_PAIR_SETS,
                         ids=[f"gens{i}" for i in range(len(EVERY_PAIR_SETS))])
def test_every_pair_of_basis_words_brackets_to_the_tensor_oracle(gens, top):
    # squares included: value against the expanded tree, and value, int type
    # and word order against the coordinates of the oracle's triangular
    # sweep; a second pass brackets scaled monomials
    alg = FreeLieAlgebra(gens, truncation=top)
    degrees = dict(gens)
    words = _basis_words(alg, top - 1)
    pairs = [(u, v) for u in words for v in words
             if alg.word_degree(u) + alg.word_degree(v) <= top]
    first = {}
    for u, v in pairs:
        got = basis_element(alg, u).bracket(basis_element(alg, v))
        _assert_canonical(got)
        assert _oracle(alg, got) == oracles.expand((_tree(alg, u), _tree(alg, v)), degrees), (u, v)
        want = oracles.swept_bracket(alg, u, v)
        assert [(w, type(c), c) for w, c in got.terms.items()] == \
            [(w, int, c) for w, c in want.items()], (u, v)
        first[u, v] = got
    for u, v in pairs:
        assert basis_element(alg, u).bracket(F(-1, 2) * basis_element(alg, v)) == F(-1, 2) * first[u, v]


@pytest.mark.parametrize("gens", GEN_SETS)
def test_a_standard_pair_is_its_own_basis_word(gens, monkeypatch):
    """[b_u, b_v] for the standard factors (u, v) of a basis word w is b_w,
    and [b_v, b_u] is -(-1)^{|u||v|} b_w: neither is rewritten."""
    alg = FreeLieAlgebra(gens, truncation=7)

    def refuse(*args):
        raise AssertionError("a standard pair was rewritten")

    monkeypatch.setattr(alg, "_pair", refuse)
    for w in _basis_words(alg, 7):
        if len(w) < 2:
            continue
        u, v = alg.split(w)
        a, b = basis_element(alg, u), basis_element(alg, v)
        sign = (-1) ** (a.degree * b.degree)
        assert a.bracket(b) == basis_element(alg, w)
        assert b.bracket(a) == -sign * basis_element(alg, w)
        assert (3 * a).bracket(F(1, 3) * b).terms == {w: 1}
    assert alg._bracket_cache == {}


@st.composite
def basis_triples(draw, top=10):
    gens, _ = draw(st.sampled_from(REWRITE_SETS))
    alg = FreeLieAlgebra(gens, truncation=top)
    low = min(d for _, d in gens)
    elements = []
    room = top
    for left in (2, 1, 0):  # elements still to draw after this one
        n = draw(st.sampled_from([n for n in range(low, room - left * low + 1) if alg.dim(n)]))
        words = draw(st.lists(st.sampled_from(alg.words(n)), min_size=1, max_size=3))
        elements.append(LieElement(alg, n, {w: draw(st.integers(-3, 3)) for w in words}))
        room -= n
    return alg, elements


@settings(max_examples=60, deadline=None)
@given(basis_triples())
def test_graded_jacobi_on_deep_words(data):
    # [a, [b, c]] = [[a, b], c] + (-1)^{|a||b|} [b, [a, c]] up to degree 10
    alg, (a, b, c) = data
    sign = (-1) ** (a.degree * b.degree)
    assert a.bracket(b.bracket(c)) == a.bracket(b).bracket(c) + sign * b.bracket(a.bracket(c))


def _rewrite_depth(alg, monkeypatch, pairs):
    """Deepest nesting of `_pair` calls while bracketing the given pairs."""
    rewrite = FreeLieAlgebra._pair
    depth = deepest = 0

    def counted(u, v):
        nonlocal depth, deepest
        depth += 1
        deepest = max(deepest, depth)
        try:
            return rewrite(alg, u, v)
        finally:
            depth -= 1

    monkeypatch.setattr(alg, "_pair", counted)
    for u, v in pairs:
        basis_element(alg, u).bracket(basis_element(alg, v))
    return deepest


def test_rewriting_recursion_stays_shallow(monkeypatch):
    # warm: every pair in turn on one algebra, so most sub-pairs are cached;
    # cold: each top-degree pair of a word of length <= 2 and a long word, the
    # deepest kind, alone on a fresh algebra
    gens, top = [("x", 1), ("y", 1)], 12
    alg = FreeLieAlgebra(gens, truncation=top)
    words = _basis_words(alg, top - 1)
    pairs = [(u, v) for u in words for v in words
             if alg.word_degree(u) + alg.word_degree(v) <= top]
    assert 1 < _rewrite_depth(alg, monkeypatch, pairs) < 50
    cold = max(_rewrite_depth(FreeLieAlgebra(gens, truncation=top), monkeypatch, [(u, v)])
               for u, v in pairs
               if alg.word_degree(u) + alg.word_degree(v) == top and min(len(u), len(v)) <= 2)
    assert 1 < cold < 50


def test_a_pair_with_no_rewriting_is_an_internal_error(two_odd):
    # x < yx, x is a letter and yx is neither Lyndon nor a square: no rule
    # applies to a word outside the basis
    two_odd.dim(3)
    with pytest.raises(InternalError):
        two_odd._pair((0,), (1, 0))


# -- standard pairs read from their factors, with no basis built ---------------


def _seeded_generators(seed):
    """Three or four generators of mixed parity with a repeated degree, and the
    largest truncation <= 10 that keeps their basis at 300 words or fewer."""
    rng = random.Random(seed)
    odd, even = rng.choice((1, 3)), rng.choice((2, 4))
    degrees = [odd, even, rng.choice((odd, even))] + [rng.randint(1, 4) for _ in range(rng.randint(0, 1))]
    gens = [(f"g{i}", d) for i, d in enumerate(sorted(degrees))]
    for top in range(10, 1, -1):
        alg = FreeLieAlgebra(gens, truncation=top)
        if sum(alg.dim(n) for n in range(1, top + 1)) <= 300:
            return gens, top


def _built(alg, full, word):
    """The basis element of `alg` that a basis word of `full` names, made by
    bracketing its standard factors, as a parsed model file makes it."""
    if len(word) == 1:
        return alg.gen(full.generators[word[0]].name)
    u, v = full.split(word)
    return _built(alg, full, u).bracket(_built(alg, full, v))


def _full_and_pairs(seed):
    gens, top = _seeded_generators(seed)
    full = FreeLieAlgebra(gens, truncation=top)
    words = _basis_words(full, top)
    pairs = [(u, v) for u in words for v in words
             if full.word_degree(u) + full.word_degree(v) <= top]
    random.Random(seed).shuffle(pairs)
    return gens, top, full, pairs


@pytest.mark.parametrize("seed", range(8))
def test_standard_pairs_are_decided_from_their_factors(seed):
    # on an algebra that knows only the factors of u and v, through the
    # brackets that made them, (u, v) is decided standard exactly when the
    # fully built basis factors uv as (u, v)
    gens, top, full, pairs = _full_and_pairs(seed)
    fresh = FreeLieAlgebra(gens, truncation=top)
    for u, v in pairs:
        _built(fresh, full, u), _built(fresh, full, v)
        decided = fresh._lyndon(u) and fresh._lyndon(v) and fresh._standard((u,), (v,)) == [u + v]
        assert decided == (full._split.get(u + v) == (u, v)), (u, v)
    assert fresh._basis_cache == {}
    assert all(full._split[w] == uv for w, uv in fresh._split.items())


@pytest.mark.parametrize("seed", range(8))
def test_brackets_build_no_basis_and_match_the_built_algebra(seed):
    # every pair of basis words, then whole-degree elements with int and
    # Fraction coefficients: value, type and dict order as on an algebra
    # whose bases were all built, and no basis built by a bracket
    gens, top, full, pairs = _full_and_pairs(seed)
    fresh = FreeLieAlgebra(gens, truncation=top)
    for u, v in pairs:
        got = _built(fresh, full, u).bracket(_built(fresh, full, v))
        want = basis_element(full, u).bracket(basis_element(full, v))
        assert in_order([got.terms]) == in_order([want.terms]), (u, v)
    rng = random.Random(seed)
    scalars = (1, -2, 3, F(1, 2), F(-3, 4))
    for p in range(1, top):
        for q in range(1, top - p + 1):
            a = {w: rng.choice(scalars) for w in full.words(p)}
            b = {w: rng.choice(scalars) for w in full.words(q)}
            got = LieElement(fresh, p, a).bracket(LieElement(fresh, q, b))
            want = LieElement(full, p, a).bracket(LieElement(full, q, b))
            assert in_order([got.terms]) == in_order([want.terms]), (p, q)
    assert fresh._basis_cache == {}
