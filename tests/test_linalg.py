from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dglcalc import linalg
from dglcalc.errors import PreconditionError

from . import oracles
from .oracles import bareiss_rref, dense, dense_rank, solve_columns


F = Fraction


def _columns(data):
    """The sparse columns of a dense matrix given as a list of rows."""
    return [{i: F(row[j]) for i, row in enumerate(data) if row[j]} for j in range(len(data[0]))]


def test_rank_zero_matrix():
    rr = linalg.rref([{}, {}, {}])
    assert rr.rank == 0
    assert len(rr.kernel) == 3


def test_kernel_of_identity_is_empty():
    assert linalg.rref(_columns([[1, 0], [0, 1]])).kernel == []


def test_solve_exact_rational_division():
    assert solve_columns(_columns([[2]]), {0: F(1)}) == {0: F(1, 2)}


def test_solve_inconsistent_returns_none():
    assert solve_columns(_columns([[1, 1], [1, 1]]), {1: F(1)}) is None


def test_quotient_basis_dimension():
    z = [{0: F(1)}, {1: F(1)}, {2: F(1)}]
    b = [{0: F(1), 1: F(2)}]
    q = linalg.quotient_basis(linalg.rref(z), linalg.rref(b))
    assert len(q.rows) == 2


def test_quotient_basis_rejects_non_subspace():
    z = [{0: F(1)}]
    b = [{1: F(1)}]
    with pytest.raises(PreconditionError):
        linalg.quotient_basis(linalg.rref(z), linalg.rref(b))


def test_intersect():
    a = [{0: F(1)}, {1: F(1)}]
    b = [{1: F(1)}, {2: F(1)}]
    got = linalg.intersect(linalg.rref(a), linalg.rref(b))
    assert got == [{1: F(1)}]


def test_rref_and_intersect_eliminate_once(monkeypatch):
    """The kernel comes out of rref's one pass already reduced, and intersect
    reads its reduced result from one elimination of the stacked rows."""
    rows = [{0: F(1), 1: F(2)}, {0: F(2), 1: F(4)}, {1: F(1)}, {0: F(3), 1: F(7)}]
    a = linalg.rref([{0: F(1)}, {1: F(1)}, {2: F(1)}])
    b = linalg.rref([{1: F(1), 3: F(1)}, {0: F(1), 2: F(2)}, {1: F(1), 2: F(1)}])
    calls = []
    real = linalg.rref

    def counting(arg):
        calls.append(len(arg))
        return real(arg)

    monkeypatch.setattr(linalg, "rref", counting)
    rr = linalg.rref(rows)
    assert calls == [4] and rr.rank == 2
    assert rr.kernel == [{0: F(1), 2: F(1, 3), 3: F(-1, 3)}, {1: F(1), 2: F(2, 3), 3: F(-2, 3)}]
    calls.clear()
    got = linalg.intersect(a, b)
    assert calls == [6]
    assert got == [{0: F(1), 2: F(2)}, {1: F(1), 2: F(1)}]


small_entries = st.integers(min_value=-6, max_value=6)


@st.composite
def matrices(draw):
    """The columns of a small integer matrix."""
    nrows = draw(st.integers(min_value=1, max_value=5))
    ncols = draw(st.integers(min_value=1, max_value=5))
    rows = [[draw(small_entries) for _ in range(ncols)] for _ in range(nrows)]
    return _columns(rows)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_vectors_annihilate(cols):
    for k in linalg.rref(cols).kernel:
        assert linalg.combine(k, cols) == {}


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_nullity(cols):
    rr = linalg.rref(cols)
    assert rr.rank + len(rr.kernel) == len(cols)


@settings(max_examples=60, deadline=None)
@given(matrices(), st.lists(small_entries, min_size=1, max_size=5))
def test_solve_is_exact_when_solvable(cols, coeffs):
    # build a solvable right-hand side from a known combination
    x = {j: F(c) for j, c in enumerate(coeffs[: len(cols)]) if c}
    b = linalg.combine(x, cols)
    sol = solve_columns(cols, b)
    assert sol is not None
    assert linalg.combine(sol, cols) == b


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_rref_rows_span_input(rows):
    rr = linalg.rref(rows)
    # each reduced row must be a combination of the input rows
    for row in rr.rows:
        assert solve_columns(rows, row) is not None
    # every kernel combo really kills the rows
    for combo in rr.kernel:
        assert linalg.combine(combo, rows) == {}


@st.composite
def sparse_rational_matrices(draw):
    """Rows of a sparse rational matrix up to 25 x 25 with density 0.1-0.5,
    non-integer entries, zero rows, repeated rows and combinations of rows."""
    nrows = draw(st.integers(min_value=0, max_value=25))
    ncols = draw(st.integers(min_value=1, max_value=25))
    density = draw(st.floats(min_value=0.1, max_value=0.5))
    rng = draw(st.randoms(use_true_random=False))
    rows = []
    for _ in range(nrows):
        kind = rng.choice(("fresh", "fresh", "fresh", "zero", "repeat", "combination"))
        if kind == "zero":
            row = {}
        elif kind == "repeat" and rows:
            row = dict(rng.choice(rows))
        elif kind == "combination" and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            row = linalg.vec_add(linalg.vec_add({}, a, F(rng.randint(-3, 3), 2)), b,
                                 F(rng.randint(1, 4), rng.randint(1, 3)))
        else:
            row = {
                j: F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))
                for j in range(ncols) if rng.random() < density
            }
        rows.append(row)
    return rows


def _canonical(vectors):
    """Vectors as sorted (index, type name, value) triples: dict order is
    ignored, and an int differs from an equal Fraction."""
    return [[(k, type(v).__name__, v) for k, v in sorted(vec.items())] for vec in vectors]


def _by_rule(vectors):
    """The oracle's Fraction entries in the coefficient rule's type: an int
    when integral, else the Fraction."""
    return [{k: v.numerator if v.denominator == 1 else v for k, v in vec.items()}
            for vec in vectors]


def _follows_rule(v) -> bool:
    """An int exactly when integral, a Fraction otherwise, never a float."""
    return type(v) is int or (type(v) is F and v.denominator != 1)


@settings(max_examples=100, deadline=None)
@given(sparse_rational_matrices())
def test_rref_matches_bareiss_oracle(rows):
    want = bareiss_rref(rows)
    got = linalg.rref(rows)
    assert got.pivots == want.pivots
    assert _canonical(got.rows) == _canonical(_by_rule(want.rows))
    assert _canonical(got.kernel) == _canonical(_by_rule(want.kernel))


@settings(max_examples=100, deadline=None)
@given(sparse_rational_matrices(), st.data())
def test_coords_are_the_combination_and_none_outside_the_span(rows, data):
    rr = linalg.rref(rows)
    fractions = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
    drawn = data.draw(st.lists(fractions, min_size=rr.rank, max_size=rr.rank))
    coeffs = {i: c for i, c in enumerate(drawn) if c}
    vec = linalg.combine(coeffs, rr.rows)
    assert rr.coords(vec) == coeffs
    # a unit vector off the pivots is outside the span, and so is its sum with vec
    free = data.draw(st.sampled_from([j for j in range(26) if j not in rr.pivots]))
    assert rr.coords(linalg.vec_add(vec, {free: F(1)})) is None


@st.composite
def sup_and_sub(draw):
    """Two row lists over the same columns; sub's rows are mostly
    combinations of sup's rows, sometimes fresh, so both answers occur."""
    ncols = draw(st.integers(min_value=1, max_value=8))
    rng = draw(st.randoms(use_true_random=False))

    def fresh():
        return {j: F(rng.randint(-4, 4), rng.randint(1, 3)) for j in range(ncols)
                if rng.random() < 0.4}

    sup = [fresh() for _ in range(draw(st.integers(min_value=0, max_value=6)))]
    sub = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        if sup and rng.random() < 0.8:
            row = {}
            for r in sup:
                row = linalg.vec_add(row, r, F(rng.randint(-2, 2), rng.randint(1, 2)))
            sub.append(row)
        else:
            sub.append(fresh())
    return ncols, sup, sub


@settings(max_examples=300, deadline=None)
@given(sup_and_sub())
def test_quotient_basis_refuses_exactly_the_non_subspaces(case):
    ncols, sup, sub = case
    rsup, rsub = linalg.rref(sup), linalg.rref(sub)
    rank_sup, rank_sub = dense_rank(dense(sup, ncols)), dense_rank(dense(sub, ncols))
    if dense_rank(dense(sup + sub, ncols)) > rank_sup:
        with pytest.raises(PreconditionError):
            linalg.quotient_basis(rsup, rsub)
    else:
        assert len(linalg.quotient_basis(rsup, rsub).rows) == rank_sup - rank_sub


@settings(max_examples=300, deadline=None)
@given(sup_and_sub())
def test_quotient_basis_matches_the_eliminating_oracle(case):
    ncols, sup, sub = case
    rank_sup = dense_rank(dense(sup, ncols))
    sub = [row for row in sub if dense_rank(dense(sup + [row], ncols)) == rank_sup]
    rsup, rsub = linalg.rref(sup), linalg.rref(sub)
    got, want = linalg.quotient_basis(rsup, rsub), oracles.quotient_basis(rsup, rsub)
    assert got.pivots == want.pivots
    assert _canonical(got.rows) == _canonical(_by_rule(want.rows))


def test_quotient_basis_reads_the_rows_off_sup(monkeypatch):
    """The rows of sup at pivots outside sub's are the quotient's rows as
    they are, and nothing is eliminated."""
    sup = linalg.rref([{0: F(1), 2: F(1)}, {1: F(1), 3: F(2)}, {2: F(1), 3: F(1)}])
    sub = linalg.rref([{0: F(1), 1: F(1), 2: F(2), 3: F(3)}])  # the sum of sup's input rows
    # sub's pivot is one of sup's, but the rest of the row leaves the span
    outside = linalg.rref([{0: F(1), 3: F(1)}])
    calls = []
    monkeypatch.setattr(linalg, "rref", lambda rows: calls.append(rows))
    q = linalg.quotient_basis(sup, sub)
    assert calls == []
    assert q.pivots == [1, 2] and q.rows == [sup.rows[1], sup.rows[2]]
    with pytest.raises(PreconditionError):
        linalg.quotient_basis(sup, outside)
    assert calls == []


@settings(max_examples=200, deadline=None)
@given(sup_and_sub())
def test_intersect_matches_dense_ranks(case):
    ncols, a, b = case
    got = linalg.intersect(linalg.rref(a), linalg.rref(b))
    rank_a, rank_b = dense_rank(dense(a, ncols)), dense_rank(dense(b, ncols))
    assert len(got) == rank_a + rank_b - dense_rank(dense(a + b, ncols))
    assert _canonical(linalg.rref(got).rows) == _canonical(got)
    for row in got:
        assert dense_rank(dense(a + [row], ncols)) == rank_a
        assert dense_rank(dense(b + [row], ncols)) == rank_b


@settings(max_examples=200, deadline=None)
@given(sup_and_sub(), st.data())
def test_echelon_entries_are_int_exactly_when_integral(case, data):
    """Every echelon form, quotient, intersection and coordinate vector
    follows the coefficient rule, though every input entry is a Fraction."""
    ncols, sup, sub = case
    rsup, rsub = linalg.rref(sup), linalg.rref(sub)
    inside = linalg.rref([row for row in sub if not rsup.reduce(row)])
    fractions = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
    drawn = data.draw(st.lists(fractions, min_size=rsup.rank, max_size=rsup.rank))
    coeffs = {i: c for i, c in enumerate(drawn) if c}
    vec = _by_rule([linalg.combine(coeffs, rsup.rows)])[0]
    coords = rsup.coords(vec)
    assert coords == coeffs
    vectors = [
        *rsup.rows, *rsup.kernel, *rsub.rows, *rsub.kernel,
        *rsup.kernel_space().rows, *linalg.quotient_basis(rsup, inside).rows,
        *linalg.intersect(rsup, rsub), coords,
    ]
    bad = [(vec, v) for vec in vectors for v in vec.values() if not _follows_rule(v)]
    assert not bad
