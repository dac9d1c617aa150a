import random
from fractions import Fraction
from pathlib import Path

import pytest

from dglcalc import linalg
from dglcalc.complexes import DglComplex
from dglcalc.relative import RelComplex
from dglcalc.subgroups import EvaluationContext
from dglcalc.modelfile import parse_workspace

from .helpers import (
    CONTEXT_COMPLEXES,
    FIXTURE_MAPS,
    cmd_mix_map,
    cmd_mix_map_ids,
    column_builds,
    fixture_map,
    in_order,
    random_validated_morphism,
)
from .oracles import two_elimination_homology

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _cases():
    for path in sorted(FIXTURES.glob("*.dgl")):
        ws = parse_workspace(path.read_text(), truncation=10)
        for name in sorted(ws.maps):
            yield pytest.param(ws.map(name), id=f"{path.stem}-{name}")
    for seed in range(6):
        yield pytest.param(random_validated_morphism(seed, truncation=7), id=f"random-{seed}")


@pytest.mark.parametrize("psi", _cases())
def test_single_elimination_homology_matches_two_eliminations(psi):
    ctx = EvaluationContext(psi)
    low = -max((g.degree for g in psi.source.generators), default=0) - 1
    top = max(psi.source.truncation, psi.target.truncation) + 1
    checked = 0
    for cplx in (ctx.cL, ctx.cK, ctx.der_LL, ctx.der_LK, ctx.rel, ctx.rel_star):
        for n in range(low, top + 1):
            if not cplx.computable(n):
                continue
            h = cplx.homology(n)
            cycles, boundaries, reps, trusted = two_elimination_homology(cplx, n)
            assert h.cycles.rows == cycles, (cplx, n)
            assert h.boundaries.rows == boundaries, (cplx, n)
            assert h.rep_rows == reps, (cplx, n)
            assert h.trusted == trusted, (cplx, n)
            checked += 1
    assert checked


def test_homology_eliminates_only_the_two_differentials(monkeypatch):
    """A slice reads its quotient off the echelon forms of d_n and d_{n+1}:
    those two eliminations are the only ones, and quotient_basis runs none."""
    ws = parse_workspace((FIXTURES / "one_cell_attachment.dgl").read_text(), truncation=8)
    cplx = DglComplex(ws.model("Y"))
    calls = []
    real = linalg.rref

    def counting(rows):
        calls.append(rows)
        return real(rows)

    monkeypatch.setattr(linalg, "rref", counting)
    for n, dims in ((5, (2, 1, 1)), (7, (4, 3, 1))):
        calls.clear()
        h = cplx.homology(n)
        assert (h.cycles.rank, h.boundaries.rank, h.dim) == dims
        assert len(calls) == 2
        assert calls[0] is cplx.columns(n) and calls[1] is cplx.columns(n + 1)
        calls.clear()
        linalg.quotient_basis(h.cycles, h.boundaries)
        assert calls == []


# -- d of a lone vector ------------------------------------------------------------

COEFFS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3))


def _vectors(rng, dim) -> list:
    """Up to eight unit vectors and four seeded sparse vectors of C_n, some
    with Fraction coefficients."""
    units = [{i: 1} for i in sorted(rng.sample(range(dim), min(dim, 8)))]
    sparse = []
    for _ in range(4):
        support = rng.sample(range(dim), rng.randint(1, min(dim, 4)))
        sparse.append({i: rng.choice(COEFFS) for i in support})
    return units + sparse


@pytest.mark.parametrize(
    "case", [*FIXTURE_MAPS, *cmd_mix_map_ids()],
    ids=lambda c: ":".join(c) if isinstance(c, tuple) else c,
)
def test_apply_d_builds_only_the_columns_of_its_support(case, monkeypatch):
    # d of a lone vector is the object differential, to_vector(n - 1,
    # d(from_vector(n, vec))): it builds no column at all, and it equals
    # combine of vec over the whole d_columns(n) of a second context, in
    # value, in type under the coefficient rule (combine keeps a Fraction
    # that is integral) and for a unit vector in dict order too.  A cone's also
    # equals delta(w, v) = (phi(v) - d_W(w), d_V(v)) read from the columns of
    # the factors.
    psi = fixture_map(*case) if isinstance(case, tuple) else cmd_mix_map(case)
    built = column_builds(monkeypatch)
    fresh, whole = EvaluationContext(psi), EvaluationContext(psi)
    rng = random.Random(str(case))
    checked = set()
    for name in CONTEXT_COMPLEXES:
        cplx, ref = getattr(fresh, name), getattr(whole, name)
        for n in range(-6, cplx.trunc + 1):
            if not (cplx.complete(n) and cplx.dim(n)):
                continue
            vectors, start = _vectors(rng, cplx.dim(n)), len(built)
            got = [cplx.to_vector(n - 1, cplx.d(cplx.from_vector(n, vec))) for vec in vectors]
            assert len(built) == start and cplx.record(n).columns is None, (name, n)
            cols = ref.d_columns(n)
            want = [
                {k: linalg.coeff(c) for k, c in linalg.combine(vec, cols).items()} for vec in vectors
            ]
            assert [sorted(v) for v in in_order(got)] == [sorted(v) for v in in_order(want)], (name, n)
            for vec, d, w in zip(vectors, got, want):
                if list(vec.values()) == [1]:
                    assert in_order([d]) == in_order([w]), (name, n, vec)
            if isinstance(cplx, RelComplex):
                for vec, d in zip(vectors, got):
                    w, v = cplx.split(n, vec)
                    image = ref.W.to_vector(n - 1, ref.phi(ref.V.from_vector(n - 1, v))) if v else {}
                    d_w = linalg.vec_add(image, linalg.combine(w, ref.W.columns(n)), -1)
                    delta = cplx.join(n - 1, d_w, linalg.combine(v, ref.V.columns(n - 1)))
                    assert d == delta, (name, n, vec)
            checked.add(name)
    assert checked == set(CONTEXT_COMPLEXES)
