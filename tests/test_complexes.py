from pathlib import Path

import pytest

from dglcalc import linalg
from dglcalc.complexes import DglComplex
from dglcalc.subgroups import EvaluationContext
from dglcalc.modelfile import parse_workspace

from .helpers import random_validated_morphism
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
