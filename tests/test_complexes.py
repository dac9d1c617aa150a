from pathlib import Path

import pytest

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
