"""A nonzero composite in the G-sequence or the LES check is an internal error.

Each case replaces one map of a cone's long exact sequence by columns that
send one class to a class the next map does not kill, so the composite
through one term is nonzero.  The cases cover both shapes of that term: the
outgoing map with a zero kernel and with a nonzero one.  Computing the term's
homology must raise `InternalError`, and the CLI must exit 4 with one
`internal error:` line.
"""
from dataclasses import dataclass

import pytest

from dglcalc import InternalError, cli, linalg
from dglcalc.modelfile import parse_workspace
from dglcalc.relative import RelComplex
from dglcalc.subgroups import EvaluationContext

from .helpers import FIXTURES

# L(x), |x| = 1, into its product with S^4 (as `product_model` builds it)
PRODUCT = """
model A { gen x : deg 1; }
model B { gen x : deg 1; gen v : deg 3; gen y : deg 5; d y = [v,x]; }
map i : A -> B { x -> x; }
"""


@dataclass
class Case:
    text: str
    map: str
    truncation: int
    command: str
    top: int  # topological degree of the command
    cone: str  # RelComplex.name of the patched cone
    les_map: str  # "phi_star", "j_star" or "p_star"
    degree: int  # internal degree of the patched map
    kernel_zero: bool  # the outgoing map at the broken term is injective


CASES = {
    # omega term: P_* from G^rel_3 lands in G_2(L), where psi_* is injective
    "gseq-kernel-zero": Case(PRODUCT, "i", 9, "gseq", 3, "rel", "p_star", 3, True),
    # evaluation term: J_* on G_2 sends the image of G_2(L) into G^rel_2
    "gseq-kernel-nonzero": Case(
        (FIXTURES / "s3_into_s3xs3.dgl").read_text(), "j", 10,
        "gseq", 3, "rel", "j_star", 2, False,
    ),
    # node H_2(Der): phi_* lands where J_* is injective
    "les-kernel-zero": Case(PRODUCT, "i", 9, "les", 3, "evaluation", "phi_star", 2, True),
    # node H_5(Der): phi_* lands outside the kernel of J_*, which has rank 1 of 2
    "les-kernel-nonzero": Case(
        (FIXTURES / "one_cell_attachment.dgl").read_text(), "i", 12,
        "les", 6, "evaluation", "phi_star", 5, False,
    ),
}


def _sending_one_class(n_cols: int, source: int, image: dict) -> list:
    """Columns that send class `source` to `image` and every other class to 0."""
    cols = [{} for _ in range(n_cols)]
    cols[source] = dict(image)
    return cols


def _broken_term(case: Case):
    """(patched columns, incoming and outgoing maps at the broken term), from an
    unpatched context; the maps are in the term's coordinates."""
    ctx = EvaluationContext(parse_workspace(case.text, case.truncation).map(case.map))
    n = case.degree
    if case.command == "les":
        rel = ctx.rel_ad
        j_cols = rel.j_star(n)
        target = next(k for k, col in enumerate(j_cols) if col)
        cols = _sending_one_class(len(rel.phi_star(n)), 0, {target: 1})
        return cols, cols, j_cols
    m = case.top - 1
    gl, gk = ctx._kernel(ctx.rel_ad_L, m), ctx._kernel(ctx.rel_ad, m)
    r_psi = ctx._restricted_map(gl, gk, ctx.rel.phi_star(m))
    if case.les_map == "p_star":  # into G_m(L), then psi_*
        grel_up = ctx._kernel(ctx.rel_ad_pair, m + 1)
        cols = _sending_one_class(len(ctx.rel.p_star(n)), grel_up.basis.pivots[0], gl.basis.rows[0])
        return cols, ctx._restricted_map(grel_up, gl, cols), r_psi
    grel = ctx._kernel(ctx.rel_ad_pair, m)  # psi_*, then J_* into G^rel_m
    cols = _sending_one_class(len(ctx.rel.j_star(n)), gk.basis.pivots[0], grel.basis.rows[0])
    return cols, r_psi, ctx._restricted_map(gk, grel, cols)


def _patch(monkeypatch, case: Case, cols: list) -> None:
    """Make the cone named case.cone return cols as its map at case.degree."""
    original = getattr(RelComplex, case.les_map)

    def patched(self, n):
        if self.name == case.cone and n == case.degree:
            return cols
        return original(self, n)

    monkeypatch.setattr(RelComplex, case.les_map, patched)


@pytest.mark.parametrize("name", CASES)
def test_the_patched_term_has_a_nonzero_composite_of_the_named_shape(name):
    case = CASES[name]
    _, incoming, outgoing = _broken_term(case)
    assert any(linalg.combine(col, outgoing) for col in incoming)
    assert (not linalg.rref(outgoing).kernel) == case.kernel_zero


@pytest.mark.parametrize("name", CASES)
def test_a_nonzero_composite_is_an_internal_error(name, monkeypatch):
    case = CASES[name]
    cols, _, _ = _broken_term(case)
    _patch(monkeypatch, case, cols)
    ctx = EvaluationContext(parse_workspace(case.text, case.truncation).map(case.map))
    with pytest.raises(InternalError):
        if case.command == "gseq":
            ctx.g_sequence([case.top])
        else:
            ctx.les([case.top - 1])


@pytest.mark.parametrize("name", CASES)
def test_a_nonzero_composite_exits_4_on_one_line(name, monkeypatch, tmp_path, capsys):
    case = CASES[name]
    cols, _, _ = _broken_term(case)
    _patch(monkeypatch, case, cols)
    path = tmp_path / "maps.dgl"
    path.write_text(case.text)
    argv = [case.command, str(path), case.map, "--top-degree", str(case.top),
            "--max-degree", str(case.truncation)]
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 4
    assert out == ""
    assert err.startswith("internal error: ") and err.count("\n") == 1
