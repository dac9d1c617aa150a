#!/usr/bin/env python3
"""Compute the headline invariants of every shipped fixture and print them.

Reproduces on one page: the pinch-collapse quotient, the two one-cell
attachment branches of the G-sequence, and the coformal factor inclusion.
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dglcalc import EvaluationContext, adjoint, coformal_bounding_derivation, parse_workspace


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
TRUNCATION = 12


def pinch_report():
    ws = parse_workspace((FIXTURES / "cp2_to_s4.dgl").read_text(), TRUNCATION)
    ctx = EvaluationContext(ws.map("f"))
    ev = ctx.evaluation_subgroup(4)
    ce = ctx.whitehead_center(4)
    gvp = ctx.g_vs_p(4)
    print("pinch collapse CP2 -> S4, topological degree 4:")
    print(f"  evaluation subgroup : dim {ev.dimension}")
    print(f"  Whitehead center    : dim {ce.dimension}  <{ce.representatives[0]}>")
    print(f"  center/evaluation   : dim {gvp.quotient_dim}")


def one_cell_reports():
    for name, label in (
        ("one_cell_attachment.dgl", "cell attached along a Gottlieb element"),
        ("contractible_pair.dgl", "cell collapsing the space to a point"),
    ):
        ws = parse_workspace((FIXTURES / name).read_text(), TRUNCATION)
        ctx = EvaluationContext(ws.map("i"))
        term = ctx.g_sequence([3])[3]
        print(f"{label}:")
        print(
            f"  G-sequence at degree 3: G={term.gottlieb_dim} "
            f"G(map)={term.evaluation_dim} Grel={term.relative_dim} "
            f"omega={term.omega_dim}"
        )


def coformal_report():
    ws = parse_workspace((FIXTURES / "s3_into_s3xs3.dgl").read_text(), TRUNCATION)
    ctx = EvaluationContext(ws.map("j"))
    tops = ctx.trusted_tops()
    quotients = {t: ctx.g_vs_p(t).quotient_dim for t in tops}
    omegas = {t: term.omega_dim for t, term in ctx.g_sequence(tops).items()}
    print("coformal factor inclusion S3 -> S3 x S3:")
    print(f"  trusted degrees {tops[0]}..{tops[-1]}")
    print(f"  center/evaluation quotients: {sorted(set(quotients.values()))}")
    print(f"  omega-homology dims        : {sorted(set(omegas.values()))}")
    for top in tops:
        for rep in ctx.evaluation_subgroup(top).representatives:
            theta = coformal_bounding_derivation(ctx.psi, rep)
            assert theta.differential() == adjoint(ctx.psi, rep)
            print(f"  bounding derivation for <{rep}> found (degree {theta.degree})")


def main():
    start = time.perf_counter()
    pinch_report()
    one_cell_reports()
    coformal_report()
    print(f"total {time.perf_counter() - start:.2f}s")


if __name__ == "__main__":
    main()
