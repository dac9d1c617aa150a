#!/usr/bin/env python3
"""Randomized audit of the long exact sequence, the product construction, the
free-Lie bracket, the derivation-complex boundaries, the evaluation screen,
the homotopy invariance of the map reports and the object differentials.

Draws seeded random models and morphisms, assembles the long exact derivation
homology sequence, and checks exactness at every trusted node; then builds
random product models and checks the homology additivity they must satisfy;
then draws random generator sets (odd and even, degrees 1-3) and checks the
bracket of every pair of basis words against the tensor-embedding oracle;
then, for the same random morphisms and the identities of their source and
target, checks that `DerComplex.boundaries(n)` equals the Bareiss elimination
of the columns of D_{n+1} that the oracle derivations of `tests/oracles.py`
build, in pivots and in the value of each row entry, whose type must follow
the coefficient rule, at every degree where D_{n+1} is complete; then,
on the same morphisms and identities, screens every subgroup kernel by
evaluation at the source's cycles at every size, and checks each kernel
against the echelon kernel of phi_* of its adjoint cone, in pivots and in the
value, type and dict order of each row entry, and checks that the `g_vs_p`
witnesses at every computable top are independent cycles of Der(L, K; psi),
as many as its quotient dimension, whose classes span im phi_* & ker i as
`tests/oracles.gvp_witness_space` reads it; finally, on every fixture map
and the same morphisms, checks that the JSON reports of the map commands are
homotopy invariants: psi's `gseq`, `omega` and `les` reports, computed
without reducing its target, equal those of psi pushed into seeded
presentations of its target with contractible pairs (alone, and after a
unitriangular change of generators), whether those are reduced to their
minimal quotient or not; and, with representatives left out, so do its
`evsub`, `center`, `grel` and `gvp` reports and `gottlieb` of its target,
and the reports of psi read on such presentations of its source, on the
degrees both report;
last, on every complex and cone of an evaluation context of the same
morphisms, checks that the object differential `d` of each basis vector
equals its column, in value, type and dict order.

    python3 scripts/random_exactness_audit.py [--morphisms 50] [--products 20]
        [--max-generators 4] [--truncation 8] [--seed-offset 0]

Exits 1 if any audit finds a failure; all seven audits always run.
"""
from __future__ import annotations

import argparse
import random
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from dglcalc import DglError, DglMorphism, EvaluationContext, FreeLieAlgebra, linalg, subgroups
from dglcalc.complexes import DglComplex
from dglcalc.constructions import product_model, sphere_wedge_model
from dglcalc.derivations import DerComplex

from tests import oracles
from tests.helpers import (
    CONTEXT_COMPLEXES,
    FIXTURE_MAPS,
    INVARIANT_COMMANDS,
    basis_element,
    fixture_map,
    gvp_witness_check,
    in_order,
    invariant_differences,
    map_reports,
    random_model,
    random_validated_morphism,
    with_contractible_pairs,
    with_source_pairs,
)

BRACKET_SETS = 20  # seeded generator sets the bracket audit draws


@dataclass
class Config:
    morphisms: int = 50
    products: int = 20
    max_generators: int = 4
    truncation: int = 8
    seed_offset: int = 0


def audit_les(cfg: Config):
    trusted = 0
    failures = []
    for seed in range(cfg.seed_offset, cfg.seed_offset + cfg.morphisms):
        psi = random_validated_morphism(seed, max_gens=cfg.max_generators, truncation=cfg.truncation)
        report = EvaluationContext(psi).les(range(1, cfg.truncation - 2))
        for node in report.trusted_nodes():
            trusted += 1
            if not node.exact:
                failures.append((seed, node))
    print(f"long exact sequence: {trusted} trusted nodes, {len(failures)} failures")
    return not failures


def audit_products(cfg: Config):
    failures = []
    for seed in range(cfg.seed_offset, cfg.seed_offset + cfg.products):
        base = random_model(seed, max_gens=2, truncation=cfg.truncation + 1, max_degree=3)
        spheres = [2] if seed % 3 == 0 else ([3] if seed % 3 == 1 else [2, 2])
        pm = product_model(base, spheres)
        if not pm.model.validate().d_squared_ok:
            failures.append((seed, "d^2"))
            continue
        wedge = sphere_wedge_model(spheres, truncation=base.truncation)
        cx, wedge_cx, base_cx = DglComplex(pm.model), DglComplex(wedge), DglComplex(base)
        for n in range(1, pm.model.truncation):
            if not cx.complete(n + 1):
                break
            lhs = cx.homology(n).dim
            rhs = wedge_cx.homology(n).dim + base_cx.homology(n).dim
            if lhs != rhs:
                failures.append((seed, n, lhs, rhs))
    print(f"product models: {cfg.products} checked, {len(failures)} failures")
    return not failures


def audit_brackets(cfg: Config):
    pairs = 0
    failures = []
    for seed in range(cfg.seed_offset, cfg.seed_offset + BRACKET_SETS):
        rng = random.Random(seed)
        count = rng.randint(1, cfg.max_generators)
        alg = FreeLieAlgebra([(f"g{i}", rng.randint(1, 3)) for i in range(count)], cfg.truncation)
        words = [w for n in range(1, cfg.truncation) for w in alg.words(n)]
        for u in words:
            for v in words:
                if alg.word_degree(u) + alg.word_degree(v) > cfg.truncation:
                    continue
                pairs += 1
                got = basis_element(alg, u).bracket(basis_element(alg, v)).terms
                want = oracles.swept_bracket(alg, u, v)
                if [(w, type(c), c) for w, c in got.items()] != [(w, int, c) for w, c in want.items()]:
                    failures.append((seed, u, v))
    print(f"brackets: {BRACKET_SETS} generator sets, {pairs} pairs, {len(failures)} failures")
    return not failures


def audit_der_boundaries(cfg: Config):
    complexes, degrees = 0, 0
    failures = []
    for seed in range(cfg.seed_offset, cfg.seed_offset + cfg.morphisms):
        psi = random_validated_morphism(seed, max_gens=cfg.max_generators, truncation=cfg.truncation)
        for kind, phi in (("map", psi), ("source", DglMorphism.identity(psi.source)),
                          ("target", DglMorphism.identity(psi.target))):
            complexes += 1
            cx = DerComplex(phi)
            for n in range(-phi.source.max_generator_degree, cx.trunc + 1):
                if not cx.complete(n + 1):
                    continue
                degrees += 1
                got = cx.boundaries(n)
                full = oracles.bareiss_rref(oracles.der_columns(cx, n + 1))
                rows = [{k: linalg.coeff(c) for k, c in row.items()} for row in full.rows]
                entries = [[sorted(row) for row in in_order(e)] for e in (got.rows, rows)]
                if got.pivots != full.pivots or entries[0] != entries[1]:
                    failures.append((seed, kind, n))
    print(f"derivation boundaries: {complexes} complexes, {degrees} degrees, {len(failures)} failures")
    return not failures


def audit_screen(cfg: Config):
    kernels, decided, quotients = 0, 0, 0
    failures = []
    floor, subgroups.SCREEN_MIN_COLUMNS = subgroups.SCREEN_MIN_COLUMNS, 0
    try:
        for seed in range(cfg.seed_offset, cfg.seed_offset + cfg.morphisms):
            psi = random_validated_morphism(seed, max_gens=cfg.max_generators, truncation=cfg.truncation)
            for kind, phi in (("map", psi), ("source", DglMorphism.identity(psi.source)),
                              ("target", DglMorphism.identity(psi.target))):
                ctx = EvaluationContext(phi)
                screen, verdicts = ctx._screen, []
                ctx._screen = lambda cone, m, images: verdicts.append(screen(cone, m, images)) or verdicts[-1]
                got = {}
                for cone in (ctx.rel_ad_L, ctx.rel_ad, ctx.rel_ad_pair):
                    m = 1
                    while cone.V.computable(m) and cone.W.computable(m):
                        got[cone, m] = ctx._kernel(cone, m).basis
                        m += 1
                # phi_* is built after every kernel, so none reads W's homology
                for (cone, m), basis in got.items():
                    want = linalg.rref(cone.phi_star(m)).kernel_space()
                    if basis.pivots != want.pivots or in_order(basis.rows) != in_order(want.rows):
                        failures.append((seed, kind, cone.name, m))
                reports, bad = gvp_witness_check(ctx)
                failures += [(seed, kind, "gvp", top) for top in bad]
                quotients += sum(1 for r in reports if r.quotient_dim)
                kernels += len(got)
                decided += sum(verdicts)
    finally:
        subgroups.SCREEN_MIN_COLUMNS = floor
    print(f"evaluation screen: {kernels} kernels, {decided} decided by the screen, "
          f"{quotients} gvp quotients, {len(failures)} failures")
    return not failures


def audit_homotopy_invariance(cfg: Config):
    cases = [(f"{f}:{n}", fixture_map(f, n, truncation=cfg.truncation)) for f, n in FIXTURE_MAPS]
    cases += [(seed, random_validated_morphism(seed, max_gens=cfg.max_generators, truncation=cfg.truncation))
              for seed in range(cfg.seed_offset, cfg.seed_offset + cfg.morphisms)]
    presentations = 0
    failures = []
    for case, psi in cases:
        try:
            every = map_reports(psi, INVARIANT_COMMANDS, reduced=False)
        except DglError as exc:
            failures.append((case, type(exc).__name__))
            continue
        want = {cmd: every[cmd] for cmd in ("gseq", "omega", "les")}
        for k in range(3):  # psi itself, then k pairs, twisted when k = 2
            try:
                moved = with_contractible_pairs(k, psi, k, k == 2) if k else psi
                presentations += 1
                got = map_reports(moved, INVARIANT_COMMANDS)
                if {cmd: got[cmd] for cmd in want} != want or map_reports(moved, reduced=False) != want:
                    failures.append((case, "target", k))
                diff = invariant_differences(got, every, common=("gottlieb",))
                if diff:
                    failures.append((case, "target", k, diff))
                if k:  # the same for psi o back from a presentation of its source
                    presentations += 1
                    moved = map_reports(with_source_pairs(k, psi, k, k == 2), INVARIANT_COMMANDS[:-1])
                    diff = invariant_differences(moved, every, common=INVARIANT_COMMANDS)
                    if diff:
                        failures.append((case, "source", k, diff))
            except DglError as exc:
                failures.append((case, k, type(exc).__name__))
    for failure in failures:
        print(f"  differs: {failure}")
    print(f"homotopy invariance: {len(cases)} maps, {presentations} presentations, {len(failures)} failures")
    return not failures


def audit_object_differentials(cfg: Config):
    complexes, columns = 0, 0
    failures = []
    for seed in range(cfg.seed_offset, cfg.seed_offset + cfg.morphisms):
        ctx = EvaluationContext(
            random_validated_morphism(seed, max_gens=cfg.max_generators, truncation=cfg.truncation)
        )
        for name in CONTEXT_COMPLEXES:
            cx = getattr(ctx, name)
            complexes += 1
            for n in range(-cfg.truncation, cx.trunc + 1):
                if not cx.complete(n):
                    continue
                for i, col in enumerate(cx.columns(n)):
                    columns += 1
                    got = cx.to_vector(n - 1, cx.d(cx.from_vector(n, {i: 1})))
                    if in_order([got]) != in_order([col]):
                        failures.append((seed, name, n, i))
    print(f"object differentials: {complexes} complexes, {columns} columns, {len(failures)} failures")
    return not failures


def parse_config(argv=None) -> Config:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for f in fields(Config):
        flag = "--" + f.name.replace("_", "-")
        parser.add_argument(flag, type=int, default=f.default, help=f"(default {f.default})")
    return Config(**vars(parser.parse_args(argv)))


def main(argv=None):
    cfg = parse_config(argv)
    start = time.perf_counter()
    ok = all([audit_les(cfg), audit_products(cfg), audit_brackets(cfg), audit_der_boundaries(cfg),
              audit_screen(cfg), audit_homotopy_invariance(cfg), audit_object_differentials(cfg)])
    print(f"total {time.perf_counter() - start:.2f}s")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
