"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is exact (all arithmetic is rational); the stated
wall-clock budgets are asserted.
"""
import time
from fractions import Fraction
from pathlib import Path

import pytest

from dglcalc import (
    DglModel,
    DglMorphism,
    FreeLieAlgebra,
    GenDerivation,
    adjoint,
)
from dglcalc.cli import COMMANDS, build_parser
from dglcalc.constructions import (
    cylinder,
    product_model,
    sphere_wedge_model,
)
from dglcalc.complexes import DglComplex
from dglcalc.modelfile import parse_workspace
from dglcalc.subgroups import (
    EvaluationContext,
    coformal_bounding_derivation,
    gottlieb,
)

from .conftest import make_sphere_model
from .helpers import (
    basis_element,
    exp_automorphism,
    homology_dims,
    random_model,
    random_validated_morphism,
)
from .oracles import solve_columns

F = Fraction
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert self.elapsed < self.seconds, (
                f"{self.name} exceeded its {self.seconds}s budget: {self.elapsed:.2f}s"
            )
            print(f"ACCEPTANCE {self.name}: PASS ({self.elapsed:.2f}s)")
        else:
            print(f"ACCEPTANCE {self.name}: FAIL")
        return False


def _cli(argv):
    args = build_parser().parse_args(argv)
    ws = parse_workspace(Path(args.file).read_text(), truncation=args.max_degree)
    return COMMANDS[args.command](ws, args)


def test_criterion_1_pinch_example():
    """evsub = 0, center = 1-dim, gvp quotient = 1 on the shipped fixture."""
    fixture = str(FIXTURES / "cp2_to_s4.dgl")
    with Budget("1 (pinch-collapse example)", 1.0):
        out, code = _cli(["evsub", fixture, "f", "--top-degree", "4", "--max-degree", "10"])
        assert code == 0 and out["degrees"][0]["dimension"] == 0
        out, code = _cli(["center", fixture, "f", "--top-degree", "4", "--max-degree", "10"])
        assert code == 0 and out["degrees"][0]["dimension"] == 1
        out, code = _cli(["gvp", fixture, "f", "--top-degree", "4", "--max-degree", "10"])
        assert code == 0 and out["degrees"][0]["quotient_dim"] == 1


def test_criterion_2_one_cell_attachment_non_exact():
    """Attaching a cell along a Gottlieb element of S3 x S3: omega_3 = 1."""
    with Budget("2 (one-cell attachment, non-exact branch)", 10.0):
        trunc = 12
        s3 = DglModel(FreeLieAlgebra([("b", 2)], truncation=trunc), {}, name="S3")
        pm = product_model(s3, [3])  # L(b, v, b'; d b' = [v, b]), |v| = 2
        x_model = pm.model
        assert x_model.validate().ok
        # attach y with |y| = 3 and d y = v (a factor generator, rationally
        # nonzero and Gottlieb in the product)
        gens = [(g.name, g.degree) for g in x_model.generators] + [("y", 3)]
        alg = FreeLieAlgebra(gens, truncation=trunc)
        letters = {g.name: alg.gen(g.name) for g in x_model.generators}
        bare = DglMorphism(x_model, DglModel(alg), letters, check=False)
        diff = {k: bare.apply(v) for k, v in x_model.diff.items()}
        diff["y"] = alg.gen("v")
        y_model = DglModel(alg, diff, name="Y")
        incl = DglMorphism(x_model, y_model, letters)
        ctx = EvaluationContext(incl)
        report = ctx.g_sequence([3])
        assert report[3].omega_dim == 1
        assert report[3].composites_zero


def test_criterion_3_one_cell_attachment_exact():
    """Contractible pair: omega = 0, H(P) onto with the stated witness."""
    with Budget("3 (one-cell attachment, exact branch)", 1.0):
        ws = parse_workspace((FIXTURES / "contractible_pair.dgl").read_text(), truncation=9)
        incl = ws.map("i")
        dst = incl.target
        src = incl.source
        ctx = EvaluationContext(incl)
        # omega-homology vanishes at the G_3 term
        report = ctx.g_sequence([3])
        assert report[3].omega_dim == 0
        # the witness class <(y, w)> lies in the relative subgroup one degree up
        y, w = dst.algebra.gen("y"), src.algebra.gen("w")
        h3 = ctx.rel.homology(3)
        class_vec = h3.class_coords(ctx.rel.to_vector(3, (y, w)))
        assert class_vec, "the witness class must be nonzero"
        group = ctx._kernel(ctx.rel_ad_pair, 3)
        witness_coords = group.basis.coords(class_vec)
        assert witness_coords is not None
        # H(P) sends it to <w>, which spans G_3 of the source: onto
        p_image = incl.source  # P(y, w) = w
        hL2 = ctx.cL.homology(2)
        assert hL2.class_coords(ctx.cL.to_vector(2, w))
        assert report[3].gottlieb_dim == 1
        # bounding derivation phi(w) = -1/2 [y, y], by direct evaluation:
        phi = GenDerivation(incl, 4, {"w": F(-1, 2) * y.bracket(y)})
        assert phi.differential() == adjoint(incl, y)
        # hence (ad(y), ad(w)) = (ad(y), 0) bounds in the derivation cone
        pair = (adjoint(incl, y), adjoint(DglMorphism.identity(src), w))
        assert pair[1].is_zero()
        vec = ctx.rel_star.to_vector(3, pair)
        assert solve_columns(ctx.rel_star.d_columns(4), vec) is not None


def test_criterion_4_coformal_theorems():
    """Factor inclusion S3 -> S3 x S3: G = P and omega = 0 on the window."""
    with Budget("4 (coformal equality and exactness)", 10.0):
        ws = parse_workspace((FIXTURES / "s3_into_s3xs3.dgl").read_text(), truncation=12)
        incl = ws.map("j")
        ctx = EvaluationContext(incl)
        tops = ctx.trusted_tops()
        assert tops, "trusted window must be nonempty"
        for top in tops:
            report = ctx.g_vs_p(top)
            assert report.quotient_dim == 0, (top, report)
        gs = ctx.g_sequence(tops)
        for top, term in gs.items():
            if term.trusted:
                assert term.omega_dim == 0, (top, term)
        # the degreewise construction succeeds on every Gottlieb representative
        checked = 0
        for top in tops:
            for rep in ctx.evaluation_subgroup(top).representatives:
                theta = coformal_bounding_derivation(incl, rep)
                assert theta.differential() == adjoint(incl, rep)
                checked += 1
        assert checked >= 2


def test_criterion_5_les_property_suite():
    """Exactness of the derivation LES on 50 random validated morphisms."""
    with Budget("5 (long-exact-sequence suite)", 60.0):
        trusted_total = 0
        for seed in range(50):
            psi = random_validated_morphism(seed, max_gens=4, truncation=8)
            report = EvaluationContext(psi).les(range(1, 6))
            nodes = report.trusted_nodes()
            trusted_total += len(nodes)
            for node in nodes:
                assert node.exact, (seed, node)
        assert trusted_total >= 100


def test_criterion_6_product_model_correctness():
    """d^2 = 0 and homology additivity for 20 random products."""
    with Budget("6 (product models)", 60.0):
        for seed in range(20):
            # bases with a degree-1 generator give the largest eliminations
            # (d_9 on 3,860 columns for seed 2)
            base = random_model(seed, max_gens=2, truncation=9, max_degree=3,
                                degree_one_budget=1)
            spheres = [2] if seed % 3 == 0 else ([3] if seed % 3 == 1 else [2, 2])
            pm = product_model(base, spheres)
            report = pm.model.validate()
            assert report.d_squared_ok and report.minimal, seed
            wedge = sphere_wedge_model(spheres, truncation=base.truncation)
            cx, wedge_cx, base_cx = DglComplex(pm.model), DglComplex(wedge), DglComplex(base)
            for n in range(1, pm.model.truncation):
                if not cx.complete(n + 1):
                    break
                lhs = cx.homology(n).dim
                rhs = wedge_cx.homology(n).dim + base_cx.homology(n).dim
                assert lhs == rhs, (seed, n, lhs, rhs)


def test_criterion_6_emitted_cp2_product_homology():
    """Homology of the emitted CP2 x S^2 product model at N = 10."""
    with Budget("6 (CP2 x S^2 product homology at N = 10)", 5.0):
        out, code = _cli(["product", str(FIXTURES / "cp2_to_s4.dgl"), "CP2",
                          "--spheres", "2", "--max-degree", "10", "--emit"])
        assert code == 0
        ws = parse_workspace(out["model_text"], truncation=10)
        cx = DglComplex(ws.model("CP2_product"))
        dims = homology_dims(cx, range(1, 10))
    # H_n = pi_{n+1}(CP2) + pi_{n+1}(S^2) (x1 and v, [v,v], then CP2's 5-class)
    assert dims == {1: 2, 2: 1, 3: 0, 4: 1, 5: 0, 6: 0, 7: 0, 8: 0, 9: 0}
    assert all(cx.homology(n).trusted for n in dims)


def test_criterion_7_cylinder_invariants():
    """Retractions, chain maps, invertibility, and end values on cycles."""
    with Budget("7 (cylinder objects)", 30.0):
        for seed in range(20):
            model = random_model(seed, max_gens=2, truncation=6, max_degree=3)
            cyl = cylinder(model)
            # p o lambda_0 = p o lambda_1 = identity
            for end in (cyl.near_end, cyl.far_end):
                comp = cyl.projection.compose(end)
                for g in model.generators:
                    assert comp.values[g.name] == model.algebra.gen(g.name)
            # far end commutes with differentials on generators
            for g in model.generators:
                assert cyl.far_end.apply(model.diff_of(g.name)) == cyl.model.d(
                    cyl.far_end.values[g.name]
                )
                if model.diff_of(g.name).is_zero():
                    alg = cyl.model.algebra
                    assert cyl.far_end.values[g.name] == alg.gen(g.name) + alg.gen(
                        cyl.hat_names[g.name]
                    )
            # exp of the conjugation derivation is invertible on the window
            alg = cyl.model.algebra
            for n in range(1, cyl.model.truncation + 1):
                for word in alg._basis_data(n).words:
                    e = basis_element(alg, word)
                    back = exp_automorphism(cyl, exp_automorphism(cyl, e), inverse=True)
                    assert back == e


def test_criterion_8_free_lie_oracle():
    """Free-Lie basis dimensions match the tensor-algebra brute-force rank."""
    from . import oracles

    with Budget("8 (free-Lie oracle equivalence)", 30.0):
        fixture_sets = [
            {"x1": 1, "x3": 3},
            {"u3": 3},
            {"w": 2, "y": 3},
            {"a": 2, "b": 2, "c": 5},
            {"x": 1},
            {"x": 2},
        ]
        import random

        rng = random.Random(20260810)
        pools = [
            [1, 2],
            [1, 3],
            [2, 2],
            [2, 3],
            [3, 4],
            [1, 2, 3],
            [2, 2, 3],
            [2, 3, 4],
            [1, 4],
            [4],
        ]
        random_sets = []
        for _ in range(20):
            degrees = rng.choice(pools)
            names = [f"g{i}" for i in range(len(degrees))]
            random_sets.append(dict(zip(names, degrees)))
        for degrees in fixture_sets + random_sets:
            alg = FreeLieAlgebra(list(degrees.items()), truncation=8)
            for n in range(1, 9):
                assert alg.dim(n) == oracles.lie_dim(degrees, n), (
                    degrees,
                    n,
                )


def test_criterion_9_classical_sanity():
    """Sphere Gottlieb groups and the identity-map consistency check."""
    with Budget("9 (classical sanity)", 5.0):
        s3 = make_sphere_model(2, truncation=10)
        g3 = gottlieb(s3, [3])[0]
        assert g3.dimension == 1 and g3.full
        s2 = make_sphere_model(1, truncation=10)
        for top in range(2, 9):
            dim = gottlieb(s2, [top])[0].dimension
            assert dim == (1 if top == 3 else 0), top
        rep = gottlieb(s2, [3])[0].representatives[0]
        x = s2.algebra.gen("x")
        assert rep == x.bracket(x)
        # gottlieb == evaluation subgroup along the identity on all fixtures
        for path in sorted(FIXTURES.glob("*.dgl")):
            ws = parse_workspace(path.read_text(), truncation=12)
            for model in ws.models.values():
                ctx = EvaluationContext(DglMorphism.identity(model))
                tops = [t for t in ctx.computable_tops() if t <= 6]
                assert tops, (path.name, model.name)
                for top in tops:
                    a = gottlieb(model, [top])[0]
                    b = ctx.evaluation_subgroup(top)
                    assert a.dimension == b.dimension, (path.name, model.name, top)
                    assert [r.terms for r in a.representatives] == [
                        r.terms for r in b.representatives
                    ]
