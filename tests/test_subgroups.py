import gc
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dglcalc import (
    DglModel,
    DglMorphism,
    FreeLieAlgebra,
    PreconditionError,
    adjoint,
    zero_morphism,
)
from dglcalc import subgroups
from dglcalc.derivations import DerComplex, GenDerivation
from dglcalc.errors import InternalError
from dglcalc.modelfile import parse_workspace
from dglcalc.relative import RelComplex
from dglcalc.subgroups import (
    EvaluationContext,
    coformal_bounding_derivation,
    coformal_check,
    gottlieb,
)

from .conftest import (
    make_contractible_pair,
    make_cp2_model,
    make_factor_inclusion,
    make_one_cell_attachment,
    make_s4_model,
    make_sphere_model,
)
from .helpers import (
    FIXTURE_MAPS,
    FIXTURES,
    cmd_mix_map,
    cmd_mix_map_ids,
    cmd_mix_map_text,
    column_builds,
    fixture_map,
    in_order,
    random_model,
    random_upper_grading,
    random_validated_morphism,
)
from .oracles import coformal_slices, dense, dense_rank

F = Fraction


# -- Gottlieb groups -------------------------------------------------------------


def test_gottlieb_s3_full_in_degree_3():
    model = make_sphere_model(2)  # S^3
    report = gottlieb(model, [3])[0]
    assert report.dimension == 1 and report.full


def test_gottlieb_s2():
    model = make_sphere_model(1)  # S^2
    assert gottlieb(model, [2])[0].dimension == 0
    g3 = gottlieb(model, [3])[0]
    assert g3.dimension == 1
    x = model.algebra.gen("x")
    assert g3.representatives[0] == x.bracket(x)
    # nothing else in the window
    for top in range(4, 9):
        assert gottlieb(model, [top])[0].dimension == 0


def test_gottlieb_of_empty_model():
    empty = DglModel(FreeLieAlgebra([], truncation=8), {})
    assert gottlieb(empty, [3])[0].dimension == 0


# -- evaluation subgroups ----------------------------------------------------------


def test_evaluation_subgroup_pinch_degree_4_vanishes(pinch):
    report = EvaluationContext(pinch).evaluation_subgroup(4)
    assert report.ambient_dim == 1
    assert report.dimension == 0


def test_evaluation_subgroup_zero_morphism_is_full():
    src = make_cp2_model()
    dst = make_s4_model()
    psi = zero_morphism(src, dst)
    report = EvaluationContext(psi).evaluation_subgroup(4)
    assert report.full and report.dimension == 1


def test_evaluation_subgroup_factor_inclusion_full_in_degree_3():
    _, _, incl = make_factor_inclusion()
    report = EvaluationContext(incl).evaluation_subgroup(3)
    assert report.ambient_dim == 2
    assert report.dimension == 2


# -- Whitehead centers ---------------------------------------------------------------


def test_center_pinch_degree_4_is_full(pinch):
    report = EvaluationContext(pinch).whitehead_center(4)
    assert report.dimension == 1 and report.full
    u3 = pinch.target.algebra.gen("u3")
    assert report.representatives[0] == u3


def test_center_identity_on_even_sphere_is_full():
    model = make_sphere_model(2)
    ident = DglMorphism.identity(model)
    report = EvaluationContext(ident).whitehead_center(3)
    assert report.full and report.dimension == 1


def test_center_empty_target(cp2):
    empty = DglModel(FreeLieAlgebra([], truncation=10), {})
    psi = zero_morphism(cp2, empty)
    assert EvaluationContext(psi).whitehead_center(4).dimension == 0


def test_center_contains_evaluation_subgroup_on_fixtures(pinch):
    _, _, incl = make_factor_inclusion()
    for psi in (pinch, incl):
        ctx = EvaluationContext(psi)
        for top in range(2, 7):
            ev = ctx.evaluation_subgroup(top)
            ce = ctx.whitehead_center(top)
            assert ev.dimension <= ce.dimension


# -- the quotient -----------------------------------------------------------------------


def test_g_vs_p_pinch_quotient_is_one(pinch):
    report = EvaluationContext(pinch).g_vs_p(4)
    assert report.quotient_dim == 1
    assert len(report.witness) == 1


def test_g_vs_p_vanishes_for_coformal_map():
    _, _, incl = make_factor_inclusion()
    ctx = EvaluationContext(incl)
    for top in range(2, 7):
        assert ctx.g_vs_p(top).quotient_dim == 0


def test_g_vs_p_identity_abelian():
    model = make_sphere_model(2)
    ident = DglMorphism.identity(model)
    assert EvaluationContext(ident).g_vs_p(3).quotient_dim == 0


# -- relative evaluation subgroups ----------------------------------------------------


def test_rel_subgroup_contractible_pair_witness():
    src, dst, incl = make_contractible_pair()
    ctx = EvaluationContext(incl)
    report = ctx.rel_evaluation_subgroup(4)  # classes in H_3(Rel)
    assert report.dimension >= 1
    y = dst.algebra.gen("y")
    w = src.algebra.gen("w")
    # the witness class (y, w) is in the kernel, and H(P) sends it to <w>
    h = ctx.rel.homology(3)
    vec = ctx.rel.to_vector(3, (y, w))
    coords = h.class_coords(vec)
    group = ctx._kernel(ctx.rel_ad_pair, 3)
    assert group.basis.coords(coords) is not None
    # H(P)(<y, w>) = <w> spans G_3 of the source, so the restriction is onto
    gs = ctx.g_sequence([3, 4])
    assert gs[3].gottlieb_dim == 1


def test_rel_subgroup_identity_morphism_vanishes():
    model = make_sphere_model(2)
    ident = DglMorphism.identity(model)
    ctx = EvaluationContext(ident)
    for top in range(2, 6):
        assert ctx.rel_evaluation_subgroup(top).dimension == 0


def test_rel_subgroup_pinch_dimensions_match_brute_force(pinch):
    # computed dimensions are pinned by an independent rank computation over
    # the same complexes: dim ker = dim H - rank of the induced map
    ctx = EvaluationContext(pinch)
    from dglcalc.complexes import induced_matrix
    from dglcalc import linalg

    identity = DglMorphism.identity(pinch.source)

    def pair_map(pair):  # (ad_psi, ad): Rel(psi) -> Rel(psi_*)
        return adjoint(pinch, pair[0]), adjoint(identity, pair[1])

    for top in range(2, 7):
        m = top - 1
        report = ctx.rel_evaluation_subgroup(top)
        cols = induced_matrix(ctx.rel, m, ctx.rel_star, m, pair_map)
        assert report.dimension == ctx.rel.homology(m).dim - linalg.rref(cols).rank


# -- the G-sequence and omega-homology ---------------------------------------------------


def test_g_sequence_coformal_factor_inclusion_omega_vanishes():
    _, _, incl = make_factor_inclusion()
    report = EvaluationContext(incl).g_sequence(range(2, 7))
    for n, term in report.items():
        assert term.composites_zero
        if term.trusted:
            assert term.omega_dim == 0, (n, term)


def test_g_sequence_one_cell_attachment_omega():
    _, _, incl = make_one_cell_attachment()
    report = EvaluationContext(incl).g_sequence([3])
    assert report[3].omega_dim == 1


def test_g_sequence_contractible_pair_omega_vanishes():
    _, _, incl = make_contractible_pair()
    report = EvaluationContext(incl).g_sequence([3])
    assert report[3].omega_dim == 0


def _in_span(vec, span, dim):
    return dense_rank(dense(span + [vec], dim)) == dense_rank(dense(span, dim))


def test_omega_representatives_are_independent_classes_killed_by_psi():
    # an omega representative x in L_m is a cycle whose adjoint bounds in
    # Der(L,L;1) (x is in G_m(L)) and whose image psi(x) bounds in K (x is in
    # the kernel of psi_*), and the classes are independent modulo B_m(L) and
    # P_* of G^rel_{m+1}
    cases = [fixture_map(f, name) for f, name in FIXTURE_MAPS]
    cases += [random_validated_morphism(seed) for seed in range(12)]
    checked = 0
    for psi in cases:
        ctx = EvaluationContext(psi)
        identity = DglMorphism.identity(psi.source)
        for top, term in ctx.g_sequence(ctx.trusted_tops()).items():
            m = top - 1
            reps = term.omega_representatives
            assert len(reps) == term.omega_dim
            for x in reps:
                assert x.degree == m and ctx.L.d(x).is_zero()
                ad = ctx.der_LL.to_vector(m, adjoint(identity, x))
                assert _in_span(ad, ctx.der_LL.columns(m + 1), ctx.der_LL.dim(m))
                assert _in_span(ctx.cK.to_vector(m, psi(x)), ctx.cK.columns(m + 1), ctx.cK.dim(m))
            grel_up = ctx.rel_evaluation_subgroup(top + 1).representatives
            p_images = [ctx.cL.to_vector(m, v) for _, v in grel_up]
            span = ctx.cL.columns(m + 1) + p_images
            xs = [ctx.cL.to_vector(m, x) for x in reps]
            dim = ctx.cL.dim(m)
            assert dense_rank(dense(span + xs, dim)) == dense_rank(dense(span, dim)) + len(xs)
            checked += len(reps)
    # cp2_to_s4 f at top 5, one_cell_attachment i at top 3, random seed 8 at top 3
    assert checked >= 3


# -- gottlieb == evaluation along the identity --------------------------------------------


def test_gottlieb_equals_evaluation_along_identity():
    for model in (make_sphere_model(1), make_sphere_model(2), make_cp2_model()):
        ctx = EvaluationContext(DglMorphism.identity(model))
        for top in range(2, 7):
            g = gottlieb(model, [top])[0]
            e = ctx.evaluation_subgroup(top)
            assert g.dimension == e.dimension
            assert [r.terms for r in g.representatives] == [
                r.terms for r in e.representatives
            ]


# -- coformality -----------------------------------------------------------------------


def test_cp2_model_is_not_coformal(cp2):
    # H_4 is spanned by the class of [x1, x3], which has upper degree 1, so
    # the upper-positive homology does not vanish.
    report = coformal_check(cp2)
    assert report.bigraded_ok
    assert not report.upper_homology_ok
    assert not report.coformal


def test_all_upper_zero_free_model_is_coformal():
    model = make_sphere_model(2)
    assert coformal_check(model).coformal


def test_s3xs3_fixture_is_coformal():
    _, dst, incl = make_factor_inclusion()
    assert coformal_check(dst).coformal
    assert coformal_check(incl).coformal


def test_noncoformal_fixture():
    alg = FreeLieAlgebra([("x", 2, 0), ("t", 3, 1)], truncation=8)
    model = DglModel(alg, {})
    report = coformal_check(model)
    assert report.bigraded_ok
    assert not report.coformal


def _bigraded_fixture_models():
    for path in sorted(FIXTURES.glob("*.dgl")):
        ws = parse_workspace(path.read_text(), truncation=10)
        yield from (m for m in ws.models.values() if m.bigraded)


def test_coformal_check_matches_the_slice_oracle():
    """Upper degrees read off one homology slice's pivots give the failures
    and verdict of eliminating each upper degree on its own.  With a broken
    grading the slices are not subcomplexes, so there only the verdict holds."""
    fixtures = list(_bigraded_fixture_models())
    assert len(fixtures) == 5
    graded, failing, broken = 0, 0, 0
    models = fixtures + [
        random_upper_grading(seed, random_model(seed, max_gens=4), broken=0.3)
        for seed in range(600)
    ]
    for model in models:
        report = coformal_check(model)
        if report.bigraded_ok:
            assert (report.failures, report.upper_homology_ok) == coformal_slices(model)
            graded += 1
            failing += bool(report.failures)
        else:
            assert not report.coformal
            broken += 1
    assert graded >= 205 and failing >= 100 and broken >= 20, (graded, failing, broken)


def test_coformal_check_reads_no_homology_when_d_squared_is_not_zero():
    # d(d(c)) = [a, a]: the grading is sound but there is no homology to read
    alg = FreeLieAlgebra([("a", 1, 0), ("b", 3, 1), ("c", 4, 2)], truncation=7)
    a = alg.gen("a")
    model = DglModel(alg, {"b": a.bracket(a), "c": alg.gen("b")})
    report = coformal_check(model)
    assert report.bigraded_ok and not report.upper_homology_ok and not report.coformal
    assert report.failures == model.validate().problems


def test_coformal_check_requires_uppers():
    alg = FreeLieAlgebra([("x", 2)], truncation=6)
    with pytest.raises(PreconditionError):
        coformal_check(DglModel(alg, {}))


def test_coformal_bounding_derivation_factor_inclusion():
    src, dst, incl = make_factor_inclusion()
    a = dst.algebra.gen("a")
    theta = coformal_bounding_derivation(incl, a)
    assert theta.differential() == adjoint(incl, a)
    b = dst.algebra.gen("b")
    theta_b = coformal_bounding_derivation(incl, b)
    assert theta_b.differential() == adjoint(incl, b)
    assert theta_b.values["a"] == -1 * dst.algebra.gen("c")


def test_coformal_bounding_derivation_zero_cycle():
    _, dst, incl = make_factor_inclusion()
    theta = coformal_bounding_derivation(incl, dst.algebra.zero(2))
    assert theta.is_zero()


def test_coformal_bounding_derivation_rejects_noncoformal():
    alg = FreeLieAlgebra([("x", 2, 0), ("t", 3, 1)], truncation=8)
    src = DglModel(alg, {})
    ident = DglMorphism.identity(src)
    with pytest.raises(PreconditionError):
        coformal_bounding_derivation(ident, alg.gen("x"))


# -- randomized invariants -----------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=3000))
def test_evaluation_subgroup_contained_in_center(seed):
    from dglcalc import TruncationError

    psi = random_validated_morphism(seed, max_gens=3, truncation=7)
    ctx = EvaluationContext(psi)
    for top in (3, 4):
        try:
            ev = ctx.evaluation_subgroup(top)
            ce = ctx.whitehead_center(top)
        except TruncationError:
            continue
        assert ev.dimension <= ce.dimension
        report = ctx.g_vs_p(top)
        assert report.quotient_dim == ce.dimension - ev.dimension


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=3000))
def test_g_sequence_composites_zero_random(seed):
    psi = random_validated_morphism(seed, max_gens=2, truncation=7)
    ctx = EvaluationContext(psi)
    tops = ctx.computable_tops()
    if not tops:
        return
    report = ctx.g_sequence(tops[:3])
    for term in report.values():
        assert term.composites_zero


def test_g_sequence_builds_each_differential_once(monkeypatch):
    # the cones read the columns of the complexes they are built on
    from dglcalc.complexes import DglComplex
    from dglcalc.derivations import DerComplex

    built = []
    for cls in (DglComplex, DerComplex):
        def counted(self, n, _build=cls.d_columns):
            built.append((id(self), n))
            return _build(self, n)

        monkeypatch.setattr(cls, "d_columns", counted)
    fixture = Path(__file__).resolve().parent.parent / "fixtures" / "one_cell_attachment.dgl"
    psi = parse_workspace(fixture.read_text(), truncation=13).map("i")
    ctx = EvaluationContext(psi)
    ctx.g_sequence(ctx.computable_tops())
    assert built and len(built) == len(set(built))


def test_adjoint_homology_matrix_is_built_once_per_degree(monkeypatch):
    # A subgroup reads only the boundaries of its adjoint cone's target: the
    # G-sequence builds no homology slice of Der(L, L), Der(L, K; psi) or
    # Rel(psi_*), and eliminates each target degree at most once.  A kernel
    # reads its target's boundaries only where its source has a class that
    # the screen (here at every size) leaves in the kernel.  phi_* of an
    # adjoint cone is built only for the image that g_vs_p intersects and for
    # the LES, each matrix built and eliminated at most once per degree.  Only
    # the LES, through H(Rel(ad_psi)), needs an adjoint cone's own differential.
    import sys

    from dglcalc import complexes, linalg
    from dglcalc.complexes import ChainComplex
    from dglcalc.relative import RelComplex

    original = complexes.induced_matrix
    calls = []

    def counted(src, n_src, dst, n_dst, fn):
        cols = original(src, n_src, dst, n_dst, fn)
        calls.append((src, n_src, dst, cols))
        return cols

    for name, module in list(sys.modules.items()):
        if name.startswith("dglcalc") and getattr(module, "induced_matrix", None) is original:
            monkeypatch.setattr(module, "induced_matrix", counted)
    eliminated, assembled, sliced = [], [], []
    rref, d_columns, homology = linalg.rref, RelComplex.d_columns, ChainComplex.homology

    def counted_rref(rows):
        eliminated.append(rows)
        return rref(rows)

    def counted_d_columns(cone, n):
        assembled.append(cone)
        return d_columns(cone, n)

    def counted_homology(cplx, n):
        sliced.append(cplx)
        return homology(cplx, n)

    read, kernels = [], []  # (complex, n) of boundaries(n); (cone, m, W's read) per kernel
    screened = {}  # (cone, m): the screen's verdict, where it ran
    boundaries, kernel = ChainComplex.boundaries, EvaluationContext._kernel
    screen = EvaluationContext._screen

    def counted_screen(context, cone, m, images):
        screened[cone, m] = verdict = screen(context, cone, m, images)
        return verdict

    def counted_boundaries(cplx, n):
        read.append((cplx, n))
        return boundaries(cplx, n)

    def counted_kernel(context, cone, m):
        start, cached = len(read), (cone, m) in context._kernels
        group = kernel(context, cone, m)
        if not cached:
            kernels.append((cone, m, any(c is cone.W and n == m for c, n in read[start:])))
        return group

    monkeypatch.setattr(linalg, "rref", counted_rref)
    monkeypatch.setattr(RelComplex, "d_columns", counted_d_columns)
    monkeypatch.setattr(ChainComplex, "homology", counted_homology)
    monkeypatch.setattr(ChainComplex, "boundaries", counted_boundaries)
    monkeypatch.setattr(EvaluationContext, "_kernel", counted_kernel)
    monkeypatch.setattr(EvaluationContext, "_screen", counted_screen)
    monkeypatch.setattr(subgroups, "SCREEN_MIN_COLUMNS", 0)
    fixture = Path(__file__).resolve().parent.parent / "fixtures" / "cp2_to_s4.dgl"
    psi = parse_workspace(fixture.read_text(), truncation=10).map("f")
    ctx = EvaluationContext(psi)
    tops = ctx.computable_tops()
    ctx.g_sequence(tops)
    targets = (ctx.der_LL, ctx.der_LK, ctx.rel_star)

    def is_target(cplx):
        return any(cplx is t for t in targets)

    assert not [c for c in sliced if is_target(c)]
    assert not [dst for _, _, dst, _ in calls if is_target(dst)]
    columns = [[r.columns for r in t._records.values() if r.columns is not None] for t in targets]
    counts = [[sum(rows is c for rows in eliminated) for c in cols] for cols in columns]
    assert all(max(c, default=0) == 1 for c in counts), counts
    wanted = [(bool(cone.V.homology(m).dim) and cone.W.complete(m + 1)
               and not screened.get((cone, m)), got) for cone, m, got in kernels if m >= 1]
    assert [got for _, got in wanted] == [want for want, _ in wanted]
    assert {want for want, _ in wanted} == {True, False}
    assert {verdict for verdict in screened.values()} == {True, False}

    for top in tops:
        ctx.evaluation_subgroup(top)
        ctx.g_vs_p(top)
    cones = (ctx.rel_ad_L, ctx.rel_ad, ctx.rel_ad_pair)
    assert assembled and not [c for c in assembled if any(c is cone for cone in cones)]
    ctx.les([top - 1 for top in tops])
    assert {id(c) for c in assembled if any(c is cone for cone in cones)} == {id(ctx.rel_ad)}
    degrees = [n for src, n, dst, _ in calls if src is ctx.cK and dst is ctx.der_LK]
    assert sorted(degrees) == sorted(set(degrees)) == [top - 1 for top in tops]
    assert not [dst for _, _, dst, _ in calls if dst is ctx.der_LL or dst is ctx.rel_star]
    built = [(n, cols) for src, n, dst, cols in calls if src is ctx.cK and dst is ctx.der_LK]
    counts = [sum(rows is cols for rows in eliminated) for _, cols in built]
    assert max(counts) == 1, counts
    empty_maps = [c for (_, cols), c in zip(built, counts) if not cols]
    assert empty_maps and not any(empty_maps)  # a map without columns is not eliminated


def test_g_sequence_reads_target_boundaries_only_under_source_classes():
    # X models S^3 x S^3, so H(X) lives in internal degree 2 alone: of
    # Der(L, L) only B_2 is eliminated, on record 3.  H_m(Rel psi) is zero at
    # every even m below 10, and B_10(Rel psi_*) lies past the truncation.  At
    # each odd m evaluation at a and b shows G^rel_m zero, so Rel(psi_*)
    # eliminates nothing, and of Der(L, K; psi) only B_2 is read, under the
    # class of G_3(K, L; psi) that the screen leaves.
    ctx = EvaluationContext(fixture_map("one_cell_attachment.dgl", "i", truncation=15))
    terms = ctx.g_sequence(ctx.computable_tops())

    def eliminated(cplx):
        return sorted(n for n, rec in cplx._records.items() if rec.elimination is not None)

    assert [m for m in range(1, 15) if ctx.cL.homology(m).dim] == [2]
    assert eliminated(ctx.der_LL) == [3]
    assert eliminated(ctx.der_LK) == [3] and terms[3].evaluation_dim == 1
    assert not eliminated(ctx.rel_star)
    classes = [m for m in range(1, 10) if ctx.rel.homology(m).dim]
    assert classes and all(m % 2 for m in classes)
    assert not [m for m in range(2, 10, 2) if ctx.rel.homology(m).dim]
    assert all(ctx._kernel(ctx.rel_ad_pair, m).dim == 0 for m in classes)
    assert not ctx.rel_star.complete(11)


def test_no_column_is_built_twice_in_one_op(monkeypatch, tmp_path, capsys):
    # The columns of a degree are built together by columns(), and a cycle
    # check builds none, as it reads the object differential: within one op
    # each (complex, degree, label) is built at most once.  A lone top makes
    # gvp check cycles of Der(L, K; psi) in a degree before it assembles that
    # degree.
    from dglcalc.cli import main

    built = column_builds(monkeypatch)
    onecell = str(FIXTURES / "one_cell_attachment.dgl")
    runs = [(onecell, "--max-degree", str(n)) for n in range(12, 16)]
    runs += [(onecell, "--max-degree", "12", "--top-degree", str(t)) for t in (3, 6)]
    for case in ("G0-0", "G3-1"):
        text, truncation = cmd_mix_map_text(case)
        (tmp_path / f"{case}.dgl").write_text(text)
        runs.append((str(tmp_path / f"{case}.dgl"), "--max-degree", str(truncation)))
    for cmd in ("gseq", "evsub", "grel", "gvp", "les"):
        for path, *window in runs:
            built.clear()
            assert main([cmd, path, "i", *window, "--format", "json"]) == 0
            keys = [(id(cplx), m, i) for cplx, m, i in built]
            assert keys and len(keys) == len(set(keys)), (cmd, path, window)
    capsys.readouterr()


def test_no_degree_is_eliminated_twice_in_one_op(monkeypatch, capsys):
    # A degree's one elimination serves its cycles and its boundaries alike:
    # within one op no record's columns are eliminated twice.  Every list is
    # kept, not its id, which a freed list may hand on.
    from dglcalc import linalg
    from dglcalc.cli import main
    from dglcalc.complexes import ChainComplex

    eliminated, columns = [], []
    rref, build = linalg.rref, ChainComplex.columns

    def counted_rref(rows):
        eliminated.append(rows)
        return rref(rows)

    def counted_columns(cplx, n):
        cols = build(cplx, n)
        columns.append(cols)
        return cols

    monkeypatch.setattr(linalg, "rref", counted_rref)
    monkeypatch.setattr(ChainComplex, "columns", counted_columns)
    for path, name in FIXTURE_MAPS:
        for cmd in ("evsub", "center", "gvp", "grel", "gseq", "les"):
            eliminated.clear()
            columns.clear()
            args = [cmd, str(FIXTURES / path), name, "--max-degree", "12", "--format", "json"]
            assert main(args) == 0
            unique = {id(cols): cols for cols in columns}.values()
            twice = [sum(rows is cols for rows in eliminated) for cols in unique]
            assert twice and max(twice) <= 1, (cmd, path, name)
    capsys.readouterr()


def test_les_builds_each_coupled_column_once(monkeypatch, capsys):
    # every GenDerivation.differential of les is one coupled Der column, and
    # at N=12 there are 64 of them in the degrees les reads
    from dglcalc.cli import main

    built, calls = column_builds(monkeypatch), []
    real = GenDerivation.differential
    monkeypatch.setattr(GenDerivation, "differential", lambda theta: calls.append(1) or real(theta))
    path = FIXTURES / "one_cell_attachment.dgl"
    assert main(["les", str(path), "i", "--max-degree", "12", "--format", "json"]) == 0

    def coupled(cplx, m, i):
        if not isinstance(cplx, DerComplex):
            return False
        gi = cplx.record(m).labels[i][0]
        return cplx.psi.source.generators[gi].name in cplx._coupled

    assert len(calls) == len({(id(c), m, i) for c, m, i in built if coupled(c, m, i)}) <= 64
    capsys.readouterr()


@pytest.mark.parametrize("path,name", [("one_cell_attachment.dgl", "i"), ("cp2_to_s4.dgl", "f")])
def test_g_sequence_eliminates_each_restricted_map_once(monkeypatch, path, name):
    # P_* out of degree n is read by the tops n and n + 1: one restricted map,
    # one elimination
    from dglcalc import linalg

    built, eliminated = [], []
    restricted, rref = EvaluationContext._restricted_map, linalg.rref

    def counted_map(ctx, src_group, dst_group, cols):
        rows = restricted(ctx, src_group, dst_group, cols)
        built.append((src_group, dst_group, rows))
        return rows

    def counted_rref(rows, *args, **kwargs):
        eliminated.append(rows)
        return rref(rows, *args, **kwargs)

    monkeypatch.setattr(EvaluationContext, "_restricted_map", counted_map)
    monkeypatch.setattr(linalg, "rref", counted_rref)
    ctx = EvaluationContext(fixture_map(path, name, truncation=12))
    tops = ctx.computable_tops()
    assert tops[0] == 2 and len(tops) >= 4
    ctx.g_sequence(tops)
    pairs = [(id(src), id(dst)) for src, dst, _ in built]
    assert len(pairs) == len(set(pairs)) == 3 * len(tops) + 1
    assert [sum(rows is r for r in eliminated) for _, _, rows in built] == [1] * len(built)


def _map_case(case):
    """A fixture map (file, name), a cmd-mix generated map or a seeded random map."""
    if isinstance(case, tuple):
        return fixture_map(*case)
    return random_validated_morphism(case) if isinstance(case, int) else cmd_mix_map(case)


@pytest.mark.parametrize(
    "case", [*FIXTURE_MAPS, *cmd_mix_map_ids(), *range(40)],
    ids=lambda c: ":".join(c) if isinstance(c, tuple) else f"{c}",
)
def test_kernel_is_the_echelon_kernel_of_phi_star(case):
    # the kernel read from the target's boundaries is the canonical kernel of
    # phi_* in class coordinates; every kernel is built before any phi_* is, so
    # each reads its target's boundaries, not its homology.  The seeded maps
    # give kernels that are neither zero nor the whole group.
    ctx = EvaluationContext(_map_case(case))
    got = {}
    for cone in (ctx.rel_ad_L, ctx.rel_ad, ctx.rel_ad_pair):
        m = 1
        while cone.V.computable(m) and cone.W.computable(m):
            got[cone, m] = ctx._kernel(cone, m).basis
            m += 1
    assert len({cone.name for cone, _ in got}) == 3
    for (cone, m), basis in got.items():
        want = cone.les_rref("phi", m).kernel_space()
        assert basis.pivots == want.pivots and in_order(basis.rows) == in_order(want.rows), (
            cone.name, m)


def _every_kernel(ctx) -> dict:
    """{(cone name, m): kernel} of the three adjoint cones at every computable m."""
    out = {}
    for cone in (ctx.rel_ad_L, ctx.rel_ad, ctx.rel_ad_pair):
        m = 1
        while cone.V.computable(m) and cone.W.computable(m):
            out[cone.name, m] = ctx._kernel(cone, m)
            m += 1
    return out


@pytest.mark.parametrize(
    "case", [*FIXTURE_MAPS, *cmd_mix_map_ids(), *range(40)],
    ids=lambda c: ":".join(c) if isinstance(c, tuple) else f"{c}",
)
def test_screened_kernels_equal_the_exact_ones(monkeypatch, case):
    # the screen decides a kernel only when evaluation at L's cycles proves
    # it zero: screening at every size gives the kernels of the exact path,
    # in value, type, dict order and trust, on the map and on the identities
    # of its source and target
    monkeypatch.setattr(subgroups, "SCREEN_MIN_COLUMNS", 0)
    psi = _map_case(case)
    for phi in (psi, DglMorphism.identity(psi.source), DglMorphism.identity(psi.target)):
        screened = _every_kernel(EvaluationContext(phi))
        with monkeypatch.context() as mp:
            mp.setattr(EvaluationContext, "_screen", lambda ctx, cone, m, images: False)
            exact = _every_kernel(EvaluationContext(phi))
        assert screened.keys() == exact.keys()
        for key, group in screened.items():
            want = exact[key]
            assert group.basis.pivots == want.basis.pivots, key
            assert in_order(group.basis.rows) == in_order(want.basis.rows), key
            assert group.trusted is want.trusted, key


def test_screen_skips_untrusted_slices():
    # X models S^3 x S^3 (d c = [a, b]).  At truncation 6, H_6(X) is
    # computable but untrusted: [[a, b], a] = -d[a, c] bounds only from
    # degree 7, so that slice takes it for a class.  [a, b] is a boundary, so
    # its pairing with a is zero at every trusted slice, and a screen that
    # read H_6 would drop it from a kernel it belongs to
    text = "model X {\n  gen a : deg 2;\n  gen b : deg 2;\n  gen c : deg 5;\n  d c = [a,b];\n}\n"
    model = parse_workspace(text, truncation=6).model("X")
    ctx = EvaluationContext(DglMorphism.identity(model))
    alg = model.algebra
    ab = alg.bracket(alg.gen("a"), alg.gen("b"))
    assert ctx.cL.computable(6) and not ctx.cL.trusted(6)
    assert ctx.cL.homology(6).class_coords(ctx.cL.to_vector(6, alg.bracket(ab, alg.gen("a"))))
    kernel = ctx._pairing_kernel(ctx.cL, 4, [ab], alg.bracket, 2, stop=True)
    assert kernel.rank == 1


def test_screen_values_that_are_not_cycles_are_internal_errors():
    # a pairing value that is not a cycle is a fault of the package, not of
    # the request: exit 4, not 3.  In Y, d y = a, so [y, b] is not a cycle
    ctx = EvaluationContext(fixture_map("one_cell_attachment.dgl", "i", truncation=12))
    bracket, apply = ctx.K.algebra.bracket, ctx.psi.apply
    y = ctx.K.algebra.gen("y")
    with pytest.raises(InternalError, match="degree 5 is not a cycle"):
        ctx._pairing_kernel(ctx.cK, 3, [y], lambda x, xi: bracket(x, apply(xi)), 2, stop=True)


def test_kernel_refuses_an_adjoint_that_sends_a_cycle_to_a_non_cycle():
    # the exact cycle check in _kernel is live on all three cones: a phi that
    # adds to each adjoint a basis element of the target whose column is
    # nonzero is an internal error, while the true adjoint passes the check
    def plus(a, b):
        return tuple(map(plus, a, b)) if isinstance(a, tuple) else a + b

    psi = fixture_map("one_cell_attachment.dgl", "i")
    ctx = EvaluationContext(psi)
    for cone in (ctx.rel_ad, ctx.rel_ad_L, ctx.rel_ad_pair):
        src, dst = cone.V, cone.W
        m = next(m for m in range(1, 8) if dst.computable(m) and src.homology(m).dim)
        j = next(j for j, col in enumerate(dst.columns(m)) if col)
        extra = dst.from_vector(m, {j: 1})
        name = f"broken-{cone.name}"
        broken = RelComplex(src, dst, lambda x, phi=cone.phi, e=extra: plus(phi(x), e), name=name)
        with pytest.raises(InternalError, match=name):
            ctx._kernel(broken, m)
        assert ctx._kernel(cone, m).dim <= src.homology(m).dim, cone.name


def test_evaluation_context_is_freed_without_the_cycle_collector():
    # nothing the context keeps may refer back to it, or every context and
    # its caches would wait for the cyclic garbage collector
    fixture = Path(__file__).resolve().parent.parent / "fixtures" / "one_cell_attachment.dgl"
    psi = parse_workspace(fixture.read_text()).map("i")
    enabled = gc.isenabled()
    gc.disable()
    try:
        ctx = EvaluationContext(psi)
        ctx.g_sequence([3])
        ctx.les([2, 3])
        theta = ctx.der_LK.from_vector(2, {0: 1})
        theta.differential()
        assert psi._fox  # the Fox table is filled, and must not refer back to psi
        cones = (ctx.rel_star, ctx.rel_ad_L, ctx.rel_ad, ctx.rel_ad_pair)
        refs = [weakref.ref(ctx)] + [weakref.ref(cone) for cone in cones]
        del ctx, cones
        assert [r() for r in refs] == [None] * 5
        refs = (weakref.ref(psi), weakref.ref(theta))
        del psi, theta
        assert [r() for r in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()
