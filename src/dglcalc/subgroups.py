"""Evaluation subgroups, Gottlieb groups, Whitehead centers and the G-sequence.

All subgroups are kernels of maps induced on homology by adjoints:

  G_n(K,L;psi)      = ker{ H(ad_psi): H_{n-1}(K)  -> H_{n-1}(Der(L,K;psi)) }
  G_n(L)            = the psi = identity case
  P_n               = ker{ ad on homology: H_{n-1}(K) -> Der(H(L),H(K);H(psi)) }
  G^rel_n(K,L;psi)  = ker{ H(ad_psi, ad): H_{n-1}(Rel(psi)) -> H_{n-1}(Rel(psi_*)) }

Degrees are topological on the reports (internal degree = topological - 1).
An `EvaluationContext` builds the complexes of one morphism once, with the
cones Rel(psi) and Rel(psi_*) and three adjoint cones, one per subgroup:
Rel(ad), Rel(ad_psi) and Rel(ad_psi, ad).  Each subgroup is the kernel of the
first map phi_* of its cone's long exact sequence: the classes whose image
under phi is a boundary.  It reads only the boundaries of phi's target, and
only where the source has classes, as a map out of a zero group has a zero
kernel: each image, checked exactly to be a cycle, is reduced by them, and as
class coordinates are an injective image of the residuals, their kernel is
ker phi_*.  Before it reads them, a screen evaluates the images at the cycles
of L.  For xi in Z_j(L), evaluation at xi is a chain map of degree j from each
cone's target to its source, since (D theta)(xi) = d(theta(xi)) when
d xi = 0: Der(L, K; psi) -> K and Der(L, L) -> L send theta to theta(xi), and
Rel(psi_*) -> Rel(psi) sends (theta, eta) to (theta(xi), eta(xi)), commuting
with delta exactly.  After the adjoint it sends a class x to the class of
[x, psi(xi)], so ker phi_* lies in the joint kernel of these maps over the
representatives xi of H(L); where that is zero, so is the subgroup, and no
boundary is eliminated.  The Whitehead center and `g_vs_p` read the same
pairing, into H(K).
`g_vs_p` and `les` read phi_* itself, from the cone's one elimination.  The
G-sequence is the chain complex G_n(L) -> G_n(K,L;psi) -> G^rel_n -> ...
restricted from the long exact homology sequence of Rel(psi), whose maps it
reads from that cone; a class's coordinates in a subgroup are its entries at
the pivots of the kernel's echelon form.  The homology at each term is a
`HomologySlice` in subgroup coordinates, so a nonzero composite through a term
is an `InternalError` and every returned term has `composites_zero` true.  The
omega-homology of the sequence is measured at the G_n(L) term.
"""
from __future__ import annotations

from collections import namedtuple
from typing import Optional

from . import linalg
from .complexes import ChainComplex, DglComplex, HomologySlice
from .derivations import DerComplex, GenDerivation, adjoint
from .errors import InternalError, PreconditionError, TruncationError
from .lie import LieElement
from .model import DglModel, DglMorphism
from .relative import LesReport, RelComplex, assemble_les_of_chain_map

# Below this many columns, eliminating a target's boundaries costs less than
# the homology slices a screen may build (measured on the benchmark's maps).
SCREEN_MIN_COLUMNS = 16


class SubspaceReport(namedtuple("SubspaceReport", "topological internal ambient_dim dimension "
                                "representatives trusted low_degree_caveat checked_source_degrees",
                                defaults=(None,))):
    """checked_source_degrees is set only for homology-level kernels."""

    __slots__ = ()

    @property
    def full(self) -> bool:
        return self.dimension == self.ambient_dim


# evaluation and center are SubspaceReports; witness is a basis of
# ker(induced-derivation map) & im(adjoint on homology)
GvpReport = namedtuple("GvpReport", "topological internal evaluation center quotient_dim witness trusted")

GSequenceTerm = namedtuple("GSequenceTerm", "topological internal gottlieb_dim evaluation_dim relative_dim "
                           "omega_dim homology_at_evaluation homology_at_relative composites_zero "
                           "omega_representatives trusted low_degree_caveat")


class CoformalReport(namedtuple("CoformalReport",
                                "bigraded_ok upper_homology_ok window failures morphism_bigraded")):
    __slots__ = ()

    def __new__(cls, bigraded_ok: bool, upper_homology_ok: bool, window: list, failures: list = None,
                morphism_bigraded: Optional[bool] = None):
        failures = [] if failures is None else failures
        return super().__new__(cls, bigraded_ok, upper_homology_ok, window, failures, morphism_bigraded)

    @property
    def coformal(self) -> bool:
        return (
            self.bigraded_ok
            and self.upper_homology_ok
            and self.morphism_bigraded is not False
        )


class _Subgroup:
    """A kernel subspace of one homology group: its echelon form in class coordinates."""

    def __init__(self, cplx: ChainComplex, degree: int, basis: linalg.Rref, trusted: bool):
        self.cplx = cplx
        self.degree = degree
        self.basis = basis
        self.trusted = trusted

    @property
    def dim(self) -> int:
        return self.basis.rank

    def ambient(self) -> HomologySlice:
        return self.cplx.homology(self.degree)

    def representatives(self) -> list:
        reps = self.ambient().rep_rows
        return [self.cplx.from_vector(self.degree, linalg.combine(v, reps)) for v in self.basis.rows]

    def report(self, top: int, checked_source_degrees: Optional[tuple] = None) -> SubspaceReport:
        return SubspaceReport(
            topological=top,
            internal=self.degree,
            ambient_dim=self.ambient().dim,
            dimension=self.dim,
            representatives=self.representatives() if self.dim else [],
            trusted=self.trusted,
            low_degree_caveat=self.degree <= 2,
            checked_source_degrees=checked_source_degrees,
        )


class EvaluationContext:
    """Caches the complexes attached to one morphism, with one adjoint cone per subgroup."""

    def __init__(self, psi: DglMorphism):
        self.psi = psi
        self.L = psi.source
        self.K = psi.target
        self.cL = DglComplex(self.L)
        self.cK = DglComplex(self.K)
        self.der_LK = DerComplex(psi)
        identity = DglMorphism.identity(self.L)
        self.der_LL = DerComplex(identity)
        # The maps below close over locals, never over self: a closure kept
        # on self would make every context a reference cycle.

        def post(theta: GenDerivation) -> GenDerivation:
            """Post-composition Der(L,L;1) -> Der(L,K;psi)."""
            values = {g: psi.apply(v) for g, v in theta.values.items()}
            return GenDerivation(psi, theta.degree, values)

        self.rel = RelComplex(self.cL, self.cK, psi.apply, name="rel")
        self.rel_star = RelComplex(self.der_LL, self.der_LK, post, name="rel-star")
        self.rel_ad_L = RelComplex(
            self.cL, self.der_LL, lambda x: adjoint(identity, x), name="gottlieb"
        )
        self.rel_ad = RelComplex(
            self.cK, self.der_LK, lambda y: adjoint(psi, y), name="evaluation"
        )
        self.rel_ad_pair = RelComplex(
            self.rel,
            self.rel_star,
            lambda pair: (adjoint(psi, pair[0]), adjoint(identity, pair[1])),
            name="relative",
        )
        self._kernels = {}

    # -- kernels of the three vertical maps ---------------------------------

    def _kernel(self, cone: RelComplex, m: int) -> _Subgroup:
        """ker phi_* in H_m of an adjoint cone's source: the classes phi sends to boundaries.

        Each image is checked exactly to be a cycle by W's object differential
        `d`, which builds no column.  Then, where `_screen` proves the kernel
        zero by evaluation at L's cycles (module docstring), the subgroup is
        zero; otherwise the images are vectorised and reduced by W's
        boundaries, read only where V has a class and B_m(W) is complete.
        """
        key = (cone, m)
        if key in self._kernels:
            return self._kernels[key]
        src, dst = cone.V, cone.W
        if m < 1 and isinstance(src, DglComplex):  # a DGL has no homology below degree 1
            group = _Subgroup(src, m, linalg.Rref(), True)
        elif not (src.computable(m) and dst.computable(m)):
            raise TruncationError(
                f"{cone.name} subgroup at internal degree {m} is outside the computable window"
            )
        else:
            rows = src.homology(m).rep_rows
            images = [cone.phi(src.from_vector(m, row)) for row in rows]
            if not all(_is_zero(dst.d(image)) for image in images):
                raise InternalError(f"{cone.name}: phi sends a cycle to a non-cycle")
            if rows and self._screen(cone, m, images):
                kernel = linalg.Rref()
            else:
                bounds = dst.boundaries(m) if rows and dst.complete(m + 1) else linalg.Rref()
                vectors = [bounds.reduce(dst.to_vector(m, image)) for image in images]
                kernel = linalg.rref(vectors).kernel_space()
            group = _Subgroup(src, m, kernel, src.trusted(m) and dst.trusted(m))
        self._kernels[key] = group
        return group

    def _screen(self, cone: RelComplex, m: int, images: list) -> bool:
        """Whether evaluation at L's cycles, of degree j up to L's top
        generator degree, sends the images of H_m(V) to independent classes
        of V, so that ker phi_* is zero.  It runs only where the exact path
        would eliminate W's boundaries, on at least SCREEN_MIN_COLUMNS
        columns; there V is complete in degree m + j + 1 and L in degree
        j + 1, so every slice it reads is trusted."""
        dst = cone.W
        if not (dst.complete(m + 1) and dst.record(m + 1).elimination is None
                and dst.dim(m + 1) >= SCREEN_MIN_COLUMNS):
            return False
        j_top = self.L.max_generator_degree
        return not self._pairing_kernel(cone.V, m, images, _evaluate, j_top, stop=True).rank

    # -- public subgroup reports ---------------------------------------------

    def evaluation_subgroup(self, top: int) -> SubspaceReport:
        return self._kernel(self.rel_ad, top - 1).report(top)

    def rel_evaluation_subgroup(self, top: int) -> SubspaceReport:
        return self._kernel(self.rel_ad_pair, top - 1).report(top)

    def les(self, degrees) -> LesReport:
        """The long exact derivation homology sequence, in internal degrees.

        It is the long exact sequence of the adjoint cone K -> Der(L, K; psi).
        """
        return assemble_les_of_chain_map(self.rel_ad, degrees)

    # -- Whitehead center -------------------------------------------------------

    def _pairing_kernel(self, target: ChainComplex, m: int, elements: list, pair, j_top: int,
                        stop: bool = False) -> linalg.Rref:
        """Kernel space of x -> (xi -> class of pair(x, xi) in H_{j+m}(target)).

        One column per element x, one block of rows per homology
        representative xi of H_j(L), for each j from 1 to j_top at which
        H_j(L) and H_{j+m}(target) are trusted: an untrusted slice lacks
        boundaries, so it could see a class where there is none.  With stop,
        a zero kernel is returned as soon as it is reached.  A pairing value
        that is not a cycle is an `InternalError`.
        """
        cols = [dict() for _ in elements]
        offset = 0
        while j_top > 0 and not self.cL.trusted(j_top):  # L is trusted below a degree
            j_top -= 1
        for j in range(1, j_top + 1):
            hL = self.cL.homology(j)
            if not hL.dim or not target.trusted(j + m):
                continue
            h = target.homology(j + m)
            for xi_row in hL.rep_rows:
                xi = self.cL.from_vector(j, xi_row)
                for k, x in enumerate(elements):
                    value = target.to_vector(j + m, pair(x, xi))
                    try:
                        coords = h.class_coords(value)
                    except PreconditionError:
                        raise InternalError(f"a pairing value in degree {j + m} is not a cycle") from None
                    for idx, c in coords.items():
                        cols[k][offset + idx] = c
                offset += h.dim
            if stop and h.dim and not linalg.rref(cols).kernel:
                return linalg.Rref()
        return linalg.rref(cols).kernel_space()

    def whitehead_center(self, top: int) -> SubspaceReport:
        m = top - 1
        if m < 1:
            return _Subgroup(self.cK, m, linalg.Rref(), True).report(top)
        if not self.cK.computable(m):
            raise TruncationError("center degree is outside the computable window")
        hK = self.cK.homology(m)
        ys = [self.cK.from_vector(m, row) for row in hK.rep_rows]
        bracket, apply = self.K.algebra.bracket, self.psi.apply
        j_max = min(self.L.truncation - 1, self.K.truncation - 1 - m)
        kernel = self._pairing_kernel(self.cK, m, ys, lambda y, xi: bracket(y, apply(xi)), j_max)
        return _Subgroup(self.cK, m, kernel, hK.trusted).report(top, (1, j_max))

    # -- the center/evaluation comparison ---------------------------------------

    def g_vs_p(self, top: int) -> GvpReport:
        m = top - 1
        ev = self.evaluation_subgroup(top)
        ce = self.whitehead_center(top)
        quotient = ce.dimension - ev.dimension
        witness_rows, witnesses = [], []
        if m >= 1:  # the evaluation subgroup above checked that Der is computable
            image = self.rel_ad.les_rref("phi", m)
            hDer = self.der_LK.homology(m)
            thetas = [self.der_LK.from_vector(m, row) for row in hDer.rep_rows]
            j_max = min(self.L.truncation - 1, self.K.truncation - 1 - m)
            ker_i = self._pairing_kernel(self.cK, m, thetas, _evaluate, j_max)
            witness_rows = linalg.intersect(image, ker_i)
            witnesses = [
                self.der_LK.from_vector(m, linalg.combine(row, hDer.rep_rows))
                for row in witness_rows
            ]
        if len(witness_rows) != quotient:
            raise InternalError(
                "quotient dimension disagrees with the kernel/image intersection: "
                f"{quotient} vs {len(witness_rows)}"
            )
        return GvpReport(
            topological=top,
            internal=m,
            evaluation=ev,
            center=ce,
            quotient_dim=quotient,
            witness=witnesses,
            trusted=ev.trusted and ce.trusted,
        )

    # -- the G-sequence -----------------------------------------------------------

    def _restricted_map(
        self,
        src_group: _Subgroup,
        dst_group: _Subgroup,
        cols: list,
    ) -> list:
        """Columns of a homology map restricted to subgroup coordinates."""
        out = []
        for v in src_group.basis.rows:
            coords = dst_group.basis.coords(linalg.combine(v, cols))
            if coords is None:
                raise InternalError("ladder restriction failed; image leaves the subgroup")
            out.append(coords)
        return out

    def g_sequence(self, tops) -> dict:
        """{top: GSequenceTerm}, in increasing top."""
        terms, r_p = {}, {}  # r_p[m]: P_* out of degree m
        for top in sorted(tops):
            m = top - 1
            gl = self._kernel(self.rel_ad_L, m)
            gk = self._kernel(self.rel_ad, m)
            grel = self._kernel(self.rel_ad_pair, m)
            grel_up = self._kernel(self.rel_ad_pair, m + 1)
            gl_down = self._kernel(self.rel_ad_L, m - 1)

            # each restricted map is eliminated once, for both terms it touches;
            # P_* out of degree m + 1 is read again by the next top
            r_psi = linalg.rref(self._restricted_map(gl, gk, self.rel.phi_star(m)))
            r_j = linalg.rref(self._restricted_map(gk, grel, self.rel.j_star(m)))
            if m not in r_p:
                r_p[m] = linalg.rref(self._restricted_map(grel, gl_down, self.rel.p_star(m)))
            r_p[m + 1] = linalg.rref(self._restricted_map(grel_up, gl, self.rel.p_star(m + 1)))

            # homology of the kernel sequence at each term; each slice checks
            # that the composite through its term vanishes
            omega_dim, omega_reps = _term_homology(gl, r_p[m + 1], r_psi)
            h_eval, _ = _term_homology(gk, r_psi, r_j)
            h_rel, _ = _term_homology(grel, r_j, r_p[m])

            trusted = gl.trusted and gk.trusted and grel.trusted and grel_up.trusted
            terms[top] = GSequenceTerm(
                topological=top,
                internal=m,
                gottlieb_dim=gl.dim,
                evaluation_dim=gk.dim,
                relative_dim=grel.dim,
                omega_dim=omega_dim,
                homology_at_evaluation=h_eval,
                homology_at_relative=h_rel,
                composites_zero=True,
                omega_representatives=omega_reps,
                trusted=trusted,
                low_degree_caveat=m <= 2,
            )
        return terms

    # -- degree windows ----------------------------------------------------------

    def _tops(self, predicate) -> list:
        """The tops from 2 up to the first whose G-sequence term fails predicate
        on a complex it reads: all six at m = top - 1, both cones at m + 1."""
        complexes = (self.cL, self.cK, self.der_LL, self.der_LK, self.rel, self.rel_star)
        out, top = [], 2
        while all(predicate(c, top - 1) for c in complexes) and all(
            predicate(c, top) for c in (self.rel, self.rel_star)
        ):
            out.append(top)
            top += 1
        return out

    def computable_tops(self) -> list:
        return self._tops(ChainComplex.computable)

    def trusted_tops(self) -> list:
        return self._tops(ChainComplex.trusted)


def _evaluate(image, xi: LieElement):
    """Evaluation at a cycle xi of L, a chain map of degree |xi| from each
    adjoint cone's target to its source: theta(xi), and (theta(xi), eta(xi))
    for a pair of Rel(psi_*)."""
    if isinstance(image, tuple):
        return image[0].apply(xi), image[1].apply(xi)
    return image.apply(xi)


def _is_zero(obj) -> bool:
    """Whether an element, a derivation or a cone's pair of them is zero."""
    return all(map(_is_zero, obj)) if isinstance(obj, tuple) else obj.is_zero()


def _term_homology(group: _Subgroup, incoming: linalg.Rref, outgoing: linalg.Rref):
    """ker(outgoing)/im(incoming) inside a subgroup, with representatives; both
    maps come eliminated, in group coordinates."""
    h = HomologySlice(group.degree, outgoing.kernel_space(), incoming, True)
    rows = [linalg.combine(q, group.basis.rows) for q in h.rep_rows]
    return h.dim, _Subgroup(group.cplx, group.degree, linalg.Rref(rows), True).representatives()


# -- public operations ---------------------------------------------------------


def gottlieb(model: DglModel, tops) -> list:
    """Gottlieb subgroups, one report per top: evaluation subgroups along the identity."""
    ctx = EvaluationContext(DglMorphism.identity(model))
    return [ctx._kernel(ctx.rel_ad_L, top - 1).report(top) for top in tops]


# -- coformality ------------------------------------------------------------------


def coformal_check(subject) -> CoformalReport:
    """Coformality verdict for a bigraded model or a morphism of such.

    As d lowers the upper degree by one, elimination never mixes upper
    degrees, so each homology representative lies in the upper degree of its
    pivot word.  A broken grading makes the verdict false whatever that reads.
    """
    if isinstance(subject, DglMorphism):
        src = coformal_check(subject.source)
        dst = coformal_check(subject.target)
        return CoformalReport(
            bigraded_ok=src.bigraded_ok and dst.bigraded_ok,
            upper_homology_ok=src.upper_homology_ok and dst.upper_homology_ok,
            window=sorted(set(src.window) | set(dst.window)),
            failures=src.failures + dst.failures,
            morphism_bigraded=subject.bigraded,
        )
    model: DglModel = subject
    if not model.bigraded:
        raise PreconditionError("coformal_check requires an upper grading on every generator")
    report = model.validate()
    failures = list(report.problems)
    bigraded_ok = bool(report.bigraded_ok)
    cx = DglComplex(model)
    window = [n for n in range(1, model.truncation) if cx.trusted(n)]
    upper_ok = report.d_squared_ok  # with d^2 != 0 there is no homology to read
    for n in window if upper_ok else ():
        labels = cx.record(n).labels
        pivots = cx.homology(n).rep_rref.pivots
        for i in sorted({model.algebra.word_upper(labels[p]) for p in pivots} - {0}):
            upper_ok = False
            failures.append(f"upper-degree-{i} homology is nonzero in internal degree {n}")
    return CoformalReport(
        bigraded_ok=bigraded_ok,
        upper_homology_ok=upper_ok,
        window=window,
        failures=failures,
    )


def coformal_bounding_derivation(psi: DglMorphism, xi: LieElement) -> GenDerivation:
    """Degreewise construction of theta with D(theta) = ad_psi(xi).

    Requires a coformal morphism and an upper-degree-0 cycle xi in the target.
    The value on a generator of upper degree u is solved inside the upper
    (u+1)-slice one internal degree up; a failed solve reports the generator.
    """
    verdict = coformal_check(psi)
    if not verdict.coformal:
        raise PreconditionError("coformal_bounding_derivation requires a coformal morphism")
    K = psi.target
    L = psi.source
    if xi.algebra is not K.algebra:
        raise PreconditionError("cycle must live in the target model")
    if not K.d(xi).is_zero():
        raise PreconditionError("xi must be a cycle")
    if xi.is_zero():
        return GenDerivation(psi, xi.degree + 1, {})
    if xi.upper_degree() != 0:
        raise PreconditionError("xi must be upper-homogeneous of upper degree 0")
    n = xi.degree
    sign = -1 if (n + 1) % 2 else 1
    cK = DglComplex(K)
    values = {}
    order = sorted(range(len(L.generators)), key=lambda i: (L.generators[i].upper, i))
    for gi in order:
        g = L.generators[gi]
        partial = GenDerivation(psi, n + 1, values)
        rhs = K.algebra.bracket(xi, psi.values[g.name]) + sign * partial.apply(
            L.diff_of(g.name)
        )
        deg = g.degree + n + 1
        if deg > K.truncation:
            raise TruncationError(
                f"bounding derivation for {g.name} needs degree {deg} beyond truncation"
            )
        if rhs.is_zero():
            continue
        words = cK.record(deg).labels
        cols = cK.columns(deg)
        idx = [
            k for k, w in enumerate(words) if K.algebra.word_upper(w) == g.upper + 1
        ]
        # a kernel vector (v, s) of [cols | -rhs] with s != 0 gives the solution v / s
        minus_rhs = {k: -c for k, c in cK.to_vector(deg - 1, rhs).items()}
        kernel = linalg.rref([cols[k] for k in idx] + [minus_rhs]).kernel
        sol = next((v for v in kernel if len(idx) in v), None)
        if sol is None:
            raise PreconditionError(
                f"no bounding value exists for generator {g.name} inside upper degree {g.upper + 1}"
            )
        s = sol.pop(len(idx))
        values[g.name] = cK.from_vector(deg, {idx[k]: linalg.div(c, s) for k, c in sol.items()})
    theta = GenDerivation(psi, n + 1, values)
    if theta.differential() != adjoint(psi, xi):
        raise InternalError("constructed derivation does not bound the adjoint")
    return theta
