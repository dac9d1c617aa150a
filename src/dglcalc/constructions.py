"""Product models, cylinder objects and homotopy verification.

The product construction attaches to a minimal model L(W; d) one generator v
of degree n-1 per sphere factor and a shifted copy W' = s^n W, with

    d(w') = [v, w] + (-1)^n S(d(w)),

where S is the degree-n suspension derivation along the inclusion.  The
cylinder of L(V; d) is L(V, sV, V^; D) with D(sv) = v^, D(v^) = 0; the far
end inclusion is exp([D, sigma]) applied to the near end, where sigma is the
degree-1 derivation v -> sv.  Homotopies out of the cylinder are verified,
not searched for: the end condition is polynomial in the suspension values.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import factorial
from typing import Mapping

from .derivations import GenDerivation
from .errors import InternalError, PreconditionError, TruncationError
from .lie import FreeLieAlgebra, Generator, LieElement
from .model import DglModel, DglMorphism


def _fresh_name(base: str, used: set) -> str:
    name = base
    while name in used:
        name = name + "_"
    used.add(name)
    return name


# -- product with a wedge of spheres ----------------------------------------------


# inclusion is base -> model; sphere_generators holds one generator name per
# sphere; suspensions, the degree-n_i suspension derivations along the
# inclusion; suspended_names, per sphere, a dict base-generator name -> shifted name
ProductModel = namedtuple("ProductModel", "base spheres model inclusion sphere_generators suspensions "
                          "suspended_names")


def product_model(base: DglModel, spheres) -> ProductModel:
    """Model of (wedge of spheres) x (space of the base model)."""
    spheres = list(spheres)
    if any(n < 2 for n in spheres):
        raise PreconditionError("sphere dimensions must be at least 2")
    trunc = base.truncation
    used = {g.name for g in base.generators}
    gens = [Generator(g.name, g.degree, g.upper) for g in base.generators]
    sphere_names = []
    suspended_names = []
    for i, n in enumerate(spheres):
        vname = _fresh_name("v" if len(spheres) == 1 else f"v{i + 1}", used)
        sphere_names.append(vname)
        if n - 1 > trunc:
            raise TruncationError(f"sphere generator of degree {n - 1} exceeds truncation")
        gens.append(Generator(vname, n - 1))
        shifted = {}
        for g in base.generators:
            if g.degree + n > trunc:
                raise TruncationError(
                    f"suspended generator of degree {g.degree + n} exceeds truncation"
                )
            suffix = "'" if len(spheres) == 1 else f"'{i + 1}"
            shifted[g.name] = _fresh_name(g.name + suffix, used)
            gens.append(Generator(shifted[g.name], g.degree + n))
        suspended_names.append(shifted)

    alg = FreeLieAlgebra(gens, truncation=trunc)
    # the inclusion into the bare algebra: the suspensions below read only its
    # brackets and letters, so the product's differential need not exist yet
    letters = {g.name: alg.gen(g.name) for g in base.generators}
    bare = DglMorphism(base, DglModel(alg), letters, check=False)
    diff = {g.name: bare.apply(base.diff_of(g.name)) for g in base.generators}
    values = [{g: alg.gen(s) for g, s in shifted.items()} for shifted in suspended_names]
    for n, vname, shifted, svalues in zip(spheres, sphere_names, suspended_names, values):
        v = alg.gen(vname)
        suspension = GenDerivation(bare, n, svalues)
        sign = -1 if n % 2 else 1
        for g in base.generators:
            value = alg.bracket(v, letters[g.name]) + sign * suspension.apply(base.diff_of(g.name))
            diff[shifted[g.name]] = value

    model = DglModel(alg, diff, name=(base.name or "X") + "_product")
    inclusion = DglMorphism(base, model, letters, name="incl")
    suspensions = [GenDerivation(inclusion, n, svalues) for n, svalues in zip(spheres, values)]
    return ProductModel(
        base=base,
        spheres=spheres,
        model=model,
        inclusion=inclusion,
        sphere_generators=sphere_names,
        suspensions=suspensions,
        suspended_names=suspended_names,
    )


def sphere_wedge_model(spheres, truncation: int) -> DglModel:
    """L(v_1, ..., v_k; d = 0) with |v_i| = n_i - 1."""
    gens = []
    for i, n in enumerate(spheres):
        gens.append((("v" if len(spheres) == 1 else f"v{i + 1}"), n - 1))
    return DglModel(FreeLieAlgebra(gens, truncation=truncation), {}, name="wedge")


# -- cylinder objects ---------------------------------------------------------------


# near_end is the sub-DGL inclusion, far_end exp([D, sigma]) applied to the
# near end, and conjugation [D, sigma], a degree-0 cycle derivation
CylinderModel = namedtuple("CylinderModel", "source model near_end far_end projection sigma conjugation "
                           "suspension_names hat_names exp_cap")


def _exp_apply(theta: GenDerivation, element: LieElement, cap: int) -> LieElement:
    out = element
    term = element
    for r in range(1, cap + 1):
        term = theta.apply(term)
        if term.is_zero():
            return out
        out = out + Fraction(1, factorial(r)) * term
    if not theta.apply(term).is_zero():
        raise InternalError(
            "exponential cap exceeded: the conjugation derivation failed to be "
            f"nilpotent within {cap} steps"
        )
    return out


def cylinder(source: DglModel) -> CylinderModel:
    """The cylinder object of a free model."""
    if not source.generators:
        raise PreconditionError("cylinder of the zero model is not defined")
    trunc = source.truncation
    used = {g.name for g in source.generators}
    gens = [Generator(g.name, g.degree) for g in source.generators]
    s_names, hat_names = {}, {}
    for g in source.generators:
        if g.degree + 1 > trunc:
            raise TruncationError("suspended cylinder generator exceeds truncation")
        s_names[g.name] = _fresh_name(f"s{g.name}", used)
        hat_names[g.name] = _fresh_name(f"{g.name}^", used)
    for g in source.generators:
        gens.append(Generator(s_names[g.name], g.degree + 1))
    for g in source.generators:
        gens.append(Generator(hat_names[g.name], g.degree))
    alg = FreeLieAlgebra(gens, truncation=trunc)
    letters = {g.name: alg.gen(g.name) for g in source.generators}
    bare = DglMorphism(source, DglModel(alg), letters, check=False)
    diff = {}
    for g in source.generators:
        diff[g.name] = bare.apply(source.diff_of(g.name))
        diff[s_names[g.name]] = alg.gen(hat_names[g.name])
    model = DglModel(alg, diff, name=(source.name or "L") + "_cyl")

    sigma_values = {g.name: alg.gen(s_names[g.name]) for g in source.generators}
    sigma = GenDerivation(DglMorphism.identity(model), 1, sigma_values)
    # D(sigma) = d sigma + sigma d, since |sigma| = 1
    conjugation = sigma.differential()

    near = DglMorphism(source, model, letters, name="near")
    min_deg = min(g.degree for g in source.generators)
    cap = trunc // min_deg + 1
    far_values = {
        g.name: _exp_apply(conjugation, alg.gen(g.name), cap) for g in source.generators
    }
    far = DglMorphism(source, model, far_values, name="far")
    # projection kills sV and V^
    pvals = {g.name: source.algebra.gen(g.name) for g in source.generators}
    for g in source.generators:
        pvals[s_names[g.name]] = source.algebra.zero(g.degree + 1)
        pvals[hat_names[g.name]] = source.algebra.zero(g.degree)
    projection = DglMorphism(model, source, pvals, name="proj")
    for end in (near, far):
        composed = projection.compose(end)
        for g in source.generators:
            if composed.values[g.name] != source.algebra.gen(g.name):
                raise InternalError("cylinder projection does not retract the end inclusion")
    return CylinderModel(
        source=source,
        model=model,
        near_end=near,
        far_end=far,
        projection=projection,
        sigma=sigma,
        conjugation=conjugation,
        suspension_names=s_names,
        hat_names=hat_names,
        exp_cap=cap,
    )


# -- homotopy verification -------------------------------------------------------------


class HomotopyReport(namedtuple("HomotopyReport", "holds mismatches")):
    __slots__ = ()

    def __new__(cls, holds: bool, mismatches: list = None):
        return super().__new__(cls, holds, [] if mismatches is None else mismatches)


def verify_homotopy(
    cyl: CylinderModel,
    target: DglModel,
    start: DglMorphism,
    svalues: Mapping,
    end: DglMorphism,
) -> HomotopyReport:
    """Whether the homotopy with the given suspension values ends at `end`.

    The homotopy out of the cylinder is forced: it restricts to `start` on
    the source, sends each suspended generator to the given value and each
    hat generator to the differential of that value.
    """
    source = cyl.source
    if start.source is not source or start.target is not target:
        raise PreconditionError("start morphism must map the cylinder source to the target")
    if end.source is not source or end.target is not target:
        raise PreconditionError("end morphism must map the cylinder source to the target")
    values = {}
    for g in source.generators:
        values[g.name] = start.values[g.name]
        sval = svalues.get(g.name)
        if sval is None:
            sval = target.algebra.zero(g.degree + 1)
        if sval.algebra is not target.algebra:
            raise PreconditionError(f"suspension value for {g.name} lives outside the target")
        if not sval.is_zero() and sval.degree != g.degree + 1:
            raise PreconditionError(
                f"suspension value for {g.name} must have degree {g.degree + 1}"
            )
        values[cyl.suspension_names[g.name]] = sval
        values[cyl.hat_names[g.name]] = target.d(sval)
    homotopy = DglMorphism(cyl.model, target, values, name="H")
    mismatches = []
    for g in source.generators:
        got = homotopy.apply(cyl.far_end.values[g.name])
        want = end.values[g.name]
        if got != want:
            mismatches.append((g.name, got, want))
    return HomotopyReport(holds=not mismatches, mismatches=mismatches)
