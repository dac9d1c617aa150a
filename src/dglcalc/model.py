"""Differential graded Lie algebra presentations and morphisms.

A model is a free graded Lie algebra together with the differential's values
on generators.  The differential is a degree -1 derivation along the
identity, so it extends uniquely by the graded Leibniz rule

    d([x, y]) = [d(x), y] + (-1)^{|x|} [x, d(y)].

`DglModel.d` evaluates that rule word by word, recursing on the factors that
`FreeLieAlgebra.split` gives, summing both brackets into one dict and
caching d of each word on the model.  Every derivation along a morphism psi
is evaluated through psi's Fox table (`DglMorphism.fox`).

A morphism is a generator assignment that commutes with the differentials.
Both d^2 = 0 and the chain-map condition are checked on generators only: a
derivation (d^2 = [d, d]/2, or phi d - d phi along phi) that vanishes on the
generators vanishes on the whole free algebra.

A model whose differential has a linear part is not minimal: it splits as a
minimal model and a contractible part U + dU (Baues-Lemaire, Math. Ann. 225,
1977).  `minimal_quotient` builds the quotient by the ideal of that part, a
quasi-isomorphism r, with no section and no change of the kept generators.
"""
from __future__ import annotations

from collections import namedtuple
from typing import Mapping, Optional

from . import linalg
from .errors import PreconditionError, ValidationError
from .lie import FreeLieAlgebra, LieElement


class ValidationReport(namedtuple("ValidationReport", "d_squared_ok minimal bigraded_ok problems")):
    """bigraded_ok is None when no upper grading is present."""

    __slots__ = ()

    def __new__(cls, d_squared_ok: bool, minimal: bool, bigraded_ok: Optional[bool], problems=None):
        return super().__new__(cls, d_squared_ok, minimal, bigraded_ok, [] if problems is None else problems)

    @property
    def ok(self) -> bool:
        return self.d_squared_ok and (self.bigraded_ok is not False)


class DglModel:
    """A free DGL given by generators and differential values on them."""

    def __init__(self, algebra: FreeLieAlgebra, diff: Mapping = None, name: str = None):
        self.algebra = algebra
        self.name = name
        self.diff = {}
        diff = diff or {}
        for gname, value in diff.items():
            i = algebra.index(gname)
            if value.algebra is not algebra:
                raise PreconditionError(f"d({gname}) lives in a different algebra")
            if value.is_zero():
                continue
            expected = algebra.generators[i].degree - 1
            if value.degree != expected:
                raise PreconditionError(
                    f"d({gname}) must have degree {expected}, got {value.degree}"
                )
            self.diff[gname] = value
        self._d_cache = {}

    # -- structure ----------------------------------------------------------

    @property
    def generators(self):
        return self.algebra.generators

    @property
    def truncation(self) -> int:
        return self.algebra.truncation

    @property
    def bigraded(self) -> bool:
        return self.algebra.bigraded

    @property
    def max_generator_degree(self) -> int:
        return self.algebra.max_generator_degree

    def diff_of(self, name: str) -> LieElement:
        value = self.diff.get(name)
        if value is None:
            g = self.algebra.generators[self.algebra.index(name)]
            return self.algebra.zero(g.degree - 1)
        return value

    # -- the differential ----------------------------------------------------

    def _d_word(self, word) -> LieElement:
        """d of a basis word, cached per word:

            d([u, v]) = [d(u), v] + (-1)^{|u|} [u, d(v)]

        with (u, v) = algebra.split(word), both brackets summed into one dict;
        |u| and |v| are read off the cached d(u) and d(v), of degree one less.
        """
        cached = self._d_cache.get(word)
        if cached is not None:
            return cached
        alg = self.algebra
        if len(word) == 1:
            out = self.diff_of(alg.generators[word[0]].name)
        else:
            u, v = alg.split(word)
            du, dv = self._d_word(u), self._d_word(v)
            p, q = du.degree + 1, dv.degree + 1
            terms: dict = {}
            alg._add_bracket(terms, du.terms, {v: 1}, (-1) ** ((p - 1) * q))
            # drop the zero sums, so words that return in [u, d(v)] come last
            terms = {w: c for w, c in terms.items() if c}
            alg._add_bracket(terms, {u: 1}, dv.terms, (-1) ** (p * (q - 1)), (-1) ** p)
            out = LieElement(alg, p + q - 1, terms)
        self._d_cache[word] = out
        return out

    def d(self, element: LieElement) -> LieElement:
        if element.algebra is not self.algebra:
            raise PreconditionError("element is not in the source algebra")
        return _linear_extension(self._d_word, element, self.algebra, element.degree - 1)

    # -- validation -----------------------------------------------------------

    def validate(self) -> ValidationReport:
        problems = []
        d2_ok = True
        for g in self.generators:
            dd = self.d(self.diff_of(g.name))
            if not dd.is_zero():
                d2_ok = False
                problems.append(f"d(d({g.name})) = {dd} in degree {g.degree - 2}")
        minimal = True
        for gname, value in self.diff.items():
            if not value.linear_part().is_zero():
                minimal = False
                problems.append(f"d({gname}) has a linear part")
        bigraded_ok: Optional[bool] = None
        if self.bigraded:
            bigraded_ok = True
            for g in self.generators:
                value = self.diff_of(g.name)
                if g.upper == 0:
                    if not value.is_zero():
                        bigraded_ok = False
                        problems.append(f"d({g.name}) must vanish on upper degree 0")
                elif not value.is_zero() and value.upper_degree() != g.upper - 1:
                    bigraded_ok = False
                    problems.append(
                        f"d({g.name}) is not homogeneous of upper degree {g.upper - 1}"
                    )
        return ValidationReport(d_squared_ok=d2_ok, minimal=minimal, bigraded_ok=bigraded_ok, problems=problems)

    def __eq__(self, other):
        if not isinstance(other, DglModel):
            return NotImplemented
        return (
            self.generators == other.generators
            and self.truncation == other.truncation
            and {k: v.terms for k, v in self.diff.items()}
            == {k: v.terms for k, v in other.diff.items()}
        )

    def __repr__(self):
        gens = ", ".join(g.name for g in self.generators)
        return f"<DglModel {self.name or ''} L({gens})>"


class DglMorphism:
    """A DGL map given by its values on source generators."""

    def __init__(self, source: DglModel, target: DglModel, values: Mapping, name: str = None, check: bool = True):
        self.source = source
        self.target = target
        self.name = name
        self.values = {}
        for g in source.generators:
            if g.name not in values:
                raise PreconditionError(f"morphism is missing a value for generator {g.name}")
            v = values[g.name]
            if v.algebra is not target.algebra:
                raise PreconditionError(f"value for {g.name} lives outside the target algebra")
            if not v.is_zero() and v.degree != g.degree:
                raise PreconditionError(
                    f"value for {g.name} must have degree {g.degree}, got {v.degree}"
                )
            self.values[g.name] = v if not v.is_zero() else target.algebra.zero(g.degree)
        self._apply_cache = {}
        self._fox = {}
        if check:
            self._check_chain_map()

    def _check_chain_map(self):
        for g in self.source.generators:
            lhs = self.apply(self.source.diff_of(g.name))
            rhs = self.target.d(self.values[g.name])
            if lhs != rhs:
                raise ValidationError(
                    f"morphism does not commute with differentials at {g.name}: "
                    f"phi(d {g.name}) = {lhs} but d(phi {g.name}) = {rhs}"
                )

    @classmethod
    def identity(cls, model: DglModel) -> "DglMorphism":
        values = {g.name: model.algebra.gen(g.name) for g in model.generators}
        return cls(model, model, values, name="id", check=False)

    @property
    def bigraded(self) -> bool:
        """True when both models are bigraded and the map preserves upper degree."""
        if not (self.source.bigraded and self.target.bigraded):
            return False
        for g in self.source.generators:
            v = self.values[g.name]
            if not v.is_zero() and v.upper_degree() != g.upper:
                return False
        return True

    def _apply_word(self, word) -> LieElement:
        cached = self._apply_cache.get(word)
        if cached is not None:
            return cached
        if len(word) == 1:
            out = self.values[self.source.algebra.generators[word[0]].name]
        else:
            u, v = self.source.algebra.split(word)
            out = self.target.algebra.bracket(self._apply_word(u), self._apply_word(v))
        self._apply_cache[word] = out
        return out

    def fox(self, word) -> dict:
        """The Fox derivative of a source basis word: generator name -> chains.

        A degree-n derivation theta along self sends the word to the sum of
        (-1)^{n * parity} ops(theta(g)) over the chains (ops, parity) of each
        letter g.  The ops (y, left) run from the letter up to the word, one
        per node [u, v]: x -> [x, psi(v)] from u, x -> [psi(u), x] from v (left);
        parity sums |u| over the latter.  Chains through a zero psi(.) are
        dropped; the table holds target elements only, never the morphism.
        """
        out = self._fox.get(word)
        if out is not None:
            return out
        if len(word) == 1:
            out = {self.source.algebra.generators[word[0]].name: [((), 0)]}
        else:
            u, v = self.source.algebra.split(word)
            out = {}
            for inner, y, left in ((u, self._apply_word(v), False), (v, self._apply_word(u), True)):
                if y.is_zero():
                    continue
                odd = left and y.degree % 2
                for g, chains in self.fox(inner).items():
                    out.setdefault(g, []).extend((ops + ((y, left),), p ^ odd) for ops, p in chains)
        self._fox[word] = out
        return out

    def apply(self, element: LieElement) -> LieElement:
        if element.algebra is not self.source.algebra:
            raise PreconditionError("element is not in the source algebra")
        return _linear_extension(self._apply_word, element, self.target.algebra, element.degree)

    __call__ = apply

    def compose(self, other: "DglMorphism") -> "DglMorphism":
        """self o other (other is applied first)."""
        if other.target is not self.source:
            raise PreconditionError("morphisms are not composable")
        values = {g.name: self.apply(other.values[g.name]) for g in other.source.generators}
        return DglMorphism(other.source, self.target, values, check=False)

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.values.values())

    def __eq__(self, other):
        if not isinstance(other, DglMorphism):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and {k: v.terms for k, v in self.values.items()}
            == {k: v.terms for k, v in other.values.items()}
        )

    def __repr__(self):
        return f"<DglMorphism {self.name or ''} {self.source!r} -> {self.target!r}>"


def _linear_extension(on_word, element: LieElement, algebra: FreeLieAlgebra, degree: int) -> LieElement:
    """sum_w c_w on_word(w) over the terms of element, summed into one dict."""
    terms = {}
    for word, c in element.terms.items():
        for w, v in on_word(word).terms.items():
            terms[w] = terms.get(w, 0) + c * v
    return LieElement(algebra, degree, terms)


def zero_morphism(source: DglModel, target: DglModel) -> DglMorphism:
    values = {g.name: target.algebra.zero(g.degree) for g in source.generators}
    return DglMorphism(source, target, values, name="0", check=False)


def minimal_quotient(model: DglModel) -> Optional[DglMorphism]:
    """The quotient r: K -> Km by the DGL ideal of a contractible part U + dU,
    or None when K is minimal.

    Going down in degree, U_n is chosen among the generators of degree n that
    are no pivot of d U_{n+1}: those whose linear parts d_0 u are independent,
    by one echelon over generator coordinates.  The echelon of the elements
    d u, letters first, has its pivots at generators p, so swapping each p
    for its row leaves the free generators W + U + dU.  r keeps each w of W,
    with its name and upper degree, in order, sends U to 0 and, going up in
    degree, p to minus r of the rest of its row, as r(d u) = 0; d' = r o d on
    W.  The ideal is d-stable, so d' is a differential, and d_0 w lies in
    d_0(U), whose image under r is brackets, so d' has no linear part.
    """
    if all(v.linear_part().is_zero() for v in model.diff.values()):
        return None
    gens = model.generators
    killed, rests = set(), {}  # U, and each pivot's row without the pivot
    for n in sorted({g.degree for g in gens}, reverse=True):
        cands = [i for i, g in enumerate(gens) if g.degree == n and i not in rests]
        rows = {}
        for k, i in enumerate(cands):
            for w, c in model.diff_of(gens[i].name).linear_part().terms.items():
                rows.setdefault(w, {})[k] = c
        us = [cands[k] for k in linalg.rref(list(rows.values())).pivots]
        killed.update(us)
        chosen = [model.diff[gens[i].name] for i in us]
        words = sorted({w for du in chosen for w in du.terms}, key=lambda w: (len(w), w))
        index = {w: k for k, w in enumerate(words)}
        echelon = linalg.rref([{index[w]: c for w, c in du.terms.items()} for du in chosen])
        for p, row in zip(echelon.pivots, echelon.rows):
            rest = {words[k]: c for k, c in row.items() if k != p}
            rests[words[p][0]] = LieElement(model.algebra, n - 1, rest)
    kept = [g for i, g in enumerate(gens) if i not in killed and i not in rests]
    alg = FreeLieAlgebra(kept, model.truncation)
    values = {g.name: alg.zero(g.degree) for g in gens}
    values.update((g.name, alg.gen(g.name)) for g in alg.generators)
    r = DglMorphism(model, DglModel(alg), values, check=False)
    for i in sorted(rests, key=lambda i: gens[i].degree):  # rests read lower pivots only
        r.values[gens[i].name] = -r.apply(rests[i])
    diff = {g.name: r.apply(model.diff_of(g.name)) for g in alg.generators}
    return DglMorphism(model, DglModel(alg, diff, name=model.name), r.values, name="r")


def on_minimal_target(psi: DglMorphism) -> DglMorphism:
    """r o psi for the minimal quotient r of psi's target; psi itself when the
    target is minimal."""
    r = minimal_quotient(psi.target)
    return psi if r is None else r.compose(psi)
