"""Differential graded Lie algebra presentations and morphisms.

A model is a free graded Lie algebra together with the differential's values
on generators.  The differential is a degree -1 derivation along the
identity, so it extends uniquely by the graded Leibniz rule

    d([x, y]) = [d(x), y] + (-1)^{|x|} [x, d(y)].

`Leibniz` evaluates that rule for d and for every derivation along a
morphism, recursing on the factors that `FreeLieAlgebra.split` gives.

A morphism is a generator assignment that commutes with the differentials.
Both d^2 = 0 and the chain-map condition are checked on generators only: a
derivation (d^2 = [d, d]/2, or phi d - d phi along phi) that vanishes on the
generators vanishes on the whole free algebra.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from .errors import PreconditionError, ValidationError
from .lie import FreeLieAlgebra, LieElement


class Leibniz:
    """A degree-n derivation theta along psi, evaluated and cached per word:

        theta([u, v]) = [theta(u), psi(v)] + (-1)^{n|u|} [psi(u), theta(v)]

    with (u, v) = source.split(word).  `letters` holds theta on the generators
    by index; `psi` maps a source word into the target and must not refer back
    to the evaluator's owner, so that owners are freed by reference counting.
    """

    __slots__ = ("source", "target", "degree", "letters", "psi", "_cache")

    def __init__(self, source: FreeLieAlgebra, target: FreeLieAlgebra, degree: int, letters, psi):
        self.source = source
        self.target = target
        self.degree = degree
        self.letters = letters
        self.psi = psi
        self._cache = {}

    def word(self, word) -> LieElement:
        cached = self._cache.get(word)
        if cached is not None:
            return cached
        if len(word) == 1:
            out = self.letters[word[0]]
        else:
            u, v = self.source.split(word)
            out = self.target.bracket(self.word(u), self.psi(v))
            sign = -1 if (self.degree * self.source.word_degree(u)) % 2 else 1
            out = out + sign * self.target.bracket(self.psi(u), self.word(v))
        self._cache[word] = out
        return out

    def apply(self, element: LieElement) -> LieElement:
        if element.algebra is not self.source:
            raise PreconditionError("element is not in the source algebra")
        out = self.target.zero(element.degree + self.degree)
        for word, c in element.terms.items():
            out = out + c * self.word(word)
        return out


@dataclass
class ValidationReport:
    d_squared_ok: bool
    minimal: bool
    bigraded_ok: Optional[bool]  # None when no upper grading is present
    problems: list = field(default_factory=list)

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
        # psi = DglMorphism.identity(self) would close a reference cycle
        letters = tuple(self.diff_of(g.name) for g in algebra.generators)
        self.leibniz = Leibniz(algebra, algebra, -1, letters, algebra.monomial)

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

    def d(self, element: LieElement) -> LieElement:
        return self.leibniz.apply(element)

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

    def apply(self, element: LieElement) -> LieElement:
        if element.algebra is not self.source.algebra:
            raise PreconditionError("element is not in the source algebra")
        out = self.target.algebra.zero(element.degree)
        for word, c in element.terms.items():
            out = out + c * self._apply_word(word)
        return out

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


def zero_morphism(source: DglModel, target: DglModel) -> DglMorphism:
    values = {g.name: target.algebra.zero(g.degree) for g in source.generators}
    return DglMorphism(source, target, values, name="0", check=False)
