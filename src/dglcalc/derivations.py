"""Generalized derivation spaces of a DGL map and their chain complex.

For a map psi: L -> K, a degree-n derivation along psi is a linear map
raising degree by n with

    theta([a, b]) = [theta(a), psi(b)] + (-1)^{n|a|} [psi(a), theta(b)],

determined by its values on free generators.  A `GenDerivation` stores only
its nonzero values, so a generator without one is sent to zero, and it is
evaluated through psi's Fox table (`DglMorphism.fox`), which visits only the
letters where theta has a value.  The differential, with d_K read word by
word from the target's cache (`DglModel._d_word`), is

    D(theta) = d_K o theta - (-1)^{|theta|} theta o d_L.

The degree-n basis of the complex pairs each source generator g with a basis
monomial of the target in degree |g|+n, so the whole complex reduces to exact
sparse linear algebra.  A generator g that no d_L reaches through psi's Fox
table is uncoupled: theta o d_L = 0 for the basis derivation theta_{g,w}, so
D(theta_{g,w}) = d_K w in g's block, and `DerComplex.d_columns` writes that
column straight from the target's word cache; a coupled column is
D(theta_{g,w}) through `GenDerivation.differential`.  As in every complex,
the columns of a degree are built together, once; D of a lone derivation,
such as a cycle check's, is its `differential` and builds no column.
"""
from __future__ import annotations

from typing import Mapping

from .complexes import ChainComplex
from .errors import PreconditionError, TruncationError
from .lie import LieElement
from .model import DglMorphism, DglModel


class GenDerivation:
    """A derivation along a morphism, stored by its nonzero values: `values`
    maps generator names, in generator order, to nonzero target elements, and
    a generator that has no value is sent to zero."""

    def __init__(self, along: DglMorphism, degree: int, values: Mapping = None):
        self.along = along
        self.degree = degree
        self.values = {}
        target = along.target.algebra
        values = values or {}
        for g in along.source.generators:
            v = values.get(g.name)
            if v is None or v.is_zero():
                continue
            if v.algebra is not target:
                raise PreconditionError(f"value for {g.name} lives outside the target algebra")
            if v.degree != g.degree + degree:
                raise PreconditionError(
                    f"value for {g.name} must have degree {g.degree + degree}, got {v.degree}"
                )
            self.values[g.name] = v

    @property
    def source(self) -> DglModel:
        return self.along.source

    @property
    def target(self) -> DglModel:
        return self.along.target

    def value(self, name: str) -> LieElement:
        """The value on a generator, the zero of its degree where none is stored."""
        v = self.values.get(name)
        if v is not None:
            return v
        src = self.source.algebra
        return self.target.algebra.zero(src.generators[src.index(name)].degree + self.degree)

    def apply(self, element: LieElement) -> LieElement:
        if element.algebra is not self.source.algebra:
            raise PreconditionError("element is not in the source algebra")
        bracket = self.target.algebra.bracket
        odd = self.degree % 2
        terms = {}
        for word, c in element.terms.items():
            for g, chains in self.along.fox(word).items():
                value = self.values.get(g)
                if value is None:
                    continue
                for ops, parity in chains:
                    x = value
                    for y, left in ops:
                        x = bracket(y, x) if left else bracket(x, y)
                    k = -c if odd and parity else c
                    for w, v in x.terms.items():
                        terms[w] = terms.get(w, 0) + k * v
        return LieElement(self.target.algebra, element.degree + self.degree, terms)

    __call__ = apply

    def differential(self) -> "GenDerivation":
        """D(theta) = d_K o theta - (-1)^{|theta|} theta o d_L, both summed
        into one term dict per generator."""
        sign = 1 if self.degree % 2 else -1  # the coefficient of theta o d_L
        d_word, diff = self.target._d_word, self.source.diff
        tgt = self.target.algebra
        values = {}
        for g in self.source.generators:
            terms = {}
            value = self.values.get(g.name)
            if value is not None:
                for word, c in value.terms.items():
                    for w, v in d_word(word).terms.items():
                        terms[w] = terms.get(w, 0) + c * v
            if g.name in diff:
                for w, v in self.apply(diff[g.name]).terms.items():
                    terms[w] = terms.get(w, 0) + sign * v
            if terms:
                values[g.name] = LieElement(tgt, g.degree + self.degree - 1, terms)
        return GenDerivation(self.along, self.degree - 1, values)

    def is_zero(self) -> bool:
        return not self.values

    def __add__(self, other: "GenDerivation") -> "GenDerivation":
        if other.along is not self.along or other.degree != self.degree:
            if self.is_zero():
                return other
            if other.is_zero():
                return self
            raise PreconditionError("cannot add derivations of different kinds")
        names = self.values.keys() | other.values.keys()
        return GenDerivation(
            self.along, self.degree, {g: self.value(g) + other.value(g) for g in names}
        )

    def __mul__(self, scalar) -> "GenDerivation":
        return GenDerivation(
            self.along, self.degree, {g: scalar * v for g, v in self.values.items()}
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, GenDerivation):
            return NotImplemented
        return (
            self.along.source is other.along.source
            and self.along.target is other.along.target
            and self.degree == other.degree
            and self.values == other.values
        )

    def __repr__(self):
        vals = ", ".join(f"{g} -> {v}" for g, v in self.values.items())
        return f"<GenDerivation deg {self.degree}: {vals or '0'}>"


def adjoint(psi: DglMorphism, y: LieElement) -> GenDerivation:
    """The derivation g -> [y, psi(g)] attached to an element of the target."""
    if y.algebra is not psi.target.algebra:
        raise PreconditionError("adjoint element must live in the target of the morphism")
    tgt = psi.target.algebra
    values = {}
    for g in psi.source.generators:
        values[g.name] = tgt.bracket(y, psi.values[g.name])
    return GenDerivation(psi, y.degree, values)


class DerComplex(ChainComplex):
    """The DG vector space of derivations along a fixed morphism."""

    def __init__(self, psi: DglMorphism):
        super().__init__()
        self.psi = psi
        self.trunc = min(psi.source.truncation, psi.target.truncation)
        self._max_src = psi.source.max_generator_degree
        # generators that some d_L reaches through psi's Fox table (module docstring)
        self._coupled = {g for dx in psi.source.diff.values() for u in dx.terms for g in psi.fox(u)}

    def complete(self, n: int) -> bool:
        return self._max_src + n <= self.trunc

    def labels(self, n: int) -> list:
        out = []
        for gi, g in enumerate(self.psi.source.generators):
            d = g.degree + n
            if d < 1:
                continue
            if d > self.trunc:
                raise TruncationError(f"derivation degree {n} is outside the truncation window")
            for word in self.psi.target.algebra._basis_data(d).words:
                out.append((gi, word))
        return out

    def from_vector(self, n: int, vec) -> GenDerivation:
        labels = self.record(n).labels
        terms = {}
        for i, c in vec.items():
            gi, word = labels[i]
            terms.setdefault(gi, {})[word] = c
        gens, tgt = self.psi.source.generators, self.psi.target.algebra
        values = {gens[gi].name: LieElement(tgt, gens[gi].degree + n, t) for gi, t in terms.items()}
        return GenDerivation(self.psi, n, values)

    def to_vector(self, n: int, theta: GenDerivation) -> dict:
        index, gen_index = self.record(n).index, self.psi.source.algebra.index
        vec = {}
        for name, value in theta.values.items():
            gi = gen_index(name)
            for word, c in value.terms.items():
                vec[index[(gi, word)]] = c
        return vec

    def d_columns(self, n: int) -> list:
        index = self.record(n - 1).index
        gens, d_word = self.psi.source.generators, self.psi.target._d_word
        tgt = self.psi.target.algebra
        cols = []
        for gi, word in self.record(n).labels:
            g = gens[gi]
            if g.name not in self._coupled:
                cols.append({index[(gi, w)]: c for w, c in d_word(word).terms.items()})
                continue
            theta = GenDerivation(self.psi, n, {g.name: LieElement(tgt, g.degree + n, {word: 1})})
            cols.append(self.to_vector(n - 1, theta.differential()))
        return cols

    def d(self, theta: GenDerivation) -> GenDerivation:
        return theta.differential()
