"""Exact arithmetic in free graded Lie algebras over the rationals.

A Lie monomial is stored as a word of generators and read as the left-normed
bracket [[...[[g1,g2],g3]...],gk].  Every element is canonicalised through the
embedding into the free associative algebra,

    i([a, b]) = i(a)i(b) - (-1)^{|a||b|} i(b)i(a),

which is injective over a field of characteristic zero, so equality and all
linear algebra reduce to sparse exact vector arithmetic on tensor words.  The
per-degree basis is the set of pivot words obtained by row-reducing the
expanded left-normed words in graded-lexicographic order; it is deterministic
and cached on the algebra.

Only this module knows how a word is bracketed: evaluators elsewhere recurse
on the factors that `FreeLieAlgebra.split` gives.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .errors import InternalError, PreconditionError, TruncationError

Word = tuple  # tuple of generator indices; read as a left-normed bracket
TensorVec = dict  # tensor word (tuple of generator indices) -> Fraction


@dataclass(frozen=True)
class Generator:
    """A free generator with its internal degree and optional upper grading."""

    name: str
    degree: int
    upper: Optional[int] = None


def _word_key(w: Word):
    return (len(w), w)


class _BasisData:
    """Canonical basis of one degree plus the reduction rows used to project
    arbitrary tensor vectors onto it."""

    __slots__ = ("words", "rows")

    def __init__(self):
        self.words: list[Word] = []
        # each row: [pivot tensor word, row TensorVec, combo over basis indices]
        self.rows: list[list] = []

    def reduce(self, tensor: TensorVec) -> dict:
        """Coordinates of a tensor vector over the basis words.

        Raises InternalError if the vector is not in the span (impossible for
        the expansion of a genuine Lie element).
        """
        residual = dict(tensor)
        coords: dict = {}
        for pivot, row, combo in self.rows:
            c = residual.get(pivot)
            if c:
                for k, v in row.items():
                    w = residual.get(k, 0) - c * v
                    if w:
                        residual[k] = w
                    else:
                        residual.pop(k, None)
                for k, v in combo.items():
                    w = coords.get(k, 0) + c * v
                    if w:
                        coords[k] = w
                    else:
                        coords.pop(k, None)
        if residual:
            raise InternalError("tensor vector is outside the Lie subspace; basis is inconsistent")
        return coords

    def insert(self, word: Word, expansion: TensorVec) -> bool:
        """Try to add a word to the basis; returns True if it was independent."""
        residual = dict(expansion)
        used: dict = {}
        for i, (pivot, row, _combo) in enumerate(self.rows):
            c = residual.get(pivot)
            if c:
                for k, v in row.items():
                    w = residual.get(k, 0) - c * v
                    if w:
                        residual[k] = w
                    else:
                        residual.pop(k, None)
                used[i] = c
        if not residual:
            return False
        new_index = len(self.words)
        self.words.append(word)
        pivot = min(residual, key=_word_key)
        lead = residual[pivot]
        row = {k: v / lead for k, v in residual.items()}
        combo = {new_index: Fraction(1) / lead}
        for i, c in used.items():
            for k, v in self.rows[i][2].items():
                w = combo.get(k, 0) - (c / lead) * v
                if w:
                    combo[k] = w
                else:
                    combo.pop(k, None)
        # keep the reduction rows fully reduced against the new pivot
        for entry in self.rows:
            c = entry[1].get(pivot)
            if c:
                entry[1] = {
                    k: v
                    for k in set(entry[1]) | set(row)
                    if (v := entry[1].get(k, 0) - c * row.get(k, 0))
                }
                entry[2] = {
                    k: v
                    for k in set(entry[2]) | set(combo)
                    if (v := entry[2].get(k, 0) - c * combo.get(k, 0))
                }
        self.rows.append([pivot, row, combo])
        return True


class FreeLieAlgebra:
    """Free graded Lie algebra on named generators, truncated at degree N."""

    def __init__(self, generators: Iterable, truncation: int):
        gens = []
        for g in generators:
            if isinstance(g, Generator):
                gens.append(g)
            else:
                gens.append(Generator(*g))
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            raise PreconditionError("generator names must be unique")
        for g in gens:
            if g.degree < 1:
                raise PreconditionError(f"generator {g.name} must have degree >= 1")
            if g.upper is not None and g.upper < 0:
                raise PreconditionError(f"generator {g.name} has negative upper degree")
            if g.degree > truncation:
                raise TruncationError(f"generator {g.name} exceeds truncation degree {truncation}")
        if truncation < 1:
            raise PreconditionError("truncation degree must be >= 1")
        self.generators = tuple(gens)
        self.truncation = truncation
        self._index = {g.name: i for i, g in enumerate(gens)}
        self._degrees = tuple(g.degree for g in gens)
        self._uppers = tuple(g.upper for g in gens)
        self._words_cache: dict = {}
        self._expansion_cache: dict = {}
        self._basis_cache: dict = {}

    # -- bookkeeping -------------------------------------------------------

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise PreconditionError(f"unknown generator {name!r}") from None

    def word_degree(self, word: Word) -> int:
        return sum(self._degrees[i] for i in word)

    def word_upper(self, word: Word) -> Optional[int]:
        total = 0
        for i in word:
            u = self._uppers[i]
            if u is None:
                return None
            total += u
        return total

    def split(self, word: Word) -> tuple:
        """The factors (u, v) of a word of length >= 2 read as the bracket [u, v]."""
        return word[:-1], word[-1:]

    def word_names(self, word: Word) -> tuple:
        return tuple(self.generators[i].name for i in word)

    @property
    def bigraded(self) -> bool:
        return bool(self.generators) and all(u is not None for u in self._uppers)

    @property
    def max_generator_degree(self) -> int:
        return max(self._degrees, default=0)

    # -- tensor expansion ---------------------------------------------------

    def words(self, degree: int) -> list:
        """All generator words of the given degree, graded-lexicographic."""
        if degree in self._words_cache:
            return self._words_cache[degree]
        out = []
        if degree >= 1 and self.generators:
            stack = [((), degree)]
            while stack:
                prefix, rem = stack.pop()
                for i, d in enumerate(self._degrees):
                    if d < rem:
                        stack.append((prefix + (i,), rem - d))
                    elif d == rem:
                        out.append(prefix + (i,))
            out.sort(key=_word_key)
        self._words_cache[degree] = out
        return out

    def expansion(self, word: Word) -> TensorVec:
        """Tensor-algebra expansion of the left-normed bracket of the word."""
        cached = self._expansion_cache.get(word)
        if cached is not None:
            return cached
        if len(word) == 1:
            out = {word: Fraction(1)}
        else:
            a = self.expansion(word[:-1])
            da = self.word_degree(word[:-1])
            db = self._degrees[word[-1]]
            sign = -1 if (da * db) % 2 else 1
            tail = word[-1:]
            out = {}
            for wa, ca in a.items():
                k = wa + tail
                v = out.get(k, 0) + ca
                if v:
                    out[k] = v
                else:
                    out.pop(k, None)
                k = tail + wa
                v = out.get(k, 0) - sign * ca
                if v:
                    out[k] = v
                else:
                    out.pop(k, None)
        self._expansion_cache[word] = out
        return out

    def _basis_data(self, degree: int) -> _BasisData:
        if degree in self._basis_cache:
            return self._basis_cache[degree]
        if degree > self.truncation:
            raise TruncationError(
                f"degree {degree} exceeds truncation degree {self.truncation}"
            )
        data = _BasisData()
        if degree >= 1:
            for word in self.words(degree):
                data.insert(word, self.expansion(word))
        self._basis_cache[degree] = data
        return data

    # -- public API ----------------------------------------------------------

    def degree_basis(self, degree: int) -> "DegreeBasis":
        data = self._basis_data(degree)
        return DegreeBasis(algebra=self, degree=degree, words=tuple(data.words))

    def dim(self, degree: int) -> int:
        if degree < 1:
            return 0
        return len(self._basis_data(degree).words)

    def zero(self, degree: int) -> "LieElement":
        return LieElement(self, degree, {})

    def gen(self, name: str) -> "LieElement":
        i = self.index(name)
        return LieElement(self, self._degrees[i], {(i,): Fraction(1)})

    def monomial(self, word: Word) -> "LieElement":
        """Canonical form of the left-normed bracket of a word of indices."""
        degree = self.word_degree(word)
        data = self._basis_data(degree)
        coords = data.reduce(self.expansion(word))
        return LieElement(self, degree, {data.words[i]: c for i, c in coords.items()})

    def from_tensor(self, degree: int, tensor: TensorVec) -> "LieElement":
        data = self._basis_data(degree)
        coords = data.reduce(tensor)
        return LieElement(self, degree, {data.words[i]: c for i, c in coords.items()})

    def bracket(self, a: "LieElement", b: "LieElement") -> "LieElement":
        if a.algebra is not self or b.algebra is not self:
            raise PreconditionError("bracket arguments belong to different algebras")
        degree = a.degree + b.degree
        if a.is_zero() or b.is_zero():
            return LieElement(self, degree, {})
        if degree > self.truncation:
            raise TruncationError(
                f"bracket of degrees {a.degree} and {b.degree} exceeds truncation {self.truncation}"
            )
        sign = -1 if (a.degree * b.degree) % 2 else 1
        tensor: TensorVec = {}
        for wa, ca in a.terms.items():
            ea = self.expansion(wa)
            for wb, cb in b.terms.items():
                eb = self.expansion(wb)
                c = ca * cb
                for ta, va in ea.items():
                    for tb, vb in eb.items():
                        v = c * va * vb
                        k = ta + tb
                        w = tensor.get(k, 0) + v
                        if w:
                            tensor[k] = w
                        else:
                            tensor.pop(k, None)
                        k = tb + ta
                        w = tensor.get(k, 0) - sign * v
                        if w:
                            tensor[k] = w
                        else:
                            tensor.pop(k, None)
        return self.from_tensor(degree, tensor)

    def element_from_coords(self, degree: int, coords: Sequence) -> "LieElement":
        words = self._basis_data(degree).words
        if len(coords) != len(words):
            raise PreconditionError("coordinate vector has the wrong length")
        terms = {w: Fraction(c) for w, c in zip(words, coords) if c}
        return LieElement(self, degree, terms)


@dataclass(frozen=True)
class DegreeBasis:
    """Deterministic ordered basis of one degree of a free graded Lie algebra."""

    algebra: FreeLieAlgebra
    degree: int
    words: tuple

    @property
    def dimension(self) -> int:
        return len(self.words)

    @property
    def monomials(self) -> tuple:
        return tuple(self.algebra.word_names(w) for w in self.words)

    def elements(self) -> tuple:
        return tuple(
            LieElement(self.algebra, self.degree, {w: Fraction(1)}) for w in self.words
        )


def coordinates(element: "LieElement", basis: DegreeBasis) -> list:
    """Coordinate vector of a canonical element over a degree basis."""
    if element.algebra is not basis.algebra:
        raise PreconditionError("element and basis belong to different algebras")
    if not element.is_zero() and element.degree != basis.degree:
        raise PreconditionError("element degree does not match basis degree")
    return [element.terms.get(w, Fraction(0)) for w in basis.words]


class LieElement:
    """Homogeneous element in canonical form: basis word -> coefficient."""

    __slots__ = ("algebra", "degree", "terms")

    def __init__(self, algebra: FreeLieAlgebra, degree: int, terms: Mapping):
        self.algebra = algebra
        self.degree = degree
        self.terms = {w: Fraction(c) for w, c in terms.items() if c}

    def is_zero(self) -> bool:
        return not self.terms

    def bracket(self, other: "LieElement") -> "LieElement":
        return self.algebra.bracket(self, other)

    def __add__(self, other: "LieElement") -> "LieElement":
        if other.algebra is not self.algebra:
            raise PreconditionError("cannot add elements of different algebras")
        if self.is_zero():
            return LieElement(self.algebra, other.degree, other.terms)
        if other.is_zero():
            return LieElement(self.algebra, self.degree, self.terms)
        if self.degree != other.degree:
            raise PreconditionError("cannot add elements of different degrees")
        terms = dict(self.terms)
        for w, c in other.terms.items():
            v = terms.get(w, 0) + c
            if v:
                terms[w] = v
            else:
                terms.pop(w, None)
        return LieElement(self.algebra, self.degree, terms)

    def __neg__(self) -> "LieElement":
        return LieElement(self.algebra, self.degree, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "LieElement") -> "LieElement":
        return self + (-other)

    def __mul__(self, scalar) -> "LieElement":
        c = Fraction(scalar)
        if not c:
            return LieElement(self.algebra, self.degree, {})
        return LieElement(self.algebra, self.degree, {w: c * v for w, v in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, LieElement):
            return NotImplemented
        if self.algebra is not other.algebra:
            return False
        if self.is_zero() and other.is_zero():
            return True
        return self.degree == other.degree and self.terms == other.terms

    def __hash__(self):
        # zero elements of every degree are equal, so they must hash alike
        degree = self.degree if self.terms else None
        return hash((id(self.algebra), degree, frozenset(self.terms.items())))

    def upper_degree(self) -> Optional[int]:
        """Common upper degree of all terms, or None if mixed/ungraded."""
        values = {self.algebra.word_upper(w) for w in self.terms}
        if len(values) == 1:
            return values.pop()
        return None

    def linear_part(self) -> "LieElement":
        return LieElement(
            self.algebra, self.degree, {w: c for w, c in self.terms.items() if len(w) == 1}
        )

    def tensor_expansion(self) -> TensorVec:
        out: TensorVec = {}
        for w, c in self.terms.items():
            for t, v in self.algebra.expansion(w).items():
                val = out.get(t, 0) + c * v
                if val:
                    out[t] = val
                else:
                    out.pop(t, None)
        return out

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms, key=_word_key):
            c = self.terms[w]
            mono = _word_str(self.algebra, w)
            if c == 1:
                text = mono
            elif c == -1:
                text = f"-{mono}"
            else:
                text = f"{c}{mono}"
            parts.append(text)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self) -> str:
        return f"<LieElement {self}>"


def _word_str(algebra: FreeLieAlgebra, word: Word) -> str:
    names = algebra.word_names(word)
    out = names[0]
    for n in names[1:]:
        out = f"[{out},{n}]"
    return out

