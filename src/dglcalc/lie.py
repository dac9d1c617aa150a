"""Exact arithmetic in free graded Lie algebras over the rationals.

A coefficient follows the package's coefficient rule, whose one home is
`dglcalc.linalg` (`coeff`, and `div` for an exact quotient): an `int` when
it is integral and a `Fraction` only once a denominator appears, never a
float.

An element is held by its coordinates in the super-Lyndon basis of its
degree (Reutenauer, *Free Lie Algebras*, ch. 4-5; Bokut-Kang-Lee-Malcolmson,
J. Algebra 217, 1999): the Lyndon words in generator-index order, plus ww
for each Lyndon word w of odd degree.  A Lyndon word w of length >= 2 names
the bracket [u, v] of its standard factorisation w = uv, where v is the
longest proper Lyndon suffix; ww names [w, w].  Coordinates are unique, so
equality and all linear algebra are sparse exact vector arithmetic on basis
words.  Whether (u, v) is the standard factorisation of uv is read from the
two factors alone (`FreeLieAlgebra._standard`), so a bracket records the
standard words it meets and builds no basis; a degree's basis is built only
for a reader that enumerates it (`words`, `dim`), deterministic and cached on
the algebra, with the Lyndon words that build the degrees above it.

A bracket is bilinear, so one routine (`FreeLieAlgebra._add_bracket`, also
used by `DglModel._d_word`) sums it into a dict term pair by term pair.  Most
pairs are standard: when (u, v) is the standard factorisation of the basis
word uv, [b_u, b_v] is b_uv by definition (this covers the odd squares ww),
and [b_v, b_u] = -(-1)^{|u||v|} b_uv.  Any other pair is rewritten in the
basis by graded antisymmetry and the Jacobi identity on the standard factors
(`FreeLieAlgebra._pair`), which never divides, so its coordinates are
integers; they are cached on the algebra.

Only this module knows how a word is bracketed: evaluators elsewhere recurse
on the factors that `FreeLieAlgebra.split` gives.
"""
from __future__ import annotations

from typing import Iterable, Mapping, Optional

from .errors import InternalError, PreconditionError, TruncationError
from .linalg import coeff

Word = tuple  # tuple of generator indices; a super-Lyndon word names its standard bracketing


class Generator:
    """A free generator with its internal degree and optional upper grading,
    compared and hashed by these three fields."""

    __slots__ = ("name", "degree", "upper")

    def __init__(self, name: str, degree: int, upper: Optional[int] = None):
        self.name, self.degree, self.upper = name, degree, upper

    def __eq__(self, other):
        if type(other) is not Generator:
            return NotImplemented
        return (self.name, self.degree, self.upper) == (other.name, other.degree, other.upper)

    def __hash__(self):
        return hash((self.name, self.degree, self.upper))

    def __repr__(self):
        return f"Generator(name={self.name!r}, degree={self.degree!r}, upper={self.upper!r})"


def _word_key(w: Word):
    return (len(w), w)


class _BasisData:
    """One degree of the basis: its super-Lyndon words in (len, word) order,
    and its Lyndon words (all but the squares ww), which build higher degrees."""

    __slots__ = ("words", "lyndon")

    def __init__(self, words: list, lyndon: list):
        self.words, self.lyndon = words, lyndon


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
        self._basis_cache: dict = {}  # degree -> _BasisData
        self._split: dict = {}  # basis word of length >= 2 -> (u, v)
        self._bracket_cache: dict = {}  # (u, v) of a non-standard pair -> terms of [b_u, b_v]

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
        """The factors (u, v) of a basis word of length >= 2, which names [u, v]."""
        try:
            return self._split[word]
        except KeyError:
            raise PreconditionError(f"{self.word_names(word)} is not a basis word") from None

    def word_names(self, word: Word) -> tuple:
        return tuple(self.generators[i].name for i in word)

    @property
    def bigraded(self) -> bool:
        return bool(self.generators) and all(u is not None for u in self._uppers)

    @property
    def max_generator_degree(self) -> int:
        return max(self._degrees, default=0)

    # -- the basis -----------------------------------------------------------

    def words(self, degree: int) -> list:
        """The super-Lyndon words of the given degree, in (len, word) order."""
        return self._basis_data(degree).words

    def _basis_data(self, degree: int) -> _BasisData:
        """The basis of one degree, built once from the Lyndon words of the
        lower degrees, each word from its standard factors (`_standard`), so
        no other word is seen."""
        data = self._basis_cache.get(degree)
        if data is not None:
            return data
        if degree > self.truncation:
            raise TruncationError(f"degree {degree} exceeds truncation degree {self.truncation}")
        lower = {k: self._basis_data(k).lyndon for k in range(1, degree)}
        words = [(i,) for i, d in enumerate(self._degrees) if d == degree]
        for k in range(1, degree):
            words += self._standard(lower[k], lower[degree - k])
        words.sort(key=_word_key)
        # only a degree 2 mod 4 holds squares ww, for Lyndon words w of odd degree
        lyndon = [w for w in words if self._lyndon(w)] if degree % 4 == 2 else list(words)
        data = self._basis_cache[degree] = _BasisData(words, lyndon)
        return data

    def _lyndon(self, word: Word) -> bool:
        """Whether a word is a letter or a known basis word uv with u != v;
        a word of length >= 2 that `_split` lacks is no basis word."""
        if len(word) == 1:
            return True
        uv = self._split.get(word)
        return uv is not None and uv[0] != uv[1]

    def _standard(self, us, vs) -> list:
        """The words uv, for Lyndon words u in us and v in vs, whose standard
        factorisation is (u, v); each is recorded in `_split`.

        The pair is read from the two factors alone (Lothaire, *Combinatorics
        on Words*, Prop. 5.1.4): (u, v) is standard when u < v and u is a
        letter or the right factor of u is >= v, and (u, u) when u has odd
        degree, as [u, u] is then the basis word uu.
        """
        split = self._split
        out = []
        for u in us:
            right = split[u][1] if len(u) > 1 else None
            for v in vs:
                if u < v:
                    if right is None or right >= v:
                        w = u + v
                        split[w] = (u, v)
                        out.append(w)
                elif u == v and self.word_degree(u) % 2:
                    w = u + u
                    split[w] = (u, u)
                    out.append(w)
        return out

    # -- public API ----------------------------------------------------------

    def dim(self, degree: int) -> int:
        return len(self.words(degree))

    def zero(self, degree: int) -> "LieElement":
        return LieElement(self, degree, {})

    def gen(self, name: str) -> "LieElement":
        i = self.index(name)
        return LieElement(self, self._degrees[i], {(i,): 1})

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
        out: dict = {}
        self._add_bracket(out, a.terms, b.terms, -1 if a.degree * b.degree % 2 else 1)
        return LieElement(self, degree, out)

    def _add_bracket(self, out: dict, a: Mapping, b: Mapping, sign: int, scale=1) -> None:
        """out += scale * [a, b] for the terms a and b of elements of degrees
        p and q, with sign = (-1)^{pq}.

        Zero sums stay in out as keys with value 0.
        """
        split, cache = self._split, self._bracket_cache
        # _pair's first rules and cache lookup, inlined: calling _pair for
        # every term pair costs gseq-onecell about 2.5% of its ops_per_s
        for u, cu in a.items():
            cu *= scale
            for v, cv in b.items():
                c = cu * cv
                uv = u + v
                if split.get(uv) == (u, v):  # [b_u, b_v] is the basis word uv
                    out[uv] = out.get(uv, 0) + c
                    continue
                vu = v + u
                if split.get(vu) == (v, u):  # -sign [b_v, b_u], the basis word vu
                    out[vu] = out.get(vu, 0) - sign * c
                else:
                    terms = cache.get((u, v))
                    if terms is None:
                        terms = self._pair(u, v)
                    for w, x in terms.items():
                        out[w] = out.get(w, 0) + c * x

    def _pair(self, u: Word, v: Word) -> dict:
        """Coordinates of [b_u, b_v] for basis words u and v, with `int`
        coefficients, in word order.

        A standard pair is its basis word; a pair met for the first time is
        decided from its factors and recorded.  Otherwise [w, w] of even degree
        and the odd cube [w, [w, w]] vanish, graded antisymmetry puts the
        smaller word first, and the Jacobi identity moves the bracket onto
        the standard factors (a, b) of the left word,

            [[a, b], v] = [a, [b, v]] - (-1)^{|a||b|} [b, [a, v]],

        unless the left word is a letter or its right factor is >= v.  Then
        uv would be standard if v were Lyndon, so v is a square ww, and

            [u, [w, w]] = 2 (-1)^{|u||w|} [w, [u, w]].

        Each non-standard pair is filled once into `_bracket_cache`, whose
        dicts are read and never changed.
        """
        split = self._split
        if split.get(u + v) == (u, v):
            return {u + v: 1}
        cache = self._bracket_cache
        terms = cache.get((u, v))
        if terms is not None:
            return terms
        deg = self.word_degree
        odd = deg(u) * deg(v) % 2
        if split.get(v + u) == (v, u):
            return {v + u: 1 if odd else -1}
        if u <= v and self._lyndon(u) and self._lyndon(v) and self._standard((u,), (v,)):
            return {u + v: 1}  # a standard pair met for the first time
        if u == v or split.get(v) == (u, u):  # [w, w] of even degree, or [w, [w, w]]
            terms = {}
        elif u > v:
            terms = {w: c if odd else -c for w, c in self._pair(v, u).items()}
        else:
            out: dict = {}
            ab = split.get(u)
            if ab is not None and (ab[0] == ab[1] or ab[1] < v):
                a, b = ab
                p, q, r = deg(a), deg(b), deg(v)
                self._add_bracket(out, {a: 1}, self._pair(b, v), (-1) ** (p * (q + r)))
                self._add_bracket(out, {b: 1}, self._pair(a, v), (-1) ** (q * (p + r)), -((-1) ** (p * q)))
            else:
                ab = split.get(v)
                if ab is None or ab[0] != ab[1]:
                    raise InternalError(
                        f"no rewriting of the bracket of {self.word_names(u)} "
                        f"and {self.word_names(v)}"
                    )
                w = ab[0]
                p, q = deg(u), deg(w)
                self._add_bracket(out, {w: 1}, self._pair(u, w), (-1) ** (q * (p + q)), 2 * (-1) ** (p * q))
            terms = {w: c for w, c in sorted(out.items()) if c}
        cache[(u, v)] = terms
        return terms


class LieElement:
    """Homogeneous element in canonical form: basis word -> nonzero coefficient,
    an `int` when integral and otherwise a `Fraction`, never a float."""

    __slots__ = ("algebra", "degree", "terms")

    def __init__(self, algebra: FreeLieAlgebra, degree: int, terms: Mapping):
        self.algebra = algebra
        self.degree = degree
        self.terms = {w: c if type(c) is int else coeff(c) for w, c in terms.items() if c}

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
        c = coeff(scalar)
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
    """The bracket a basis word names, e.g. [x,[x,y]]."""
    if len(word) == 1:
        return algebra.generators[word[0]].name
    u, v = algebra.split(word)
    return f"[{_word_str(algebra, u)},{_word_str(algebra, v)}]"
