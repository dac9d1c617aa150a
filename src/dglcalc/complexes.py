"""Chain-complex engine: bases, differentials, homology with representatives.

Every complex in the package (a DGL, a derivation space, a relativization)
implements the same small interface: basis labels, a completeness predicate
saying whether the degree is fully known under the truncation, the
differential column of one basis label, the differential `d` of one domain
object, and conversions between basis vectors and domain objects.  The base
class keeps one record per degree (the labels, their index, the columns of
d_n and its single elimination) that dimensions, conversions and homology
read.  The columns of a degree are built together, once, by `columns(n)`; d
of a lone object, such as a cycle check's, is the object's own differential
and builds no column.  A homology slice is `linalg.quotient_basis` of two echelon
forms already built, Z_n (the kernel of d_n's elimination) and B_n (the rows
of d_{n+1}'s), so it eliminates nothing: its representatives are the rows of
Z_n whose pivots are not pivots of B_n.  Slices carry these deterministic
representative cycles and read the class coordinates of any cycle from their
echelon form, which is all the downstream subgroup machinery needs.  It is the
package's one quotient of cycles by boundaries: long exact sequence nodes and
G-sequence terms read their homology from it too, and boundaries that are not
cycles (d^2 != 0, or a nonzero composite) are an `InternalError` wherever they
appear.  A reader of B_n alone, as a subgroup kernel is of its target, calls
`boundaries(n)`.

Truncation discipline: H_n needs C_{n-1}, C_n, C_{n+1}.  The first two are
required to compute anything; if C_{n+1} is incomplete the slice is computed
with an empty boundary space and flagged untrusted rather than silently
reported.
"""
from __future__ import annotations

from typing import Callable, Optional

from . import linalg
from .errors import InternalError, PreconditionError, TruncationError
from .lie import LieElement
from .model import DglModel


class HomologySlice:
    """ker/im at one place: the cycles and boundaries as echelon forms in one
    coordinate system, with class-coordinate access.  Boundaries outside the
    cycles raise `InternalError`."""

    def __init__(self, degree: int, cycles: linalg.Rref, boundaries: linalg.Rref, trusted: bool):
        self.degree = degree
        self.cycles = cycles
        self.boundaries = boundaries
        self.trusted = trusted
        try:
            self.rep_rref = linalg.quotient_basis(cycles, boundaries)
        except PreconditionError:
            raise InternalError("homology dimensions are inconsistent") from None
        self.rep_rows = self.rep_rref.rows

    @property
    def dim(self) -> int:
        return len(self.rep_rows)

    def class_coords(self, vec) -> dict:
        """Coordinates of a cycle's class over the representative rows."""
        coords = self.rep_rref.coords(self.boundaries.reduce(vec))
        if coords is None:
            raise PreconditionError("vector is not a cycle of this slice")
        return coords


class DegreeRecord:
    """One degree of a complex: basis labels, their index, d_n and its elimination.

    The columns of d_n are built once, all together, by the first reader of
    any of them (the elimination, a cone over the complex).  The elimination
    is their single rref, made on first use: its kernel is Z_n and its rows
    span B_{n-1}.
    """

    __slots__ = ("labels", "index", "columns", "elimination")

    def __init__(self, labels: list):
        self.labels = labels
        self.index = {lab: i for i, lab in enumerate(labels)}
        self.columns: Optional[list] = None
        self.elimination: Optional[linalg.Rref] = None


class ChainComplex:
    """Base class; subclasses fill in labels, columns and object conversion."""

    trunc: int

    def __init__(self):
        self._records = {}
        self._homology_cache = {}

    def complete(self, n: int) -> bool:
        raise NotImplementedError

    def d_column(self, n: int, i: int) -> dict:
        """The image in C_{n-1} of the i-th basis vector of C_n."""
        raise NotImplementedError

    def d_columns(self, n: int) -> list:
        """Images in C_{n-1} of the basis vectors of C_n."""
        raise NotImplementedError

    def d(self, obj):
        """d of one object of the complex, as an object; it builds no column."""
        raise NotImplementedError

    def labels(self, n: int) -> list:
        """Builds the basis labels of C_n; callers read them through record(n)."""
        raise NotImplementedError

    def from_vector(self, n: int, vec):
        raise NotImplementedError

    def to_vector(self, n: int, obj):
        raise NotImplementedError

    def record(self, n: int) -> DegreeRecord:
        rec = self._records.get(n)
        if rec is None:
            rec = self._records[n] = DegreeRecord(self.labels(n))
        return rec

    def dim(self, n: int) -> int:
        return len(self.record(n).labels)

    def columns(self, n: int) -> list:
        """d_columns(n), built once per degree."""
        rec = self.record(n)
        if rec.columns is None:
            rec.columns = self.d_columns(n)
        return rec.columns

    def elimination(self, n: int) -> linalg.Rref:
        rec = self.record(n)
        if rec.elimination is None:
            rec.elimination = linalg.rref(self.columns(n))
        return rec.elimination

    def boundaries(self, n: int) -> linalg.Rref:
        """B_n as an echelon form: the rows of elimination(n + 1)."""
        return self.elimination(n + 1)

    def computable(self, n: int) -> bool:
        """H_n can be computed: C_n and C_{n-1} are complete."""
        return self.complete(n) and self.complete(n - 1)

    def trusted(self, n: int) -> bool:
        """H_n is computed with its full boundary space C_{n+1}."""
        return self.complete(n + 1) and self.computable(n)

    # -- homology -------------------------------------------------------------

    def homology(self, n: int) -> HomologySlice:
        cached = self._homology_cache.get(n)
        if cached is not None:
            return cached
        if not self.computable(n):
            raise TruncationError(f"degree {n} homology is outside the computable window")
        cycles = self.elimination(n).kernel_space()
        trusted = self.complete(n + 1)
        boundaries = self.elimination(n + 1) if trusted else linalg.Rref()
        slice_ = HomologySlice(n, cycles, boundaries, trusted)
        self._homology_cache[n] = slice_
        return slice_


def induced_matrix(
    src: ChainComplex,
    n_src: int,
    dst: ChainComplex,
    n_dst: int,
    fn: Callable,
) -> list:
    """Columns of the map induced on homology by a chain-level function.

    fn maps objects of src degree n_src to objects of dst degree n_dst; the
    j-th column holds the class coordinates of the image of the j-th homology
    representative.
    """
    hs = src.homology(n_src)
    hd = dst.homology(n_dst)
    cols = []
    for row in hs.rep_rows:
        obj = src.from_vector(n_src, row)
        img = fn(obj)
        cols.append(hd.class_coords(dst.to_vector(n_dst, img)))
    return cols


class DglComplex(ChainComplex):
    """The underlying chain complex of a DGL model."""

    def __init__(self, model: DglModel):
        super().__init__()
        self.model = model
        self.trunc = model.truncation

    def complete(self, n: int) -> bool:
        return n <= self.trunc

    def labels(self, n: int) -> list:
        if n < 1:
            return []
        return list(self.model.algebra._basis_data(n).words)

    def d_column(self, n: int, i: int) -> dict:
        return self.to_vector(n - 1, self.model._d_word(self.record(n).labels[i]))

    def d_columns(self, n: int) -> list:
        return [self.d_column(n, i) for i in range(self.dim(n))]

    def d(self, obj: LieElement) -> LieElement:
        return self.model.d(obj)

    def from_vector(self, n: int, vec) -> LieElement:
        words = self.record(n).labels
        terms = {words[i]: c for i, c in vec.items()}
        return LieElement(self.model.algebra, n, terms)

    def to_vector(self, n: int, obj: LieElement) -> dict:
        if obj.is_zero():
            return {}
        if obj.degree != n:
            raise InternalError("degree mismatch while vectorising an element")
        index = self.record(n).index
        return {index[w]: c for w, c in obj.terms.items()}
