"""Exact linear algebra over the rationals on sparse vectors.

This module is the one home of the package's coefficient rule: a coefficient
is an `int` when it is integral and a `Fraction` otherwise, never a float.
`coeff` puts a number in that type and refuses any other, and `div` is the
one exact quotient, an `int` when the division is exact.  Both types compare,
hash and print alike for integers, so the rule is invisible in reports, and
integral arithmetic never builds a `Fraction`.

A vector is a dict mapping column index to a nonzero coefficient.  The
elimination is sparse and fraction-free on integer-scaled rows: a heap keyed
by leading column picks each pivot, only the rows with an entry in the pivot
column are updated, each by a gcd-primitive integer step that is then divided
by its content, and back-substitution runs the same step before one rational
normalisation per row, by `div`, so the rows and kernel of an echelon form
follow the coefficient rule.  Pivoting is deterministic: leftmost column first,
largest row index second.  So a row is only reduced by later rows, and a row
that vanishes leaves a combination of itself and later pivot rows: the kernel
comes out of the one pass already in reduced echelon form.

An `Rref` is the one echelon form of a space: `coords` reads a vector's
coordinates at its pivots, `kernel_space` gives the null space of its input
rows as another, and `quotient_basis` reads a quotient off two of them with
no elimination at all.
"""
from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Optional, Sequence

from .errors import PreconditionError

Vec = dict  # index -> nonzero coefficient: int when integral, else Fraction


def coeff(c):
    """c in canonical type: int when integral, else Fraction.  Any other type
    is refused, so no rounded float becomes a coefficient."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise PreconditionError(f"coefficient {c!r} is neither an int nor a Fraction")


def div(v, d):
    """The exact quotient v / d of two coefficients, in canonical type."""
    if type(v) is int and type(d) is int:
        return v // d if not v % d else Fraction(v, d)
    return coeff(Fraction(v, d))


def vec_add(a: Vec, b: Vec, scale: Fraction = 1) -> Vec:
    """a + scale*b, dropping zeros."""
    out = dict(a)
    for k, v in b.items():
        w = out.get(k, 0) + scale * v
        if w:
            out[k] = w
        else:
            out.pop(k, None)
    return out


def combine(coeffs: Vec, vectors: Sequence[Vec]) -> Vec:
    """sum_j coeffs[j] * vectors[j]."""
    out: Vec = {}
    for j, c in coeffs.items():
        out = vec_add(out, vectors[j], c)
    return out


def _integerize(row: Vec) -> tuple[Vec, int]:
    """Scale a rational row to integers; returns (row, positive multiplier).
    A row of ints is returned as it is."""
    denoms = [v.denominator for v in row.values() if type(v) is not int]
    if not denoms:
        return row, 1
    m = lcm(*denoms) if len(denoms) > 1 else denoms[0]
    return {k: int(v * m) for k, v in row.items()}, m


class Rref:
    """Reduced row echelon form of a list of sparse rows.

    rows[i] has a 1 at pivots[i] and zeros at every other pivot column, so a
    vector of the span is sum_i vec[pivots[i]] * rows[i].  kernel holds the
    input-row combinations that vanish, in reduced echelon form over the
    input indices as the same elimination leaves them.  Each list defaults
    to a fresh one.
    """

    __slots__ = ("rows", "pivots", "kernel")

    def __init__(self, rows: list = None, pivots: list = None, kernel: list = None):
        self.rows = [] if rows is None else rows
        self.pivots = [] if pivots is None else pivots
        self.kernel = [] if kernel is None else kernel

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Vec) -> Vec:
        """The residual vec - sum_i vec[pivots[i]] * rows[i]; empty exactly
        when vec lies in the span."""
        residual = {k: v for k, v in vec.items() if v}
        for p, row in zip(self.pivots, self.rows):
            c = residual.get(p)
            if c:
                residual = vec_add(residual, row, -c)
        return residual

    def coords(self, vec: Vec) -> Optional[Vec]:
        """Coordinates of vec over the rows, its entries at the pivots, or
        None when vec is outside the span."""
        if self.reduce(vec):
            return None
        return {i: vec[p] for i, p in enumerate(self.pivots) if vec.get(p)}

    def kernel_space(self) -> "Rref":
        """The kernel as an echelon form: its rows come out reduced, so each
        row's pivot is its leftmost index."""
        return Rref(rows=self.kernel, pivots=[min(row) for row in self.kernel])


def _eliminate(p: int, row: Vec, a: int, prow: Vec) -> Vec:
    """(p/g)*row - (a/g)*prow with g = gcd(p, a): cancels row's entry a
    against prow's pivot entry p, dropping zeros."""
    g = gcd(p, a)
    p, a = p // g, a // g
    out = {k: p * v for k, v in row.items()} if p != 1 else dict(row)
    for k, v in prow.items():
        w = out.get(k, 0) - a * v
        if w:
            out[k] = w
        else:
            del out[k]
    return out


def _primitive(row: Vec, combo: Optional[Vec] = None) -> None:
    """Divide row (and combo) in place by their common content."""
    c = gcd(*row.values(), *combo.values()) if combo is not None else gcd(*row.values())
    if c > 1:
        for k in row:
            row[k] //= c
        if combo is not None:
            for k in combo:
                combo[k] //= c


def rref(rows: Sequence[Vec]) -> Rref:
    """One sparse fraction-free elimination: rows, pivots and kernel."""
    work = []
    combos = []  # each row's input combination
    heap = []  # (leading column, -row index) of the rows still to reduce
    kernel_combos: list = []  # (row index, combination) of the rows that vanish
    for i, r in enumerate(rows):
        ir, mult = _integerize({k: v for k, v in r.items() if v})
        work.append(ir)
        combos.append({i: mult})
        if ir:
            heap.append((min(ir), -i))
        else:
            kernel_combos.append((i, combos[i]))
    heapify(heap)

    pivot_rows: list[Vec] = []
    pivot_cols: list = []
    while heap:
        # the least leading column, led by its largest row index
        col, neg_lead = heappop(heap)
        prow, pcomb = work[-neg_lead], combos[-neg_lead]
        p = prow[col]
        # only the other rows led by col change, each by the later pivot row
        while heap and heap[0][0] == col:
            idx = -heappop(heap)[1]
            a = work[idx][col]
            r = _eliminate(p, work[idx], a, prow)
            c = _eliminate(p, combos[idx], a, pcomb)
            if r:
                _primitive(r, c)
                work[idx], combos[idx] = r, c
                heappush(heap, (min(r), -idx))
            else:
                kernel_combos.append((idx, c))
        pivot_rows.append(prow)
        pivot_cols.append(col)

    # integer back-substitution, last row first, then unit pivots
    position = {col: i for i, col in enumerate(pivot_cols)}
    frows = [None] * len(pivot_rows)
    for i in range(len(pivot_rows) - 1, -1, -1):
        row = pivot_rows[i]
        for j in [position[k] for k in row if k in position and position[k] > i]:
            q, a = pivot_rows[j][pivot_cols[j]], row[pivot_cols[j]]
            row = _eliminate(q, row, a, pivot_rows[j])
            _primitive(row)
        pivot_rows[i] = row
        p = row[pivot_cols[i]]
        frows[i] = {k: div(v, p) for k, v in row.items()}

    kernel = [{k: div(v, c[i]) for k, v in c.items()} for i, c in sorted(kernel_combos)]
    return Rref(rows=frows, pivots=pivot_cols, kernel=kernel)


def quotient_basis(sup: Rref, sub: Rref) -> Rref:
    """Echelon representatives of span(sup)/span(sub), from two reduced
    echelon forms, with no elimination.

    A vector of span(sup) is sum_q v[q] * sup_q over sup's pivots q, so the
    rows of sup whose pivot is not a pivot of sub span the vectors of
    span(sup) that vanish on sub's pivots: a complement of span(sub), already
    in reduced echelon form.  A row r of sub with pivot p lies in span(sup)
    exactly when p is a pivot of sup and r - sup_p, which vanishes on sub's
    pivots, reduces to zero by that complement; any other sub raises.
    """
    at = dict(zip(sup.pivots, sup.rows))
    taken = set(sub.pivots)
    out = Rref(rows=[r for q, r in at.items() if q not in taken],
               pivots=[q for q in at if q not in taken])
    for p, row in zip(sub.pivots, sub.rows):
        if p not in at or out.reduce(vec_add(row, at[p], -1)):
            raise PreconditionError("quotient_basis: subspace is not contained in the ambient space")
    return out
