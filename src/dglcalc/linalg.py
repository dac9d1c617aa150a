"""Exact linear algebra over the rationals on sparse vectors.

A vector is a dict mapping column index to a nonzero Fraction.  The
elimination core is fraction-free (one-step Bareiss) on integer-scaled rows,
with a final rational normalisation pass, so intermediate coefficients stay
polynomially bounded.  Pivoting is deterministic: leftmost column first,
smallest row index second, which makes every derived basis reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .errors import PreconditionError

Vec = dict  # index -> nonzero Fraction (or int during elimination)


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
    """Scale a rational row to integers; returns (row, positive multiplier)."""
    denoms = [v.denominator for v in row.values() if isinstance(v, Fraction)]
    if not denoms:
        return {k: int(v) for k, v in row.items()}, 1
    m = lcm(*denoms) if len(denoms) > 1 else denoms[0]
    return {k: int(v * m) for k, v in row.items()}, m


@dataclass
class Rref:
    """Reduced row echelon form of a list of sparse rows.

    rows[i] has a 1 at pivots[i] and zeros at every other pivot column.
    combos[i] (when tracked) expresses rows[i] as a combination of the input
    rows; kernel holds the input-row combinations that vanish, themselves in
    reduced echelon form over the input indices.
    """

    rows: list = field(default_factory=list)
    pivots: list = field(default_factory=list)
    combos: Optional[list] = None
    kernel: list = field(default_factory=list)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Vec, track: bool = False):
        """Reduce vec against the echelon rows.

        Returns (residual, coeffs) where vec = residual + sum coeffs[i]*rows[i].
        """
        residual = {k: Fraction(v) for k, v in vec.items() if v}
        coeffs: Vec = {}
        for i, (p, row) in enumerate(zip(self.pivots, self.rows)):
            c = residual.get(p)
            if c:
                residual = vec_add(residual, row, -c)
                if track:
                    coeffs[i] = c
        return residual, coeffs

    def contains(self, vec: Vec) -> bool:
        residual, _ = self.reduce(vec)
        return not residual


def rref(rows: Sequence[Vec], track: bool = False) -> Rref:
    """Fraction-free elimination with deterministic pivoting."""
    work = []
    combos = []
    for i, r in enumerate(rows):
        ir, mult = _integerize({k: v for k, v in r.items() if v})
        work.append(ir)
        combos.append({i: mult})

    pivot_rows: list[Vec] = []
    pivot_combos: list[Vec] = []
    pivot_cols: list = []
    kernel_combos: list[Vec] = []
    remaining = list(range(len(work)))
    prev_pivot = 1

    while remaining:
        # discard rows that have become zero; their combos span the kernel
        alive = []
        for idx in remaining:
            if work[idx]:
                alive.append(idx)
            else:
                kernel_combos.append(combos[idx])
        remaining = alive
        if not remaining:
            break
        col = min(min(work[idx]) for idx in remaining)
        lead = next(idx for idx in remaining if col in work[idx])
        remaining.remove(lead)
        prow, pcomb = work[lead], combos[lead]
        p = prow[col]
        # one-step Bareiss update of every remaining row (exact division)
        for idx in remaining:
            r = work[idx]
            a = r.get(col, 0)
            new: Vec = {}
            for k in set(r) | set(prow):
                v = p * r.get(k, 0) - a * prow.get(k, 0)
                if v:
                    new[k] = v // prev_pivot
            work[idx] = new
            c = combos[idx]
            newc: Vec = {}
            for k in set(c) | set(pcomb):
                v = p * c.get(k, 0) - a * pcomb.get(k, 0)
                if v:
                    newc[k] = v // prev_pivot
            combos[idx] = newc
        pivot_rows.append(prow)
        pivot_combos.append(pcomb)
        pivot_cols.append(col)
        prev_pivot = p

    # rational back-substitution to reduced form with unit pivots
    frows = []
    fcombos = []
    for row, comb, col in zip(pivot_rows, pivot_combos, pivot_cols):
        inv = Fraction(1, 1) / row[col]
        frows.append({k: inv * v for k, v in row.items()})
        fcombos.append({k: inv * v for k, v in comb.items()})
    for i in range(len(frows) - 1, -1, -1):
        col = pivot_cols[i]
        for j in range(i):
            c = frows[j].get(col)
            if c:
                frows[j] = vec_add(frows[j], frows[i], -c)
                fcombos[j] = vec_add(fcombos[j], fcombos[i], -c)

    kernel = []
    if kernel_combos:
        kr = rref(kernel_combos)
        kernel = kr.rows
    return Rref(
        rows=frows,
        pivots=pivot_cols,
        combos=fcombos if track else None,
        kernel=kernel,
    )


def rank(rows: Sequence[Vec]) -> int:
    return rref(rows).rank


def solve_columns(cols: Sequence[Vec], b: Vec) -> Optional[Vec]:
    """Some x with sum_j x[j]*cols[j] = b, or None; free coordinates are 0."""
    rr = rref(cols, track=True)
    residual, coeffs = rr.reduce(b, track=True)
    if residual:
        return None
    out: Vec = {}
    for i, c in coeffs.items():
        for j, v in rr.combos[i].items():
            w = out.get(j, 0) + c * v
            if w:
                out[j] = w
            else:
                out.pop(j, None)
    return out


def quotient_basis(sup: Sequence[Vec], sub: Sequence[Vec]) -> list:
    """Representatives of span(sup)/span(sub); requires span(sub) <= span(sup)."""
    rsup = rref(sup)
    rsub = rref(sub)
    for row in rsub.rows:
        if not rsup.contains(row):
            raise PreconditionError("quotient_basis: subspace is not contained in the ambient space")
    reduced = []
    for row in rsup.rows:
        residual, _ = rsub.reduce(row)
        if residual:
            reduced.append(residual)
    out = rref(reduced).rows
    if len(out) != rsup.rank - rsub.rank:
        raise PreconditionError("quotient_basis: inconsistent dimensions")
    return out


def intersect(a: Sequence[Vec], b: Sequence[Vec]) -> list:
    """Basis of span(a) & span(b)."""
    ra = rref(a).rows
    rb = rref(b).rows
    stacked = list(ra) + list(rb)
    out = []
    for combo in rref(stacked).kernel:
        vec: Vec = {}
        for j, c in combo.items():
            if j < len(ra):
                vec = vec_add(vec, ra[j], c)
        if vec:
            out.append(vec)
    return rref(out).rows


@dataclass(frozen=True)
class RationalMatrix:
    """A sparse exact matrix acting on column vectors."""

    rows: int
    cols: int
    entries: dict  # (row, col) -> nonzero Fraction

    @classmethod
    def from_rows(cls, data: Sequence[Sequence]) -> "RationalMatrix":
        entries = {}
        for i, row in enumerate(data):
            for j, v in enumerate(row):
                if v:
                    entries[(i, j)] = Fraction(v)
        ncols = max((len(r) for r in data), default=0)
        return cls(rows=len(data), cols=ncols, entries=entries)

    def column(self, j: int) -> Vec:
        return {i: v for (i, jj), v in self.entries.items() if jj == j}

    def columns(self) -> list:
        cols = [dict() for _ in range(self.cols)]
        for (i, j), v in self.entries.items():
            cols[j][i] = v
        return cols

    def apply(self, x: Vec) -> Vec:
        out: Vec = {}
        for (i, j), v in self.entries.items():
            c = x.get(j)
            if c:
                w = out.get(i, 0) + v * c
                if w:
                    out[i] = w
                else:
                    out.pop(i, None)
        return out

    def rank(self) -> int:
        return rref(self.columns()).rank

    def kernel_basis(self) -> list:
        return rref(self.columns()).kernel

    def solve(self, b) -> Optional[Vec]:
        if not isinstance(b, dict):
            b = {i: Fraction(v) for i, v in enumerate(b) if v}
        return solve_columns(self.columns(), b)
