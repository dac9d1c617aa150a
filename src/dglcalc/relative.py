"""Relativization (mapping cone) of a chain map and its long exact sequence.

For a chain map phi: V -> W the relativization has Rel_n = W_n + V_{n-1} with

    delta(w, v) = (phi(v) - d_W(w), d_V(v)),

inclusion J(w) = (w, 0) and projection P(w, v) = v.  J satisfies the
anti-chain identity delta o J = -J o d_W, and the three maps string together
into the long exact homology sequence

    ... -> H_{n+1}(Rel) -P-> H_n(V) -phi-> H_n(W) -J-> H_n(Rel) -> ...

The cone owns this sequence: `phi_star`, `j_star` and `p_star` give the three
maps in class coordinates, each computed once per degree, and `les_rref`
gives the one elimination of each.  `assemble_les_of_chain_map` checks
exactness at a node by reading ker(outgoing)/im(incoming) as a homology slice
of the two eliminations: the node is exact when the slice is zero, and a
nonzero composite is an `InternalError`.  On vectors, J is `join(n, w, {})`
and P is `split(n, v)[1]`.

An evaluation context builds, besides Rel(psi) and the cone of
post-composition on derivation spaces, three adjoint cones whose phi_* are
the maps the evaluation subgroups are kernels of: ad: L -> Der(L, L; 1),
ad_psi: K -> Der(L, K; psi), whose sequence is the long exact derivation
homology sequence, and (ad_psi, ad) between the first two cones.  A subgroup
reads its cone's phi and the boundaries of phi's target, so of the adjoint
cones only Rel(ad_psi), for `les`, ever assembles its own differential.  A
cone's boundaries, like any complex's, are the rows of the one elimination of
its stacked columns.  The differential has two forms: `d_column`, one basis
vector's column read from the factors' columns, and `d`, delta of one object
from the factors' own `d`, which builds no column.
"""
from __future__ import annotations

from collections import namedtuple
from typing import Callable

from . import linalg
from .complexes import ChainComplex, HomologySlice, induced_matrix


class RelComplex(ChainComplex):
    """Mapping cone of a chain map between two package complexes."""

    def __init__(self, V: ChainComplex, W: ChainComplex, phi: Callable, name: str = ""):
        super().__init__()
        self.V = V
        self.W = W
        self.phi = phi  # object-level map, degree 0
        self.name = name
        self.trunc = min(V.trunc, W.trunc)
        self._les_maps = {}
        self._les_rrefs = {}

    def complete(self, n: int) -> bool:
        return self.W.complete(n) and self.V.complete(n - 1)

    def labels(self, n: int) -> list:
        return [("W", lab) for lab in self.W.record(n).labels] + [
            ("V", lab) for lab in self.V.record(n - 1).labels
        ]

    def split(self, n: int, vec):
        wdim = self.W.dim(n)
        wvec, vvec = {}, {}
        for i, c in vec.items():
            if i < wdim:
                wvec[i] = c
            else:
                vvec[i - wdim] = c
        return wvec, vvec

    def join(self, n: int, wvec, vvec):
        wdim = self.W.dim(n)
        out = dict(wvec)
        for i, c in vvec.items():
            out[i + wdim] = c
        return out

    def from_vector(self, n: int, vec):
        wvec, vvec = self.split(n, vec)
        return (self.W.from_vector(n, wvec), self.V.from_vector(n - 1, vvec))

    def to_vector(self, n: int, obj):
        w, v = obj
        return self.join(n, self.W.to_vector(n, w), self.V.to_vector(n - 1, v))

    def d_column(self, n: int, i: int) -> dict:
        """delta(w, v) = (phi(v) - d_W(w), d_V(v)) of the i-th basis vector."""
        wdim = self.W.dim(n)
        if i < wdim:
            return {k: -c for k, c in self.W.columns(n)[i].items()}
        j = i - wdim
        image = self.W.to_vector(n - 1, self.phi(self.V.from_vector(n - 1, {j: 1})))
        return self.join(n - 1, image, self.V.columns(n - 1)[j])

    def d_columns(self, n: int) -> list:
        return [self.d_column(n, i) for i in range(self.dim(n))]

    def d(self, obj):
        """delta(w, v) = (phi(v) - d_W(w), d_V(v)) of one object (w, v)."""
        w, v = obj
        return _minus(self.phi(v), self.W.d(w)), self.V.d(v)

    # -- the long exact sequence, in class coordinates ---------------------------

    def _les_map(self, key, build: Callable) -> list:
        cols = self._les_maps.get(key)
        if cols is None:
            cols = self._les_maps[key] = build()
        return cols

    def les_rref(self, name: str, n: int) -> linalg.Rref:
        """The one elimination of the map `name` ("phi", "J" or "P") at degree n.

        Its kernel and rows serve every reader; a map with no columns gets an
        empty echelon form and no rref call.
        """
        rr = self._les_rrefs.get((name, n))
        if rr is None:
            cols = {"phi": self.phi_star, "J": self.j_star, "P": self.p_star}[name](n)
            rr = self._les_rrefs[name, n] = linalg.rref(cols) if cols else linalg.Rref()
        return rr

    def phi_star(self, n: int) -> list:
        """phi_*: H_n(V) -> H_n(W), one column per class of H_n(V)."""
        return self._les_map(
            ("phi", n), lambda: induced_matrix(self.V, n, self.W, n, self.phi)
        )

    def j_star(self, n: int) -> list:
        """J_*: H_n(W) -> H_n(Rel), one column per class of H_n(W)."""

        def build():
            rows = self.W.homology(n).rep_rows
            h = self.homology(n)
            return [h.class_coords(self.join(n, row, {})) for row in rows]

        return self._les_map(("J", n), build)

    def p_star(self, n: int) -> list:
        """P_*: H_n(Rel) -> H_{n-1}(V), one column per class of H_n(Rel)."""

        def build():
            rows = self.homology(n).rep_rows
            h = self.V.homology(n - 1)
            return [h.class_coords(self.split(n, row)[1]) for row in rows]

        return self._les_map(("P", n), build)


def _minus(a, b):
    """a - b of two objects of one complex, a cone's pairs entry by entry."""
    return tuple(map(_minus, a, b)) if isinstance(a, tuple) else a + -1 * b


# -- long exact sequence reports ------------------------------------------------


# position is "V", "W" or "Rel"; exact is None when untrusted
LesNode = namedtuple("LesNode", "degree position dim incoming_rank outgoing_kernel_dim exact trusted")


class LesReport:
    __slots__ = ("nodes",)

    def __init__(self, nodes: list = None):
        self.nodes = [] if nodes is None else nodes

    @property
    def all_exact(self) -> bool:
        return all(n.exact for n in self.nodes if n.trusted)

    def trusted_nodes(self) -> list:
        return [n for n in self.nodes if n.trusted]


def assemble_les_of_chain_map(rel: RelComplex, degrees) -> LesReport:
    """Check exactness of ... -> H_{n+1}(Rel) -> H_n(V) -> H_n(W) -> H_n(Rel) -> ...

    For each requested degree n the three nodes H_n(V), H_n(W), H_n(Rel) are
    examined; a node is trusted only when its own homology and both neighbours
    in the sequence are boundary-complete under the truncation.  A trusted
    node's homology is the slice of the outgoing map's kernel by the incoming
    map's rows, which raises `InternalError` when their composite is nonzero.
    """
    V, W = rel.V, rel.W
    report = LesReport()
    for n in degrees:
        # exactness at a node: im(incoming) = ker(outgoing)
        nodes = (
            ("V", V, rel.trusted(n + 1) and V.trusted(n) and W.trusted(n), ("P", n + 1), ("phi", n)),
            ("W", W, V.trusted(n) and W.trusted(n) and rel.trusted(n), ("phi", n), ("J", n)),
            ("Rel", rel, W.trusted(n) and rel.trusted(n) and V.trusted(n - 1), ("J", n), ("P", n)),
        )
        for position, cplx, trusted, incoming, outgoing in nodes:
            if not trusted:
                report.nodes.append(LesNode(n, position, -1, -1, -1, None, False))
                continue
            h = HomologySlice(
                n, rel.les_rref(*outgoing).kernel_space(), rel.les_rref(*incoming), True
            )
            inc, out_kernel = h.boundaries.rank, h.cycles.rank
            report.nodes.append(
                LesNode(n, position, cplx.homology(n).dim, inc, out_kernel, not h.dim, True)
            )
    return report
