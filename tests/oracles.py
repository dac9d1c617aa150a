"""Independent brute-force oracles used to freeze expected values.

Everything here works on raw bracket trees (a tree is a generator name or a
pair of trees) and compares elements through a naive, unmemoized expansion
into the tensor algebra, with dense rational Gaussian elimination.  None of
the package's canonicalisation, caching or sparse elimination code is used,
so agreement is a genuine cross-check.  The exceptions are
`two_elimination_homology`, which keeps the package's `linalg.rref` but none
of the per-degree caching, as the reference for single-elimination homology,
and `d_squared_sweep`, which keeps the package's basis and differential, as
the reference for the generator-only d^2 check.  `tensor_derivation` and
`tensor_morphism` act on the package's tensor vectors (word tuples of
generator indices) and extend letter by letter, never bracketing a word.
`bareiss_rref` is the package's earlier one-step Bareiss elimination, kept
as the slow reference for the sparse `linalg.rref`; it shares only the
`Rref` record and `vec_add`.  `solve_columns` is the package's earlier
solver, rebuilt on the combinations that `bareiss_rref` tracks; it also uses
`Rref.reduce` as its membership test.  `quotient_basis` is the package's earlier
quotient of echelon forms, which reduces every row of the ambient space and
eliminates the residuals, kept as the reference for the elimination-free one;
it shares `linalg.rref` and `Rref.reduce`.  `les_by_objects` is the package's
earlier long-exact-sequence check, which induces every map from domain
objects, kept as the reference for the cone's class-coordinate maps.
`leibniz_d_word` is the package's earlier word differential, which adds
bracketed elements, kept as the reference for the one that sums into one
dict; it shares the basis, `split` and `bracket`.  `GenDerivation` is the
package's earlier per-derivation evaluator, a Leibniz
recursion with its own word cache, kept as the reference for derivations
evaluated through a morphism's Fox table; it shares the basis, brackets and
`DglMorphism.apply`.  `expansion`, `from_tensor`, `swept_bracket` and
`tensor_expansion` are the package's earlier canonicalisation through the
tensor embedding, kept as the reference for brackets rewritten in the basis;
they share the basis words and their standard factors
(`FreeLieAlgebra.split`), and `from_tensor` builds its result as a
`LieElement`.  `coformal_slices` is the package's earlier upper-homology
check, which eliminates the cycles and the boundaries of every upper degree
on their own, kept as the reference for the check that reads upper degrees
off the pivots of one homology slice; it shares `DglComplex` and
`linalg.rref`.  `tokenize` is the package's earlier model-file scanner, which
counts the line and column of every token as it goes, kept as the reference
for the one that reads positions off offsets; it shares only `ParseError`.
`pbw_lie_dims` reads every dimension of a free graded Lie algebra off the
graded Poincare-Birkhoff-Witt identity, with no basis at all.
"""
from __future__ import annotations

import re
import weakref
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import comb, lcm


# -- trees -----------------------------------------------------------------


def tree_degree(tree, degrees):
    if isinstance(tree, str):
        return degrees[tree]
    return tree_degree(tree[0], degrees) + tree_degree(tree[1], degrees)


def expand(tree, degrees):
    """Naive tensor expansion of a bracket tree: word tuple -> coefficient."""
    if isinstance(tree, str):
        return {(tree,): Fraction(1)}
    a = expand(tree[0], degrees)
    b = expand(tree[1], degrees)
    sign = (-1) ** (tree_degree(tree[0], degrees) * tree_degree(tree[1], degrees))
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            out[wa + wb] = out.get(wa + wb, Fraction(0)) + ca * cb
            out[wb + wa] = out.get(wb + wa, Fraction(0)) - sign * ca * cb
    return {k: v for k, v in out.items() if v}


def combo_expand(combo, degrees):
    """Expansion of a dict tree -> coefficient."""
    out = {}
    for tree, c in combo.items():
        for w, v in expand(tree, degrees).items():
            out[w] = out.get(w, Fraction(0)) + c * v
    return {k: v for k, v in out.items() if v}


def left_normed(names):
    tree = names[0]
    for n in names[1:]:
        tree = (tree, n)
    return tree


def all_words(degrees, n):
    """All generator words of total degree n (tuples of names)."""
    names = list(degrees)
    out = []

    def rec(prefix, rem):
        for name in names:
            d = degrees[name]
            if d < rem:
                rec(prefix + (name,), rem - d)
            elif d == rem:
                out.append(prefix + (name,))

    rec((), n)
    out.sort(key=lambda w: (len(w), w))
    return out


# -- dense rational linear algebra -------------------------------------------


def dense(vectors, ncols):
    """Sparse vectors (index -> value) as dense rows of length ncols."""
    return [[v.get(j, 0) for j in range(ncols)] for v in vectors]


def dense_rank(rows):
    rows = [list(map(Fraction, r)) for r in rows if any(r)]
    rank = 0
    ncols = max((len(r) for r in rows), default=0)
    for col in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / prow[col]
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        rank += 1
    return rank


def _tensor_matrix(vectors):
    """Dense matrix from a list of tensor dicts, with a fixed word order."""
    words = sorted({w for vec in vectors for w in vec})
    index = {w: i for i, w in enumerate(words)}
    rows = []
    for vec in vectors:
        row = [Fraction(0)] * len(words)
        for w, c in vec.items():
            row[index[w]] = c
        rows.append(row)
    return rows, index


def lie_basis(degrees, n):
    """Pivot left-normed words spanning the free Lie algebra in degree n."""
    basis = []
    expansions = []
    for word in all_words(degrees, n):
        e = expand(left_normed(word), degrees)
        if not e:
            continue
        rows, _ = _tensor_matrix(expansions + [e])
        if dense_rank(rows) > len(basis):
            basis.append(word)
            expansions.append(e)
    return basis, expansions


def lie_dim(degrees, n):
    return len(lie_basis(degrees, n)[0])


def pbw_lie_dims(degrees, top):
    """{n: dim L_n} for n <= top, L the free graded Lie algebra on generators
    of the given degrees, from the graded Poincare-Birkhoff-Witt identity

        prod_{n even} (1 - t^n)^(-l_n) * prod_{n odd} (1 + t^n)^(l_n) = 1 / (1 - sum_g t^|g|),

    the Hilbert series of U(L) = T(V) read as S(L_even) (x) E(L_odd).  The
    factor of degree n is 1 + l_n t^n + (terms of degree 2n and up), so l_n
    is the t^n coefficient of the right side less that of the product over
    the degrees below n.  Exact integers; no basis, word or bracket."""
    tensor = [1] + [0] * top  # words in the generators, counted by degree
    for n in range(1, top + 1):
        tensor[n] = sum(tensor[n - d] for d in degrees if d <= n)
    product, dims = [1] + [0] * top, {}
    for n in range(1, top + 1):
        ell = dims[n] = tensor[n] - product[n]
        factor = [1] + [comb(ell, j) if n % 2 else comb(ell + j - 1, j) for j in range(1, top // n + 1)]
        product = [sum(factor[j] * product[k - j * n] for j in range(k // n + 1)) for k in range(top + 1)]
    return dims


def is_lyndon(word):
    """Whether a word is strictly smaller than each of its proper rotations."""
    return all(word < word[i:] + word[:i] for i in range(1, len(word)))


def super_lyndon_words(degrees, n):
    """Words of degree n that are Lyndon, or ww with w Lyndon of odd degree,
    in (len, word) order, found by testing every word (tuples of names,
    compared in the order of `degrees`)."""
    rank = {name: i for i, name in enumerate(degrees)}
    out = []
    for word in all_words(degrees, n):
        key = tuple(rank[x] for x in word)
        half = key[: len(key) // 2]
        square = len(key) % 2 == 0 and key == half + half and (n // 2) % 2 == 1
        if is_lyndon(key) or (square and is_lyndon(half)):
            out.append(word)
    return sorted(out, key=lambda w: (len(w), tuple(rank[x] for x in w)))


# -- the package's basis in the tensor algebra ---------------------------------

_EXPANSIONS = weakref.WeakKeyDictionary()  # algebra -> {basis word: P_w}


def _commutator(a, b, sign):
    """ab - sign * ba in the tensor algebra."""
    out = {}
    for ta, ca in a.items():
        for tb, cb in b.items():
            c = ca * cb
            out[ta + tb] = out.get(ta + tb, 0) + c
            out[tb + ta] = out.get(tb + ta, 0) - sign * c
    return {k: v for k, v in out.items() if v}


def expansion(alg, word):
    """Tensor expansion P_w of the bracket a basis word names, memoised per
    algebra; integer coefficients, least word w with coefficient 1 (2 for a
    square ww).  Callers must not change the dict it returns."""
    cache = _EXPANSIONS.setdefault(alg, {})
    out = cache.get(word)
    if out is None:
        if len(word) == 1:
            out = {word: 1}
        else:
            u, v = alg.split(word)
            sign = (-1) ** (alg.word_degree(u) * alg.word_degree(v))
            out = _commutator(expansion(alg, u), expansion(alg, v), sign)
        cache[word] = out
    return out


def from_tensor(alg, degree, tensor):
    """The element of `alg` whose tensor expansion is `tensor`, by one
    triangular sweep: the least word of the residual must be a basis word w,
    and P_w, whose least word is w, clears it.  Coordinates come out in word
    order.  Raises InternalError if the vector is not in the Lie subspace."""
    from dglcalc import LieElement
    from dglcalc.errors import InternalError

    members = set(alg.words(degree))
    residual = dict(tensor)
    heap = list(residual)
    heapify(heap)
    coords = {}
    while heap:
        w = heappop(heap)
        c = residual[w]
        if not c:
            continue
        if w not in members:
            raise InternalError("tensor vector is outside the Lie subspace")
        row = expansion(alg, w)
        if row[w] != 1:  # a square ww, whose lead coefficient is 2
            c = Fraction(c, row[w])
        coords[w] = c
        # words of P_w are >= w, and w itself is cleared, so every word
        # already popped stays at zero
        for k, v in row.items():
            x = residual.get(k)
            if x is None:
                residual[k] = -c * v
                heappush(heap, k)
            else:
                residual[k] = x - c * v
    return LieElement(alg, degree, coords)


def swept_bracket(alg, u, v):
    """Coordinates of [b_u, b_v] for basis words u and v: the sweep of
    P_u P_v - (-1)^{|u||v|} P_v P_u."""
    sign = (-1) ** (alg.word_degree(u) * alg.word_degree(v))
    tensor = _commutator(expansion(alg, u), expansion(alg, v), sign)
    return from_tensor(alg, alg.word_degree(u + v), tensor).terms


def tensor_expansion(element):
    """The tensor vector of a package element, with `Fraction` values."""
    out = {}
    for w, c in element.terms.items():
        for t, v in expansion(element.algebra, w).items():
            out[t] = out.get(t, 0) + c * v
    return {t: Fraction(v) for t, v in out.items() if v}


# -- differentials and homology ------------------------------------------------


def tensor_d(vec, degrees, diff_trees):
    """Differential on the tensor algebra induced by generator values.

    diff_trees: name -> dict tree->coeff (the value of d on that generator).
    """
    out = {}
    for word, c in vec.items():
        for i, letter in enumerate(word):
            dval = diff_trees.get(letter)
            if not dval:
                continue
            sign = (-1) ** sum(degrees[l] for l in word[:i])
            for tree, cc in dval.items():
                for tw, v in expand(tree, degrees).items():
                    key = word[:i] + tw + word[i + 1 :]
                    out[key] = out.get(key, Fraction(0)) + sign * c * cc * v
    return {k: v for k, v in out.items() if v}


def homology_dim(degrees, diff_trees, n):
    """dim H_n of the free DGL with the given generator differentials."""
    _, exp_n = lie_basis(degrees, n)
    _, exp_n1 = lie_basis(degrees, n + 1)
    images_n1 = [tensor_d(e, degrees, diff_trees) for e in exp_n1]
    images_n = [tensor_d(e, degrees, diff_trees) for e in exp_n]
    # cycles in degree n
    if exp_n:
        rows, _ = _tensor_matrix(images_n)
        rank_d_n = dense_rank(rows)
    else:
        rank_d_n = 0
    cycle_dim = len(exp_n) - rank_d_n
    if images_n1:
        rows, _ = _tensor_matrix([v for v in images_n1 if v])
        boundary_dim = dense_rank(rows)
    else:
        boundary_dim = 0
    return cycle_dim - boundary_dim


def two_elimination_homology(cplx, n):
    """H_n of a package complex with a fresh elimination for each of Z_n and B_n.

    Z_n is the kernel of d_n, row-reduced once more; B_n comes from its own
    rref of d_{n+1}, or is empty when C_{n+1} is incomplete.  Returns the
    cycle rows, boundary rows, representative rows and the trusted flag.
    """
    from dglcalc import linalg

    cycles = linalg.rref(linalg.rref(cplx.d_columns(n)).kernel)
    trusted = cplx.complete(n + 1)
    boundaries = linalg.rref(cplx.d_columns(n + 1) if trusted else [])
    return cycles.rows, boundaries.rows, quotient_basis(cycles, boundaries).rows, trusted


def quotient_basis(sup, sub):
    """Echelon representatives of span(sup)/span(sub) by elimination: each row
    of sup is reduced by sub and the nonzero residuals are row-reduced.  Their
    rank is rank(sup) - rank(sub) exactly when span(sub) <= span(sup)."""
    from dglcalc import linalg
    from dglcalc.errors import PreconditionError

    reduced = []
    for row in sup.rows:
        residual = sub.reduce(row)
        if residual:
            reduced.append(residual)
    out = linalg.rref(reduced)
    if out.rank != sup.rank - sub.rank:
        raise PreconditionError("quotient_basis: subspace is not contained in the ambient space")
    return out


def d_squared_sweep(model):
    """Whether d(d(w)) = 0 for every basis word w in degrees 2..N.

    The package checks d^2 = 0 on generators only; this sweeps the whole
    truncated basis instead.
    """
    from .helpers import basis_element

    alg = model.algebra
    for n in range(2, model.truncation + 1):
        for word in alg.words(n):
            if not model.d(model.d(basis_element(alg, word))).is_zero():
                return False
    return True


def leibniz_d_word(model, word):
    """d of a basis word by the Leibniz rule on elements,

        d([u, v]) = [d(u), v] + (-1)^{|u|} [u, d(v)],

    with (u, v) = algebra.split(word), each bracket a `LieElement` from
    `FreeLieAlgebra.bracket`, summed by `+` and `*`; uncached.  The
    package's earlier `DglModel._d_word`, kept as the reference for the one
    that sums both brackets into one dict.
    """
    from .helpers import basis_element

    alg = model.algebra
    if len(word) == 1:
        return model.diff_of(alg.generators[word[0]].name)
    u, v = alg.split(word)
    out = alg.bracket(leibniz_d_word(model, u), basis_element(alg, v))
    sign = -1 if alg.word_degree(u) % 2 else 1
    return out + sign * alg.bracket(basis_element(alg, u), leibniz_d_word(model, v))


# -- derivations and morphisms on the tensor algebra ---------------------------


def _tensor_product(factors):
    """Product in the tensor algebra of a list of tensor vectors."""
    out = {(): Fraction(1)}
    for factor in factors:
        nxt = {}
        for w, c in out.items():
            for u, v in factor.items():
                nxt[w + u] = nxt.get(w + u, Fraction(0)) + c * v
        out = {k: v for k, v in nxt.items() if v}
    return out


def tensor_morphism(vec, images):
    """The multiplicative extension phi_T(x1...xk) = phi_T(x1)...phi_T(xk).

    images[i] is the tensor vector of the image of generator i.
    """
    out = {}
    for word, c in vec.items():
        for w, v in _tensor_product([images[i] for i in word]).items():
            out[w] = out.get(w, Fraction(0)) + c * v
    return {k: v for k, v in out.items() if v}


def tensor_derivation(vec, degree, values, images, letter_degrees):
    """A degree-n derivation along psi, extended letter by letter:

        theta_T(x1...xk) = sum_i (-1)^{n(|x1|+...+|x_{i-1}|)}
                           psi_T(x1)...theta_T(xi)...psi_T(xk),

    with values[i] and images[i] the tensor vectors of theta and psi on
    generator i.  It never brackets a word, so it does not depend on how the
    package splits one.
    """
    out = {}
    for word, c in vec.items():
        before = 0
        for i, letter in enumerate(word):
            sign = -1 if (degree * before) % 2 else 1
            factors = [images[j] for j in word[:i]] + [values[letter]]
            factors += [images[j] for j in word[i + 1:]]
            for w, v in _tensor_product(factors).items():
                out[w] = out.get(w, Fraction(0)) + sign * c * v
            before += letter_degrees[letter]
    return {k: v for k, v in out.items() if v}


class GenDerivation:
    """A degree-n derivation along psi, evaluated word by word by the rule

        theta([u, v]) = [theta(u), psi(v)] + (-1)^{n|u|} [psi(u), theta(v)]

    with (u, v) = split(word), each word cached, and
    D(theta) = d_K o theta - (-1)^n theta o d_L on every generator.
    `values` maps generator names to target elements, zero where missing.
    """

    def __init__(self, along, degree, values):
        self.along = along
        self.degree = degree
        tgt = along.target.algebra
        self.values = {}
        for g in along.source.generators:
            v = values.get(g.name)
            self.values[g.name] = v if v is not None else tgt.zero(g.degree + degree)
        self._cache = {}

    def word(self, word):
        cached = self._cache.get(word)
        if cached is not None:
            return cached
        from .helpers import basis_element

        src, tgt = self.along.source.algebra, self.along.target.algebra
        if len(word) == 1:
            out = self.values[src.generators[word[0]].name]
        else:
            u, v = src.split(word)
            psi_u = self.along.apply(basis_element(src, u))
            psi_v = self.along.apply(basis_element(src, v))
            out = tgt.bracket(self.word(u), psi_v)
            sign = -1 if (self.degree * src.word_degree(u)) % 2 else 1
            out = out + sign * tgt.bracket(psi_u, self.word(v))
        self._cache[word] = out
        return out

    def apply(self, element):
        out = self.along.target.algebra.zero(element.degree + self.degree)
        for word, c in element.terms.items():
            out = out + c * self.word(word)
        return out

    def differential(self):
        sign = -1 if self.degree % 2 else 1
        values = {}
        for g in self.along.source.generators:
            values[g.name] = self.along.target.d(self.values[g.name]) - sign * self.apply(
                self.along.source.diff_of(g.name)
            )
        return GenDerivation(self.along, self.degree - 1, values)


def der_columns(cx, n):
    """The columns of D_n of a package `DerComplex`, in its basis: one basis
    derivation theta_{g,w} at a time, through `GenDerivation.differential`
    above, with none of the package's column paths."""
    from .helpers import basis_element

    psi = cx.psi
    gens, tgt = psi.source.generators, psi.target.algebra
    cols = []
    for gi, word in cx.record(n).labels:
        theta = GenDerivation(psi, n, {gens[gi].name: basis_element(tgt, word)})
        cols.append(cx.to_vector(n - 1, theta.differential()))
    return cols


# -- elimination -----------------------------------------------------------


def _bareiss_integerize(row):
    """Scale a rational row to integers; returns (row, positive multiplier)."""
    denoms = [v.denominator for v in row.values() if isinstance(v, Fraction)]
    if not denoms:
        return {k: int(v) for k, v in row.items()}, 1
    m = lcm(*denoms) if len(denoms) > 1 else denoms[0]
    return {k: int(v * m) for k, v in row.items()}, m


def bareiss_rref(rows, track=False):
    """One-step Bareiss elimination with rational back-substitution: every
    remaining row is rescaled at every pivot.  Same contract as `linalg.rref`;
    with track it returns (Rref, combos), where combos[i] expresses the i-th
    reduced row as a combination of the input rows."""
    from dglcalc.linalg import Rref, vec_add

    work = []
    combos = []
    for i, r in enumerate(rows):
        ir, mult = _bareiss_integerize({k: v for k, v in r.items() if v})
        work.append(ir)
        combos.append({i: mult})

    pivot_rows: list = []
    pivot_combos: list = []
    pivot_cols: list = []
    kernel_combos: list = []
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
            new = {}
            for k in set(r) | set(prow):
                v = p * r.get(k, 0) - a * prow.get(k, 0)
                if v:
                    new[k] = v // prev_pivot
            work[idx] = new
            c = combos[idx]
            newc = {}
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
        kr = bareiss_rref(kernel_combos)
        kernel = kr.rows
    rr = Rref(rows=frows, pivots=pivot_cols, kernel=kernel)
    return (rr, fcombos) if track else rr


def solve_columns(cols, b):
    """Some x with sum_j x[j]*cols[j] = b, or None.

    x is supported on the columns that become pivot rows: b's entry at each
    pivot times the tracked combination of that reduced row.
    """
    from dglcalc.linalg import vec_add

    rr, combos = bareiss_rref(cols, track=True)
    if rr.reduce(b):
        return None
    out = {}
    for p, combo in zip(rr.pivots, combos):
        c = b.get(p)
        if c:
            out = vec_add(out, combo, Fraction(c))
    return out


# -- the long exact sequence of a chain map, object by object -------------------


def les_by_objects(V, W, phi, degrees):
    """The long exact sequence of phi: V -> W, with every map built on objects.

    This is the package's earlier `assemble_les_of_chain_map`: a fresh cone,
    and P, phi and J each induced on homology by `induced_matrix` from a
    function on domain objects (P drops the W part of a pair, J pairs with the
    zero of V).  It shares the cone, `induced_matrix` and `rref` with the
    package, but none of the cone's cached class-coordinate maps.
    """
    from dglcalc import linalg
    from dglcalc.complexes import induced_matrix
    from dglcalc.relative import LesNode, LesReport, RelComplex

    rel = RelComplex(V, W, phi)
    report = LesReport()
    _P, _phi, _J = {}, {}, {}

    def mat_P(n):
        if n not in _P:
            _P[n] = induced_matrix(rel, n + 1, V, n, lambda pair: pair[1])
        return _P[n]

    def mat_phi(n):
        if n not in _phi:
            _phi[n] = induced_matrix(V, n, W, n, phi)
        return _phi[n]

    def mat_J(n):
        if n not in _J:
            _J[n] = induced_matrix(W, n, rel, n, lambda w: (w, V.from_vector(n - 1, {})))
        return _J[n]

    for n in degrees:
        # exactness at a node: im(incoming) = ker(outgoing)
        nodes = (
            ("V", V, rel.trusted(n + 1) and V.trusted(n) and W.trusted(n),
             lambda: mat_P(n), lambda: mat_phi(n)),
            ("W", W, V.trusted(n) and W.trusted(n) and rel.trusted(n),
             lambda: mat_phi(n), lambda: mat_J(n)),
            ("Rel", rel, W.trusted(n) and rel.trusted(n) and V.trusted(n - 1),
             lambda: mat_J(n), lambda: mat_P(n - 1)),
        )
        for position, cplx, trusted, incoming, outgoing in nodes:
            if not trusted:
                report.nodes.append(LesNode(n, position, -1, -1, -1, None, False))
                continue
            inc_cols, out_cols = incoming(), outgoing()
            inc = linalg.rref(inc_cols).rank
            out_kernel = len(linalg.rref(out_cols).kernel)
            composite_zero = not any(linalg.combine(col, out_cols) for col in inc_cols)
            exact = inc == out_kernel and composite_zero
            report.nodes.append(
                LesNode(n, position, cplx.homology(n).dim, inc, out_kernel, exact, True)
            )
    return report


# -- coformality, one upper degree at a time -------------------------------------


def coformal_slices(model):
    """(failures, upper_homology_ok) of the package's earlier `coformal_check`.

    For each internal degree n of the trusted window and each nonzero upper
    degree i, dim H_n in upper degree i is the kernel dimension of d on the
    upper-i words of degree n minus the rank of d on the upper-(i+1) words of
    degree n + 1, each slice eliminated on its own.  The failures start with
    the model's validation problems, as the package's do.
    """
    from dglcalc import linalg
    from dglcalc.complexes import DglComplex

    alg = model.algebra
    failures = list(model.validate().problems)
    cx = DglComplex(model)
    upper_ok = True
    for n in (n for n in range(1, model.truncation) if cx.trusted(n)):
        words_n, cols_n = cx.record(n).labels, cx.d_columns(n)
        words_up, cols_up = cx.record(n + 1).labels, cx.d_columns(n + 1)
        for i in sorted({alg.word_upper(w) for w in words_n} - {0}):
            cycles = linalg.rref([c for c, w in zip(cols_n, words_n) if alg.word_upper(w) == i])
            bnd = [c for c, w in zip(cols_up, words_up) if alg.word_upper(w) == i + 1]
            if len(cycles.kernel) - linalg.rref(bnd).rank:
                upper_ok = False
                failures.append(f"upper-degree-{i} homology is nonzero in internal degree {n}")
    return failures, upper_ok


# -- the model-file scanner, with a position per token ---------------------------

_TOKEN = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#[^\n]*)
      | (?P<arrow>->)
      | (?P<int>\d+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_'^]*)
      | (?P<punct>[{}\[\]:;,+\-/=])
    """,
    re.VERBOSE,
)


def tokenize(text):
    """The (kind, text, line, column) of every token, then of end of input,
    or a `ParseError` at the first character that starts no token."""
    from dglcalc.errors import ParseError

    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind not in ("ws", "comment"):
            tokens.append((kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens
