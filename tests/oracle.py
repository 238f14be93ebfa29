"""Dense brute-force cohomology, independent of the sparse slice path.

Everything here works with dense Fraction row vectors over whole free
slices and plain Gaussian elimination: no SparseMatrix, and none of the
engine's rref, quotient bases or normal-form projectors.  The dimension of
H^d of the quotient complex is computed as

    dim H^d = |F_d| - rank(comp_d) - rank(D_{d-1} rows + I_d rows)

where F_d is the free slice, I_d the span of relation*monomial products,
comp_d the matrix of d: F_d -> F_{d+1}/I_{d+1} (images reduced against an
echelon basis of I_{d+1}), and D_{d-1} the free differential.  The
Leibniz rule is also re-derived here by multiplying out the factor list
one element at a time rather than via the engine's compiled derivation
tables.

``unfactored_slice`` eliminates one whole free slice densely, against
which the engine's slices, factored through the relation-carrying core,
are compared.  With weight None it, ``ideal_products`` and
``dense_cohomology_dims`` work on whole-degree slices, which the
engine's weight slices partition; the engine itself has none.

``slice_d_squared`` is the slice-by-slice d^2 check that
``verify_d_squared``'s generator certificate replaced, and
``unreduced_cohomology`` is the per-slice dimension formula run on a
model as built rather than on its reduced model; both use the engine's
slices of that model.

``isotypic_projector`` is the sum over the subgroup of char(1)
char(sigma^{-1}) times the matrix of sigma on one quotient slice, one
reduced row per basis monomial and permutation; ``isotypic_cohomology``
replaced it with bases induced from core slices (linear characters) or
orbit sums of free monomials (any other), whose row space must agree.
``isotypic_table`` is the cohomology of that projector's image, slice
by slice, from its ranks alone.  ``model_action`` takes a model's
action onto a presentation split from it by generators the action
fixes.  ``character_euler_by_elements`` is the sum over every element
of S_r that ``character_euler``'s sum over cycle types replaced.

``dense_validate`` and ``dense_tensor_table`` are the all-pairs and
all-triples loops that ``BaseAlgebra.validate`` and ``TensorAlgebra``
replaced with sparse and lazy ones; tests compare the two.  Both check
the Poincare pairing with ``dual_basis``, which inverts each degree
block.
``dense_tensor_algebra`` validates that table as a ``BaseAlgebra``, and
``check_tensor_products`` compares a tensor's products with it on every
pair.

``reference_differential_matrix`` is the per-monomial differential
that ``differential_matrix``'s assembly from cached core blocks
replaced: the Leibniz expansion of each basis monomial, reduced in the
target slice.

``suffix_monomials`` is the enumeration that ``monomial_walk``, the
walk from the lower degrees behind ``Presentation._suffix_monomials``
and ``AlgebraContext.monomials_of``, replaced: every exponent vector of
degree <= the target, rebuilt generator by generator.
``suffix_differential`` is d of a suffix monomial by the Leibniz
routine on the padded full monomial, which the suffix-local tables of
``engine._suffix_tables`` replaced, and ``slice_weights`` a degree's
slice weights from the suffix monomials ``suffix_monomials`` lists,
which ``engine._suffix_support``'s reachability table replaced.
``every_group_blocks`` is the walk over every suffix weight group that
``quotient_slice`` made before ``engine._core_slices``' index of the
nonempty core slices replaced it, and ``nonempty_core_slices`` that
index from the slice of every free weight.
``rref_slice_basis`` is the core slice from the rref of its ideal
slice, taken also when the ideal slice has no rows, which
``quotient_slice`` now skips.

``totaro_series`` is the Poincare series of a configuration core from
Totaro's formula and the base's degrees and weights alone; the closed
form's slice dimensions must match its coefficients.

``p1_configuration_table`` is the cohomology of r >= 3 ordered points
on P^1 from a closed form alone: F(P^1, r) is PGL_2 times M_{0,r}.
``unordered_configuration_table`` and ``unordered_configuration_sign``
are the trivial and the sign part of the cohomology of r ordered points
on any base under S_r, from the base's classes alone: the first from a
small dense complex, the second by counting.

``markowitz_pivots`` is the pivot sequence of ``linalg._eliminate``
from its documented policy alone: Fraction elimination with a plain
queue, and no heap or column index.

``kernel_basis``, ``from_dense``, ``to_dense``, ``transpose``,
``identity``, ``entry``, ``matmul``, ``is_zero``, ``same_matrix``,
``regular_character`` and ``evaluate_at_one`` are helpers only the
tests use.  ``same_matrix`` is the comparison of two matrices; a
SparseMatrix defines no ``==``.  ``map_matrix`` is the matrix of a
signed monomial permutation on one quotient slice, whose traces
``character_euler`` now reads one diagonal entry at a time.

``diagonal_class`` is the diagonal class of a base as an element of
base (x) base, and ``euler_characteristic`` the alternating sum of a
base's degrees; the library uses neither.

``check_graded_permutation``, ``check_multiplicative``,
``check_d_and_relations`` and ``check_diagonal_identities`` state the
laws that the symmetric-group actions and the diagonal class satisfy by
construction, which the library does not re-check at runtime: images
are multiplied out factor by factor from the Elements a signed monomial
permutation sends base classes and generators to, d is the Leibniz
expansion below, and ideal membership is dense elimination in one
(degree, weight) slice.
"""

import itertools
import math
from fractions import Fraction

from cdgacalc.algebra import (AlgebraContext, AlgebraError, BaseAlgebra,
                              Element, Monomial, MonomialPermutation,
                              dual_basis, tensor_many)
from cdgacalc.analysis import ClassFunction, inverse, trivial_character
from cdgacalc.engine import (SliceBasis, VerificationReport, _slice_weights,
                             differential_matrix, ideal_slice, quotient_slice)
from cdgacalc.linalg import SparseMatrix, rank, rref
from cdgacalc.models import _diagonal_triples, symmetric_action
from cdgacalc.rat import ONE, Rational


def from_dense(dense):
    nrows = len(dense)
    ncols = len(dense[0]) if nrows else 0
    return SparseMatrix(nrows, ncols,
                        ((i, j, v) for i, r in enumerate(dense)
                         for j, v in enumerate(r) if v))


def to_dense(m):
    return [[m.rows[i].get(j, 0) for j in range(m.ncols)]
            for i in range(m.nrows)]


def identity(n):
    return SparseMatrix(n, n, ((i, i, 1) for i in range(n)))


def entry(m, i, j):
    return m.rows[i].get(j, 0)


def transpose(m):
    return SparseMatrix(m.ncols, m.nrows,
                        ((j, i, v) for i, row in enumerate(m.rows)
                         for j, v in row.items()))


def matmul(a, b):
    """The product a b of two SparseMatrix objects."""
    if a.ncols != b.nrows:
        raise ValueError("shape mismatch in matrix product")
    out = SparseMatrix(a.nrows, b.ncols)
    for i, row in enumerate(a.rows):
        acc = {}
        for k, v in row.items():
            for j, w in b.rows[k].items():
                s = acc.get(j, 0) + v * w
                if s:
                    acc[j] = s
                else:
                    acc.pop(j, None)
        out.rows[i] = acc
    return out


def is_zero(m):
    return all(not row for row in m.rows)


def same_matrix(a, b):
    """Equal shape and equal entries (no explicit zeros are stored)."""
    return (a.nrows, a.ncols, a.rows) == (b.nrows, b.ncols, b.rows)


def map_matrix(p, phi, degree, weight):
    """Matrix of a signed monomial permutation on one quotient slice:
    row i holds the coordinates of phi(m_i), m_i basis monomial i."""
    if phi.context is not p.context:
        raise AlgebraError("context mismatch: map not on this "
                           "presentation's algebra")
    src = quotient_slice(p, degree, weight)
    mat = SparseMatrix(src.dim, src.dim)
    for i, mono in enumerate(src.quotient):
        image, c = phi.image(mono)
        mat.rows[i] = src.coords({image: c})
    return mat


def kernel_basis(m):
    """Basis of ``{v : m v = 0}`` as sparse column vectors.

    One vector per non-pivot column ``f`` of the rref, in ascending column
    order: ``v[f] = 1`` and ``v[p] = -reduced[row(p)][f]`` for each pivot
    column ``p``.
    """
    res = rref(m)
    pivot_set = set(res.pivots)
    basis = []
    for f in range(m.ncols):
        if f in pivot_set:
            continue
        vec = {f: ONE}
        for ri, p in enumerate(res.pivots):
            coeff = res.reduced.rows[ri].get(f)
            if coeff:
                vec[p] = -coeff
        basis.append(vec)
    return basis


def regular_character(r):
    vals = {p: Fraction(0) for p in trivial_character(r).values}
    vals[(1,) * r] = Fraction(math.factorial(r))
    return ClassFunction(r, vals)


def evaluate_at_one(series):
    return sum(series.coeffs.values())


def free_differential(p, mono):
    """d(mono) as an Element, via a factor-by-factor Leibniz expansion."""
    ctx = p.context
    ngen = len(ctx.generators)
    factor_gens = []
    for i in range(ngen):
        factor_gens.extend([i] * mono.exps[i])
    zero_exps = (0,) * ngen
    base_elem = Element(ctx, {Monomial(mono.base, zero_exps): Fraction(1)})
    total = ctx.zero()
    for j, g in enumerate(factor_gens):
        dg = p.differential.get(g)
        if dg is None:
            continue
        parity = ctx.base.degrees[mono.base]
        for h in factor_gens[:j]:
            parity += ctx.gen_degrees[h]
        term = base_elem
        for i, h in enumerate(factor_gens):
            factor = dg if i == j else ctx.gen_element(h)
            term = term * factor
        if parity % 2:
            term = -term
        total = total + term
    return total


def reference_differential_matrix(p, degree, weight):
    """d from slice (degree, weight) to (degree + 1, weight), one basis
    monomial at a time: row i is the Leibniz expansion of basis monomial
    i in coordinates of the target slice, in the slices' basis order."""
    src = quotient_slice(p, degree, weight)
    tgt = quotient_slice(p, degree + 1, weight)
    rows = []
    if tgt.dim:
        for mono in src.quotient:
            image = p.differential_of(Element(p.context, {mono: ONE}))
            rows.append(tgt.coords(image.terms))
    return SparseMatrix.from_rows(src.dim, tgt.dim, rows)


def densify(terms, index, width):
    row = [Fraction(0)] * width
    for m, c in terms.items():
        row[index[m]] += _fraction(c)
    return row


class Echelon:
    """Row echelon basis supporting reduction of further vectors."""

    def __init__(self):
        self.rows = {}  # pivot column -> normalized row

    def reduce(self, vec):
        vec = list(vec)
        for p in sorted(self.rows):
            if p < len(vec) and vec[p]:
                factor = vec[p]
                row = self.rows[p]
                for j in range(p, len(vec)):
                    vec[j] -= factor * row[j]
        return vec

    def insert(self, vec):
        vec = self.reduce(vec)
        for p, v in enumerate(vec):
            if v:
                self.rows[p] = [x / v for x in vec]
                return True
        return False

    @property
    def rank(self):
        return len(self.rows)


def rank_of(rows):
    ech = Echelon()
    for row in rows:
        ech.insert(row)
    return ech.rank


def markowitz_pivots(rows, canonical):
    """The pivots [(column, row id)] of ``linalg._eliminate``'s policy,
    by plain Fraction elimination: no heap, no column index.

    Rows are numbered after those with no entries are dropped; a row of
    explicit zeros keeps its number.  A pivot row is the sparsest
    candidate, ties to the lowest row id.  Canonical (rref) mode takes
    columns left to right, each on a row not yet used as a pivot row.
    Rank mode keeps a queue of (count, column): it takes the smallest
    entry, skips it if the column has no live row, queues it again if
    the column's count of live rows has changed, and else pivots there
    and retires the pivot row; a column that fill-in brings back from no
    live row is queued with count 0.  Rows are cleared in order of row
    id.
    """
    work = [{c: Fraction(v) for c, v in row.items() if v}
            for row in rows if row]
    live = set(range(len(work)))  # rank mode retires pivot rows
    pivots, queue = [], []

    def count(c):
        return sum(1 for i in live if c in work[i])

    def sparsest(candidates):
        return min(candidates, key=lambda i: (len(work[i]), i))

    def clear(ri, col, others):
        prow = work[ri]
        for i in others:
            factor = work[i][col] / prow[col]
            for c, v in prow.items():
                if not canonical and c not in work[i] and not count(c):
                    queue.append((0, c))
                nv = work[i].get(c, 0) - factor * v
                if nv:
                    work[i][c] = nv
                else:
                    work[i].pop(c, None)

    if canonical:
        used = set()
        while True:
            free = [i for i in range(len(work)) if i not in used]
            cols = [c for i in free for c in work[i]]
            if not cols:
                return pivots
            col = min(cols)
            ri = sparsest([i for i in free if col in work[i]])
            clear(ri, col, [i for i in range(len(work))
                            if i != ri and col in work[i]])
            used.add(ri)
            pivots.append((col, ri))

    queue.extend((count(c), c) for c in {c for row in work for c in row})
    while queue:
        key, col = entry = min(queue)
        queue.remove(entry)
        n = count(col)
        if not n:
            continue
        if key != n:
            queue.append((n, col))
            continue
        ri = sparsest([i for i in live if col in work[i]])
        live.remove(ri)
        clear(ri, col, sorted(i for i in live if col in work[i]))
        pivots.append((col, ri))
    return pivots


def ideal_products(p, degree, weight=None):
    """The nonzero products relation*monomial in one slice, as term dicts."""
    ctx = p.context
    out = []
    for rel in p.relations:
        rd, rk = rel.degree(), rel.weight()
        if degree < rd or (weight is not None and weight < rk):
            continue
        lower = None if weight is None else weight - rk
        for mono in ctx.monomials_of(degree - rd, lower):
            prod = rel * Element(ctx, {mono: Fraction(1)})
            if prod.terms:
                out.append(prod.terms)
    return out


def dense_cohomology_dims(p, max_degree):
    """dict degree -> dim H^degree of the quotient CDGA, densely."""
    ctx = p.context
    free = {d: list(ctx.monomials_of(d)) for d in range(max_degree + 2)}
    index = {d: {m: i for i, m in enumerate(free[d])} for d in free}

    def ideal_rows(d):
        return [densify(terms, index[d], len(free[d]))
                for terms in ideal_products(p, d)]

    def diff_rows(d):
        rows = []
        for mono in free[d]:
            img = free_differential(p, mono)
            rows.append(densify(img.terms, index[d + 1], len(free[d + 1])))
        return rows

    dims = {}
    for d in range(max_degree + 1):
        ideal_above = Echelon()
        for row in ideal_rows(d + 1):
            ideal_above.insert(row)
        comp = [ideal_above.reduce(row) for row in diff_rows(d)]
        rank_comp = rank_of(comp)
        stacked = (diff_rows(d - 1) if d > 0 else []) + ideal_rows(d)
        dims[d] = len(free[d]) - rank_comp - rank_of(stacked)
    return dims


def unfactored_slice(p, degree, weight=None):
    """Basis and normal forms of one quotient slice, from the whole slice.

    The ideal products fill one dense matrix over the free slice in
    canonical column order.  The surviving monomials are its non-pivot
    columns; the normal form of a monomial is its unit vector reduced
    against the echelon basis, which leaves it zero at every pivot.
    Returns the surviving monomials and a dict monomial -> normal form.
    """
    free = list(p.context.monomials_of(degree, weight))
    index = {m: i for i, m in enumerate(free)}
    ech = Echelon()
    for terms in ideal_products(p, degree, weight):
        ech.insert(densify(terms, index, len(free)))
    quotient = tuple(m for i, m in enumerate(free) if i not in ech.rows)
    normal = {}
    for i, m in enumerate(free):
        unit = [Fraction(0)] * len(free)
        unit[i] = Fraction(1)
        vec = ech.reduce(unit)
        normal[m] = {free[j]: v for j, v in enumerate(vec) if v}
    return quotient, normal


def suffix_monomials(p, degree):
    """Exponent vectors of the monomials of one degree in the generators
    after p's core, grouped by weight, in lexicographic order."""
    gens = p.context.generators[len(p.core.context.generators):]
    partial = [((), 0, 0)]  # exponents, degree, weight
    for g in gens:
        top = 1 if g.odd else degree // g.degree
        partial = [(e + (x,), d + x * g.degree, w + x * g.weight)
                   for e, d, w in partial for x in range(top + 1)
                   if d + x * g.degree <= degree]
    out = {}
    for e, d, w in partial:
        if d == degree:
            out.setdefault(w, []).append(e)
    return out


def suffix_differential(p, u):
    """L d(u) for a suffix monomial u of p as (c, kappa, u') triples, in
    the order the Leibniz routine ``Presentation._leibniz_into`` gives on
    the padded monomial (0, ..., 0, u)."""
    n = len(p.core.context.generators)
    image = {}
    p._leibniz_into(image, Monomial(p.context.base.unit, (0,) * n + u), 1)
    return tuple((c, Monomial(b, e[:n]), e[n:])
                 for (b, e), c in image.items())


def slice_weights(p, degree):
    """The weights of p's nonempty slices of one degree: the core's
    weights at degree - |u| shifted by wt u, over the suffix monomials u
    that ``suffix_monomials`` lists."""
    core = p.core
    return sorted({k + wu for du in range(degree + 1)
                   for wu in suffix_monomials(p, du)
                   for k in _slice_weights(core, degree - du)})


def every_group_blocks(p, degree, weight):
    """The blocks (u, core slice, offset) of p's (degree, weight) slice by
    the walk over every suffix weight group of every suffix degree, which
    looks up the core slice of each group, empty or not."""
    core = p.core
    blocks = []
    offset = 0
    for du in range(degree + 1):
        for wu, suffix in p._suffix_monomials(du).items():
            if wu > weight:
                continue
            sl = quotient_slice(core, degree - du, weight - wu)
            if sl.dim:
                for u in suffix:
                    blocks.append((u, sl, offset))
                    offset += sl.dim
    return tuple(blocks)


def nonempty_core_slices(core, degree):
    """weight -> the nonempty slice of a core in one degree, from the
    slice of every weight of its free slice."""
    return {k: sl for k in _free_weights(core, degree)
            if (sl := quotient_slice(core, degree, k)).dim}


def rref_slice_basis(p, degree, weight):
    """The SliceBasis of a presentation that is its own core, from the
    rref of its ideal slice."""
    free = p.context.monomials_of(degree, weight)
    res = rref(ideal_slice(p, degree, weight))
    pivot_set = set(res.pivots)
    quotient = tuple(m for i, m in enumerate(free) if i not in pivot_set)
    rewrite = {}
    for ri, pcol in enumerate(res.pivots):
        row = res.reduced.rows[ri]
        rewrite[free[pcol]] = {free[c]: -v for c, v in row.items()
                               if c != pcol}
    index = {m: i for i, m in enumerate(quotient)}
    return SliceBasis(degree, weight, quotient, rewrite, index)


def totaro_series(base, r, t_max):
    """{(degree, weight): dim} of the configuration core of r points on
    the base, to degree t_max, from Totaro's formula

        sum_k e_k (t^(2n-1) w^(2n))^k P_X(t, w)^(r-k),
        sum_k e_k x^k = prod_{j=1}^{r-1} (1 + j x),

    with P_X the base's Poincare polynomial in degree t and weight w: the
    NBC G-monomials with k factors, times H*(X) on each of the r - k
    components of their forest."""
    def times(a, b):
        out = {}
        for (d1, w1), c1 in a.items():
            for (d2, w2), c2 in b.items():
                if d1 + d2 <= t_max:
                    key = (d1 + d2, w1 + w2)
                    out[key] = out.get(key, 0) + c1 * c2
        return out

    poincare = {}
    for d, w in zip(base.degrees, base.weights):
        poincare[d, w] = poincare.get((d, w), 0) + 1
    e = [1]
    for j in range(1, r):
        e = [a + j * b for a, b in zip(e + [0], [0] + e)]
    g = {(2 * base.n - 1, 2 * base.n): 1}
    total = {}
    for k, ek in enumerate(e):
        term = {(0, 0): ek}
        for factor in [g] * k + [poincare] * (r - k):
            term = times(term, factor)
        for key, c in term.items():
            total[key] = total.get(key, 0) + c
    return {key: c for key, c in total.items() if c}


def p1_configuration_table(r, t_max):
    """{(degree, weight): dim} of H*(F(P^1, r)), r >= 3, to degree t_max:

        (1 + t^3 w^4) prod_{k=2}^{r-2} (1 + k t w^2).

    F(P^1, r) is PGL_2 times M_{0,r}; PGL_2 has the rational cohomology
    of a 3-sphere, of weight 4, and M_{0,r}, a hyperplane-arrangement
    complement, has Poincare polynomial prod_{k=2}^{r-2} (1 + k t) with
    H^i pure of weight 2i (Arnold 1969; Orlik-Solomon 1980)."""
    table = {(0, 0): 1, (3, 4): 1}
    for k in range(2, r - 1):
        step = dict(table)
        for (d, w), c in table.items():
            step[d + 1, w + 2] = step.get((d + 1, w + 2), 0) + k * c
        table = step
    return {(d, w): c for (d, w), c in table.items() if d <= t_max}


def unordered_configuration_table(base, r, t_max):
    """{(degree, weight): dim} of H*(F(X, r))^{S_r}, the cohomology of r
    unordered points on the base, to degree t_max, from the base's
    classes alone: the length-r part of (Lambda(V + W), d).

    V is H*(X), each class v_a of length 1 at its own degree and weight;
    W is H*(X) shifted by 2n - 1 in degree and 2n in weight, each class
    w_b of length 2.  d is zero on V and sends w_b to (b (x) 1) Delta,
    taken in Lambda^2 V: each term c b_j (x) b_i of the diagonal class
    gives c v_k v_i for each basis class b_k of the product b b_j, with
    its coefficient.  This is the Felix-Thomas model (Topology Appl.
    102, 2000), which Knudsen re-derives as a Chevalley-Eilenberg
    complex (Algebr. Geom. Topol. 17, 2017).  A monomial is a sorted
    tuple of generator indices, V's before W's, each odd one at most
    once; the ranks are dense, by ``rank_of``."""
    n = base.n
    # (degree, weight, length) of v_0.. v_(dim-1), then w_0.. w_(dim-1)
    gens = [(base.degrees[a], base.weights[a], 1) for a in range(base.dim)]
    gens += [(d + 2 * n - 1, w + 2 * n, 2) for d, w, _ in gens]
    odd = [d & 1 for d, _, _ in gens]

    slices = {}

    def grow(start, mono, length, degree, weight):
        if length == r:
            slices.setdefault((degree, weight), []).append(mono)
            return
        for g in range(start, len(gens)):
            d, w, k = gens[g]
            if length + k <= r and degree + d <= t_max + 1:
                grow(g + odd[g], mono + (g,), length + k, degree + d,
                     weight + w)

    grow(0, (), 0, 0, 0)

    def times(x, y):
        """(sign, sorted tuple) of x y; sign 0 when an odd one repeats."""
        sign = 1
        for b in y:
            if odd[b]:
                if b in x:
                    return 0, ()
                if sum(odd[a] for a in x if a > b) & 1:
                    sign = -sign
        return sign, tuple(sorted(x + y))

    # generator index of w_b -> d(w_b) as {sorted (k, i): coefficient}
    triples = _diagonal_triples(base, dual_basis(base))
    dw = {}
    for b in range(base.dim):
        image = {}
        for j, i, c in triples:
            for k, c2 in base.product(b, j).items():
                sign, vv = times((k,), (i,))
                if sign:
                    image[vv] = image.get(vv, 0) + sign * _fraction(c * c2)
        dw[base.dim + b] = image

    def d_rows(degree, weight):
        target = {m: i for i, m in
                  enumerate(slices.get((degree + 1, weight), ()))}
        rows = []
        for mono in slices.get((degree, weight), ()):
            row = [Fraction(0)] * len(target)
            for p, g in enumerate(mono):
                # d passes the factors before it: (-1)^(their degree)
                lead = -1 if sum(gens[a][0] for a in mono[:p]) & 1 else 1
                for vv, c in dw.get(g, {}).items():
                    s1, left = times(mono[:p], vv)
                    s2, term = times(left, mono[p + 1:])
                    if s1 * s2:
                        row[target[term]] += lead * s1 * s2 * c
            rows.append(row)
        return rows

    ranks = {key: rank_of(d_rows(*key)) for key in slices if key[0] <= t_max}
    table = {}
    for (d, w), monos in slices.items():
        if d <= t_max:
            dim = len(monos) - ranks[d, w] - ranks.get((d - 1, w), 0)
            if dim:
                table[d, w] = dim
    return table


def _fraction(c):
    return Fraction(int(c.numerator), int(c.denominator))


def unordered_configuration_sign(base, r, t_max):
    """{(degree, weight): dim} of the sign part of H*(F(X, r)) under S_r,
    to degree t_max, from the base's classes alone: the length-r part of
    Sym(Pi H*(X)), in which the parity shift makes the even classes
    exterior and the odd ones polynomial.  So it counts the multisets of
    r basis classes in which each even class appears at most once, each
    at the sums of its classes' degrees and weights."""
    table = {}
    for classes in itertools.combinations_with_replacement(
            range(base.dim), r):
        if any(a == b and not base.degrees[a] & 1
               for a, b in zip(classes, classes[1:])):
            continue
        key = (sum(base.degrees[a] for a in classes),
               sum(base.weights[a] for a in classes))
        if key[0] <= t_max:
            table[key] = table.get(key, 0) + 1
    return table


def _free_weights(p, degree):
    ctx = p.context
    return sorted({ctx.monomial_weight(m) for m in ctx.monomials_of(degree)})


def slice_d_squared(p, max_degree):
    """d(relation) in the ideal, then D(d+1, k) D(d, k) = 0 on every
    nonempty quotient slice of degree <= max_degree, as a
    VerificationReport; ``slices_checked`` counts relations and slices."""
    checked = 0
    ctx = p.context
    for rel in p.relations:
        drel = p.differential_of(rel)
        checked += 1
        if drel.is_zero():
            continue
        d, w = drel.degree(), drel.weight()
        residual = quotient_slice(p, d, w).reduce(drel.terms)
        if residual:
            return VerificationReport(
                False, checked, "relation", d, w, repr(rel),
                "d(relation) not in ideal: " + repr(Element(ctx, residual)))
    for d in range(max_degree + 1):
        for k in _free_weights(p, d):
            src = quotient_slice(p, d, k)
            if src.dim == 0:
                continue
            checked += 1
            prod = matmul(differential_matrix(p, d, k),
                          differential_matrix(p, d + 1, k))
            if not is_zero(prod):
                bad = next(i for i, row in enumerate(prod.rows) if row)
                mid = quotient_slice(p, d + 2, k)
                residual = Element(ctx, {
                    mid.quotient[j]: c for j, c in prod.rows[bad].items()})
                return VerificationReport(
                    False, checked, "d_squared", d, k,
                    ctx.monomial_label(src.quotient[bad]),
                    f"d(d(m)) = {residual!r}")
    return VerificationReport(True, checked)


def unreduced_cohomology(p, max_degree):
    """{(degree, weight): dim H} from the slices of ``p`` itself:
    dim Q(d, k) - rank D(d, k) - rank D(d - 1, k), zeros left out."""
    dims = {}
    for d in range(max_degree + 1):
        for k in _free_weights(p, d):
            q = quotient_slice(p, d, k).dim
            if not q:
                continue
            value = q - rank(differential_matrix(p, d, k))
            if d > 0:
                value -= rank(differential_matrix(p, d - 1, k))
            if value:
                dims[(d, k)] = value
    return dims


def model_action(p, model, sig):
    """``symmetric_action(model, sig)`` on p, whose generators are some of
    the model's, matched by label, which the action maps to each other:
    a presentation split from the model by generators the action fixes."""
    phi = symmetric_action(model, sig)
    if p is model:
        return phi
    labels = [g.label for g in model.context.generators]
    keep = [labels.index(g.label) for g in p.context.generators]
    return MonomialPermutation(p.context, phi.slots,
                               [keep.index(phi.gen_to[g]) for g in keep])


def isotypic_projector(p, subgroup, character, degree, weight, model=None):
    """sum_sigma char(1) char(sigma^{-1}) M_sigma on one quotient slice.

    Row i is the projector applied to basis monomial i, summed matrix by
    matrix from ``map_matrix``; the 1/|G| is left out.  The actions are
    those of ``model`` (by default p), taken on p by ``model_action``.
    """
    sl = quotient_slice(p, degree, weight)
    dim_char = character(tuple(range(len(subgroup[0]))))
    total = SparseMatrix(sl.dim, sl.dim)
    for sig in subgroup:
        weight_c = dim_char * character(inverse(sig))
        if not weight_c:
            continue
        mat = map_matrix(p, model_action(p, model or p, sig), degree, weight)
        for i, row in enumerate(mat.rows):
            acc = total.rows[i]
            for j, v in row.items():
                nv = acc.get(j, 0) + weight_c * v
                if nv:
                    acc[j] = nv
                else:
                    acc.pop(j, None)
    return total


def isotypic_table(p, subgroup, character, max_degree):
    """{(degree, weight): dim} of the cohomology of the projector's image.

    d commutes with the projector P, so d maps P's image onto the row
    space of P D, and dim H = rank P - rank P D - rank P' D' with D the
    differential matrix out of the slice and P' D' the one into it.
    """
    def ranks(degree, weight):
        proj = isotypic_projector(p, subgroup, character, degree, weight)
        out = differential_matrix(p, degree, weight)
        return rank(proj), rank(matmul(proj, out))

    entries = {}
    for d in range(max_degree + 1):
        for k in _slice_weights(p, d):
            here, out = ranks(d, k)
            into = ranks(d - 1, k)[1] if d > 0 else 0
            if here - out - into:
                entries[(d, k)] = here - out - into
    return entries


def character_euler_by_elements(p, chi, w_max):
    """{k: coefficient of w^k} of ``character_euler``, summed over every
    element of S_r rather than one per cycle type: (1/r!) sum_sigma
    chi(sigma) sum_i (-1)^i trace(sigma | slice(i, k)), each trace read
    off the images of the slice's basis monomials."""
    r = p.params["r"]
    perms = [tuple(s) for s in itertools.permutations(range(r))]
    coeffs = {}
    for k in range(w_max + 1):
        total = 0
        for i in range(k + 1):
            sl = quotient_slice(p, i, k)
            for sig in perms:
                phi = symmetric_action(p, sig)
                trace = sum(sl.coords({image: sign}).get(a, 0)
                            for a, (image, sign) in enumerate(
                                map(phi.image, sl.quotient)))
                total += (-1) ** i * chi(sig) * trace
        total = Fraction(total) / math.factorial(r)
        if total:
            coeffs[k] = total
    return coeffs


def dense_validate(self):
    """Every algebra law over all dim^2 pairs and dim^3 triples."""
    deg, wt, lab = self.degrees, self.weights, self.labels
    if not (0 <= self.unit < self.dim):
        raise AlgebraError("unit label: not a basis element")
    if not (0 <= self.fundamental < self.dim):
        raise AlgebraError("fundamental label: not a basis element")
    if deg[self.unit] != 0:
        raise AlgebraError(f"unit degree: {lab[self.unit]} has degree "
                           f"{deg[self.unit]}, expected 0")
    if deg[self.fundamental] != 2 * self.n:
        raise AlgebraError(
            f"fundamental class degree: {lab[self.fundamental]} has "
            f"degree {deg[self.fundamental]}, expected {2 * self.n}")
    if any(d < 0 for d in deg) or any(w < 0 for w in wt):
        raise AlgebraError("degree positivity: negative degree or weight")
    for i in range(self.dim):
        if self.product(self.unit, i) != {i: ONE} \
                or self.product(i, self.unit) != {i: ONE}:
            raise AlgebraError(f"unit law: 1*{lab[i]} or {lab[i]}*1 "
                               f"is not {lab[i]}")
    for (i, j), prod in self.table.items():
        for k in prod:
            if deg[k] != deg[i] + deg[j]:
                raise AlgebraError(
                    f"degree additivity: {lab[i]}*{lab[j]} hits "
                    f"{lab[k]} of degree {deg[k]} != {deg[i]}+{deg[j]}")
            if wt[k] != wt[i] + wt[j]:
                raise AlgebraError(
                    f"weight additivity: {lab[i]}*{lab[j]} hits "
                    f"{lab[k]} of weight {wt[k]} != {wt[i]}+{wt[j]}")
    for i in range(self.dim):
        for j in range(i, self.dim):
            sign = -ONE if (deg[i] % 2 and deg[j] % 2) else ONE
            forward = self.product(i, j)
            back = {k: sign * c for k, c in self.product(j, i).items()}
            if forward != back:
                raise AlgebraError(
                    f"graded commutativity: {lab[i]}*{lab[j]} != "
                    f"(-1)^(|{lab[i]}||{lab[j]}|) {lab[j]}*{lab[i]}")
    for i in range(self.dim):
        for j in range(self.dim):
            ij = self.product(i, j)
            for k in range(self.dim):
                left: dict[int, object] = {}
                for m, c in ij.items():
                    for t, c2 in self.product(m, k).items():
                        left[t] = left.get(t, 0) + c * c2
                right: dict[int, object] = {}
                for m, c in self.product(j, k).items():
                    for t, c2 in self.product(i, m).items():
                        right[t] = right.get(t, 0) + c * c2
                left = {t: c for t, c in left.items() if c}
                right = {t: c for t, c in right.items() if c}
                if left != right:
                    raise AlgebraError(
                        f"associativity: ({lab[i]}*{lab[j]})*{lab[k]} "
                        f"!= {lab[i]}*({lab[j]}*{lab[k]})")
    dual_basis(self)


def _slotwise_product(self, u, v):
    # Koszul sign: each v_i moves left past u_j for all j > i.
    sign_exp = 0
    for i in range(len(u)):
        vp = self.factors[i].degrees[v[i]] % 2
        if vp:
            sign_exp += sum(self.factors[j].degrees[u[j]] % 2
                            for j in range(i + 1, len(u)))
    coeff = -ONE if sign_exp % 2 else ONE
    acc = [((), coeff)]
    for i, f in enumerate(self.factors):
        prod = f.product(u[i], v[i])
        if not prod:
            return {}
        acc = [(partial + (k,), c * c2)
               for partial, c in acc for k, c2 in prod.items()]
    out = {}
    for combo, c in acc:
        k = self.encode(combo)
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def dense_tensor_table(tensor):
    """The structure constants of a TensorAlgebra, over all basis pairs."""
    combos = [()]
    for f in tensor.factors:
        combos = [c + (i,) for c in combos for i in range(f.dim)]
    table = {}
    for u in combos:
        for v in combos:
            prod = _slotwise_product(tensor, u, v)
            if prod:
                table[(tensor.encode(u), tensor.encode(v))] = prod
    return table


def dense_tensor_algebra(tensor):
    """A ``BaseAlgebra`` on the tensor's all-pairs table; the constructor
    validates it against every algebra law."""
    return BaseAlgebra(tensor.name, tensor.n, tensor.labels, tensor.degrees,
                       tensor.unit, tensor.fundamental,
                       dense_tensor_table(tensor), weights=tensor.weights)


def check_tensor_products(tensor):
    """Assert ``tensor.product`` equals the validated all-pairs table on
    every pair, in exact form.

    Validating the lazy view itself would check only the pairs it has
    memoised.  The lazy products are taken first, before the all-pairs
    loop fills the memo of a factor that is itself a tensor product.
    """
    products = {(u, v): tensor.product(u, v)
                for u in range(tensor.dim) for v in range(tensor.dim)}
    dense = dense_tensor_algebra(tensor)
    for (u, v), prod in products.items():
        assert prod == dense.product(u, v), (tensor.name, u, v)
        assert all(type(c) is int or type(c) is Rational
                   and c.denominator != 1 for c in prod.values())


def explicit_image(phi, mono):
    """phi(b x^e) = phi(b) prod_g phi(g)^e, multiplied out factor by factor.

    The images of b and of each generator are Elements built from
    ``base_image`` and ``gen_to``.
    """
    ctx = phi.context
    target, c = phi.base_image(mono.base)
    img = ctx.base_element({target: c})
    for g, e in enumerate(mono.exps):
        for _ in range(e):
            img = img * ctx.gen_element(phi.gen_to[g])
    return img


def map_element(phi, elem):
    total = elem.context.zero()
    for mono, c in elem.terms.items():
        total = total + explicit_image(phi, mono).scale(c)
    return total


def differential(p, elem):
    total = elem.context.zero()
    for mono, c in elem.terms.items():
        total = total + free_differential(p, mono).scale(c)
    return total


def check_multiplicative(phi):
    """Assert phi(b_i b_j) == phi(b_i) phi(b_j) on every pair of base classes.

    The images, built from ``base_image``, are multiplied in a context
    without generators.
    """
    base = phi.context.base
    flat = AlgebraContext(base, [])
    images = [flat.base_element({target: c})
              for target, c in map(phi.base_image, range(base.dim))]
    for i in range(base.dim):
        for j in range(base.dim):
            image = flat.zero()
            for k, c in base.product(i, j).items():
                image = image + images[k].scale(c)
            assert image == images[i] * images[j], \
                f"not multiplicative on ({base.labels[i]}, {base.labels[j]})"


def check_graded_permutation(phi):
    """Assert phi permutes base classes up to sign and permutes generators,
    each onto one of the same (degree, weight)."""
    ctx = phi.context
    base = ctx.base
    images = [phi.base_image(b) for b in range(base.dim)]
    assert sorted(t for t, _ in images) == list(range(base.dim))
    for b, (t, c) in enumerate(images):
        assert c in (1, -1), f"{base.labels[b]} maps to {c} times a class"
        assert (base.degrees[t], base.weights[t]) == \
            (base.degrees[b], base.weights[b]), \
            f"{base.labels[b]} maps to {base.labels[t]} of another grade"
    assert sorted(phi.gen_to) == list(range(len(ctx.generators)))
    for g, t in enumerate(phi.gen_to):
        src, dst = ctx.generators[g], ctx.generators[t]
        assert (dst.degree, dst.weight) == (src.degree, src.weight), \
            f"{src.label} maps to {dst.label} of another grade"


def check_d_and_relations(p, maps):
    """Assert each map commutes with d and preserves the relations.

    d is compared on every generator, and every relation must map into
    the ideal the relations generate.  With ``check_multiplicative`` this
    makes each map an endomorphism of the presentation's CDGA.
    """
    ctx = p.context
    ideals = {}  # (degree, weight) -> (column index, Echelon of the ideal)

    def in_ideal(elem):
        if elem.is_zero():
            return True
        key = (elem.degree(), elem.weight())
        if key not in ideals:
            index = {m: i for i, m in enumerate(ctx.monomials_of(*key))}
            echelon = Echelon()
            for terms in ideal_products(p, *key):
                echelon.insert(densify(terms, index, len(index)))
            ideals[key] = index, echelon
        index, echelon = ideals[key]
        return not any(echelon.reduce(densify(elem.terms, index, len(index))))

    for phi in maps:
        for g, spec in enumerate(ctx.generators):
            dg = p.differential.get(g, ctx.zero())
            assert map_element(phi, dg) == differential(
                p, map_element(phi, ctx.gen_element(g))), \
                f"does not commute with d on {spec.label}"
        for rel in p.relations:
            assert in_ideal(map_element(phi, rel)), \
                f"relation not preserved: {rel!r}"


def euler_characteristic(base):
    return sum((-1) ** d for d in base.degrees)


def diagonal_class(base):
    """The diagonal class as an element of base (x) base (no generators)."""
    square = tensor_many([base, base], name=f"{base.name}^⊗2")
    terms = {}
    for p, q, c in _diagonal_triples(base, dual_basis(base)):
        k = square.encode((p, q))
        terms[k] = terms.get(k, 0) + c
    return AlgebraContext(square, []).base_element(terms)


def check_diagonal_identities(base, delta):
    """Assert the two identities that pin the sign convention of Delta.

    ``delta`` lives in base (x) base: (x (x) 1 - 1 (x) x) Delta = 0 for
    every positive-degree basis class x, and the coefficient of
    [X] (x) [X] in Delta^2 is the Euler characteristic of X.
    """
    ctx = delta.context
    square = ctx.base
    for x in base.positive_degree_indices():
        left = ctx.base_element({square.encode((x, base.unit)): ONE})
        right = ctx.base_element({square.encode((base.unit, x)): ONE})
        assert ((left - right) * delta).is_zero(), \
            f"(x⊗1 - 1⊗x)·Δ != 0 for x = {base.labels[x]}"
    top = Monomial(square.encode((base.fundamental, base.fundamental)), ())
    coeff = (delta * delta).terms.get(top, 0)
    chi = euler_characteristic(base)
    assert coeff == chi, f"Δ·Δ has [X]⊗[X]-coefficient {coeff}, not {chi}"
