"""Dense brute-force cohomology, independent of the sparse slice path.

Everything here works with dense Fraction row vectors over whole-degree
free slices and plain Gaussian elimination: no SparseMatrix, no rref
pivots, no quotient bases, no normal-form projectors.  The dimension of
H^d of the quotient complex is computed as

    dim H^d = |F_d| - rank(comp_d) - rank(D_{d-1} rows + I_d rows)

where F_d is the free slice, I_d the span of relation*monomial products,
comp_d the matrix of d: F_d -> F_{d+1}/I_{d+1} (images reduced against an
echelon basis of I_{d+1}), and D_{d-1} the free differential.  The
Leibniz rule is also re-derived here by multiplying out the factor list
one element at a time rather than via the engine's compiled derivation
tables.
"""

from fractions import Fraction

from cdgacalc.algebra import Element, Monomial


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


def densify(terms, index, width):
    row = [Fraction(0)] * width
    for m, c in terms.items():
        row[index[m]] += Fraction(int(c.numerator), int(c.denominator))
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


def dense_cohomology_dims(p, max_degree):
    """dict degree -> dim H^degree of the quotient CDGA, densely."""
    ctx = p.context
    free = {d: list(ctx.monomials_of(d)) for d in range(max_degree + 2)}
    index = {d: {m: i for i, m in enumerate(free[d])} for d in free}

    def ideal_rows(d):
        rows = []
        for rel in p.relations:
            rd = rel.degree()
            if d < rd:
                continue
            for mono in free[d - rd]:
                prod = rel * Element(ctx, {mono: Fraction(1)})
                if prod.terms:
                    rows.append(densify(prod.terms, index[d], len(free[d])))
        return rows

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
