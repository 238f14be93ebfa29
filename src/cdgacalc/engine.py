"""Quotient CDGAs and their bigraded cohomology, slice by slice.

A :class:`Presentation` is a free graded-commutative algebra (an
:class:`~cdgacalc.algebra.AlgebraContext`) together with a finite list of
homogeneous relations and a degree +1, weight 0 differential given on
generators (zero on the base).  Because the algebra is graded-commutative,
one-sided products relation*monomial span each graded piece of the
two-sided ideal, so no Groebner machinery is needed: the normal form in
every (degree, weight) slice is plain exact linear algebra.

Only a presentation's *core* is eliminated: the sub-presentation over
the generators up to the last one that occurs in some relation (built
on first use; the presentation itself when no generator follows).  The
generators after it form a relation-free suffix, and multiplying by a
monomial u in them adds no sign, so every ideal slice is block-diagonal
in u and each block is a core ideal slice of lower (degree, weight).  A
quotient slice is therefore assembled from cached core slices times u,
with the same canonical basis and projector as eliminating the whole
free slice; the free slices of a model with a suffix are never
enumerated.

A presentation normalizes its coefficients once (``rat.exact``), so
integer models run in ``int`` arithmetic, and compiles d on generators
into derivation tables, so d of a monomial is table lookups and Koszul
sign flips in one Leibniz routine.

The cohomology of the quotient in one slice is

    dim H^d = dim Q(d,k) - rank D(d,k) - rank D(d-1,k)

with Q the quotient slice and D the induced differential matrix; the
differential preserves the weight k, so slices at different weights never
interact.  Passing ``weight=None`` everywhere computes with whole-degree
slices instead (used to check that the weight splitting is genuine).

All computations are cached per presentation and keyed by (degree,
weight).  Results are deterministic because the reduced row echelon form
and the monomial order are canonical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .algebra import (AlgebraContext, AlgebraError, AlgebraMap, Element,
                      Monomial)
from .linalg import SparseMatrix, rank, rref
from .rat import ONE


class PresentationError(AlgebraError):
    """Malformed presentation: inhomogeneous relation or differential."""


class Presentation:
    """Free context + homogeneous relations + generator differential."""

    __slots__ = ("context", "relations", "differential", "name", "params",
                 "_relation_grades", "_derivations", "_odd_bits", "_cache",
                 "_core", "_suffix")

    def __init__(self, context: AlgebraContext, relations: Sequence[Element],
                 differential: dict[int, Element], name: str = "",
                 params: Optional[dict] = None):
        self.context = context
        # coefficients into their exact form (int where integral)
        self.relations = tuple(rel.context.element(rel.terms)
                               for rel in relations)
        self.differential = {g: img.context.element(img.terms)
                             for g, img in differential.items()
                             if img is not None and not img.is_zero()}
        self.name = name or "presentation"
        self.params = dict(params or {})
        self._cache: dict = {}
        self._core: Optional[Presentation] = None
        self._suffix: dict = {}
        grades = []
        for rel in self.relations:
            if rel.is_zero():
                raise PresentationError("zero relation")
            try:
                grades.append((rel.degree(), rel.weight()))
            except AlgebraError:
                raise PresentationError(
                    f"relation not homogeneous: {rel!r}") from None
        self._relation_grades = tuple(grades)
        for g, img in self.differential.items():
            spec = context.generators[g]
            try:
                d, w = img.degree(), img.weight()
            except AlgebraError:
                raise PresentationError(
                    f"d({spec.label}) not degree- and weight-homogeneous; "
                    "malformed presentation") from None
            if d != spec.degree + 1:
                raise PresentationError(
                    f"d({spec.label}) has degree {d}, expected "
                    f"{spec.degree + 1}")
            if w != spec.weight:
                raise PresentationError(
                    f"d not weight-homogeneous on {spec.label}: image has "
                    f"weight {w}, generator has weight {spec.weight}")
        self._odd_bits = tuple(1 << i if odd else 0
                               for i, odd in enumerate(context.gen_parities))
        self._derivations = self._compile_derivations()

    # -- caching ------------------------------------------------------------

    def _cached(self, key, builder: Callable):
        hit = self._cache.get(key)
        if hit is None:
            hit = self._cache[key] = builder()
        return hit

    # -- relation-carrying core --------------------------------------------

    @property
    def core(self) -> "Presentation":
        """The sub-presentation over the generators up to the last one
        that occurs in some relation.

        It has the same base and relations (exponent vectors truncated)
        and no differential.  The remaining generators are a relation-free
        suffix, so a monomial u in them multiplies a core slice without
        sign and every slice of this presentation is a sum of core slices
        times such u.  Built on first use; with an empty suffix it is this
        presentation itself.
        """
        if self._core is None:
            ngen = 1 + max((i for rel in self.relations for m in rel.terms
                            for i, x in enumerate(m.exps) if x), default=-1)
            if ngen == len(self.context.generators):
                self._core = self
            else:
                ctx = AlgebraContext(self.context.base,
                                     self.context.generators[:ngen])
                rels = [Element(ctx, {Monomial(m.base, m.exps[:ngen]): c
                                      for m, c in rel.terms.items()})
                        for rel in self.relations]
                self._core = Presentation(ctx, rels, {},
                                          name=f"core of {self.name}")
        return self._core

    def _suffix_monomials(self, degree: int) -> dict[int, list]:
        """Exponent vectors of the monomials of the given degree in the
        generators after the core, grouped by weight."""
        hit = self._suffix.get(degree)
        if hit is None:
            gens = self.context.generators[len(self.core.context.generators):]
            partial = [((), 0, 0)]  # exponents, degree, weight
            for g in gens:
                top = 1 if g.odd else degree // g.degree
                partial = [(e + (x,), d + x * g.degree, w + x * g.weight)
                           for e, d, w in partial for x in range(top + 1)
                           if d + x * g.degree <= degree]
            hit = self._suffix[degree] = {}
            for e, d, w in partial:
                if d == degree:
                    hit.setdefault(w, []).append(e)
        return hit

    # -- differential -------------------------------------------------------

    def _compile_derivations(self) -> tuple:
        """``(i, terms)`` per generator with d(g_i) != 0.

        A term c b x^f of d(g_i) becomes (b, nonzero (generator, exponent)
        pairs of f, c, bit mask of f's odd generators, sign mask).
        """
        parities = self.context.gen_parities
        base_degrees = self.context.base.degrees
        tables = []
        for i in sorted(self.differential):
            below = (1 << i) - 1
            terms = []
            for m, c in self.differential[i].terms.items():
                f_items = tuple((q, x) for q, x in enumerate(m.exps) if x)
                f_odd = 0
                # Leibniz sign of d passing the odd generators before g_i,
                # cancelled when the term's odd base class passes them too
                sign_mask = 0 if base_degrees[m.base] % 2 else below
                for q, _ in f_items:
                    if parities[q]:
                        # sorting q into place passes the odd generators
                        # strictly between q and g_i's slot
                        lo, hi = min(q, i), max(q, i)
                        f_odd |= 1 << q
                        sign_mask ^= ((1 << hi) - 1) & ~((1 << (lo + 1)) - 1)
                terms.append((m.base, f_items, c, f_odd, sign_mask))
            tables.append((i, tuple(terms)))
        return tuple(tables)

    def _leibniz_into(self, acc: dict, mono: Monomial, coeff) -> None:
        """Accumulate ``coeff * d(mono)`` into ``acc`` (Monomial -> Q).

        For mono = b P g_i^e S the g_i term is
        (-1)^(|b|+|P|) e b P d(g_i) g_i^(e-1) S.  Sorting a term b' x^f of
        d(g_i) into place costs (-1)^(|b'||P|) plus one sign per odd
        generator an odd generator of f passes: the parity of the odd
        generators of the rest of mono under the term's sign mask.
        """
        b, e = mono
        base = self.context.base
        b_par = base.degrees[b] & 1
        odd = sum(bit for bit, x in zip(self._odd_bits, e) if x)
        for i, terms in self._derivations:
            ei = e[i]
            if not ei:
                continue
            rest_odd = odd & ~(1 << i)
            rest = e[:i] + (ei - 1,) + e[i + 1:]
            scale = coeff * ei
            for tb, f_items, c, f_odd, sign_mask in terms:
                if rest_odd & f_odd:
                    continue
                prod = base.table.get((b, tb))
                if not prod:
                    continue
                if f_items:
                    exps = list(rest)
                    for q, x in f_items:
                        exps[q] += x
                    exps = tuple(exps)
                else:
                    exps = rest
                t = scale * c
                if (b_par + (rest_odd & sign_mask).bit_count()) & 1:
                    t = -t
                for k, cb in prod.items():
                    m = Monomial(k, exps)
                    v = acc.get(m, 0) + t * cb
                    if v:
                        acc[m] = v
                    else:
                        del acc[m]

    def differential_of(self, e: Element) -> Element:
        """Leibniz extension of the generator differential (d = 0 on base)."""
        if e.context is not self.context:
            raise AlgebraError("context mismatch: element not in this "
                               "presentation's algebra")
        acc: dict[Monomial, object] = {}
        for m, c in e.terms.items():
            self._leibniz_into(acc, m, c)
        return Element(self.context, acc)


@dataclass(frozen=True)
class SliceBasis:
    """Monomial basis of one (degree, weight) slice of the quotient.

    ``quotient`` lists the free monomials surviving as a basis (the
    non-pivot columns of the rref of the ideal slice), in canonical
    order; ``rewrite`` is the normal-form projector sending each pivot
    monomial to its expansion in surviving monomials.
    """

    degree: int
    weight: Optional[int]
    quotient: tuple[Monomial, ...]
    rewrite: dict
    index: dict = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.quotient)

    def reduce(self, terms: dict) -> dict:
        """Normal form of a free-slice element, as Monomial -> Q."""
        out: dict[Monomial, object] = {}
        for m, c in terms.items():
            if not c:
                continue
            rw = self.rewrite.get(m)
            if rw is None:
                if m not in self.index:
                    raise AlgebraError(
                        f"monomial outside slice (degree {self.degree}, "
                        f"weight {self.weight})")
                v = out.get(m)
                v = c if v is None else v + c
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
            else:
                for m2, c2 in rw.items():
                    v = out.get(m2)
                    v = c * c2 if v is None else v + c * c2
                    if v:
                        out[m2] = v
                    else:
                        out.pop(m2, None)
        return out

    def coords(self, terms: dict) -> dict[int, object]:
        """Normal form in coordinates of the quotient basis."""
        reduced = self.reduce(terms)
        return {self.index[m]: c for m, c in reduced.items()}


def ideal_slice(p: Presentation, degree: int,
                weight: Optional[int] = None) -> SparseMatrix:
    """Matrix whose rows span the (degree, weight) piece of the ideal.

    Rows are the products relation * monomial over all relations and all
    free monomials of complementary degree (and weight), expressed in the
    canonical monomial basis of the slice.
    """
    if degree < 0:
        raise AlgebraError("ideal_slice: degree must be >= 0")

    def build():
        ctx = p.context
        cols = ctx.monomials_of(degree, weight)
        colmap = {m: i for i, m in enumerate(cols)}
        rows: list[dict[int, object]] = []
        for rel, (rd, rw) in zip(p.relations, p._relation_grades):
            md = degree - rd
            if md < 0:
                continue
            if weight is None:
                mons = ctx.monomials_of(md)
            else:
                mw = weight - rw
                if mw < 0:
                    continue
                mons = ctx.monomials_of(md, mw)
            for mono in mons:
                acc: dict[Monomial, object] = {}
                for mr, cr in rel.terms.items():
                    ctx.mul_term_into(acc, mr, cr, mono, ONE)
                row = {colmap[m]: c for m, c in acc.items() if c}
                if row:
                    rows.append(row)
        return SparseMatrix.from_rows(len(rows), len(cols), rows)

    return p._cached(("ideal", degree, weight), build)


def quotient_slice(p: Presentation, degree: int,
                   weight: Optional[int] = None) -> SliceBasis:
    """Deterministic basis + projector for one slice of the quotient.

    The core's slices come from the rref of their ideal slice.  Any other
    presentation's slice is the union over monomials u in its
    relation-free suffix of the core's slice at (degree - |u|,
    weight - wt u) times u: the ideal slice is block-diagonal in u with
    those blocks, and the canonical order restricted to one block is the
    core's, so basis and projector are the ones the rref of the whole
    ideal slice would give.
    """
    core = p.core

    def eliminate():
        free = p.context.monomials_of(degree, weight)
        res = rref(ideal_slice(p, degree, weight))
        pivot_set = set(res.pivots)
        quotient = tuple(m for i, m in enumerate(free) if i not in pivot_set)
        rewrite: dict[Monomial, dict[Monomial, object]] = {}
        for ri, pcol in enumerate(res.pivots):
            row = res.reduced.rows[ri]
            rewrite[free[pcol]] = {free[c]: -v for c, v in row.items()
                                   if c != pcol}
        index = {m: i for i, m in enumerate(quotient)}
        return SliceBasis(degree, weight, quotient, rewrite, index)

    def factor():
        quotient: list[Monomial] = []
        rewrite: dict[Monomial, dict[Monomial, object]] = {}
        for du in range(degree + 1):
            for wu, suffix in p._suffix_monomials(du).items():
                if weight is not None and wu > weight:
                    continue
                block = quotient_slice(core, degree - du,
                                       None if weight is None else weight - wu)
                for u in suffix:
                    quotient.extend(Monomial(b, e + u)
                                    for b, e in block.quotient)
                    for (b, e), row in block.rewrite.items():
                        rewrite[Monomial(b, e + u)] = {
                            Monomial(b2, e2 + u): c
                            for (b2, e2), c in row.items()}
        # monomial_key, given that the degree is fixed
        base_degrees = p.context.base.degrees
        quotient.sort(key=lambda m: (-base_degrees[m.base], m.exps, m.base))
        index = {m: i for i, m in enumerate(quotient)}
        return SliceBasis(degree, weight, tuple(quotient), rewrite, index)

    return p._cached(("slice", degree, weight),
                     eliminate if core is p else factor)


def differential_matrix(p: Presentation, degree: int,
                        weight: Optional[int] = None) -> SparseMatrix:
    """Matrix of d from slice (degree, weight) to (degree+1, weight).

    Row i holds the coordinates of d(basis monomial i) in the target
    quotient basis.
    """

    def build():
        src = quotient_slice(p, degree, weight)
        tgt = quotient_slice(p, degree + 1, weight)
        mat = SparseMatrix(src.dim, tgt.dim)
        if tgt.dim:
            for i, mono in enumerate(src.quotient):
                image: dict[Monomial, object] = {}
                p._leibniz_into(image, mono, 1)
                if image:
                    mat.rows[i] = tgt.coords(image)
        return mat

    return p._cached(("diff", degree, weight), build)


def differential_rank(p: Presentation, degree: int,
                      weight: Optional[int] = None) -> int:
    def build():
        src = quotient_slice(p, degree, weight)
        if src.dim == 0 or quotient_slice(p, degree + 1, weight).dim == 0:
            return 0
        return rank(differential_matrix(p, degree, weight))

    return p._cached(("rank", degree, weight), build)


def map_matrix(p: Presentation, phi: AlgebraMap, degree: int,
               weight: Optional[int] = None) -> SparseMatrix:
    """Matrix of a degree/weight-preserving algebra map on one slice."""
    if phi.context is not p.context:
        raise AlgebraError("context mismatch: map not on this "
                           "presentation's algebra")
    src = quotient_slice(p, degree, weight)
    mat = SparseMatrix(src.dim, src.dim)
    for i, mono in enumerate(src.quotient):
        mat.rows[i] = src.coords(phi.image(mono))
    return mat


class CohomologyTable:
    """dim Gr_k^W H^i as a map (degree, weight) -> nonnegative integer.

    ``weight`` is None throughout when computed without the weight
    refinement.  Only the computed range [0, max_degree] is recorded;
    higher degrees are simply absent rather than guessed to be zero.
    """

    def __init__(self, entries: dict, max_degree: int, by_weight: bool,
                 model: dict):
        self.entries = {k: v for k, v in entries.items() if v}
        self.max_degree = max_degree
        self.by_weight = by_weight
        self.model = dict(model)

    def dim(self, degree: int, weight: Optional[int] = None) -> int:
        if weight is not None:
            return self.entries.get((degree, weight), 0)
        return sum(v for (d, _), v in self.entries.items() if d == degree)

    def dims(self) -> list[int]:
        return [self.dim(i) for i in range(self.max_degree + 1)]

    def weights_at(self, degree: int) -> list[int]:
        return sorted(k for (d, k) in self.entries
                      if d == degree and k is not None)

    def rows(self) -> list[tuple[int, Optional[int], int]]:
        order = lambda t: (t[0], -1 if t[1] is None else t[1])
        return [(d, k, self.entries[(d, k)])
                for (d, k) in sorted(self.entries, key=order)]

    def __eq__(self, other):
        return (isinstance(other, CohomologyTable)
                and self.entries == other.entries
                and self.max_degree == other.max_degree)

    def __repr__(self):
        return (f"CohomologyTable({self.model.get('name', '?')}, "
                f"dims={self.dims()})")


def _slice_weights(p: Presentation, degree: int) -> list[int]:
    """Weights of the nonempty free slices in one degree."""
    core = p.core
    weights = set()
    for du in range(degree + 1):
        suffix = p._suffix_monomials(du)
        if suffix:
            core_weights = {core.context.monomial_weight(m)
                            for m in core.context.monomials_of(degree - du)}
            for wu in suffix:
                weights.update(k + wu for k in core_weights)
    return sorted(weights)


def cohomology(p: Presentation, max_degree: int,
               by_weight: bool = True) -> CohomologyTable:
    """Bigraded cohomology dimensions of the quotient CDGA up to max_degree.

    With ``by_weight`` the computation runs one weight at a time (the
    differential preserves weights); otherwise whole-degree slices are
    used and entries carry weight None.
    """
    if max_degree < 0:
        raise AlgebraError("cohomology: max_degree must be >= 0")
    entries: dict = {}
    for d in range(max_degree + 1):
        for k in _slice_weights(p, d) if by_weight else [None]:
            q = quotient_slice(p, d, k).dim
            if q == 0:
                continue
            r_out = differential_rank(p, d, k)
            r_in = differential_rank(p, d - 1, k) if d > 0 else 0
            entries[(d, k)] = q - r_out - r_in
    model = {"name": p.name, **p.params}
    return CohomologyTable(entries, max_degree, by_weight, model)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the d^2 = 0 and d(ideal) <= ideal checks."""

    ok: bool
    slices_checked: int
    failure_kind: Optional[str] = None
    degree: Optional[int] = None
    weight: Optional[int] = None
    witness: Optional[str] = None
    detail: Optional[str] = None

    def message(self) -> str:
        if self.ok:
            return (f"ok: d^2 = 0 and d(ideal) in ideal on "
                    f"{self.slices_checked} slices")
        return (f"FAIL[{self.failure_kind}] at degree {self.degree}, "
                f"weight {self.weight}: witness {self.witness}; "
                f"{self.detail}")


def verify_d_squared(p: Presentation, max_degree: int,
                     by_weight: bool = True) -> VerificationReport:
    """Well-definedness check of the quotient CDGA.

    Asserts that d of every relation reduces to zero (so d descends to
    the quotient) and that the induced differential squares to zero on
    every quotient slice with source degree <= max_degree.  Failures are
    reported, not raised; the first failing slice and a witness element
    are returned.
    """
    checked = 0
    ctx = p.context
    for rel in p.relations:
        drel = p.differential_of(rel)
        if drel.is_zero():
            checked += 1
            continue
        d, w = drel.degree(), drel.weight()
        sl = quotient_slice(p, d, w if by_weight else None)
        residual = sl.reduce(drel.terms)
        checked += 1
        if residual:
            witness = repr(rel)
            detail = "d(relation) not in ideal: " + repr(
                Element(ctx, residual))
            return VerificationReport(False, checked, "relation", d, w,
                                      witness, detail)
    for d in range(max_degree + 1):
        weights = _slice_weights(p, d) if by_weight else [None]
        for k in weights:
            src = quotient_slice(p, d, k)
            if src.dim == 0:
                continue
            first = differential_matrix(p, d, k)
            second = differential_matrix(p, d + 1, k)
            checked += 1
            prod = first.matmul(second)
            if not prod.is_zero():
                bad = next(i for i, row in enumerate(prod.rows) if row)
                witness = ctx.monomial_label(src.quotient[bad])
                mid = quotient_slice(p, d + 2, k)
                residual = Element(ctx, {
                    mid.quotient[j]: c for j, c in prod.rows[bad].items()})
                return VerificationReport(False, checked, "d_squared", d, k,
                                          witness,
                                          f"d(d(m)) = {residual!r}")
    return VerificationReport(True, checked)
