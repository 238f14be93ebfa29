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
quotient slice is therefore a view, :class:`FactoredSlice`: blocks
(u, core slice, offset) with u in suffix order and the core's order
inside each block.  Its basis as a set and every normal form are those
of eliminating the whole free slice; the free slices of a model with a
suffix are never enumerated, and its basis monomials are only made when
something reads them.  The differential matrix is assembled from
d(m u) = d(m) u + (-1)^|m| m d(u) with cached blocks: d of each core
slice's basis, d of each suffix monomial, and the core's multiplication
operators, which a presentation and its reduced model share.

Cohomology is computed on a presentation's *reduced* model: every pair
of suffix generators (x, y) with d x = c y + phi, c a nonzero scalar and
neither x nor y in phi, is cancelled by x = 0, y = -phi/c.  That is a
weight-preserving quasi-isomorphism; on the section and twisted models
it removes eta_1 and s[X], and with them most of every large slice.  The
reduced model shares the core and its cached slices.  The S_r actions,
the character-weighted Euler series and the weightwise Euler series stay
on the model as built.

d^2 = 0 is certified on generators, not slice by slice: once d maps
every relation into the ideal, d^2 is a derivation of the quotient, so
it vanishes in every degree when it vanishes on each generator.  Each
such normal form is reduced through the core's slices.  The check is
cached per presentation; ranks rely on it and raise when it fails.

A presentation normalizes its coefficients once (``rat.exact``), so
integer models run in ``int`` arithmetic, and compiles d on generators
into derivation tables, so d of a monomial is table lookups and Koszul
sign flips in one Leibniz routine.

The cohomology of the quotient in one slice is

    dim H^d = dim Q(d,k) - rank D(d,k) - rank D(d-1,k)

with Q the quotient slice and D the induced differential matrix; the
differential preserves the weight k, so slices at different weights never
interact, and every slice, rank and table entry has an integer weight.

Ranks are computed by clearing (Chen-Kerber, Persistent homology
computation with a twist, EuroCG 2011), bottom-up along each weight's
chain D(0, k), D(1, k), ...: the rows of D(d, k) at the pivot columns
of D(d-1, k) are left out before elimination.  d^2 = 0 puts the image
of D(d-1, k) in the kernel of D(d, k), and that image maps
isomorphically onto those coordinates, so the rank does not change.
The rows are assembled straight into the elimination, without a
matrix.

Slices and ranks are cached per presentation and keyed by (degree,
weight); the blocks differentials are assembled from, and the pivot
columns of each chain's top rank until the rank above reads them, are
cached apart.  Ideal slices are not cached: only the core slice made
from each one's rref is kept.  Neither ``cohomology`` nor the isotypic
ranks of :mod:`~cdgacalc.analysis` build a differential matrix: both
take their rows from the assembler.  :func:`differential_matrix` is for
library callers, and caches what it builds.  Results are deterministic
because the reduced row echelon form, the monomial order and the block
order are canonical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

from .algebra import AlgebraContext, AlgebraError, Element, Monomial
from .linalg import SparseMatrix, pivot_columns, rref
from .rat import ONE, exact, rat


class PresentationError(AlgebraError):
    """Malformed presentation: inhomogeneous relation or differential, or
    input outside its algebra."""


class Presentation:
    """Free context + homogeneous relations + generator differential."""

    __slots__ = ("context", "relations", "differential", "name", "params",
                 "_relation_grades", "_derivations", "_odd_bits", "_cache",
                 "_core", "_suffix", "_weights", "_reduced", "_blocks",
                 "_certificate")

    def __init__(self, context: AlgebraContext, relations: Sequence[Element],
                 differential: dict[int, Element], name: str = "",
                 params: Optional[dict] = None):
        ngen = len(context.generators)
        for g in differential:
            if g not in range(ngen):
                raise PresentationError(f"differential key {g!r} is not a "
                                        f"generator index 0..{ngen - 1}")
        # coefficients into their exact form (int where integral)
        relations = tuple(rel.context.element(rel.terms) for rel in relations)
        differential = {g: img.context.element(img.terms)
                        for g, img in differential.items()
                        if img is not None and not img.is_zero()}
        grades = []
        for rel in relations:
            if rel.context is not context:
                raise PresentationError(
                    f"relation {rel!r} lives in another algebra")
            if rel.is_zero():
                raise PresentationError("zero relation")
            try:
                grades.append((rel.degree(), rel.weight()))
            except AlgebraError:
                raise PresentationError(
                    f"relation not homogeneous: {rel!r}") from None
        for g, img in differential.items():
            spec = context.generators[g]
            if img.context is not context:
                raise PresentationError(
                    f"d({spec.label}) lives in another algebra")
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
        self._setup(context, relations, tuple(grades), differential,
                    name or "presentation", dict(params or {}))

    def _setup(self, context, relations, grades, differential, name,
               params) -> None:
        """Fill the slots from checked, exact relations and differential."""
        self.context = context
        self.relations = relations
        self.differential = differential
        self.name = name
        self.params = params
        self._relation_grades = grades
        self._cache: dict = {}
        self._core: Optional[Presentation] = None
        # per suffix degree: its monomials as (exponents, weight, last
        # generator), and their exponents grouped by weight
        self._suffix: list = []
        self._weights: dict = {}
        self._reduced: Optional[Presentation] = None
        # d of core slices, d of suffix monomials, multiplication operators,
        # pivot columns of the top ranked slice of each weight; analysis adds
        # core slices' images under the S_r actions
        self._blocks: dict = {}
        # verify_d_squared's check of the relations and generators
        self._certificate: Optional[VerificationReport] = None
        self._odd_bits = tuple(1 << i if odd else 0
                               for i, odd in enumerate(context.gen_parities))
        self._derivations = self._derivation_tables()

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
                rels = tuple(Element(ctx, {Monomial(b, e[:ngen]): c
                                           for (b, e), c in rel.terms.items()})
                             for rel in self.relations)
                self._core = Presentation.__new__(Presentation)
                self._core._setup(ctx, rels, self._relation_grades, {},
                                  f"core of {self.name}", {})
        return self._core

    def _suffix_monomials(self, degree: int) -> dict[int, list]:
        """Exponent vectors of the monomials of the given degree in the
        generators after the core, grouped by weight; the weights in
        order of their first monomial, each list in lexicographic order.

        Each degree is built once, from the lower ones: a monomial is
        reached from its last generator g, as g times a monomial of
        degree - |g| in the generators before g, or up to g when g is
        even.
        """
        walk = self._suffix
        if degree < len(walk):
            return walk[degree][1]
        gens = self.context.generators[len(self.core.context.generators):]
        for d in range(len(walk), degree + 1):
            # (exponents, weight, index of the last generator)
            made = [((0,) * len(gens), 0, -1)] if d == 0 else []
            for j, g in enumerate(gens):
                if g.degree > d:
                    continue
                for e, w, last in walk[d - g.degree][0]:
                    if last < j or (last == j and not g.odd):
                        made.append((e[:j] + (e[j] + 1,) + e[j + 1:],
                                     w + g.weight, j))
            made.sort()
            grouped: dict = {}
            for e, w, _ in made:
                grouped.setdefault(w, []).append(e)
            walk.append((made, grouped))
        return walk[degree][1]

    # -- contractible pairs --------------------------------------------------

    @property
    def reduced(self) -> "Presentation":
        """This presentation with its contractible generator pairs cancelled.

        A pair (x, y) of generators after the core with d x = c y + phi,
        c a nonzero multiple of the base unit and neither x nor y in phi,
        is cancelled by setting x = 0 and y = -phi/c.  That is the
        quotient by the d-stable ideal (x, d x), a weight-preserving
        quasi-isomorphism once d^2 = 0 (Felix-Halperin-Thomas, Rational
        Homotopy Theory, section 14).  Pairs are cancelled greedily until
        none is left.  The result shares this presentation's core, and so
        the core's cached slices; with nothing to cancel it is this
        presentation itself.  Built on first use.
        """
        if self._reduced is None:
            self._reduced = self._cancel_pairs()
        return self._reduced

    def _cancel_pairs(self) -> "Presentation":
        ctx = self.context
        core = self.core
        first = len(core.context.generators)
        unit = ctx.base.unit
        diff = {g: img.terms for g, img in self.differential.items()}
        gone: set = set()
        while True:
            pair = _contractible_pair(diff, first, unit)
            if pair is None:
                break
            x, y, c, phi = pair
            psi = ctx.element({m: rat(-v, c) for m, v in phi.items()})
            del diff[x]
            diff.pop(y, None)
            gone.update((x, y))
            for g, terms in diff.items():
                if any(m.exps[x] or m.exps[y] for m in terms):
                    diff[g] = _substitute(ctx, terms, x, y, psi)
        if not gone:
            return self
        keep = [i for i in range(len(ctx.generators)) if i not in gone]
        slot = {g: i for i, g in enumerate(keep)}
        rctx = AlgebraContext(ctx.base, [ctx.generators[i] for i in keep])
        # relations live in the core's generators, before every gone slot
        n = len(keep)
        rels = tuple(Element(rctx, {Monomial(b, e[:n]): v
                                    for (b, e), v in rel.terms.items()})
                     for rel in self.relations)
        red_diff = {slot[g]: rctx.element({
            Monomial(b, tuple(map(e.__getitem__, keep))): v
            for (b, e), v in terms.items()})
            for g, terms in diff.items() if terms}
        red = Presentation.__new__(Presentation)
        red._setup(rctx, rels, self._relation_grades, red_diff,
                   f"{self.name}, reduced", dict(self.params))
        red._core = core
        red._reduced = red
        return red

    # -- differential -------------------------------------------------------

    def _derivation_tables(self) -> tuple:
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
                if prod is None:
                    prod = base.product(b, tb)
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


def _contractible_pair(diff: dict, first: int, unit: int):
    """``(x, y, c, phi)`` for the first generator x >= first whose
    differential ``diff[x]`` is c y + phi with y >= first a generator
    times the base unit and neither x nor y in phi; else None."""
    for x in sorted(diff):
        if x < first:
            continue
        terms = diff[x]
        for m, c in terms.items():
            if m.base != unit or sum(m.exps) != 1:
                continue
            y = m.exps.index(1)
            if y < first:
                continue
            phi = {m2: v for m2, v in terms.items() if m2 != m}
            if not any(m2.exps[x] or m2.exps[y] for m2 in phi):
                return x, y, c, phi
    return None


def _substitute(ctx: AlgebraContext, terms: dict, x: int, y: int,
                psi: Element) -> dict:
    """``terms`` with generator x set to 0 and generator y to ``psi``.

    In a monomial b P y^k S (P the generators before y, S those after),
    moving y^k to the end costs the sign (-1)^(k |y| |S|), so its image
    is that sign times (b P S) psi^k.
    """
    par = ctx.gen_parities
    out = Element(ctx, {m: v for m, v in terms.items()
                        if not m.exps[x] and not m.exps[y]})
    for (b, e), v in terms.items():
        k = e[y]
        if not k or e[x]:
            continue
        if par[y] and sum(e[j] for j in range(y + 1, len(e)) if par[j]) & 1:
            v = -v
        image = Element(ctx, {Monomial(b, e[:y] + (0,) + e[y + 1:]): v})
        for _ in range(k):
            image = image * psi
        out = out + image
    return out.terms


@dataclass(frozen=True)
class SliceBasis:
    """Monomial basis of one (degree, weight) slice of a core's quotient.

    ``quotient`` lists the free monomials surviving as a basis (the
    non-pivot columns of the rref of the ideal slice), in canonical
    order; ``rewrite`` is the normal-form projector sending each pivot
    monomial to its expansion in surviving monomials.  As a slice of the
    presentation itself it is the one block at the empty suffix
    monomial.
    """

    degree: int
    weight: int
    quotient: tuple[Monomial, ...]
    rewrite: dict
    index: dict = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.quotient)

    @property
    def blocks(self) -> tuple:
        return (((), self, 0),)

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


class FactoredSlice:
    """One (degree, weight) slice of a presentation with a relation-free
    suffix, as a view over its core's slices.

    ``blocks`` lists (u, core slice, offset) for the suffix monomials u
    in ``Presentation._suffix_monomials`` order (suffix degree, then
    weight, then exponents) whose core slice at (degree - |u|,
    weight - wt u) is nonempty; block u holds that slice times u, in the
    slice's order, from coordinate ``offset`` on.  Its basis as a set,
    and every normal form, are the ones eliminating the whole free slice
    gives.  ``quotient`` and ``index`` are built on first read.
    """

    def __init__(self, degree: int, weight: int,
                 core: Presentation, context: AlgebraContext, blocks: tuple):
        self.degree = degree
        self.weight = weight
        self.blocks = blocks
        self.dim = sum(sl.dim for _, sl, _ in blocks)
        self._core = core
        self._context = context
        self._at = {u: (sl, off) for u, sl, off in blocks}

    @cached_property
    def quotient(self) -> tuple[Monomial, ...]:
        return tuple(Monomial(b, e + u) for u, sl, _ in self.blocks
                     for b, e in sl.quotient)

    @cached_property
    def index(self) -> dict:
        return {m: i for i, m in enumerate(self.quotient)}

    def _empty_block(self, u: tuple) -> SliceBasis:
        """The core slice of a suffix monomial u that has no block: an
        empty one, where every monomial reduces to zero."""
        du, wu = _suffix_grade(self._context,
                               len(self._core.context.generators), u)
        d, w = self.degree - du, self.weight - wu
        if d < 0 or w < 0:
            raise AlgebraError(f"monomial outside slice (degree "
                               f"{self.degree}, weight {self.weight})")
        return quotient_slice(self._core, d, w)

    def coords(self, terms: dict) -> dict[int, object]:
        """Normal form in coordinates of the quotient basis.

        Each monomial's core part is rewritten in its block's core slice;
        a Monomial is a NamedTuple, so the plain tuple (b, e) finds it.
        """
        n = len(self._core.context.generators)
        out: dict[int, object] = {}
        for (b, e), c in terms.items():
            if not c:
                continue
            hit = self._at.get(e[n:])
            if hit is None:
                # checks that the monomial lies in the slice
                self._empty_block(e[n:]).coords({Monomial(b, e[:n]): c})
                continue
            sl, off = hit
            m = (b, e[:n])
            rw = sl.rewrite.get(m)
            if rw is None:
                j = sl.index.get(m)
                if j is None:
                    raise AlgebraError(f"monomial outside slice (degree "
                                       f"{self.degree}, weight {self.weight})")
                j += off
                out[j] = out.get(j, 0) + c
            else:
                for m2, c2 in rw.items():
                    j = off + sl.index[m2]
                    out[j] = out.get(j, 0) + c * c2
        return {j: v for j, v in out.items() if v}

    def reduce(self, terms: dict) -> dict:
        """Normal form of a free-slice element, as Monomial -> Q."""
        quotient = self.quotient
        return {quotient[j]: c for j, c in self.coords(terms).items()}


def ideal_slice(p: Presentation, degree: int, weight: int) -> SparseMatrix:
    """Matrix whose rows span the (degree, weight) piece of the ideal.

    Rows are the products relation * monomial over all relations and all
    free monomials of complementary degree and weight, expressed in the
    canonical monomial basis of the slice.  Built on each call, not
    cached: :func:`quotient_slice` caches the slice its rref gives.
    """
    if degree < 0:
        raise AlgebraError("ideal_slice: degree must be >= 0")
    ctx = p.context
    cols = ctx.monomials_of(degree, weight)
    colmap = {m: i for i, m in enumerate(cols)}
    rows: list[dict[int, object]] = []
    for rel, (rd, rw) in zip(p.relations, p._relation_grades):
        md, mw = degree - rd, weight - rw
        if md < 0 or mw < 0:
            continue
        for mono in ctx.monomials_of(md, mw):
            acc: dict[Monomial, object] = {}
            for mr, cr in rel.terms.items():
                ctx.mul_term_into(acc, mr, cr, mono, ONE)
            row = {colmap[m]: c for m, c in acc.items() if c}
            if row:
                rows.append(row)
    return SparseMatrix.from_rows(len(rows), len(cols), rows)


def quotient_slice(p: Presentation, degree: int,
                   weight: int) -> SliceBasis | FactoredSlice:
    """Deterministic basis + projector for one slice of the quotient.

    The core's slices are :class:`SliceBasis` objects from the rref of
    their ideal slice.  Any other presentation's slice is a
    :class:`FactoredSlice`: the union over monomials u in its
    relation-free suffix of the core's slice at (degree - |u|,
    weight - wt u) times u.  The ideal slice is block-diagonal in u with
    those blocks, so the basis as a set and every normal form are the
    ones the rref of the whole ideal slice would give; the basis is in
    block order, not in canonical order.
    """
    core = p.core

    def eliminate():
        free = p.context.monomials_of(degree, weight)
        ideal = ideal_slice(p, degree, weight)
        if not ideal.nrows:
            return SliceBasis(degree, weight, free, {},
                              {m: i for i, m in enumerate(free)})
        res = rref(ideal)
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
        return FactoredSlice(degree, weight, core, p.context, tuple(blocks))

    return p._cached(("slice", degree, weight),
                     eliminate if core is p else factor)


def _suffix_grade(ctx: AlgebraContext, n: int, u: tuple) -> tuple[int, int]:
    """(degree, weight) of the monomial in the generators after the
    first n of ``ctx`` with exponents u."""
    return (sum(x * d for x, d in zip(u, ctx.gen_degrees[n:])),
            sum(x * w for x, w in zip(u, ctx.gen_weights[n:])))


def _core_differential(p: Presentation, sl: SliceBasis) -> tuple:
    """d in p of the basis monomials of the core slice ``sl``.

    d(m) = sum_s kappa_s s over suffix monomials s, kappa_s in the core's
    free algebra.  Lists (i, ((s, coordinates of nf(kappa_s) in its core
    slice), ...)) for the basis monomials m_i with d(m_i) != 0 in the
    quotient.  Cached in p, per core slice.
    """
    key = ("d", sl.degree, sl.weight)
    hit = p._blocks.get(key)
    if hit is None:
        core = p.core
        n = len(core.context.generators)
        pad = (0,) * (len(p.context.generators) - n)
        rows = []
        for i, (b, e) in enumerate(sl.quotient):
            image: dict = {}
            p._leibniz_into(image, Monomial(b, e + pad), 1)
            parts: dict = {}
            for (b2, e2), c in image.items():
                parts.setdefault(e2[n:], {})[Monomial(b2, e2[:n])] = c
            terms = []
            for s, part in parts.items():
                ds, ws = _suffix_grade(p.context, n, s)
                tgt = quotient_slice(core, sl.degree + 1 - ds,
                                     sl.weight - ws)
                coords = tgt.coords(part)
                if coords:
                    terms.append((s, coords))
            if terms:
                rows.append((i, tuple(terms)))
        hit = p._blocks[key] = tuple(rows)
    return hit


def _suffix_differential(p: Presentation, u: tuple) -> tuple:
    """d(u) = sum c kappa u' for a suffix monomial u, as (c, kappa, u')
    with kappa a monomial of the core's free algebra.  Cached in p."""
    key = ("du", u)
    hit = p._blocks.get(key)
    if hit is None:
        n = len(p.core.context.generators)
        image: dict = {}
        p._leibniz_into(image, Monomial(p.context.base.unit,
                                        (0,) * n + u), 1)
        hit = p._blocks[key] = tuple((c, Monomial(b, e[:n]), e[n:])
                                     for (b, e), c in image.items())
    return hit


def _multiplication(core: Presentation, kappa: Monomial,
                    sl: SliceBasis) -> tuple:
    """(i, coordinates of nf(m_i kappa)) for the basis monomials m_i of
    the core slice ``sl`` with m_i kappa != 0 in the quotient.  Cached in
    the core, which a presentation and its reduced model share."""
    key = ("mul", kappa, sl.degree, sl.weight)
    hit = core._blocks.get(key)
    if hit is None:
        ctx = core.context
        tgt = quotient_slice(core, sl.degree + ctx.monomial_degree(kappa),
                             sl.weight + ctx.monomial_weight(kappa))
        rows = []
        for i, m in enumerate(sl.quotient):
            acc: dict = {}
            ctx.mul_term_into(acc, m, 1, kappa, 1)
            coords = tgt.coords(acc)
            if coords:
                rows.append((i, coords))
        hit = core._blocks[key] = tuple(rows)
    return hit


def _suffix_product(parities: tuple, s: tuple, u: tuple):
    """``(sign, exponents)`` with s u = sign * y^exponents for suffix
    monomials s and u (parities of the suffix generators), or None when
    an odd generator repeats."""
    sign = 0
    odd_after = 0
    for i in range(len(s) - 1, -1, -1):
        if parities[i]:
            if s[i] and u[i]:
                return None
            if u[i]:
                sign += odd_after
            if s[i]:
                odd_after += 1
    return (-1 if sign & 1 else 1), tuple(a + b for a, b in zip(s, u))


def _assemble(p: Presentation, src, tgt, skip=frozenset()) -> list[dict]:
    """Rows of d from the slice ``src`` to the slice ``tgt`` above it.

    Row i holds the coordinates of d(basis monomial i) in ``tgt``, with
    explicit zeros and entries not in ``rat.exact`` form; the rows in
    ``skip`` are left empty.  Each source block is a core slice times a
    suffix monomial u, and d(m u) = d(m) u + (-1)^|m| m d(u): the first
    term is the cached d of the core slice moved to the blocks s u, the
    second the core's cached multiplication by each kappa of
    d(u) = sum kappa u' placed in the blocks u'.  A presentation that is
    its own core has the one block u = ().
    """
    rows: list[dict] = [{} for _ in range(src.dim)]
    core = p.core
    parities = p.context.gen_parities[len(core.context.generators):]
    offsets = {u: off for u, _, off in tgt.blocks}
    for u, sl, off in src.blocks:
        if not sl.dim:
            continue
        # s -> (sign of s u, offset of block s u), or None if s u = 0
        shifts: dict = {}
        for i, terms in _core_differential(p, sl):
            if off + i in skip:
                continue
            row = rows[off + i]
            for s, coords in terms:
                if s not in shifts:
                    prod = _suffix_product(parities, s, u)
                    shifts[s] = prod and (prod[0], offsets[prod[1]])
                if shifts[s] is None:
                    continue
                sign, toff = shifts[s]
                for j, v in coords.items():
                    j += toff
                    row[j] = row.get(j, 0) + (v if sign > 0 else -v)
        odd = sl.degree & 1
        for c, kappa, u2 in _suffix_differential(p, u):
            toff = offsets.get(u2)
            if toff is None:
                continue  # the core slice of m kappa is empty
            if odd:
                c = -c
            for i, coords in _multiplication(core, kappa, sl):
                if off + i in skip:
                    continue
                row = rows[off + i]
                for j, v in coords.items():
                    j += toff
                    row[j] = row.get(j, 0) + c * v
    return rows


def differential_matrix(p: Presentation, degree: int,
                        weight: int) -> SparseMatrix:
    """Matrix of d from slice (degree, weight) to (degree+1, weight).

    Row i holds the coordinates of d(basis monomial i) in the target
    quotient basis, in ``rat.exact`` form; see :func:`_assemble`.
    Cached; neither :func:`cohomology` nor the isotypic ranks use it.
    """

    def build():
        src = quotient_slice(p, degree, weight)
        tgt = quotient_slice(p, degree + 1, weight)
        mat = SparseMatrix(src.dim, tgt.dim)
        if tgt.dim:
            mat.rows = [{j: v if type(v) is int else exact(v)
                         for j, v in row.items() if v}
                        for row in _assemble(p, src, tgt)]
        return mat

    return p._cached(("diff", degree, weight), build)


def differential_rank(p: Presentation, degree: int, weight: int) -> int:
    """Rank of d from slice (degree, weight) to (degree + 1, weight).

    Computed bottom-up along the weight's chain with clearing (see the
    module docstring), once d^2 = 0 is certified (raises
    :class:`AlgebraError` if it fails).  Only the rank is cached, not the
    matrix; the pivot columns are kept until the rank above reads them.
    """
    hit = p._cache.get(("rank", degree, weight))
    if hit is not None:
        return hit
    _certify(p)
    # the lowest degree of the chain whose rank is missing, stopping at an
    # empty slice, below which nothing is cleared
    low = degree
    while (low > 0 and ("rank", low - 1, weight) not in p._cache
           and quotient_slice(p, low - 1, weight).dim):
        low -= 1
    for d in range(low, degree + 1):
        src = quotient_slice(p, d, weight)
        tgt = quotient_slice(p, d + 1, weight)
        skip = p._blocks.pop(("pivots", d - 1, weight), ())
        pivots = ()
        if src.dim and tgt.dim:
            pivots = pivot_columns(_assemble(p, src, tgt, skip))
        if pivots:
            p._blocks[("pivots", d, weight)] = pivots
        hit = p._cache[("rank", d, weight)] = len(pivots)
    return hit


class CohomologyTable:
    """dim Gr_k^W H^i as a map (degree, weight) -> nonnegative integer.

    Only the computed range [0, max_degree] is recorded; higher degrees
    are simply absent rather than guessed to be zero.  ``dim(degree)``
    without a weight sums the degree's weights.
    """

    def __init__(self, entries: dict, max_degree: int, model: dict):
        self.entries = {k: v for k, v in entries.items() if v}
        self.max_degree = max_degree
        self.model = dict(model)

    def dim(self, degree: int, weight: Optional[int] = None) -> int:
        if weight is not None:
            return self.entries.get((degree, weight), 0)
        return sum(v for (d, _), v in self.entries.items() if d == degree)

    def dims(self) -> list[int]:
        return [self.dim(i) for i in range(self.max_degree + 1)]

    def weights_at(self, degree: int) -> list[int]:
        return sorted(k for (d, k) in self.entries if d == degree)

    def rows(self) -> list[tuple[int, int, int]]:
        return [(d, k, self.entries[d, k]) for d, k in sorted(self.entries)]

    def __eq__(self, other):
        return (isinstance(other, CohomologyTable)
                and self.entries == other.entries
                and self.max_degree == other.max_degree)

    def __repr__(self):
        return (f"CohomologyTable({self.model.get('name', '?')}, "
                f"dims={self.dims()})")


def _slice_weights(p: Presentation, degree: int) -> list[int]:
    """Weights of the nonempty quotient slices in one degree, cached.

    A slice is the sum over suffix monomials u of core slices at
    (degree - |u|, weight - wt u), so it is nonempty exactly when one of
    those core slices is.
    """
    hit = p._weights.get(degree)
    if hit is None:
        core = p.core
        if core is p:
            ctx = p.context
            weights = {k for k in {ctx.monomial_weight(m)
                                   for m in ctx.monomials_of(degree)}
                       if quotient_slice(p, degree, k).dim}
        else:
            weights = set()
            for du in range(degree + 1):
                for wu in p._suffix_monomials(du):
                    weights.update(k + wu
                                   for k in _slice_weights(core, degree - du))
        hit = p._weights[degree] = sorted(weights)
    return hit


def cohomology(p: Presentation, max_degree: int,
               by_weight: bool = True) -> CohomologyTable:
    """Bigraded cohomology dimensions of the quotient CDGA up to max_degree.

    Computed on ``p.reduced``, which has the same cohomology, one weight
    at a time (the differential preserves weights); the table carries
    ``p``'s name and parameters.  Raises :class:`AlgebraError` when the
    check of :func:`verify_d_squared` fails, since the ranks rely on
    d^2 = 0, and for ``by_weight=False``: there is no whole-degree
    computation.  ``by_weight`` stays only because the benchmark passes
    it; a change to the benchmark can drop it.
    """
    if max_degree < 0:
        raise AlgebraError("cohomology: max_degree must be >= 0")
    if not by_weight:
        raise AlgebraError("cohomology: only by_weight=True is supported")
    _certify(p)
    q = p.reduced
    # d^2 = 0 on p gives it on its quotient by a d-stable ideal, and q has
    # p's relations
    q._certificate = p._certificate
    entries: dict = {}
    for d in range(max_degree + 1):
        for k in _slice_weights(q, d):
            r_out = differential_rank(q, d, k)
            r_in = differential_rank(q, d - 1, k) if d > 0 else 0
            entries[(d, k)] = quotient_slice(q, d, k).dim - r_out - r_in
    model = {"name": p.name, **p.params}
    return CohomologyTable(entries, max_degree, model)


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


def _normal_form(p: Presentation, terms: dict) -> dict:
    """Normal form of a homogeneous element of p's free algebra.

    A monomial is a core monomial times a monomial u in the relation-free
    suffix; the part at each u is reduced in the core's slice of its
    (degree, weight), so no slice of p is built.
    """
    ctx = p.core.context
    n = len(ctx.generators)
    parts: dict = {}
    for (b, e), c in terms.items():
        parts.setdefault(e[n:], {})[Monomial(b, e[:n])] = c
    out = {}
    for u, part in parts.items():
        m = next(iter(part))
        sl = quotient_slice(p.core, ctx.monomial_degree(m),
                            ctx.monomial_weight(m))
        for (b, e), c in sl.reduce(part).items():
            out[Monomial(b, e + u)] = c
    return out


def _generator_check(p: Presentation) -> VerificationReport:
    """d of every relation, then d^2 of every generator, reduced to
    normal form: the first failure's report, or an ok report counting
    the relations.  Cached in p."""
    if p._certificate is None:
        p._certificate = _check_generators(p)
    return p._certificate


def _check_generators(p: Presentation) -> VerificationReport:
    ctx = p.context
    for i, rel in enumerate(p.relations):
        drel = p.differential_of(rel)
        residual = _normal_form(p, drel.terms)
        if residual:
            return VerificationReport(
                False, i + 1, "relation", drel.degree(), drel.weight(),
                repr(rel), "d(relation) not in ideal: "
                + repr(Element(ctx, residual)))
    for g, dg in sorted(p.differential.items()):
        residual = _normal_form(p, p.differential_of(dg).terms)
        if residual:
            spec = ctx.generators[g]
            return VerificationReport(
                False, len(p.relations), "d_squared", spec.degree,
                spec.weight, spec.label,
                f"d(d({spec.label})) = {Element(ctx, residual)!r}")
    return VerificationReport(True, len(p.relations))


def _certify(p: Presentation) -> None:
    """Raise :class:`AlgebraError` unless d^2 = 0 on p's quotient."""
    report = _generator_check(p)
    if not report.ok:
        raise AlgebraError(f"{p.name}: d is not a differential on the "
                           f"quotient: {report.message()}")


def verify_d_squared(p: Presentation, max_degree: int) -> VerificationReport:
    """Certificate that d is a differential on the quotient CDGA.

    d(relation) must reduce to zero for every relation, so d(ideal) lies
    in the ideal and d descends to the quotient.  d^2 = [d, d]/2 is then
    a derivation of the quotient, zero on the base, so d^2 = 0 in every
    degree once d(d(g)) reduces to zero for every generator g.  Failures
    are reported, not raised: the first failing relation or generator and
    its nonzero normal form.  ``slices_checked`` counts the relations and
    the nonempty (degree, weight) quotient slices of degree <= max_degree.
    The check of relations and generators is cached in p, where
    :func:`cohomology` and :func:`differential_rank` read it.
    """
    if max_degree < 0:
        raise AlgebraError("verify: max_degree must be >= 0")
    report = _generator_check(p)
    if not report.ok:
        return report
    slices = sum(len(_slice_weights(p, d)) for d in range(max_degree + 1))
    return VerificationReport(True, len(p.relations) + slices)
