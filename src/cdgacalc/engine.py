"""Quotient CDGAs and their bigraded cohomology, slice by slice.

A :class:`Presentation` is a free graded-commutative algebra (an
:class:`~cdgacalc.algebra.AlgebraContext`) together with a finite list of
homogeneous relations and a degree +1, weight 0 differential given on
generators (zero on the base).  Because the algebra is graded-commutative,
one-sided products relation*monomial span each graded piece of the
two-sided ideal, so no Groebner machinery is needed: the normal form in
every (degree, weight) slice is plain exact linear algebra.

Only a presentation's *core* needs a normal form: the sub-presentation
over the generators up to the last one that occurs in some relation
(built on first use; the presentation itself when no generator
follows).  The generators after it form a relation-free suffix, and
multiplying by a monomial u in them adds no sign, so every ideal slice
is block-diagonal in u and each block is a core ideal slice of lower
(degree, weight).  A quotient slice is therefore a view,
:class:`FactoredSlice`: blocks (u, core slice, offset) with u in suffix
order and the core's order inside each block.  Its basis as a set and
every normal form are those of eliminating the whole free slice; the
free slices of a model with a suffix are never enumerated, and its basis
monomials are only made when something reads them.  The suffix
monomials u come from :func:`~cdgacalc.algebra.monomial_walk`, the walk
that also lists the free slices of a context.  Each core keeps an index,
degree -> {weight: nonempty core slice}, built per degree on first use: the
blocks of a factored slice, the weights of a degree's slices and the
verify count all read it, and a closed-form core fills it from its
basis, so no empty core slice is built.

A core slice is a :class:`SliceBasis` made one of two ways.  The core of
every built-in model is the Kriz-Totaro algebra of a configuration
space, and the model builders attach its closed form
(``models.ConfigurationCore``): each slice's basis is listed from NBC
monomials, with no enumeration of the free slice and no elimination, and
a monomial outside the basis gets its normal form by straightening when
something first reduces it.  That basis is the set of non-pivot columns
the rref of the ideal slice would give, in the same order, so every
coordinate, matrix and rank is the one elimination gives.  Any other
core, and any presentation built by hand, takes the rref of its ideal
slice.  Either way one routine, :meth:`SliceBasis.add_normal_form`,
reduces every monomial: through the slice's rewrite table, its basis,
then its closed form.  A :class:`FactoredSlice` splits each monomial
into its core part and suffix part u and hands the core parts to block
u's core slice, with the block's offset.

The differential matrix is assembled from
d(m u) = d(m) u + (-1)^|m| m d(u), one source block at a time, from
three cached tables.  d of each core slice's basis is cached per slice,
as flat (i, j, v) entries per suffix monomial.  d(u) of a suffix
monomial comes from suffix-local derivation tables, compiled once per
presentation: each term of d of a suffix generator keeps its core
monomial kappa, its suffix exponents, and its odd and sign masks shifted
past the core's generators.  Each core slice keeps a table kappa ->
multiplication operator, in the same entries, which a presentation and
its reduced model share through the core.  One loop adds both terms
into the rows.  The weights of a degree's slices need no suffix
monomial: a reachability table gives the weights the suffix monomials
of each degree reach, each odd generator used at most once, and it
grows only when a higher degree is asked for.

Cohomology is computed on a presentation's *reduced* model.  First each
free exterior factor is split off: an odd closed suffix generator s
whose every occurrence in d is c d(h s) for a generator h, so that
g -> g - c h s removes it from d and A = A/(s) (x) Lambda(s) as CDGAs;
the table of A/(s) is tensored back with Lambda(s).  Then every pair of
suffix generators (x, y) with d x = c y + phi, c a nonzero scalar and
neither x nor y in phi, is cancelled by x = 0, y = -phi/c.  That is a
weight-preserving quasi-isomorphism.  On the section and twisted models
the two steps remove s[1], eta_1 and s[X], and with them most of every
large slice.  The reduced model shares the core and its cached slices.
The S_r actions, the character-weighted Euler series and the weightwise
Euler series stay on the model as built; the isotypic ranks split off
only the factors that every action fixes.

d^2 = 0 is certified on generators, not slice by slice: once d maps
every relation into the ideal, d^2 is a derivation of the quotient, so
it vanishes in every degree when it vanishes on each generator.  Each
such normal form is reduced through the core's slices.  The check is
cached per presentation; ranks rely on it and raise when it fails.

A presentation normalizes its coefficients once (``rat.exact``) and
compiles L d on generators into derivation tables, L the lcm of the
denominators of d's coefficients, so d of a monomial is table lookups
and Koszul sign flips in one Leibniz loop, ``_leibniz``, which reads
the whole tables for a free monomial and the suffix-local ones for a
suffix monomial, in ``int`` arithmetic whenever the relations are
integral (every built-in model, whatever its class c).  Everything the
engine assembles from the tables is L d: the rows of a slice share the
factor, so ranks, pivot columns and the d^2 check are those of d, and
only :meth:`Presentation.differential_of`, :func:`differential_matrix`
and a failure witness divide it back.

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
One routine, ``_cleared_rank``, ranks every chain and one loop,
``_entries``, reads the table off the ranks: :func:`differential_rank`
and :func:`cohomology` hand them the assembler's rows, and the
isotypic ranks of :mod:`~cdgacalc.analysis` the rows of their
restricted maps.  The rows go straight into the elimination, without a
matrix.

Slices and ranks are cached per presentation and keyed by (degree,
weight); the blocks differentials are assembled from, and the pivot
columns of each chain's top rank until the rank above reads them, are
cached apart.  A closed-form core slice keeps the normal forms it has
computed.  Ideal slices are not cached: only the core slice made from
each one's rref is kept, and a closed-form core builds none.  Neither
``cohomology`` nor the isotypic ranks of :mod:`~cdgacalc.analysis`
build a differential matrix: both take their rows from the assembler.
:func:`differential_matrix` is for library callers, and caches what it
builds.  Results are deterministic because the reduced row echelon form,
the monomial order and the block order are canonical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import lcm
from typing import Callable, Optional, Sequence

from .algebra import (AlgebraContext, AlgebraError, Element, Monomial,
                      monomial_walk)
from .linalg import SparseMatrix, pivot_columns, rref
from .rat import ONE, rat


class PresentationError(AlgebraError):
    """Malformed presentation: inhomogeneous relation or differential, or
    input outside its algebra."""


class Presentation:
    """Free context + homogeneous relations + generator differential."""

    __slots__ = ("context", "relations", "differential", "name", "params",
                 "_relation_grades", "_derivations", "_scale", "_odd_bits",
                 "_cache", "_core", "_suffix", "_support", "_suffix_terms",
                 "_weights", "_nonempty", "_reduced", "_factors", "_blocks",
                 "_certificate", "_closed_form")

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
        # monomial_walk's memo of the suffix monomials per degree, and
        # _suffix_support's table of the weights they reach
        self._suffix: list = []
        self._support: list = []
        # _suffix_tables: d on the suffix generators, local to the suffix
        self._suffix_terms = None
        self._weights: dict = {}
        # _core_slices' index of a core: degree -> {weight: nonempty slice}
        self._nonempty: dict = {}
        self._reduced: Optional[Presentation] = None
        # (degree, weight) of the free exterior factors the reduced model
        # splits off, which cohomology tensors back
        self._factors: tuple = ()
        # d of core slices, d of suffix monomials, multiplication operators,
        # pivot columns of the top ranked slice of each weight; analysis adds
        # core slices' images under the S_r actions, suffix orbits and the
        # model split by the free factors a subgroup fixes
        self._blocks: dict = {}
        # verify_d_squared's check of the relations and generators
        self._certificate: Optional[VerificationReport] = None
        # the closed-form basis and normal form of a configuration core,
        # which the model builders attach (see models.ConfigurationCore)
        self._closed_form = None
        self._odd_bits = tuple(1 << i if odd else 0
                               for i, odd in enumerate(context.gen_parities))
        self._scale, self._derivations = self._derivation_tables()

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

        It has the same base and relations (exponent vectors truncated),
        no differential, and this presentation's closed form, if any.  The
        remaining generators are a relation-free suffix, so a monomial u in
        them multiplies a core slice without sign and every slice of this
        presentation is a sum of core slices times such u.  Built on first
        use; with an empty suffix it is this presentation itself.
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
                self._core._closed_form = self._closed_form
        return self._core

    def _suffix_monomials(self, degree: int) -> dict[int, list]:
        """Exponent vectors of the monomials of the given degree in the
        generators after the core, grouped by weight: the weights in
        order of their first monomial, each list in lexicographic order
        (:func:`~cdgacalc.algebra.monomial_walk`)."""
        if degree >= len(self._suffix):
            gens = self.context.generators[len(self.core.context.generators):]
            monomial_walk(gens, self._suffix, degree)
        return self._suffix[degree][1]

    # -- contractible pairs --------------------------------------------------

    @property
    def reduced(self) -> "Presentation":
        """This presentation with its free exterior factors split off and
        its contractible generator pairs cancelled.

        First a generator s splits off when all of these hold, exactly
        over Q: s is odd, comes after the core and d(s) = 0; each generator
        g whose d(g) has a term containing s comes after the core (so
        occurs in no relation) and occurs in no term of any differential;
        and for each such g a generator h with no s in d(h), so none of
        the g, and a c in Q^x make the terms of d(g) containing s equal
        c d(h s), formed by the algebra's product.  Then phi(g) = g - c h s,
        the identity on every other generator, is an automorphism that
        fixes the relations, and phi^-1 d phi is d with every term
        containing s dropped: as d(h s) = d(h) s, phi^-1 d phi(g) =
        phi^-1(d(g) - c d(h) s) is the part of d(g) free of s, which holds
        no g, and no other generator's d holds s or a g.  So p is
        (p/(s), d') (x) (Lambda(s), 0), with d' the differential p/(s)
        inherits, and H(p) = H(p/(s)) (x) Lambda(s).  Candidates are tested
        in order, each on the d the earlier ones left.  The (degree,
        weight) of each s is recorded in this presentation's ``_factors``,
        for :func:`cohomology` to tensor back; the reduced model records
        none.  On the section and twisted models s[1] splits off
        (h = alpha_i, c = 1, or 1/e[X] when twisted), and half of every
        slice with it.

        Then a pair (x, y) of generators after the core with
        d x = c y + phi, c a nonzero multiple of the base unit and neither
        x nor y in phi, is cancelled by setting x = 0 and y = -phi/c.  That
        is the quotient by the d-stable ideal (x, d x), a weight-preserving
        quasi-isomorphism once d^2 = 0 (Felix-Halperin-Thomas, Rational
        Homotopy Theory, section 14).  Pairs are cancelled greedily until
        none is left.  The result shares this presentation's core, and so
        the core's cached slices; with nothing to split or cancel it is
        this presentation itself.  Built on first use.
        """
        if self._reduced is None:
            self._reduced = self._cancel_pairs()
        return self._reduced

    def _cancel_pairs(self) -> "Presentation":
        ctx = self.context
        first = len(self.core.context.generators)
        unit = ctx.base.unit
        diff = {g: img.terms for g, img in self.differential.items()}
        split = _free_generators(ctx, diff, first,
                                 range(first, len(ctx.generators)))
        gone = set(split)
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
        self._factors = tuple((ctx.gen_degrees[s], ctx.gen_weights[s])
                              for s in split)
        red = self._without(gone, diff, f"{self.name}, reduced")
        red._reduced = red
        return red

    def _without(self, gone: set, diff: dict, name: str) -> "Presentation":
        """This presentation without the generators in ``gone``, all after
        the core, and with d from ``diff`` (generator -> terms), in whose
        terms no gone generator occurs.  It shares the core, and so the
        core's cached slices."""
        ctx = self.context
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
        red._setup(rctx, rels, self._relation_grades, red_diff, name,
                   dict(self.params))
        red._core = self.core
        return red

    # -- differential -------------------------------------------------------

    def _derivation_tables(self) -> tuple:
        """``(L, tables)`` for L d, with L the lcm of the denominators of
        d's coefficients on generators (1 for an integer presentation):
        ``(i, terms)`` per generator with d(g_i) != 0.

        A term c b x^f of d(g_i) becomes (b, nonzero (generator, exponent)
        pairs of f, the ``int`` L c, bit mask of f's odd generators, sign
        mask).
        """
        parities = self.context.gen_parities
        base_degrees = self.context.base.degrees
        scale = lcm(1, *(c.denominator for img in self.differential.values()
                         for c in img.terms.values()))
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
                terms.append((m.base, f_items,
                              c.numerator * (scale // c.denominator),
                              f_odd, sign_mask))
            tables.append((i, tuple(terms)))
        return scale, tuple(tables)

    def _leibniz_into(self, acc: dict, mono: Monomial, coeff) -> None:
        """Accumulate ``coeff * L d(mono)`` into ``acc`` (Monomial -> Q),
        with L = ``self._scale``: each term of :func:`_leibniz` times the
        product of mono's base class and the term's."""
        b, e = mono
        base = self.context.base
        for t, tb, exps in _leibniz(self._derivations, self._odd_bits, e,
                                    base.degrees[b] & 1):
            prod = base.table.get((b, tb))
            if prod is None:
                prod = base.product(b, tb)
            t *= coeff
            for k, cb in prod.items():
                m = Monomial(k, exps)
                v = acc.get(m, 0) + t * cb
                if v:
                    acc[m] = v
                else:
                    del acc[m]

    def _scaled_differential(self, terms: dict) -> dict:
        """L d of an element's terms (Monomial -> Q), L = ``self._scale``."""
        acc: dict[Monomial, object] = {}
        for m, c in terms.items():
            self._leibniz_into(acc, m, c)
        return acc

    def differential_of(self, e: Element) -> Element:
        """Leibniz extension of the generator differential (d = 0 on base)."""
        if e.context is not self.context:
            raise AlgebraError("context mismatch: element not in this "
                               "presentation's algebra")
        return Element(self.context, _unscaled(
            self._scaled_differential(e.terms), self._scale))


def _leibniz(tables: tuple, odd_bits: tuple, e: tuple, flip: int):
    """Yield (t, head, exponents) for the terms of L d(b x^e), from
    tables laid out as ``Presentation._derivation_tables``' (a head is a
    base class there, a core monomial in :func:`_suffix_tables`), with
    ``odd_bits`` bit i set for each odd generator i and ``flip`` = |b|.

    For b x^e = b P g_i^k S the g_i term is
    (-1)^(|b|+|P|) k b P d(g_i) g_i^(k-1) S.  Sorting a term h x^f of
    d(g_i) into place costs (-1)^(|h||P|) plus one sign per odd generator
    an odd generator of f passes: with (-1)^|P|, the parity of the rest's
    odd generators under the term's sign mask.  A term whose odd
    generators meet the rest's is zero."""
    odd = sum(bit for bit, x in zip(odd_bits, e) if x)
    for i, terms in tables:
        ei = e[i]
        if not ei:
            continue
        rest_odd = odd & ~(1 << i)
        rest = e[:i] + (ei - 1,) + e[i + 1:]
        for head, f_items, c, f_odd, sign_mask in terms:
            if rest_odd & f_odd:
                continue
            if f_items:
                exps = list(rest)
                for q, x in f_items:
                    exps[q] += x
                exps = tuple(exps)
            else:
                exps = rest
            t = ei * c
            if (flip + (rest_odd & sign_mask).bit_count()) & 1:
                t = -t
            yield t, head, exps


def _unscaled(terms: dict, scale: int) -> dict:
    """``terms`` (key -> Q) divided by ``scale``, zeros dropped, in
    ``rat.exact`` form."""
    return {k: v if scale == 1 and type(v) is int else rat(v, scale)
            for k, v in terms.items() if v}


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


def _free_generators(ctx: AlgebraContext, diff: dict, first: int,
                     candidates) -> list[int]:
    """The generators among ``candidates`` that split off as free
    exterior factors by the rule of :attr:`Presentation.reduced`, in
    order, with ``diff`` (generator -> terms) updated in place to d with
    the terms containing them dropped.  ``first`` is the core's generator
    count.  Only the h whose d has as many terms as the s-part are
    multiplied out.
    """
    parities = ctx.gen_parities
    split = []
    for s in candidates:
        if s < first or not parities[s] or diff.get(s):
            continue
        moved = [g for g, terms in diff.items()
                 if any(m.exps[s] for m in terms)]
        if any(g < first for g in moved) or any(
                m.exps[g] for terms in diff.values() for m in terms
                for g in moved):
            continue
        rests = {}
        for g in moved:
            part = {m: v for m, v in diff[g].items() if m.exps[s]}
            if not any(_is_multiple(part, ctx, terms, s)
                       for terms in diff.values()
                       if len(terms) == len(part)
                       and not any(m.exps[s] for m in terms)):
                break
            rests[g] = {m: v for m, v in diff[g].items() if not m.exps[s]}
        else:
            split.append(s)
            diff.update(rests)
    return split


def _is_multiple(part: dict, ctx: AlgebraContext, terms: dict,
                 s: int) -> bool:
    """Whether ``part`` (Monomial -> Q) is c (``terms``) s for some
    c in Q^x, the product formed in ``ctx``."""
    prod = (Element(ctx, terms) * ctx.gen_element(s)).terms
    if prod.keys() != part.keys():
        return False
    m = next(iter(part))
    c = rat(part[m], prod[m])
    return all(v == c * prod[k] for k, v in part.items())


def _tensor_exterior(entries: dict, factors: tuple, max_degree: int) -> dict:
    """(d, k) -> dim of the table ``entries`` tensored with Lambda(s) for
    each (|s|, wt s) in ``factors``: H(d, k) + H(d - |s|, k - wt s), up
    to max_degree."""
    for ds, ws in factors:
        out = dict(entries)
        for (d, k), v in entries.items():
            if d + ds <= max_degree:
                out[(d + ds, k + ws)] = out.get((d + ds, k + ws), 0) + v
        entries = out
    return entries


@dataclass(frozen=True)
class SliceBasis:
    """Monomial basis of one (degree, weight) slice of a core's quotient.

    ``quotient`` lists the free monomials surviving as a basis (the
    non-pivot columns of the rref of the ideal slice), in canonical
    order; ``rewrite`` is the normal-form projector sending a non-basis
    monomial to its expansion in surviving monomials.  From the rref it
    holds every pivot monomial.  A core with a closed form (``closed``)
    lists the same basis without elimination and fills ``rewrite`` from
    the closed normal form as monomials are reduced.  As a slice of the
    presentation itself it is the one block at the empty suffix
    monomial.
    """

    degree: int
    weight: int
    quotient: tuple[Monomial, ...]
    rewrite: dict
    index: dict = field(repr=False)
    closed: object = field(default=None, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.quotient)

    @property
    def blocks(self) -> tuple:
        return (((), self, 0),)

    def add_normal_form(self, out: dict, terms, offset: int = 0) -> dict:
        """Add the normal form of ``terms``, (monomial, coefficient) pairs
        of this slice, into ``out`` as basis coordinates from ``offset``
        on; zeros are left in.  The one place a monomial is reduced: by
        ``rewrite``, else as a basis monomial, else by the closed form,
        whose result ``rewrite`` keeps.  A monomial may be a plain
        (base, exponents) tuple; raises :class:`AlgebraError` for one
        outside the slice."""
        rewrite, index = self.rewrite, self.index
        for m, c in terms:
            if not c:
                continue
            rw = rewrite.get(m)
            if rw is None:
                j = index.get(m)
                if j is not None:
                    j += offset
                    out[j] = out.get(j, 0) + c
                    continue
                if self.closed is not None:
                    rw = self.closed.normal_form(m, self.degree, self.weight)
                if rw is None:
                    raise AlgebraError(
                        f"monomial outside slice (degree {self.degree}, "
                        f"weight {self.weight})")
                rewrite[Monomial(*m)] = rw
            for m2, c2 in rw.items():
                j = offset + index[m2]
                out[j] = out.get(j, 0) + c * c2
        return out

    def coords(self, terms: dict) -> dict[int, object]:
        """Normal form in coordinates of the quotient basis."""
        out = self.add_normal_form({}, terms.items())
        return {j: v for j, v in out.items() if v}

    def reduce(self, terms: dict) -> dict:
        """Normal form of a free-slice element, as Monomial -> Q."""
        quotient = self.quotient
        return {quotient[j]: c for j, c in self.coords(terms).items()}


class FactoredSlice:
    """One (degree, weight) slice of a presentation with a relation-free
    suffix, as a view over its core's slices.

    ``blocks`` lists (u, core slice, offset) for the suffix monomials u
    in ``Presentation._suffix_monomials`` order (suffix degree, then
    weight, then exponents) whose core slice at (degree - |u|,
    weight - wt u) is nonempty; block u holds that slice times u, in the
    slice's order, from coordinate ``offset`` on.  The slices come from
    the core's index of nonempty slices (:func:`_core_slices`), so no
    empty core slice is built for a closed-form core.  Its basis as a
    set, and every normal form, are the ones eliminating the whole free
    slice gives.  ``quotient`` and ``index`` are built on first read.
    A suffix part without a block must lie in a core slice the index
    does not hold, where it reduces to zero.
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

    def coords(self, terms: dict) -> dict[int, object]:
        """Normal form in coordinates of the quotient basis: each suffix
        part is reduced in its block's core slice, from the block's
        offset on."""
        core = self._core
        n = len(core.context.generators)
        out: dict[int, object] = {}
        for u, part in _split_suffix(terms, n).items():
            hit = self._at.get(u)
            if hit is None:
                du, wu = _suffix_grade(self._context, n, u)
                d, w = self.degree - du, self.weight - wu
                if d < 0 or w in _core_slices(core, d):
                    raise AlgebraError(f"monomial outside slice (degree "
                                       f"{self.degree}, weight {self.weight})")
                # no block: the core slice is empty, and an uncached empty
                # slice checks the part (a generic core has it cached)
                closed = core._closed_form
                (SliceBasis(d, w, (), {}, {}, closed) if closed is not None
                 else quotient_slice(core, d, w)).coords(part)
                continue
            sl, off = hit
            sl.add_normal_form(out, part.items(), off)
        return {j: v for j, v in out.items() if v}

    reduce = SliceBasis.reduce


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

    The core's slices are :class:`SliceBasis` objects: listed by its
    closed form when it has one, else from the rref of their ideal
    slice.  Any other presentation's slice is a :class:`FactoredSlice`:
    the union over monomials u in its relation-free suffix of the core's
    slice at (degree - |u|, weight - wt u) times u.  The walk visits
    only the core degrees where the core's index (:func:`_core_slices`)
    holds a nonempty slice, with |u| rising, and finds the core slice of
    each suffix weight group by one lookup there, so it builds no empty
    core slice.  The ideal slice is block-diagonal in u with those
    blocks, so the basis as a set and every normal form are the ones the
    rref of the whole ideal slice would give; the basis is in block
    order, not in canonical order.  Cached in p; a cached slice is
    returned before anything else is read.
    """
    key = ("slice", degree, weight)
    hit = p._cache.get(key)
    if hit is not None:
        return hit
    core = p.core

    def eliminate():
        closed = p._closed_form
        if closed is not None:
            quotient = closed.basis(degree).get(weight, ())
            return SliceBasis(degree, weight, quotient, {},
                              {m: i for i, m in enumerate(quotient)}, closed)
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
            slices = _core_slices(core, degree - du)
            if not slices:
                continue
            for wu, suffix in p._suffix_monomials(du).items():
                sl = slices.get(weight - wu)
                if sl is not None:
                    for u in suffix:
                        blocks.append((u, sl, offset))
                        offset += sl.dim
        return FactoredSlice(degree, weight, core, p.context, tuple(blocks))

    hit = p._cache[key] = eliminate() if core is p else factor()
    return hit


def _suffix_grade(ctx: AlgebraContext, n: int, u: tuple) -> tuple[int, int]:
    """(degree, weight) of the monomial in the generators after the
    first n of ``ctx`` with exponents u."""
    return (sum(x * d for x, d in zip(u, ctx.gen_degrees[n:])),
            sum(x * w for x, w in zip(u, ctx.gen_weights[n:])))


def _split_suffix(terms: dict, n: int) -> dict:
    """Free monomials -> Q grouped by their suffix part, the exponents
    after the first n generators: u -> {core part: coefficient}."""
    parts: dict = {}
    for (b, e), c in terms.items():
        if c:
            parts.setdefault(e[n:], {})[Monomial(b, e[:n])] = c
    return parts


def _core_parts(p: Presentation, terms: dict):
    """Yield (u, core slice, coordinates) for each suffix part u of a
    homogeneous element of p's free algebra (Monomial -> Q): the part's
    core monomials reduced in the core slice of their (degree, weight),
    so no slice of p is built."""
    core = p.core
    ctx = core.context
    for u, part in _split_suffix(terms, len(ctx.generators)).items():
        m = next(iter(part))
        sl = quotient_slice(core, ctx.monomial_degree(m),
                            ctx.monomial_weight(m))
        yield u, sl, sl.coords(part)


def _core_differential(p: Presentation, sl: SliceBasis) -> tuple:
    """L d in p of the basis monomials of the core slice ``sl``, with
    L = ``p._scale``.

    d(m) = sum_s kappa_s s over suffix monomials s, kappa_s in the core's
    free algebra.  Lists (s, entries) per suffix monomial s, in order of
    first appearance, with the nonzero entries (i, j, v) of the map
    m_i -> nf(kappa_s) into its core slice as a flat tuple, as
    :func:`_multiplication` gives them.  Cached in p, per core slice.
    """
    key = ("d", sl.degree, sl.weight)
    hit = p._blocks.get(key)
    if hit is None:
        pad = (0,) * (len(p.context.generators)
                      - len(p.core.context.generators))
        by_s: dict = {}
        for i, (b, e) in enumerate(sl.quotient):
            image: dict = {}
            p._leibniz_into(image, Monomial(b, e + pad), 1)
            for s, _, coords in _core_parts(p, image):
                if coords:
                    by_s.setdefault(s, []).extend(
                        [(i, j, v) for j, v in coords.items()])
        hit = p._blocks[key] = tuple((s, tuple(entries))
                                     for s, entries in by_s.items())
    return hit


def _suffix_tables(p: Presentation) -> tuple:
    """``(odd bits, tables)``: p's derivation tables on its suffix
    generators, local to the suffix, for :func:`_leibniz`.

    A suffix monomial u has no core part and the base unit, so a term
    c b x^f of d(y_j) enters d(u) as the core monomial kappa = (b, f's
    core exponents) times the suffix exponents of f, and only the
    suffix generators' bits of its odd and sign masks can meet u's: the
    masks are shifted down by the core's generator count.  ``tables``
    holds (j, terms) per suffix generator y_j with d(y_j) != 0, a term
    being (kappa, suffix (generator, exponent) pairs, the ``int`` L c,
    odd mask, sign mask); ``odd bits`` has bit j for each odd y_j.
    Built once per presentation.
    """
    if p._suffix_terms is None:
        n = len(p.core.context.generators)
        tables = []
        for i, terms in p._derivations:
            if i < n:
                continue
            local = []
            for tb, f_items, c, f_odd, sign_mask in terms:
                kappa = [0] * n
                items = []
                for q, x in f_items:
                    if q < n:
                        kappa[q] = x
                    else:
                        items.append((q - n, x))
                local.append((Monomial(tb, tuple(kappa)), tuple(items), c,
                              f_odd >> n, sign_mask >> n))
            tables.append((i - n, tuple(local)))
        p._suffix_terms = (tuple(bit >> n for bit in p._odd_bits[n:]),
                           tuple(tables))
    return p._suffix_terms


def _suffix_differential(p: Presentation, u: tuple) -> tuple:
    """L d(u) = sum c kappa u' for a suffix monomial u, as (c, kappa, u')
    with kappa a monomial of the core's free algebra and L = ``p._scale``,
    in the order of :func:`_leibniz` on the suffix-local tables of
    :func:`_suffix_tables`.  Cached in p."""
    key = ("du", u)
    hit = p._blocks.get(key)
    if hit is None:
        odd_bits, tables = _suffix_tables(p)
        acc: dict = {}
        for t, kappa, u2 in _leibniz(tables, odd_bits, u, 0):
            k = (kappa, u2)
            v = acc.get(k, 0) + t
            if v:
                acc[k] = v
            else:
                del acc[k]
        hit = p._blocks[key] = tuple((c, kappa, u2)
                                     for (kappa, u2), c in acc.items())
    return hit


def _multiplication(core: Presentation, kappa: Monomial,
                    sl: SliceBasis) -> tuple:
    """The nonzero entries (i, j, v) of multiplication by ``kappa`` on the
    core slice ``sl``: coordinate j of nf(m_i kappa) is v, for the basis
    monomials m_i in order.  A flat tuple of triples, as almost every row
    has one entry.  :func:`_assemble` keeps them per core slice, as
    kappa -> entries under ("mul", degree, weight) in the core, which a
    presentation and its reduced model share."""
    ctx = core.context
    tgt = quotient_slice(core, sl.degree + ctx.monomial_degree(kappa),
                         sl.weight + ctx.monomial_weight(kappa))
    entries = []
    for i, m in enumerate(sl.quotient):
        acc: dict = {}
        ctx.mul_term_into(acc, m, 1, kappa, 1)
        entries.extend((i, j, v) for j, v in tgt.coords(acc).items())
    return tuple(entries)


def _suffix_product(parities: tuple, s: tuple, u: tuple):
    """``(sign, exponents)`` with s u = sign * y^exponents for suffix
    monomials s and u (parities of the suffix generators), or None when
    an odd generator repeats."""
    if not any(s):
        return 1, u
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
    """Rows of L d from the slice ``src`` to the slice ``tgt`` above it,
    with L = ``p._scale``.

    Row i holds the coordinates of L d(basis monomial i) in ``tgt``, with
    explicit zeros and entries not in ``rat.exact`` form; the rows in
    ``skip`` are left empty.  Every row carries the one factor L, so
    ranks and pivot columns are those of d.  Each source block is a core
    slice times a suffix monomial u, and d(m u) = d(m) u + (-1)^|m| m d(u):
    the first term is the cached d of the core slice, each s of it moved
    to the block s u with the sign of s u, the second the core's cached
    multiplication by each kappa of d(u) = sum c kappa u' placed in the
    block u' with the sign (-1)^|m| c.  Both are (factor, target offset,
    entries) for one loop, the first term's ahead of the second's.  A
    presentation that is its own core has the one block u = ().
    ``tgt`` may be a view of the target slice, with its ``dim`` and only
    some of its ``blocks``: terms in the blocks it leaves out are not
    built.
    """
    rows: list[dict] = [{} for _ in range(src.dim)]
    # one int object per target column, shared by every row
    cols = list(range(tgt.dim))
    core = p.core
    parities = p.context.gen_parities[len(core.context.generators):]
    offsets = {u: off for u, _, off in tgt.blocks}
    for u, sl, off in src.blocks:
        if not sl.dim:
            continue
        terms = []
        for s, entries in _core_differential(p, sl):
            prod = _suffix_product(parities, s, u)
            toff = prod and offsets.get(prod[1])
            if toff is not None:
                terms.append((prod[0], toff, entries))
        odd = sl.degree & 1
        muls = core._blocks.setdefault(("mul", sl.degree, sl.weight), {})
        for c, kappa, u2 in _suffix_differential(p, u):
            toff = offsets.get(u2)
            if toff is None:
                continue  # the core slice of m kappa is empty
            entries = muls.get(kappa)
            if entries is None:
                entries = muls[kappa] = _multiplication(core, kappa, sl)
            terms.append((-c if odd else c, toff, entries))
        for c, toff, entries in terms:
            for i, j, v in entries:
                i += off
                if i in skip:
                    continue
                row = rows[i]
                j = cols[j + toff]
                row[j] = row.get(j, 0) + c * v
    return rows


def _drain(rows: list):
    """Yield the rows of a list, dropping each from it as it goes, so the
    elimination's copy of a row is the only one left."""
    for i, row in enumerate(rows):
        rows[i] = None
        yield row


def differential_matrix(p: Presentation, degree: int,
                        weight: int) -> SparseMatrix:
    """Matrix of d from slice (degree, weight) to (degree+1, weight).

    Row i holds the coordinates of d(basis monomial i) in the target
    quotient basis, in ``rat.exact`` form: the rows of :func:`_assemble`
    divided by L.  Cached; neither :func:`cohomology` nor the isotypic
    ranks use it.
    """

    def build():
        src = quotient_slice(p, degree, weight)
        tgt = quotient_slice(p, degree + 1, weight)
        mat = SparseMatrix(src.dim, tgt.dim)
        if tgt.dim:
            mat.rows = [_unscaled(row, p._scale)
                        for row in _assemble(p, src, tgt)]
        return mat

    return p._cached(("diff", degree, weight), build)


def differential_rank(p: Presentation, degree: int, weight: int) -> int:
    """Rank of d from slice (degree, weight) to (degree + 1, weight), by
    :func:`_cleared_rank` once d^2 = 0 is certified (raises
    :class:`AlgebraError` if it fails).  No matrix is kept."""
    hit = p._cache.get(("rank", degree, weight))
    if hit is not None:
        return hit
    _certify(p)

    def rows(d: int, k: int, skip) -> list:
        src, tgt = quotient_slice(p, d, k), quotient_slice(p, d + 1, k)
        return _assemble(p, src, tgt, skip) if src.dim and tgt.dim else []

    return _cleared_rank(p._cache, p._blocks,
                         lambda d, k: quotient_slice(p, d, k).dim, rows,
                         degree, weight)


def _cleared_rank(ranks: dict, pivots: dict, size: Callable, rows: Callable,
                  degree: int, weight: int) -> int:
    """Rank of the map out of slice (degree, weight), with clearing.

    ``size(d, k)`` is the dimension of slice (d, k), ``rows(d, k, skip)``
    the rows of the map out of it with those in ``skip`` left empty or
    out.  The chain is ranked bottom-up from its lowest missing rank;
    the walk down stops at an empty slice, as a map into or out of one
    clears nothing, and no rank depends on the order of the calls.
    Ranks are cached in ``ranks`` as ("rank", d, k), and the pivot
    columns in ``pivots`` as ("pivots", d, k) until the rank above pops
    them.
    """
    hit = ranks.get(("rank", degree, weight))
    if hit is not None:
        return hit
    low = degree
    while (low > 0 and size(low, weight)
           and ("rank", low - 1, weight) not in ranks
           and size(low - 1, weight)):
        low -= 1
    for d in range(low, degree + 1):
        made = rows(d, weight, pivots.pop(("pivots", d - 1, weight), ()))
        cols = pivot_columns(_drain(made)) if made else ()
        if cols:
            pivots[("pivots", d, weight)] = cols
        hit = ranks[("rank", d, weight)] = len(cols)
    return hit


def _entries(p: Presentation, max_degree: int, size: Callable,
             rank: Callable) -> dict:
    """(d, k) -> size(d, k) - rank(d, k) - rank(d - 1, k) over p's
    nonempty slices up to max_degree, rank(d, k) the rank out of (d, k)."""
    entries: dict = {}
    for d in range(max_degree + 1):
        for k in _slice_weights(p, d):
            dim = size(d, k)
            if dim:
                entries[(d, k)] = (dim - rank(d, k)
                                   - (rank(d - 1, k) if d > 0 else 0))
    return entries


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
    those core slices is: the weights are the sums of a weight of the
    core's index at degree - |u| (:func:`_core_slices`) and one of the
    suffix's at |u|, over the core degrees the index holds a slice in.
    No empty core slice of a closed-form core is built.
    """
    hit = p._weights.get(degree)
    if hit is None:
        core = p.core
        weights = set()
        for du in range(degree + 1):
            support = _suffix_support(p, du)
            if support:
                for k in _core_slices(core, degree - du):
                    weights.update(k + wu for wu in support)
        hit = p._weights[degree] = sorted(weights)
    return hit


def _core_slices(core: Presentation, degree: int) -> dict:
    """The index of a core's nonempty slices in one degree: weight ->
    :class:`SliceBasis`, built for a degree on first use and kept apart
    from the slice cache, which holds the same objects.

    A closed-form core reads the weights off the degree's basis, so it
    builds no empty slice; any other core builds the slice of each weight
    of its free slice and keeps those of nonzero dim.
    """
    hit = core._nonempty.get(degree)
    if hit is None:
        closed = core._closed_form
        if closed is not None:
            weights = closed.basis(degree)
        else:
            ctx = core.context
            weights = {ctx.monomial_weight(m)
                       for m in ctx.monomials_of(degree)}
        hit = core._nonempty[degree] = {
            k: sl for k in weights
            if (sl := quotient_slice(core, degree, k)).dim}
    return hit


def _suffix_support(p: Presentation, degree: int) -> set:
    """The weights of p's suffix monomials of the given degree, with no
    monomial made: ``p._support[d][j]`` is the set of weights that the
    monomials of degree d in the first j suffix generators reach, each
    odd generator at most once.  Each degree is built once, from the
    lower ones, when it is first asked for."""
    gens = p.context.generators[len(p.core.context.generators):]
    table = p._support
    for d in range(len(table), degree + 1):
        row = [{0} if d == 0 else set()]
        for j, g in enumerate(gens):
            reach = set(row[j])
            e = d - g.degree
            if e >= 0:
                # an odd y_j joins a monomial without it, an even one may
                # join one that has it already
                reach.update(w + g.weight for w in table[e][j if g.odd
                                                            else j + 1])
            row.append(reach)
        table.append(row)
    return table[degree][-1]


def cohomology(p: Presentation, max_degree: int,
               by_weight: bool = True) -> CohomologyTable:
    """Bigraded cohomology dimensions of the quotient CDGA up to max_degree.

    Computed on ``p.reduced``, one weight at a time (the differential
    preserves weights), and tensored with each free exterior factor
    Lambda(s) the reduction split off: H(d, k) = H'(d, k)
    + H'(d - |s|, k - wt s), H' the reduced model's table.  The rule and
    the automorphism phi(g) = g - c h s that proves it are at
    :attr:`Presentation.reduced`.  ``cohomology(p.reduced)`` is the
    cohomology of the reduced model itself, which records no factor.
    The table carries ``p``'s name and parameters.  Raises :class:`AlgebraError` when the
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
    entries = _entries(
        q, max_degree, lambda d, k: quotient_slice(q, d, k).dim,
        lambda d, k: differential_rank(q, d, k))
    model = {"name": p.name, **p.params}
    return CohomologyTable(_tensor_exterior(entries, p._factors, max_degree),
                           max_degree, model)


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
    """Normal form of a homogeneous element of p's free algebra, each
    suffix part reduced by :func:`_core_parts`."""
    out = {}
    for u, sl, coords in _core_parts(p, terms):
        for j, c in coords.items():
            b, e = sl.quotient[j]
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
    # on L d, which has d's kernel; a witness is divided back by L, or by
    # L^2 for (L d)^2
    ctx = p.context
    for i, rel in enumerate(p.relations):
        drel = Element(ctx, p._scaled_differential(rel.terms))
        residual = _normal_form(p, drel.terms)
        if residual:
            return VerificationReport(
                False, i + 1, "relation", drel.degree(), drel.weight(),
                repr(rel), "d(relation) not in ideal: "
                + repr(Element(ctx, _unscaled(residual, p._scale))))
    for g in sorted(p.differential):
        residual = _normal_form(p, p._scaled_differential(
            p._scaled_differential(ctx.gen_element(g).terms)))
        if residual:
            spec = ctx.generators[g]
            witness = Element(ctx, _unscaled(residual, p._scale ** 2))
            return VerificationReport(
                False, len(p.relations), "d_squared", spec.degree,
                spec.weight, spec.label,
                f"d(d({spec.label})) = {witness!r}")
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
