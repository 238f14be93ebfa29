"""Generating functions and symmetric-group refinements.

Series conventions.  All series are truncated integer-coefficient power
series in one variable; nothing is ever represented as a rational
function.  Two gradings appear:

* degree series (variable ``t``): the Poincare-type product
  ``P(t) = prod_{i<2n} (1 - (-t)^{i+1})^{(-1)^i beta_i}``, the series of
  the free graded algebra on the shifted classes of H^{*<2n}(X).
* weight series (variable ``w``): weightwise Euler characteristics.  A
  shifted class sb of a degree-i base class sits in weight i + 2, so the
  closed form for the free algebra on all shifted classes is
  ``P_U(w) = prod_i (1 - w^{i+2})^{(-1)^i beta_i}``; the point-constraint
  sectors contribute ``((1 - w^{2n}) / (1 - w^{2n+2}))^r`` (alpha_i odd of
  weight 2n, eta_i even of weight 2n + 2).

Weightwise Euler characteristics are computed from quotient slices alone,
without differentials; since every generator (and base class) has weight
>= degree, weight-k classes live in degrees <= k and each coefficient is
a finite alternating sum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .algebra import (AlgebraContext, AlgebraError, BaseAlgebra, GeneratorSpec,
                      Monomial)
from .engine import (CohomologyTable, Presentation, cohomology,
                     quotient_slice, _assemble, _certify, _slice_weights)
from .linalg import RrefResult, SparseMatrix, pivot_columns, rref
from .models import symmetric_action
from .rat import ONE, Rational, exact


# ---------------------------------------------------------------------------
# Truncated series
# ---------------------------------------------------------------------------

class BigradedSeries:
    """Truncated formal power series with integer coefficients."""

    __slots__ = ("coeffs", "truncation", "variable")

    def __init__(self, coeffs: dict, truncation: int, variable: str = "w"):
        if truncation < 0:
            raise AlgebraError("series truncation must be >= 0")
        clean = {}
        for k, v in coeffs.items():
            if not (0 <= k <= truncation):
                raise AlgebraError(f"exponent {k} outside [0, {truncation}]")
            if v != int(v):
                raise AlgebraError(
                    f"non-integral coefficient {v} of {variable}^{k}")
            if v:
                clean[k] = int(v)
        self.coeffs = clean
        self.truncation = truncation
        self.variable = variable

    @classmethod
    def one(cls, truncation: int, variable: str = "w") -> "BigradedSeries":
        return cls({0: 1}, truncation, variable)

    def coefficient(self, k: int) -> int:
        return self.coeffs.get(k, 0)

    def coefficients(self) -> list[int]:
        return [self.coefficient(k) for k in range(self.truncation + 1)]

    def _compat(self, other: "BigradedSeries") -> None:
        if self.variable != other.variable:
            raise AlgebraError(
                f"series variable mismatch: {self.variable} vs "
                f"{other.variable}")
        if self.truncation != other.truncation:
            raise AlgebraError("series truncation mismatch")

    def __add__(self, other: "BigradedSeries") -> "BigradedSeries":
        self._compat(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return BigradedSeries(out, self.truncation, self.variable)

    def __neg__(self) -> "BigradedSeries":
        return BigradedSeries({k: -v for k, v in self.coeffs.items()},
                              self.truncation, self.variable)

    def __sub__(self, other: "BigradedSeries") -> "BigradedSeries":
        return self + (-other)

    def __mul__(self, other: "BigradedSeries") -> "BigradedSeries":
        self._compat(other)
        out: dict[int, int] = {}
        for a, va in self.coeffs.items():
            for b, vb in other.coeffs.items():
                k = a + b
                if k <= self.truncation:
                    out[k] = out.get(k, 0) + va * vb
        return BigradedSeries(out, self.truncation, self.variable)

    def power(self, exponent: int) -> "BigradedSeries":
        if exponent < 0:
            return self.reciprocal().power(-exponent)
        result = BigradedSeries.one(self.truncation, self.variable)
        for _ in range(exponent):
            result = result * self
        return result

    def reciprocal(self) -> "BigradedSeries":
        """Multiplicative inverse; needs constant term +-1 for integrality."""
        a0 = self.coefficient(0)
        if a0 not in (1, -1):
            raise AlgebraError(
                f"series reciprocal needs constant term +-1, got {a0}")
        inv = {0: a0}
        for k in range(1, self.truncation + 1):
            acc = 0
            for i, ai in self.coeffs.items():
                if 1 <= i <= k:
                    acc += ai * inv.get(k - i, 0)
            inv[k] = -a0 * acc
        return BigradedSeries(inv, self.truncation, self.variable)

    def __eq__(self, other):
        return (isinstance(other, BigradedSeries)
                and self.variable == other.variable
                and self.truncation == other.truncation
                and self.coeffs == other.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        v = self.variable
        bits = []
        for k in sorted(self.coeffs):
            c = self.coeffs[k]
            term = "1" if k == 0 else (v if k == 1 else f"{v}^{k}")
            if k == 0:
                bits.append(str(c))
            elif c == 1:
                bits.append(term)
            elif c == -1:
                bits.append(f"-{term}")
            else:
                bits.append(f"{c}{term}")
        return " + ".join(bits).replace("+ -", "- ")


def _one_minus_power(exp: int, truncation: int, variable: str,
                     sign: int = -1) -> BigradedSeries:
    """The series 1 + sign*x^exp (default 1 - x^exp), truncated."""
    coeffs = {0: 1}
    if exp <= truncation:
        coeffs[exp] = coeffs.get(exp, 0) + sign
    return BigradedSeries(coeffs, truncation, variable)


# ---------------------------------------------------------------------------
# Series of the built-in models
# ---------------------------------------------------------------------------

def poincare_series_U(base: BaseAlgebra, max_exp: int,
                      variable: str = "w") -> BigradedSeries:
    """Euler-type series of the free algebra on shifted base classes.

    Weight variable (``"w"``): each degree-i class contributes a shifted
    generator of weight i + 2, giving prod_i (1 - w^{i+2})^{(-1)^i b_i}
    over all i = 0..2n.  Degree variable (``"t"``): the Poincare series
    of the free algebra on the shifted classes *below* the top degree,
    prod_{i<2n} (1 - (-t)^{i+1})^{(-1)^i b_i}.
    """
    series = BigradedSeries.one(max_exp, variable)
    top = 2 * base.n
    for i in range(0, top + 1):
        b = base.betti(i)
        if not b:
            continue
        if variable == "w":
            factor = _one_minus_power(i + 2, max_exp, variable)
        elif variable == "t":
            if i >= top:
                continue
            sign = -1 if i % 2 else 1
            factor = _one_minus_power(i + 1, max_exp, variable, sign=sign)
        else:
            raise AlgebraError(f"unknown series variable {variable!r}")
        series = series * factor.power(b if i % 2 == 0 else -b)
    return series


def _check_weight_bounds(p: Presentation) -> None:
    ctx = p.context
    for g in ctx.generators:
        if g.weight < g.degree:
            raise AlgebraError(
                f"generator {g.label} has weight {g.weight} < degree "
                f"{g.degree}: weightwise sums cannot be bounded")
    for i in range(ctx.base.dim):
        if ctx.base.weights[i] < ctx.base.degrees[i]:
            raise AlgebraError(
                f"base class {ctx.base.label(i)} has weight < degree: "
                "weightwise sums cannot be bounded")


def weightwise_euler(p: Presentation, w_max: int) -> BigradedSeries:
    """Weightwise Euler characteristic of the quotient algebra.

    Coefficient of w^k is sum_i (-1)^i dim of the (degree i, weight k)
    quotient slice; no differentials enter.  Because weight >= degree
    throughout, only degrees i <= k contribute.
    """
    _check_weight_bounds(p)
    coeffs: dict[int, int] = {}
    for k in range(w_max + 1):
        acc = 0
        for i in range(k + 1):
            dim = quotient_slice(p, i, k).dim
            acc += dim if i % 2 == 0 else -dim
        if acc:
            coeffs[k] = acc
    return BigradedSeries(coeffs, w_max, "w")


def configuration_euler(base: BaseAlgebra, r: int,
                        w_max: int) -> BigradedSeries:
    """Weightwise Euler series of F(X, r), with no model built.

    [F(X, r)] = prod_{j<r} ([X] - j) (Totaro 1996, Getzler 1999) gives
    P_Fr(w) = prod_{j<r} (E_X(w) - j w^{2n}) by Poincare duality, with
    E_X(w) = sum_b (-1)^{deg b} w^{wt b} over the basis of H^*(X).
    """
    if r < 0:
        raise AlgebraError("the number of points r must be >= 0")
    top = 2 * base.n
    e_x: dict[int, int] = {}
    for d, k in zip(base.degrees, base.weights):
        if k <= w_max:
            e_x[k] = e_x.get(k, 0) + (-1) ** d
    p_fr = BigradedSeries.one(w_max, "w")
    for j in range(r):
        factor = dict(e_x)
        if top <= w_max:
            factor[top] = factor.get(top, 0) - j
        p_fr = p_fr * BigradedSeries(factor, w_max, "w")
    return p_fr


def p_r_closed_form(base: BaseAlgebra, r: int, w_max: int) -> BigradedSeries:
    """Closed form for the weightwise Euler series of the r-marked model.

    The model is, as a bigraded vector space, the configuration model
    tensor the free algebra on the shifted classes tensor the free
    algebra on alpha_i, eta_i; Euler series multiply, giving
    P_Fr(w) * P_U(w) * ((1 - w^{2n}) / (1 - w^{2n+2}))^r.
    """
    p_fr = configuration_euler(base, r, w_max)
    p_u = poincare_series_U(base, w_max, "w")
    n = base.n
    marks = (_one_minus_power(2 * n, w_max, "w")
             * _one_minus_power(2 * n + 2, w_max, "w").reciprocal()).power(r)
    return p_fr * p_u * marks


def rho_bracket(base: BaseAlgebra, t_max: int) -> BigradedSeries:
    """The Betti-number bracket of :func:`rho_series`.

    sum_{i=0}^{n} b_{i+n-1} t^i - sum_{i=1}^{n-1} b_{i+n+1} t^i
    + sum_{i=n+1}^{2n+1} b_{i-n} t^i - sum_{i=n+2}^{2n} b_{i-n-2} t^i.
    """
    n = base.n
    bracket: dict[int, int] = {}

    def add(i, value):
        if value and 0 <= i <= t_max:
            bracket[i] = bracket.get(i, 0) + value

    for i in range(0, n + 1):
        add(i, base.betti(i + n - 1))
    for i in range(1, n):
        add(i, -base.betti(i + n + 1))
    for i in range(n + 1, 2 * n + 2):
        add(i, base.betti(i - n))
    for i in range(n + 2, 2 * n + 1):
        add(i, -base.betti(i - n - 2))
    return BigradedSeries(bracket, t_max, "t")


def rho_series(base: BaseAlgebra, t_max: int) -> BigradedSeries:
    """Stable twisted Betti series: P(t) times the Betti-number bracket."""
    return poincare_series_U(base, t_max, "t") * rho_bracket(base, t_max)


def r1_stable_series(base: BaseAlgebra, t_max: int) -> BigradedSeries:
    """Poincare series of the one-marked-point stable cohomology.

    Computed as (series of the nonvanishing-derivative factor) times
    (series of the free algebra on shifted classes below the top degree).
    The first factor is the cohomology of the one-generator model
    (H^*(X)[alpha], d(alpha) = [X]), the generic nonvanishing Euler class
    normalized to the fundamental class; its dimensions are read off the
    engine rather than from a formula.
    """
    n = base.n
    ctx = AlgebraContext(base, [GeneratorSpec("alpha", 2 * n - 1, 2 * n)])
    pres = Presentation(
        ctx, [], {0: ctx.base_element({base.fundamental: ONE})},
        name=f"punctured-derivative({base.name})",
        params={"model": "omega", "space": base.name})
    table = cohomology(pres, t_max)
    factor = BigradedSeries(
        {i: table.dim(i) for i in range(t_max + 1)}, t_max, "t")
    return factor * poincare_series_U(base, t_max, "t")


# ---------------------------------------------------------------------------
# Permutations, class functions, characters
# ---------------------------------------------------------------------------

Perm = tuple


def all_permutations(r: int) -> list[Perm]:
    return [tuple(p) for p in itertools.permutations(range(r))]


def compose(sigma: Perm, tau: Perm) -> Perm:
    """(sigma . tau)(i) = sigma(tau(i))."""
    return tuple(sigma[tau[i]] for i in range(len(sigma)))


def inverse(sigma: Perm) -> Perm:
    out = [0] * len(sigma)
    for i, v in enumerate(sigma):
        out[v] = i
    return tuple(out)


def cycle_type(sigma: Perm) -> tuple[int, ...]:
    seen = [False] * len(sigma)
    lengths = []
    for i in range(len(sigma)):
        if seen[i]:
            continue
        ln = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = sigma[j]
            ln += 1
        lengths.append(ln)
    return tuple(sorted(lengths, reverse=True))


def _span(generators: Sequence[Perm], r: int, inside=None) -> set:
    """The group the generators generate, each element composed once with
    each generator.  With ``inside``, a product outside it raises."""
    identity = tuple(range(r))
    elems = {identity}
    queue = [identity]
    for a in queue:
        for g in generators:
            c = compose(a, g)
            if c not in elems:
                if inside is not None and c not in inside:
                    raise AlgebraError(
                        f"subgroup not closed: {a} . {g} missing")
                elems.add(c)
                queue.append(c)
    return elems


def generated_subgroup(generators: Iterable[Perm], r: int) -> list[Perm]:
    """Closure of a set of permutations under composition."""
    gens = [tuple(g) for g in generators]
    for g in gens:
        if sorted(g) != list(range(r)):
            raise AlgebraError(f"{g} is not a permutation of 0..{r - 1}")
    return sorted(_span(gens, r))


def _closed_with_generators(subgroup: Sequence[Perm]):
    """Check that ``subgroup`` is a duplicate-free list of permutations
    closed under composition; return it and generators taken from it.

    Generators are taken greedily; each one at least doubles their span,
    and the span must stay inside the list, so the check costs |G|
    compositions per generator rather than |G|^2.
    """
    elems = [tuple(s) for s in subgroup]
    if not elems:
        raise AlgebraError("subgroup is empty")
    seen = set(elems)
    if len(seen) != len(elems):
        raise AlgebraError("subgroup contains duplicate permutations")
    r = len(elems[0])
    if tuple(range(r)) not in seen:
        raise AlgebraError("subgroup not closed: missing the identity")
    gens: list[Perm] = []
    span = {tuple(range(r))}
    for s in elems:
        if s not in span:
            gens.append(s)
            span = _span(gens, r, seen)
    return elems, gens


@dataclass(frozen=True)
class ClassFunction:
    """A rational value per conjugacy class (partition) of S_r."""

    r: int
    values: dict

    def __post_init__(self):
        for part in self.values:
            if sum(part) != self.r:
                raise AlgebraError(
                    f"{part} is not a partition of {self.r}")

    def __call__(self, sigma: Perm):
        part = cycle_type(sigma)
        try:
            return self.values[part]
        except KeyError:
            raise AlgebraError(f"no value for cycle type {part}") from None


def _partitions(n: int, largest: Optional[int] = None):
    if n == 0:
        yield ()
        return
    top = min(n, largest) if largest is not None else n
    for first in range(top, 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def trivial_character(r: int) -> ClassFunction:
    return ClassFunction(r, {p: Fraction(1) for p in _partitions(r)})


def sign_character(r: int) -> ClassFunction:
    vals = {}
    for p in _partitions(r):
        transpositions = sum(c - 1 for c in p)
        vals[p] = Fraction(-1 if transpositions % 2 else 1)
    return ClassFunction(r, vals)


# ---------------------------------------------------------------------------
# Invariants and isotypic pieces
# ---------------------------------------------------------------------------

def _orbit_sum_rows(sl, group: Sequence[Perm], image: Callable,
                    weights_of: Callable) -> list[dict]:
    """Rows spanning the image of a group-averaging projector on ``sl``.

    ``image(rho, m)`` is (m', c) with rho(m) = c m' for a free monomial
    m.  Each orbit of free monomials meeting the basis of ``sl`` is
    imaged once; ``weights_of`` maps its members, as {sigma m: sigma},
    to the weight lists w for which sum_rho w[rho] rho(m) = P(sigma m)
    is a row, each reduced once into the slice's coordinates.
    """
    seen: set = set()
    rows = []
    for mono in sl.quotient:
        if mono in seen:
            continue
        images = [image(rho, mono) for rho in group]
        # one shift sigma per distinct orbit member sigma m
        shifts: dict = {}
        for rho, (target, _) in zip(group, images):
            shifts.setdefault(target, rho)
        seen.update(shifts)
        for weights in weights_of(shifts):
            orbit_sum: dict = {}
            for (target, c), w in zip(images, weights):
                if w:
                    orbit_sum[target] = orbit_sum.get(target, 0) + w * c
            row = sl.coords(orbit_sum)
            if row:
                rows.append(row)
    return rows


def _isotypic_bases(p: Presentation, subgroup: Sequence[Perm],
                    character: ClassFunction) -> tuple[Callable, int]:
    """``(basis_at, |G|)``; ``basis_at(degree, weight)`` is the rref of
    the image of the character-averaging projector on that quotient
    slice, or None when the slice is empty.  See
    :func:`isotypic_cohomology`."""
    elems, gens = _closed_with_generators(subgroup)
    identity = tuple(range(len(elems[0])))
    if character.r != len(identity):
        raise AlgebraError(f"class function is on S_{character.r}, "
                           f"subgroup permutes {len(identity)} points")
    # char(sigma^{-1}) = char(sigma): a permutation and its inverse have
    # one cycle type
    chi = {sig: exact(character(sig)) for sig in elems}
    actions = {sig: symmetric_action(p, sig) for sig in elems}
    # char(a g) = char(a) char(g) for every generator g makes char
    # multiplicative: each element of a finite group is a word in them
    linear = chi[identity] == 1 and all(
        chi[compose(a, g)] == chi[a] * chi[g] for a in elems for g in gens)

    bases: dict = {}

    def basis_at(degree: int, weight: int):
        key = (degree, weight)
        if key not in bases:
            sl = quotient_slice(p, degree, weight)
            if not sl.dim:
                bases[key] = None
            else:
                bases[key] = induced(sl) if linear else whole(sl)
        return bases[key]

    shifted: dict = {}

    def shift_weights(sig: Perm) -> list:
        # P(sigma m) = sum_rho char(1) char(sigma rho^{-1}) rho m
        hit = shifted.get(sig)
        if hit is None:
            hit = shifted[sig] = [
                exact(chi[identity] * chi[compose(sig, inverse(rho))])
                for rho in elems]
        return hit

    def whole(sl) -> RrefResult:
        rows = _orbit_sum_rows(
            sl, elems, lambda rho, mono: actions[rho].image(mono),
            lambda shifts: map(shift_weights, shifts.values()))
        return rref(SparseMatrix.from_rows(len(rows), sl.dim, rows))

    n = len(p.core.context.generators)
    pad = (0,) * (len(p.context.generators) - n)
    unit, zeros = p.context.base.unit, (0,) * n
    orbits: dict = {}

    def suffix_orbit(u: tuple):
        # first in block order: (stabiliser [(h, eps_h)], cosets
        # {g u: (g, eps_g)}) with g(u) = eps_g g u; later members: None
        hit = orbits.get(u, False)
        if hit is False:
            stabiliser, cosets = [], {}
            for g in elems:
                (_, e), eps = actions[g].image(Monomial(unit, zeros + u))
                if e[n:] == u:
                    stabiliser.append((g, eps))
                else:
                    cosets.setdefault(e[n:], (g, eps))
            hit = orbits[u] = stabiliser, cosets
            orbits.update(dict.fromkeys(cosets))
        return hit

    def core_image(rho: Perm, mono: Monomial):
        (b, e), c = actions[rho].image(Monomial(mono.base, mono.exps + pad))
        return Monomial(b, e[:n]), c

    def core_images(sig: Perm, sl) -> Callable:
        # images(i): coordinates in sl of sig(m_i), m_i its basis monomial
        # i; each computed on first use, cached in p per (sig, sl, i)
        key = ("image", sig, sl.degree, sl.weight)
        cache = p._blocks.get(key)
        if cache is None:
            cache = p._blocks[key] = {}

        def images(i: int) -> dict:
            hit = cache.get(i)
            if hit is None:
                target, c = core_image(sig, sl.quotient[i])
                hit = cache[i] = sl.coords({target: c})
            return hit

        return images

    def stabiliser_basis(sl, stabiliser) -> RrefResult:
        # rref of Q = sum_h char(h^{-1}) eps_h h on the core slice
        twisted = tuple((h, chi[h] * eps) for h, eps in stabiliser)
        key = ("isotypic", sl.degree, sl.weight, twisted)
        hit = p._blocks.get(key)
        if hit is None:
            group = [h for h, _ in twisted]
            weights = [w for _, w in twisted]
            rows = _orbit_sum_rows(sl, group, core_image,
                                   lambda shifts: [weights])
            hit = p._blocks[key] = rref(
                SparseMatrix.from_rows(len(rows), sl.dim, rows))
        return hit

    def induced(sl) -> RrefResult:
        offsets = {u: off for u, _, off in sl.blocks}
        rows, pivots = [], []
        for u, core_sl, off in sl.blocks:
            orbit = suffix_orbit(u)
            if orbit is None:
                continue  # u is in the orbit of an earlier block
            stabiliser, cosets = orbit
            if len(stabiliser) == 1:
                # Q is the identity
                basis = ((i, {i: 1}) for i in range(core_sl.dim))
            else:
                q = stabiliser_basis(core_sl, stabiliser)
                basis = zip(q.pivots, q.reduced.rows)
            moved = [(offsets[v], chi[g] * eps, core_images(g, core_sl))
                     for v, (g, eps) in cosets.items()]
            for pivot, x in basis:
                # Phi(x) = sum over g in G/H of char(g^{-1}) g(x u)
                row = {off + j: c for j, c in x.items()}
                for voff, w, images in moved:
                    for j, c in x.items():
                        c *= w
                        for t, v in images(j).items():
                            t += voff
                            row[t] = row.get(t, 0) + c * v
                rows.append(row)
                pivots.append(off + pivot)
        return RrefResult(len(rows), tuple(pivots),
                          SparseMatrix.from_rows(len(rows), sl.dim, rows))

    return basis_at, len(elems)


def isotypic_cohomology(p: Presentation, subgroup: Sequence[Perm],
                        character: ClassFunction,
                        max_degree: int) -> CohomologyTable:
    """Cohomology of the image of the character-averaging projector.

    The projector P = (char(1)/|G|) sum_sigma char(sigma^{-1}) sigma is
    central in Q[G], so it commutes with d and d restricts to the
    isotypic subcomplex.  Each action commutes with d by construction;
    that law is not re-checked at run time.  The test
    ``tests/test_models.py::test_laws_that_hold_by_construction`` checks
    it for every permutation, on C, A and AL models at r = 2 and 3.
    For the trivial character this is the subcomplex of invariants.
    Only the rref of P's image is used, which a nonzero scalar does not
    change, so the 1/|G| is left out.

    Each action sends a monomial to one signed monomial, and it maps the
    core's generators to themselves and the suffix's to themselves, so it
    permutes the blocks (u, core slice, offset) of a slice: g(m u) =
    eps_g(u) g(m) g u.  For a linear character (P g = char(g) P), each
    orbit of suffix monomials is an induced representation, and P's image
    on it is induced from the stabiliser H of its first block u (Frobenius
    reciprocity; Serre, Linear Representations of Finite Groups, 7.2).
    Only the twisted projector Q = sum_h char(h^{-1}) eps_h(u) h is
    row-reduced, on u's core slice, once per core slice and (H, eps); H
    is trivial for most blocks, and Q then is the identity.  Each rref
    row x gives the row Phi(x) = sum_{g in G/H} char(g^{-1}) g(x u),
    which is x on block u and lies in the later blocks of the orbit
    elsewhere, so the rows are the rref of P's image.  The core images
    g(m) are cached in p.  Any other class function takes the orbit sums
    P(sigma m) of free monomials over the whole slice, one per orbit
    member, before one reduction.

    Each restricted rank is computed once: it is both the rank out of
    (d, k) and the rank into (d + 1, k).  It is computed with clearing,
    as in :func:`~cdgacalc.engine.differential_rank`: the basis rows at
    the pivot columns of the restricted map out of (d - 1, k) are left
    out.  d of each kept row x is sum_j x_j d(m_j), with d(m_j) from the
    engine's assembler, which builds only the rows some kept x touches;
    since d(x) lies in the target's rref span, its coordinates there are
    its entries at the target's pivot columns.  No differential matrix
    of the slices is made.  d^2 = 0 is certified first (raises
    :class:`AlgebraError` if it fails).
    """
    if max_degree < 0:
        raise AlgebraError("isotypic_cohomology: max_degree must be >= 0")
    basis_at, order = _isotypic_bases(p, subgroup, character)
    _certify(p)
    ranks: dict = {}
    # pivot columns of the restricted matrices whose rank above is not
    # computed yet
    pivots: dict = {}

    def restricted_rank(degree: int, weight: int) -> int:
        key = (degree, weight)
        if key not in ranks:
            cols = restrict(degree, weight)
            ranks[key] = len(cols)
            if cols:
                pivots[key] = cols
        return ranks[key]

    def restrict(degree: int, weight: int) -> frozenset:
        cleared = pivots.pop((degree - 1, weight), ())
        src = basis_at(degree, weight)
        tgt = basis_at(degree + 1, weight)
        if src is None or tgt is None or not tgt.rank:
            return frozenset()
        kept = [x for i, x in enumerate(src.reduced.rows) if i not in cleared]
        if not kept:
            return frozenset()
        sl = quotient_slice(p, degree, weight)
        touched = set().union(*kept)
        d = _assemble(p, sl, quotient_slice(p, degree + 1, weight),
                      {j for j in range(sl.dim) if j not in touched})
        # d(x) lies in the target's rref span, where its coordinates are
        # its entries at the pivot columns
        slot = {c: t for t, c in enumerate(tgt.pivots)}
        images = []
        for x in kept:
            image: dict = {}
            for j, c in x.items():
                for col, v in d[j].items():
                    t = slot.get(col)
                    if t is not None:
                        image[t] = image.get(t, 0) + c * v
            images.append(image)
        return pivot_columns(images)

    entries: dict = {}
    for d in range(max_degree + 1):
        for k in _slice_weights(p, d):
            src = basis_at(d, k)
            q = 0 if src is None else src.rank
            if q == 0:
                continue
            # bottom-up, so the pivots below are known when (d, k) is ranked
            r_in = restricted_rank(d - 1, k) if d > 0 else 0
            r_out = restricted_rank(d, k)
            value = q - r_out - r_in
            if value:
                entries[(d, k)] = value
    model = {"name": p.name, **p.params, "subgroup_order": order}
    return CohomologyTable(entries, max_degree, model)


def invariant_cohomology(p: Presentation, subgroup: Sequence[Perm],
                         max_degree: int) -> CohomologyTable:
    """Cohomology of the subcomplex of subgroup invariants."""
    # isotypic_cohomology checks the subgroup, and rejects an empty one
    r = len(subgroup[0]) if subgroup else 0
    return isotypic_cohomology(p, subgroup, trivial_character(r), max_degree)


def character_euler(p: Presentation, chi: ClassFunction,
                    w_max: int) -> BigradedSeries:
    """Character-weighted weightwise Euler characteristic.

    Coefficient of w^k is (1/r!) sum_sigma chi(sigma) sum_i (-1)^i
    trace(sigma | slice(i, k)).  For the trivial character this is the
    weightwise Euler characteristic of the invariants; for the character
    of the regular representation it collapses to the plain weightwise
    Euler characteristic.
    """
    _check_weight_bounds(p)
    r = p.params.get("r")
    if r is None:
        raise AlgebraError("presentation carries no point count r")
    if chi.r != r:
        raise AlgebraError(f"class function is on S_{chi.r}, model has r={r}")
    perms = all_permutations(r)
    actions = {sig: symmetric_action(p, sig) for sig in perms}
    weights = [(sig, c) for sig in perms if (c := exact(chi(sig)))]
    coeffs: dict[int, int] = {}
    for k in range(w_max + 1):
        total = 0
        for i in range(k + 1):
            sl = quotient_slice(p, i, k)
            if sl.dim == 0:
                continue
            for sig, c in weights:
                # the diagonal entry at a is coordinate a of sigma(m_a)
                tr = 0
                for a, mono in enumerate(sl.quotient):
                    image, sign = actions[sig].image(mono)
                    tr += sl.coords({image: sign}).get(a, 0)
                total += c * tr if i % 2 == 0 else -c * tr
        total = exact(Rational(total) / math.factorial(r))
        if total:
            if type(total) is not int:
                raise AlgebraError(
                    f"non-integral character Euler coefficient {total} at "
                    f"w^{k}; the class function is not a virtual character")
            coeffs[k] = total
    return BigradedSeries(coeffs, w_max, "w")


def stable_range_bound(i: int, r: int, chi_X: int, k: int) -> int:
    """Least twist exponent certified for degree-i stability.

    Returns max(|chi_X|, k (2 i + 2 r + 3)) + 1 for a k-jet-ampleness
    step; inputs other than chi_X must be nonnegative.
    """
    if i < 0 or r < 0 or k < 0:
        raise AlgebraError("stable_range_bound needs i, r, k >= 0")
    return max(abs(chi_X), k * (2 * i + 2 * r + 3)) + 1
