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
from functools import partial
from types import SimpleNamespace
from typing import Callable, Iterable, Optional, Sequence

from .algebra import (AlgebraError, BaseAlgebra, Monomial,
                      MonomialPermutation)
from .engine import (CohomologyTable, Presentation, quotient_slice,
                     _assemble, _certify, _cleared_rank, _entries,
                     _free_generators, _tensor_exterior)
from .linalg import RrefResult, SparseMatrix, rref
from .models import symmetric_action
from .rat import Rational, exact


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

    The product of the nonvanishing-derivative factor and the series of
    the free algebra on shifted classes below the top degree.  The factor
    is the cohomology of the one-generator model (H^*(X)[alpha],
    d(alpha) = [X]), |alpha| = 2n - 1: d kills the fundamental class, and
    alpha times each class of positive degree is a cocycle that no class
    hits, so it is P_X(t) - t^{2n} + t^{2n-1} (P_X(t) - 1).  Raises
    :class:`AlgebraError` on a point (n = 0), where alpha has no degree.
    """
    top = 2 * base.n
    if not top:
        raise AlgebraError("r1 series: alpha would have degree 2n - 1 = -1 "
                           "on a base of dimension n = 0")
    factor: dict[int, int] = {}
    for i in range(top + 1):
        for k in (i, i + top - 1):
            if k <= t_max:
                factor[k] = factor.get(k, 0) + base.betti(i)
    for k in (top, top - 1):
        if k <= t_max:
            factor[k] -= 1
    return (BigradedSeries(factor, t_max, "t")
            * poincare_series_U(base, t_max, "t"))


# ---------------------------------------------------------------------------
# Permutations, class functions, characters
# ---------------------------------------------------------------------------

Perm = tuple


def all_permutations(r: int) -> list[Perm]:
    return [tuple(p) for p in itertools.permutations(range(r))]


def compose(sigma: Perm, tau: Perm) -> Perm:
    """(sigma . tau)(i) = sigma(tau(i))."""
    return tuple(map(sigma.__getitem__, tau))


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


# The largest subgroup order the group code enumerates: |S_9|, so that
# every subgroup of S_9 is admitted.
MAX_GROUP_ORDER = math.factorial(9)


def _span(generators: Sequence[Perm], r: int, inside=None) -> set:
    """The group the generators generate, each element composed once with
    each generator.  With ``inside``, a product outside it raises; so does
    a group of more than ``MAX_GROUP_ORDER`` elements, at the first element
    past the limit."""
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
                if len(elems) == MAX_GROUP_ORDER:
                    raise AlgebraError(
                        "the subgroup has more elements than the limit "
                        f"of {MAX_GROUP_ORDER}")
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
    closed under composition, and return it as a list of tuples.

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
    return elems


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
    return ClassFunction(r, {p: Rational(1) for p in _partitions(r)})


def sign_character(r: int) -> ClassFunction:
    vals = {}
    for p in _partitions(r):
        transpositions = sum(c - 1 for c in p)
        vals[p] = Rational(-1 if transpositions % 2 else 1)
    return ClassFunction(r, vals)


# ---------------------------------------------------------------------------
# Invariants and isotypic pieces
# ---------------------------------------------------------------------------

def _orbit_sum_rows(sl, terms: Sequence[tuple], per_orbit: bool = True
                    ) -> list[dict]:
    """Rows spanning the image of P = sum w rho over ``terms``, (rho, w)
    pairs with rho a :class:`~cdgacalc.algebra.MonomialPermutation` of
    the slice's context, on ``sl``.

    The row P(m) of each basis monomial m of ``sl`` is reduced once
    into the slice's coordinates; with ``per_orbit``, only the first
    basis monomial of each orbit gives one, which spans P's image when
    P(rho m) is a multiple of P(m), as for a linear twisted projector on
    a stabiliser.
    """
    seen: set = set()
    rows = []
    for mono in sl.quotient:
        if mono in seen:
            continue
        images = [rho.image(mono) for rho, _ in terms]
        if per_orbit:
            seen.update(target for target, _ in images)
        orbit_sum: dict = {}
        for (target, c), (_, w) in zip(images, terms):
            if w:
                orbit_sum[target] = orbit_sum.get(target, 0) + w * c
        row = sl.coords(orbit_sum)
        if row:
            rows.append(row)
    return rows


class _LazyRref:
    """The rref of a projector's image on one slice, its rows built when
    read: ``rank`` and ``pivots`` as in :class:`RrefResult`,
    ``rows(skip)`` the rows whose numbers are not in ``skip``, in order,
    and ``reduced`` every row, as a matrix.  ``view`` is the slice, or a
    view of it with its ``dim`` and only the blocks the pivots lie in:
    the target :func:`~cdgacalc.engine._assemble` needs to reach them."""

    __slots__ = ("pivots", "view", "rows")

    def __init__(self, pivots: tuple, view, rows: Callable):
        self.pivots = pivots
        self.view = view
        self.rows = rows

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def reduced(self) -> SparseMatrix:
        return SparseMatrix.from_rows(self.rank, self.view.dim,
                                      self.rows(()))


def _suffix_orbit(actions: dict, unit: int, n: int, u: tuple) -> tuple:
    """(stabiliser ((h, eps_h), ...), cosets ((g u, g, eps_g), ...)) of
    the suffix monomial u (exponents after the first n generators) under
    the group acting by ``actions``, sigma -> action, with g(u) =
    eps_g g u; each coset's g is its first element in the order of
    ``actions``.  Tuples, which hold less than a list and a dict."""
    stabiliser, cosets = [], {}
    mono = Monomial(unit, (0,) * n + u)
    for g, action in actions.items():
        (_, e), eps = action.image(mono)
        if e[n:] == u:
            stabiliser.append((g, eps))
        else:
            cosets.setdefault(e[n:], (g, eps))
    return (tuple(stabiliser),
            tuple((v, g, eps) for v, (g, eps) in cosets.items()))


def _induced_row(off: int, x: dict, moved: list) -> dict:
    """Phi(x) = sum over g in G/H of char(g^{-1}) g(x u), for x in the
    core slice of the block u at ``off``: x on that block, and for each
    (offset of g u, char(g^{-1}) eps_g, images of g) in ``moved``,
    char(g^{-1}) eps_g g(x) on block g u."""
    row = {off + j: c for j, c in x.items()}
    for voff, w, images in moved:
        for j, c in x.items():
            c *= w
            for t, v in images(j).items():
                t += voff
                row[t] = row.get(t, 0) + c * v
    return row


def _fixed_split(p: Presentation, actions: dict) -> tuple:
    """``(q, keep, factors)``: q is p with the free exterior factors that
    every action fixes split off (``engine._free_generators``, over the
    generators every action maps to themselves), ``keep`` the generators
    of p that q keeps, in order, and ``factors`` the (degree, weight) of
    the split ones; q is p when none splits.  Built once per set of
    fixed generators and cached in p, after p is certified; q shares p's
    core and d^2 certificate."""
    ngen = len(p.context.generators)
    fixed = tuple(g for g in range(ngen)
                  if all(a.gen_to[g] == g for a in actions.values()))
    key = ("split", fixed)
    hit = p._blocks.get(key)
    if hit is None:
        diff = {g: img.terms for g, img in p.differential.items()}
        split = _free_generators(p.context, diff,
                                 len(p.core.context.generators), fixed)
        q = p._without(set(split), diff, f"{p.name}, split") if split else p
        # p is certified, and d^2 = 0 passes to its quotient by the
        # d-stable ideal of the split generators
        q._certificate = p._certificate
        hit = p._blocks[key] = (
            q, [g for g in range(ngen) if g not in split],
            tuple((p.context.gen_degrees[s], p.context.gen_weights[s])
                  for s in split))
    return hit


def _isotypic_bases(p: Presentation, actions: dict,
                    character: ClassFunction) -> Callable:
    """``basis_at(degree, weight)``: the rref of the image of the
    character-averaging projector on that quotient slice of p, as a
    :class:`_LazyRref`, or None when the slice is empty; the group acts
    by ``actions``, sigma -> action on p's algebra, over its elements in
    order.  See :func:`isotypic_cohomology`."""
    elems = list(actions)
    identity = tuple(range(character.r))
    # char(sigma^{-1}) = char(sigma): a permutation and its inverse have
    # one cycle type
    chi = {sig: exact(character(sig)) for sig in elems}
    # the trivial and the sign character are the linear characters of S_r
    r = character.r
    linear = character.values in (trivial_character(r).values,
                                  sign_character(r).values)

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

    def whole(sl) -> _LazyRref:
        # P(m) = char(1) sum_rho char(rho^{-1}) rho m for each basis m
        rows = _orbit_sum_rows(
            sl, [(actions[rho], exact(chi[identity] * chi[rho]))
                 for rho in elems], per_orbit=False)
        res = rref(SparseMatrix.from_rows(len(rows), sl.dim, rows))
        return _LazyRref(res.pivots, sl, lambda skip: [
            x for i, x in enumerate(res.reduced.rows) if i not in skip])

    n = len(p.core.context.generators)
    unit = p.context.base.unit
    # u -> its orbit data if u is first in block order, else None; no
    # character enters, so p keeps them per subgroup
    orbits = p._blocks.setdefault(("orbits", tuple(elems)), {})

    def suffix_orbit(u: tuple):
        hit = orbits.get(u, False)
        if hit is False:
            hit = orbits[u] = _suffix_orbit(actions, unit, n, u)
            orbits.update((v, None) for v, _, _ in hit[1])
        return hit

    # each action maps the core's generators to themselves, so its
    # restriction to the core images core monomials directly
    core_actions: dict = {}

    def core_action(rho: Perm) -> MonomialPermutation:
        hit = core_actions.get(rho)
        if hit is None:
            hit = core_actions[rho] = actions[rho].restricted(p.core.context)
        return hit

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
                target, c = core_action(sig).image(sl.quotient[i])
                hit = cache[i] = sl.coords({target: c})
            return hit

        return images

    def stabiliser_basis(sl, stabiliser) -> RrefResult:
        # rref of Q = sum_h char(h^{-1}) eps_h h on the core slice
        twisted = tuple((h, chi[h] * eps) for h, eps in stabiliser)
        key = ("isotypic", sl.degree, sl.weight, twisted)
        hit = p._blocks.get(key)
        if hit is None:
            rows = _orbit_sum_rows(
                sl, [(core_action(h), w) for h, w in twisted])
            hit = p._blocks[key] = rref(
                SparseMatrix.from_rows(len(rows), sl.dim, rows))
        return hit

    def induced(sl) -> _LazyRref:
        # per orbit's first block: (offset, core slice, Q's rref rows or
        # None for the identity, cosets)
        pivots, firsts, blocks = [], [], []
        for block in sl.blocks:
            u, core_sl, off = block
            orbit = suffix_orbit(u)
            if orbit is None:
                continue  # u is in the orbit of an earlier block
            blocks.append(block)
            stabiliser, cosets = orbit
            if len(stabiliser) == 1:
                xs = None
                pivots.extend(range(off, off + core_sl.dim))
            else:
                q = stabiliser_basis(core_sl, stabiliser)
                xs = q.reduced.rows
                pivots.extend(off + c for c in q.pivots)
            firsts.append((off, core_sl, xs, cosets))

        def rows(skip) -> list:
            offsets = {u: off for u, _, off in sl.blocks}
            out, i = [], 0
            for off, core_sl, xs, cosets in firsts:
                count = core_sl.dim if xs is None else len(xs)
                wanted = [k for k in range(count) if i + k not in skip]
                i += count
                if not wanted:
                    continue
                moved = [(offsets[v], chi[g] * eps, core_images(g, core_sl))
                         for v, g, eps in cosets]
                for k in wanted:
                    out.append(_induced_row(
                        off, {k: 1} if xs is None else xs[k], moved))
            return out

        # every pivot lies in an orbit's first block
        view = SimpleNamespace(dim=sl.dim, blocks=tuple(blocks))
        return _LazyRref(tuple(pivots), view, rows)

    return basis_at


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
    eps_g(u) g(m) g u.  For a linear character, the trivial or the sign
    one (P g = char(g) P), each orbit of suffix monomials is an induced
    representation, and P's image on it is induced from the stabiliser H
    of its first block u (Frobenius reciprocity; Serre, Linear
    Representations of Finite Groups, 7.2).
    Only the twisted projector Q = sum_h char(h^{-1}) eps_h(u) h is
    row-reduced, on u's core slice, once per core slice and (H, eps); H
    is trivial for most blocks, and Q then is the identity.  Each rref
    row x gives the row Phi(x) = sum_{g in G/H} char(g^{-1}) g(x u),
    which is x on block u and lies in the later blocks of the orbit
    elsewhere, so the rows are the rref of P's image.  A basis keeps its
    pivots and, per orbit's first block, Q's rows (none for the identity)
    and the cosets; a row Phi(x) is built only when a rank reads it, and
    a block's coset images only with its first row.  So no row that
    clearing drops is built, nor any row of a slice of degree
    max_degree + 1, which serves only as a target.  The core images g(m)
    are cached, and so are the suffix orbits, cosets and signed
    stabilisers, per subgroup: no character enters them, and a second
    character on the same subgroup reuses them.  Any other class
    function takes the rows P(m) over the basis monomials m of the whole
    slice, which span P's image, before one reduction.

    The restricted ranks are taken by the engine's clearing routine, as
    :func:`~cdgacalc.engine.differential_rank` takes d's: the basis rows
    at the pivot columns of the restricted map out of (d - 1, k) are left
    out.  d of each kept row x is sum_j x_j d(m_j), with d(m_j) from the
    engine's assembler, which builds only the rows some kept x touches;
    since d(x) lies in the target's rref span, its coordinates there are
    its entries at the target's pivot columns.  For a linear character
    those lie in the first blocks of the target's orbits, and only they
    are assembled.  No differential matrix of the slices is made.
    d^2 = 0 is certified first (raises :class:`AlgebraError` if it
    fails).

    The free exterior factors that every action fixes are split off
    first (:func:`_fixed_split`) by the rule of
    :attr:`~cdgacalc.engine.Presentation.reduced`: s odd and closed, and
    phi(g) = g - c h s an automorphism with phi^-1 d phi free of s.  As s
    is G-fixed, the exact sequence 0 -> s A -> A -> A/(s) -> 0 is
    G-equivariant, and s A is A/(s) shifted by (|s|, wt s), with d
    negated, as G-complexes.  Its connecting map vanishes, because phi
    splits it, and taking the image of P is exact over Q, so
    H^chi(A) = H^chi(A/(s)) (x) Lambda(s) for every class function: the
    ranks are taken on A/(s), whose actions are the restrictions of A's,
    and the table is tensored back.  A factor that some action moves,
    such as alpha_i when d(alpha_i) = 0, is kept: the quotient by it is
    not G-equivariant.  The split model is cached in p per set of fixed
    generators, and the core images, suffix orbits and stabiliser bases
    above are cached in it.
    """
    if max_degree < 0:
        raise AlgebraError("isotypic_cohomology: max_degree must be >= 0")
    elems = _closed_with_generators(subgroup)
    if character.r != len(elems[0]):
        raise AlgebraError(f"class function is on S_{character.r}, "
                           f"subgroup permutes {len(elems[0])} points")
    actions = {sig: symmetric_action(p, sig) for sig in elems}
    _certify(p)
    q, keep, factors = _fixed_split(p, actions)
    if q is not p:
        actions = {sig: a.restricted(q.context, keep)
                   for sig, a in actions.items()}
    basis_at = _isotypic_bases(q, actions, character)

    def size(degree: int, weight: int) -> int:
        return getattr(basis_at(degree, weight), "rank", 0)

    def rows(degree: int, weight: int, skip) -> list:
        src, tgt = basis_at(degree, weight), basis_at(degree + 1, weight)
        kept = src.rows(skip) if src and tgt and tgt.rank else ()
        if not kept:
            return []
        sl = quotient_slice(q, degree, weight)
        touched = set().union(*kept)
        d = _assemble(q, sl, tgt.view,
                      {j for j in range(sl.dim) if j not in touched})
        # d(x) lies in the target's rref span, where its coordinates are
        # its entries at the pivot columns, which the view holds
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
        return images

    entries = _entries(q, max_degree, size,
                       partial(_cleared_rank, {}, {}, size, rows))
    model = {"name": p.name, **p.params, "subgroup_order": len(elems)}
    return CohomologyTable(_tensor_exterior(entries, factors, max_degree),
                           max_degree, model)


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
    Euler characteristic.  The trace is a class function, so the sum
    runs over one permutation per cycle type lambda, weighted by its
    class size r!/z_lambda: p(r) actions are built, not r!.
    """
    _check_weight_bounds(p)
    r = p.params.get("r")
    if r is None:
        raise AlgebraError("presentation carries no point count r")
    if chi.r != r:
        raise AlgebraError(f"class function is on S_{chi.r}, model has r={r}")
    weights = []
    for part in _partitions(r):
        # the cycles (0 1 .. l-1), (l ..), ... of the partition's lengths
        sig, start = [], 0
        for length in part:
            sig += [*range(start + 1, start + length), start]
            start += length
        sig = tuple(sig)
        counts = {length: part.count(length) for length in part}
        z = math.prod(n ** k * math.factorial(k) for n, k in counts.items())
        if c := exact(chi(sig)):
            weights.append((sig, c * (math.factorial(r) // z)))
    actions = {sig: symmetric_action(p, sig) for sig, _ in weights}
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
