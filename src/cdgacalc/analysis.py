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
from typing import Iterable, Optional, Sequence

from .algebra import AlgebraContext, AlgebraError, BaseAlgebra, GeneratorSpec
from .engine import (CohomologyTable, Presentation, cohomology,
                     differential_matrix, map_matrix, quotient_slice,
                     _slice_weights)
from .linalg import SparseMatrix, rank, rref
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
    table = cohomology(pres, t_max, by_weight=True)
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


def check_subgroup_closed(subgroup: Sequence[Perm]) -> list[Perm]:
    return _closed_with_generators(subgroup)[0]


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

def isotypic_cohomology(p: Presentation, subgroup: Sequence[Perm],
                        character: ClassFunction,
                        max_degree: int) -> CohomologyTable:
    """Cohomology of the image of the character-averaging projector.

    The projector P = (char(1)/|G|) sum_sigma char(sigma^{-1}) sigma is
    central in Q[G], so it commutes with d (each action does, by
    construction) and d restricts to the isotypic subcomplex; each slice
    checks that exactly.  For the trivial character this is the
    subcomplex of invariants.  Only the rref of P's image is used, which
    a nonzero scalar does not change, so the 1/|G| is left out.

    Each action sends a monomial to one signed monomial, so the image is
    spanned by orbit sums of free monomials: P(sigma m) for the members
    sigma m of each orbit meeting the slice's basis, summed before one
    reduction.  For a linear character, P sigma = char(sigma) P, so one
    row per orbit, P(m), spans the same image; an orbit whose stabiliser
    acts by the other sign gives none.
    """
    if max_degree < 0:
        raise AlgebraError("isotypic_cohomology: max_degree must be >= 0")
    elems, gens = _closed_with_generators(subgroup)
    identity = tuple(range(len(elems[0])))
    if character.r != len(identity):
        raise AlgebraError(f"class function is on S_{character.r}, "
                           f"subgroup permutes {len(identity)} points")
    actions = {sig: symmetric_action(p, sig) for sig in elems}
    order = len(elems)
    dim_char = character(identity)
    shifted: dict = {}

    def shift_weights(sig: Perm) -> list:
        # P(sigma m) = sum_rho char(1) char(sigma rho^{-1}) rho m
        hit = shifted.get(sig)
        if hit is None:
            hit = shifted[sig] = [
                exact(dim_char * character(compose(sig, inverse(rho))))
                for rho in elems]
        return hit

    # char(a g) = char(a) char(g) for every generator g makes char
    # multiplicative: each element of a finite group is a word in them
    linear = dim_char == 1 and all(
        character(compose(a, g)) == character(a) * character(g)
        for a in elems for g in gens)

    def projector(degree: int, weight: int) -> SparseMatrix:
        sl = quotient_slice(p, degree, weight)
        seen: set = set()
        rows = []
        for mono in sl.quotient:
            if mono in seen:
                continue
            images = [actions[rho].image(mono) for rho in elems]
            # one shift sigma per distinct orbit member sigma m
            shifts: dict = {}
            for rho, (target, _) in zip(elems, images):
                shifts.setdefault(target, rho)
            seen.update(shifts)
            for sig in [identity] if linear else shifts.values():
                orbit_sum: dict = {}
                for (target, c), w in zip(images, shift_weights(sig)):
                    if w:
                        orbit_sum[target] = orbit_sum.get(target, 0) + w * c
                row = sl.coords(orbit_sum)
                if row:
                    rows.append(row)
        return SparseMatrix.from_rows(len(rows), sl.dim, rows)

    bases: dict = {}

    def basis_at(degree: int, weight: int):
        key = (degree, weight)
        if key not in bases:
            if quotient_slice(p, degree, weight).dim == 0:
                bases[key] = None
            else:
                # rref rows: a basis of the projector's image
                bases[key] = rref(projector(degree, weight))
        return bases[key]

    def restricted_rank(degree: int, weight: int) -> int:
        src = basis_at(degree, weight)
        if src is None or src.rank == 0:
            return 0
        tgt = basis_at(degree + 1, weight)
        if tgt is None or tgt.rank == 0:
            return 0
        image = src.reduced.matmul(differential_matrix(p, degree, weight))
        # in the rref basis of the target, coordinates are the entries in
        # the pivot columns; multiplying back verifies them exactly
        slot = {c: t for t, c in enumerate(tgt.pivots)}
        coords = SparseMatrix.from_rows(image.nrows, tgt.rank, (
            {slot[c]: v for c, v in row.items() if c in slot}
            for row in image.rows))
        if coords.matmul(tgt.reduced) != image:
            raise AlgebraError("internal error: image does not lie in the "
                               "invariant subspace")
        return rank(coords)

    entries: dict = {}
    for d in range(max_degree + 1):
        for k in _slice_weights(p, d):
            src = basis_at(d, k)
            q = 0 if src is None else src.rank
            if q == 0:
                continue
            r_out = restricted_rank(d, k)
            r_in = restricted_rank(d - 1, k) if d > 0 else 0
            value = q - r_out - r_in
            if value:
                entries[(d, k)] = value
    model = {"name": p.name, **p.params, "subgroup_order": order}
    return CohomologyTable(entries, max_degree, True, model)


def invariant_cohomology(p: Presentation, subgroup: Sequence[Perm],
                         max_degree: int) -> CohomologyTable:
    """Cohomology of the subcomplex of subgroup invariants."""
    r = len(check_subgroup_closed(subgroup)[0])
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
            if quotient_slice(p, i, k).dim == 0:
                continue
            for sig, c in weights:
                mat = map_matrix(p, actions[sig], i, k)
                tr = sum(mat.rows[a].get(a, 0) for a in range(mat.nrows))
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
