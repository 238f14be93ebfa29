"""Graded-commutative algebras of the shape ``B (x) Sym_gr(generators)``.

``B`` is a finite-dimensional graded-commutative algebra over Q given by
structure constants on an ordered basis, carrying a second (weight)
grading and a nondegenerate Poincare pairing into its top degree.  On top
of ``B`` sits a free graded-commutative algebra on finitely many
generators of positive degree: odd-degree generators are exterior
(square zero), even-degree ones polynomial.

Monomials are pairs (base-basis index, generator exponent vector); every
element is a finite Q-linear combination of monomials.  Products follow
the Koszul rule: transposing homogeneous factors u, v costs
``(-1)^{|u||v|}``.  The canonical monomial order (generator-degree, then
exponent vector, then base index) is fixed here once and relied on by
every other module for determinism.  :func:`monomial_walk` lists the
generator parts of each degree once, from the lower degrees, in that
order; both the free slices of a context and the engine's relation-free
suffixes are enumerated by it.

:func:`dual_basis` inverts the Poincare pairing block by block; it is
the pairing check of :meth:`BaseAlgebra.validate` and gives the models
their diagonal class.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .linalg import SparseMatrix, rref
from .rat import ONE, exact, rat_from_str


class AlgebraError(ValueError):
    """A violated algebra law or an ill-formed construction."""


# ---------------------------------------------------------------------------
# Base algebras
# ---------------------------------------------------------------------------

class BaseAlgebra:
    """Finite-dimensional graded-commutative algebra with Poincare pairing.

    The basis is ordered; products are stored as sparse structure
    constants ``basis_i * basis_j = sum_k c^k_{ij} basis_k``.  Weights
    default to degrees (the pure case).  Instances are immutable after
    construction.  The constructor is where a table enters the library
    (the presets and the JSON loader both call it), so it always
    validates the table against every algebra law.
    """

    __slots__ = ("name", "n", "labels", "degrees", "weights", "unit",
                 "fundamental", "table", "dim", "_by_degree",
                 "_by_deg_weight", "_label_index")

    def __init__(self, name: str, n: int, labels: Sequence[str],
                 degrees: Sequence[int], unit: int, fundamental: int,
                 table: dict, weights: Optional[Sequence[int]] = None):
        self._fill(name, n, labels, degrees, unit, fundamental, table,
                   weights)
        self.validate()

    def _fill(self, name, n, labels, degrees, unit, fundamental, table,
              weights) -> None:
        """Set every field from the arguments; no algebra law is checked."""
        self.name = name
        self.n = n
        self.labels = tuple(labels)
        self.degrees = tuple(int(d) for d in degrees)
        self.weights = (tuple(int(w) for w in weights) if weights is not None
                        else self.degrees)
        self.unit = unit
        self.fundamental = fundamental
        self.dim = len(self.labels)
        # normalize the table: drop zero coefficients and empty products
        tbl: dict[tuple[int, int], dict[int, object]] = {}
        for (i, j), prod in table.items():
            clean = {k: exact(c) for k, c in prod.items() if c}
            if clean:
                tbl[(i, j)] = clean
        self.table = tbl
        self._index_grades()
        self._label_index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._label_index) != self.dim:
            raise AlgebraError("duplicate basis labels")

    def _index_grades(self) -> None:
        """The basis indices of each degree and (degree, weight), ascending."""
        by_degree: dict[int, list[int]] = {}
        by_deg_weight: dict[tuple[int, int], list[int]] = {}
        for idx, (d, w) in enumerate(zip(self.degrees, self.weights)):
            by_degree.setdefault(d, []).append(idx)
            by_deg_weight.setdefault((d, w), []).append(idx)
        self._by_degree = {d: tuple(v) for d, v in by_degree.items()}
        self._by_deg_weight = {k: tuple(v) for k, v in by_deg_weight.items()}

    # -- lookups ---------------------------------------------------------

    def product(self, i: int, j: int) -> dict[int, object]:
        return self.table.get((i, j), {})

    def label(self, idx: int) -> str:
        return self.labels[idx]

    def index_of(self, label: str) -> int:
        try:
            return self._label_index[label]
        except KeyError:
            raise AlgebraError(f"unknown basis label {label!r}") from None

    def basis_of_degree(self, d: int, weight: Optional[int] = None):
        if weight is None:
            return self._by_degree.get(d, ())
        return self._by_deg_weight.get((d, weight), ())

    def betti(self, i: int) -> int:
        return len(self._by_degree.get(i, ()))

    def positive_degree_indices(self) -> tuple[int, ...]:
        return tuple(i for i, d in enumerate(self.degrees) if d > 0)

    # -- validation ------------------------------------------------------

    def validate(self) -> None:
        """Check every algebra law; raise naming the first violated one.

        Every law is checked on every pair and triple of basis elements
        and reports its lexicographically smallest violation.  The cost
        is proportional to the nonzero products and the paths through
        them, not to dim^3: pairs and triples whose products are all zero
        satisfy commutativity and associativity and are skipped.
        """
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
        for i, j in sorted({(min(i, j), max(i, j)) for i, j in self.table}):
            sign = -ONE if (deg[i] % 2 and deg[j] % 2) else ONE
            forward = self.product(i, j)
            back = {k: sign * c for k, c in self.product(j, i).items()}
            if forward != back:
                raise AlgebraError(
                    f"graded commutativity: {lab[i]}*{lab[j]} != "
                    f"(-1)^(|{lab[i]}||{lab[j]}|) {lab[j]}*{lab[i]}")
        self._validate_associativity()
        dual_basis(self)

    def _validate_associativity(self) -> None:
        """(i*j)*k == i*(j*k) for every triple, visiting only nonzero paths.

        For each middle element j both sides are summed per (i, k, t)
        through row and column indexes of the table, so only triples with
        a nonzero product on some side are touched.  Triples containing
        the unit follow from the unit law, which ``validate`` checks first.
        """
        lab, unit = self.labels, self.unit
        rows: dict[int, list] = {}  # m -> [(k, items of m*k)], k != unit
        cols: dict[int, list] = {}  # m -> [(i, items of i*m)], i != unit
        for (i, j), prod in self.table.items():
            items = tuple(prod.items())
            if j != unit:
                rows.setdefault(i, []).append((j, items))
            if i != unit:
                cols.setdefault(j, []).append((i, items))
        worst = None
        for j in sorted((rows.keys() | cols.keys()) - {unit}):
            left: dict[tuple[int, int, int], object] = {}
            for i, ij in cols.get(j, ()):
                for m, c in ij:
                    for k, mk in rows.get(m, ()):
                        for t, c2 in mk:
                            key = (i, k, t)
                            left[key] = left.get(key, 0) + c * c2
            right: dict[tuple[int, int, int], object] = {}
            for k, jk in rows.get(j, ()):
                for m, c in jk:
                    for i, im in cols.get(m, ()):
                        for t, c2 in im:
                            key = (i, k, t)
                            right[key] = right.get(key, 0) + c * c2
            if left == right:
                continue
            for i, k, t in left.keys() | right.keys():
                if left.get((i, k, t), 0) != right.get((i, k, t), 0) \
                        and (worst is None or (i, j, k) < worst):
                    worst = (i, j, k)
        if worst is not None:
            i, j, k = worst
            raise AlgebraError(
                f"associativity: ({lab[i]}*{lab[j]})*{lab[k]} "
                f"!= {lab[i]}*({lab[j]}*{lab[k]})")

    def __repr__(self):
        return f"BaseAlgebra({self.name!r}, n={self.n}, dim={self.dim})"


def dual_basis(base: BaseAlgebra) -> list[dict]:
    """Dual basis under the Poincare pairing: b_i . dual(b_j) = delta_ij [X].

    Entry j is the element dual to basis element j, as coefficients on the
    complementary-degree basis.  Raises :class:`AlgebraError` naming the
    first degree block (d, 2n - d) whose pairing is not square, or is
    singular.
    """
    top = base.fundamental
    duals: list[dict] = [dict() for _ in range(base.dim)]
    for d in sorted(set(base.degrees)):
        rows_idx = base.basis_of_degree(d)
        cols_idx = base.basis_of_degree(2 * base.n - d)
        m = len(rows_idx)
        if m != len(cols_idx):
            raise AlgebraError(
                f"Poincaré pairing nondegeneracy: degree block "
                f"({d}, {2 * base.n - d}) has sizes {m} != {len(cols_idx)}")
        aug = SparseMatrix(m, 2 * m)
        for a, i in enumerate(rows_idx):
            for b, j in enumerate(cols_idx):
                c = base.product(i, j).get(top)
                if c:
                    aug.rows[a][b] = c
            aug.rows[a][m + a] = ONE
        res = rref(aug)
        if res.pivots[:m] != tuple(range(m)):
            raise AlgebraError(
                f"Poincaré pairing nondegeneracy: singular pairing on "
                f"degree block ({d}, {2 * base.n - d})")
        # reduced = [I | P^{-1}]; dual of rows_idx[a] is column a of P^{-1}
        for a in range(m):
            for b in range(m):
                c = res.reduced.rows[b].get(m + a)
                if c:
                    duals[rows_idx[a]][cols_idx[b]] = c
    return duals


class TensorAlgebra(BaseAlgebra):
    """Tensor product of base algebras, as a view over its factors.

    Basis elements are tuples of factor basis elements (encoded row-major
    into a flat index), labelled by the factor labels joined with "⊗"; a
    factor label that itself holds "⊗" is wrapped in parentheses.
    ``pullback`` implements the algebra map induced by projecting onto one
    factor.

    Nothing is built per pair of classes up front: ``product`` multiplies
    the factors' products slot by slot, with the Koszul signs of the
    interleaving, on first use and memoises the result, so ``table``
    holds only the pairs seen so far (zero products as empty dicts).
    Degrees, weights and the per-degree bases are built in passes linear
    in the dimension; labels are computed on demand.  The view is not
    validated: a tensor product of valid factors satisfies every law by
    construction, which the test suite checks against the all-pairs
    product table.
    """

    __slots__ = ("factors", "_strides")

    def __init__(self, factors: Sequence[BaseAlgebra], name=None):
        factors = tuple(factors)
        strides = [1] * len(factors)
        for i in range(len(factors) - 2, -1, -1):
            strides[i] = strides[i + 1] * factors[i + 1].dim
        self.factors = factors
        self._strides = tuple(strides)
        self.name = name or "⊗".join(f.name for f in factors)
        self.n = sum(f.n for f in factors)
        self.dim = strides[0] * factors[0].dim
        self.unit = self._enc(tuple(f.unit for f in factors))
        self.fundamental = self._enc(tuple(f.fundamental for f in factors))
        degrees = weights = (0,)
        for f in factors:
            degrees = tuple(d + e for d in degrees for e in f.degrees)
            weights = tuple(w + e for w in weights for e in f.weights)
        self.degrees = degrees
        self.weights = weights
        self._index_grades()
        self.table = {}

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(map(self.label, range(self.dim)))

    def label(self, idx: int) -> str:
        parts = []
        for f in reversed(self.factors):
            idx, a = divmod(idx, f.dim)
            lab = f.label(a)
            parts.append(f"({lab})" if "⊗" in lab else lab)
        return "⊗".join(reversed(parts))

    def index_of(self, label: str) -> int:
        for idx in range(self.dim):
            if self.label(idx) == label:
                return idx
        raise AlgebraError(f"unknown basis label {label!r}")

    def product(self, i: int, j: int) -> dict[int, object]:
        prod = self.table.get((i, j))
        if prod is None:
            prod = self.table[(i, j)] = self._multiply(i, j)
        return prod

    def _multiply(self, i: int, j: int) -> dict[int, object]:
        # one pass over the slots, right to left: each class b of the
        # right operand moves left past the odd classes of the left one
        # to its right.  Single-term factor products fold into (k, c);
        # the others expand afterwards, the leftmost factor's terms
        # outermost, as a left-to-right expansion orders them.
        k, c = 0, ONE
        stride = 1
        flip = odd_after = 0
        several = []
        for f in reversed(self.factors):
            dim = f.dim
            i, a = divmod(i, dim)
            j, b = divmod(j, dim)
            prod = f.table.get((a, b))
            if prod is None:  # a factor that is itself a lazy view
                prod = f.product(a, b)
            if not prod:
                return {}
            flip ^= odd_after & f.degrees[b]
            odd_after ^= f.degrees[a] & 1
            if len(prod) == 1:
                for k2, c2 in prod.items():
                    k += stride * k2
                    c *= c2
            else:
                several.append((stride, prod))
            stride *= dim
        if flip:
            c = -c
        if not several:
            return {k: c if type(c) is int else exact(c)}
        acc = [(k, c)]
        for stride, prod in several:
            acc = [(k + stride * k2, c * c2)
                   for k2, c2 in prod.items() for k, c in acc]
        return {k: c if type(c) is int else exact(c) for k, c in acc}

    def _enc(self, combo: tuple[int, ...]) -> int:
        return sum(c * s for c, s in zip(combo, self._strides))

    def encode(self, combo: Sequence[int]) -> int:
        return self._enc(tuple(combo))

    def decode(self, idx: int) -> tuple[int, ...]:
        out = []
        for s, f in zip(self._strides, self.factors):
            out.append(idx // s % f.dim)
        return tuple(out)

    def pullback(self, slot: int, coeffs: dict[int, object]) -> dict[int, object]:
        """Embed a factor element into the tensor algebra (units elsewhere)."""
        out: dict[int, object] = {}
        units = [f.unit for f in self.factors]
        for idx, c in coeffs.items():
            combo = list(units)
            combo[slot] = idx
            out[self._enc(tuple(combo))] = exact(c)
        return {k: c for k, c in out.items() if c}


def tensor_many(factors: Sequence[BaseAlgebra],
                name: Optional[str] = None) -> TensorAlgebra:
    if not factors:
        raise AlgebraError("tensor product needs at least one factor")
    return TensorAlgebra(factors, name=name)


def tensor_power(base: BaseAlgebra, r: int) -> TensorAlgebra:
    """r-fold tensor power with Koszul signs (Kunneth model of X^r)."""
    if r < 1:
        raise AlgebraError("tensor power needs r >= 1")
    return tensor_many([base] * r, name=f"{base.name}^⊗{r}")


# ---------------------------------------------------------------------------
# Free generators over a base
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorSpec:
    """A free graded-commutative generator; odd degree means exterior."""
    label: str
    degree: int
    weight: int

    def __post_init__(self):
        if self.degree < 1:
            raise AlgebraError(
                f"generator {self.label!r} has degree {self.degree}; "
                "generators must have degree >= 1 so slices stay finite")
        if self.weight < 0:
            raise AlgebraError(f"generator {self.label!r} has negative weight")

    @property
    def odd(self) -> bool:
        return self.degree % 2 == 1


class Monomial(NamedTuple):
    """Base basis element times a generator exponent vector."""
    base: int
    exps: tuple[int, ...]


class AlgebraContext:
    """``base (x) Sym_gr(generators)``: the ambient free algebra.

    Immutable after construction; monomial enumeration is cached per
    (degree, weight).
    """

    __slots__ = ("base", "generators", "gen_degrees", "gen_weights",
                 "gen_parities", "_label_index", "_mono_cache", "_walk")

    def __init__(self, base: BaseAlgebra, generators: Sequence[GeneratorSpec]):
        self.base = base
        self.generators = tuple(generators)
        self.gen_degrees = tuple(g.degree for g in self.generators)
        self.gen_weights = tuple(g.weight for g in self.generators)
        self.gen_parities = tuple(d % 2 for d in self.gen_degrees)
        self._label_index = {g.label: i for i, g in enumerate(self.generators)}
        if len(self._label_index) != len(self.generators):
            raise AlgebraError("duplicate generator labels")
        self._mono_cache: dict = {}
        # monomial_walk's memo of the generator monomials per degree
        self._walk: list = []

    # -- basic constructors ----------------------------------------------

    def zero(self) -> "Element":
        return Element(self, {})

    def one(self) -> "Element":
        return self.base_element({self.base.unit: ONE})

    def monomial(self, base_idx: int, exps: Optional[Sequence[int]] = None) -> Monomial:
        if exps is None:
            exps = (0,) * len(self.generators)
        return Monomial(base_idx, tuple(exps))

    def base_element(self, coeffs: dict[int, object]) -> "Element":
        zero_exps = (0,) * len(self.generators)
        return Element(self, {Monomial(i, zero_exps): exact(c)
                              for i, c in coeffs.items() if c})

    def gen_element(self, gen: int | str) -> "Element":
        if isinstance(gen, str):
            gen = self.gen_index(gen)
        exps = [0] * len(self.generators)
        exps[gen] = 1
        return Element(self, {Monomial(self.base.unit, tuple(exps)): ONE})

    def gen_index(self, label: str) -> int:
        try:
            return self._label_index[label]
        except KeyError:
            raise AlgebraError(f"unknown generator label {label!r}") from None

    def element(self, terms: dict[Monomial, object]) -> "Element":
        return Element(self, {m: exact(c) for m, c in terms.items() if c})

    # -- grading ----------------------------------------------------------

    def monomial_degree(self, m: Monomial) -> int:
        return self.base.degrees[m.base] + sum(
            e * d for e, d in zip(m.exps, self.gen_degrees))

    def monomial_weight(self, m: Monomial) -> int:
        return self.base.weights[m.base] + sum(
            e * w for e, w in zip(m.exps, self.gen_weights))

    def monomial_key(self, m: Monomial):
        """Canonical order: generator-part degree, exponents, base index."""
        gdeg = sum(e * d for e, d in zip(m.exps, self.gen_degrees))
        return (gdeg, m.exps, m.base)

    def monomial_label(self, m: Monomial) -> str:
        parts = []
        if m.base != self.base.unit or not any(m.exps):
            parts.append(self.base.label(m.base))
        for g, e in zip(self.generators, m.exps):
            if e == 1:
                parts.append(g.label)
            elif e > 1:
                parts.append(f"{g.label}^{e}")
        return "·".join(parts)

    # -- multiplication ----------------------------------------------------

    def mul_term_into(self, acc: dict, m1: Monomial, c1, m2: Monomial, c2) -> None:
        """Accumulate ``(c1 m1) * (c2 m2)`` into ``acc`` (dict Monomial->Q)."""
        e1, e2 = m1.exps, m2.exps
        par = self.gen_parities
        exps = []
        for i, (a, b) in enumerate(zip(e1, e2)):
            s = a + b
            if s > 1 and par[i]:
                return
            exps.append(s)
        # Koszul sign of merging the two generator words ...
        sign = 0
        suffix = 0
        for i in range(len(par) - 1, -1, -1):
            if e2[i] and par[i] and (e2[i] % 2):
                sign += suffix
            if e1[i] and par[i]:
                suffix += e1[i]
        # ... plus the base part of m2 moving past the generators of m1.
        if self.base.degrees[m2.base] % 2:
            sign += suffix
        coeff = c1 * c2
        if sign % 2:
            coeff = -coeff
        exps_t = tuple(exps)
        for k, cb in self.base.product(m1.base, m2.base).items():
            mono = Monomial(k, exps_t)
            v = acc.get(mono)
            v = coeff * cb if v is None else v + coeff * cb
            if v:
                acc[mono] = v
            else:
                acc.pop(mono, None)

    # -- monomial bases -----------------------------------------------------

    def monomials_of(self, degree: int, weight: Optional[int] = None
                     ) -> tuple[Monomial, ...]:
        """All monomials of the given degree (and weight), canonical order.

        The list is complete and duplicate-free; it is finite because
        every generator has degree >= 1.  Per generator degree d', the
        generator parts in :func:`monomial_walk` order, each times the
        base classes of the rest in index order: the canonical order.
        """
        if degree < 0:
            raise AlgebraError("monomials_of: degree must be >= 0")
        key = (degree, weight)
        cached = self._mono_cache.get(key)
        if cached is not None:
            return cached
        basis = self.base.basis_of_degree
        out = []
        for d in range(degree + 1):
            for e, w, _ in monomial_walk(self.generators, self._walk, d)[0]:
                classes = (basis(degree - d) if weight is None
                           else basis(degree - d, weight - w))
                out.extend(Monomial(b, e) for b in classes)
        result = self._mono_cache[key] = tuple(out)
        return result

    def __repr__(self):
        gens = ",".join(g.label for g in self.generators)
        return f"AlgebraContext({self.base.name}; [{gens}])"


def monomial_walk(generators: Sequence[GeneratorSpec], memo: list,
                  degree: int) -> tuple[list, dict]:
    """``(made, grouped)`` for the monomials of the given degree in the
    generators: ``made`` lists (exponents, weight, index of the last
    generator) in lexicographic order of the exponents, ``grouped`` maps
    each weight, in order of its first monomial, to its exponents.

    ``memo`` holds the degrees built so far and grows to ``degree``.
    Each degree is built once, from the lower ones: a monomial is reached
    from its last generator g, as g times a monomial of degree - |g| in
    the generators before g, or up to g when g is even.
    """
    for d in range(len(memo), degree + 1):
        made = [((0,) * len(generators), 0, -1)] if d == 0 else []
        for j, g in enumerate(generators):
            if g.degree > d:
                continue
            for e, w, last in memo[d - g.degree][0]:
                if last < j or (last == j and not g.odd):
                    made.append((e[:j] + (e[j] + 1,) + e[j + 1:],
                                 w + g.weight, j))
        made.sort()
        grouped: dict = {}
        for e, w, _ in made:
            grouped.setdefault(w, []).append(e)
        memo.append((made, grouped))
    return memo[degree]


class Element:
    """Finite Q-linear combination of monomials in one context."""

    __slots__ = ("context", "terms")

    def __init__(self, context: AlgebraContext, terms: dict[Monomial, object]):
        self.context = context
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "Element") -> None:
        if self.context is not other.context:
            raise AlgebraError("context mismatch: elements live in "
                               "different algebras")

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m)
            v = c if v is None else v + c
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return Element(self.context, out)

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __neg__(self) -> "Element":
        return Element(self.context, {m: -c for m, c in self.terms.items()})

    def scale(self, c) -> "Element":
        c = exact(c)
        if not c:
            return Element(self.context, {})
        return Element(self.context, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Element):
            return self.scale(other)
        self._check(other)
        acc: dict[Monomial, object] = {}
        ctx = self.context
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                ctx.mul_term_into(acc, m1, c1, m2, c2)
        return Element(ctx, acc)

    def __rmul__(self, other):
        return self.scale(other)

    def degree(self) -> Optional[int]:
        """Common degree of all terms; raises if inhomogeneous."""
        degs = {self.context.monomial_degree(m) for m in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise AlgebraError(f"inhomogeneous element (degrees {sorted(degs)})")
        return degs.pop()

    def weight(self) -> Optional[int]:
        wts = {self.context.monomial_weight(m) for m in self.terms}
        if not wts:
            return None
        if len(wts) > 1:
            raise AlgebraError(f"inhomogeneous element (weights {sorted(wts)})")
        return wts.pop()

    def __eq__(self, other):
        return (isinstance(other, Element) and self.context is other.context
                and self.terms == other.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        ctx = self.context
        bits = []
        for m in sorted(self.terms, key=ctx.monomial_key):
            c = self.terms[m]
            lab = ctx.monomial_label(m)
            bits.append(f"{c}·{lab}" if c != 1 else lab)
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# Signed monomial permutations
# ---------------------------------------------------------------------------

class MonomialPermutation:
    """Endomorphism permuting tensor factors up to sign and generators.

    The base is a tensor power; ``slots[i]`` is the slot factor i moves
    to, so a base class goes to one class of the same (degree, weight)
    times the Koszul sign of its odd factor classes passing each other.
    ``gen_to[g] = t`` sends generator g to generator t of the same
    (degree, weight); ``gen_to`` is a permutation, as the
    symmetric-group actions have by construction.  The map extends
    multiplicatively with Koszul signs, so a monomial b x^e goes to one
    signed monomial c b' x^(pi e), its sign c times that of the
    inversions among the permuted odd generators; no products are formed.
    ``base_image(b) = (b', c)`` is computed on first use and memoised in
    ``base_to``.
    """

    __slots__ = ("context", "slots", "gen_to", "base_to", "_source", "_odd")

    def __init__(self, context: AlgebraContext, slots: Sequence[int],
                 gen_to: Sequence[int]):
        self.context = context
        self.slots = tuple(slots)
        self.gen_to = tuple(gen_to)
        self.base_to: dict[int, tuple[int, int]] = {}
        # the image exponent of x_t is that of its source generator
        self._source = tuple(sorted(range(len(self.gen_to)),
                                    key=self.gen_to.__getitem__))
        self._odd = tuple(g for g, odd in enumerate(context.gen_parities)
                          if odd)

    def base_image(self, b: int) -> tuple[int, int]:
        """``(b', c)`` with phi(b) = c b', for a base class b."""
        hit = self.base_to.get(b)
        if hit is not None:
            return hit
        base = self.context.base
        # inversions among the odd factor classes, as for generators below
        target = seen = flip = 0
        for f, a, s in zip(base.factors, base.decode(b), self.slots):
            target += a * base._strides[s]
            if f.degrees[a] & 1:
                flip ^= (seen >> s).bit_count() & 1
                seen |= 1 << s
        hit = self.base_to[b] = (target, -1 if flip else 1)
        return hit

    def restricted(self, context: AlgebraContext,
                   keep: Optional[Sequence[int]] = None
                   ) -> "MonomialPermutation":
        """This map on ``context``, whose generators are those listed in
        ``keep`` of this map's context (by default its first ones), in
        order, with the same base, and which this map sends to each
        other.  The memo of base images is shared."""
        if keep is None:
            keep = range(len(context.generators))
        slot = {g: i for i, g in enumerate(keep)}
        phi = MonomialPermutation(context, self.slots,
                                  [slot[self.gen_to[g]] for g in keep])
        phi.base_to = self.base_to
        return phi

    def image(self, mono: Monomial) -> tuple[Monomial, int]:
        """``(m', c)`` with phi(mono) = c m', for a monomial of the
        context (every odd exponent at most 1)."""
        b, c = self.base_to.get(mono.base) or self.base_image(mono.base)
        e = mono.exps
        # inversions among the images of the odd generators, in order
        seen = inversions = 0
        gen_to = self.gen_to
        for g in self._odd:
            if e[g]:
                t = gen_to[g]
                inversions += (seen >> t).bit_count()
                seen |= 1 << t
        return (Monomial(b, tuple(map(e.__getitem__, self._source))),
                -c if inversions & 1 else c)


# ---------------------------------------------------------------------------
# Textual base-algebra format
# ---------------------------------------------------------------------------

def base_algebra_from_dict(data) -> BaseAlgebra:
    """Build a BaseAlgebra from the JSON document structure.

    Required fields: ``name``, ``n``, ``basis`` (list of objects with
    ``label``, integer ``degree`` and optional integer ``weight``),
    ``unit``, ``fundamental``, ``products`` (list of {left, right, value}
    with value a list of [label, "p/q"] pairs).  Omitted products default
    to zero, except that products with the unit are implied and a product
    stated in only one order is completed by graded commutativity.  All
    algebra laws are then validated; the first violated law is named in
    the raised error.  Any malformed document raises ``AlgebraError``.
    """
    if not isinstance(data, dict):
        raise AlgebraError(f"algebra document must be a JSON object, not "
                           f"{type(data).__name__}")
    try:
        fields = _parse_algebra_document(data)
    except KeyError as missing:
        raise AlgebraError(f"missing field {missing.args[0]!r}") from None
    except AlgebraError:
        raise
    except (TypeError, ValueError) as err:
        raise AlgebraError(f"malformed algebra document: {err}") from None
    name, n, labels, degrees, weights, unit, fund, table = fields
    return BaseAlgebra(name, n, labels, degrees, unit, fund, table,
                       weights=weights)


def _integer(value, what: str) -> int:
    if type(value) is not int:  # JSON true/false are not integers
        raise AlgebraError(f"{what} must be an integer, got {value!r}")
    return value


def _parse_algebra_document(data: dict):
    """The BaseAlgebra arguments a document states; no law checked yet."""
    name = str(data["name"])
    n = _integer(data["n"], "n")
    basis = data["basis"]
    unit_label = str(data["unit"])
    fund_label = str(data["fundamental"])
    labels, degrees, weights = [], [], []
    for entry in basis:
        label = str(entry["label"])
        degree = _integer(entry["degree"], f"degree of {label!r}")
        labels.append(label)
        degrees.append(degree)
        weights.append(_integer(entry.get("weight", degree),
                                f"weight of {label!r}"))
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise AlgebraError("duplicate basis labels")
    if unit_label not in index:
        raise AlgebraError(f"unit label: {unit_label!r} is not a basis element")
    if fund_label not in index:
        raise AlgebraError(
            f"fundamental label: {fund_label!r} is not a basis element")
    unit = index[unit_label]
    fund = index[fund_label]

    table: dict[tuple[int, int], dict[int, object]] = {}
    stated: set[tuple[int, int]] = set()
    for entry in data.get("products", []):
        if isinstance(entry, dict):
            left, right, val = entry["left"], entry["right"], entry["value"]
        else:  # triple form [left, right, [[label, "p/q"], ...]]
            left, right, val = entry
        i = index.get(str(left))
        j = index.get(str(right))
        if i is None or j is None:
            raise AlgebraError(
                f"product references unknown label {left!r} or {right!r}")
        value: dict[int, object] = {}
        for lab, coeff in val:
            k = index.get(str(lab))
            if k is None:
                raise AlgebraError(f"product value references unknown "
                                   f"label {lab!r}")
            value[k] = value.get(k, 0) + rat_from_str(str(coeff))
        table[(i, j)] = {k: c for k, c in value.items() if c}
        stated.add((i, j))
    # implied products: unit action, then graded-commutative mirrors
    for i in range(len(labels)):
        if (unit, i) not in stated:
            table[(unit, i)] = {i: ONE}
        if (i, unit) not in stated:
            table[(i, unit)] = {i: ONE}
    for (i, j) in list(stated):
        if (j, i) not in stated and (j, i) not in table:
            sign = -ONE if (degrees[i] % 2 and degrees[j] % 2) else ONE
            table[(j, i)] = {k: sign * c for k, c in table[(i, j)].items()}
    return name, n, labels, degrees, weights, unit, fund, table


def load_base_algebra(path: str) -> BaseAlgebra:
    """Load and validate a base algebra from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as err:  # bad JSON or bad UTF-8
            raise AlgebraError(f"invalid algebra file {path}: {err}") from None
    return base_algebra_from_dict(data)
