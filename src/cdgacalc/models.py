"""Built-in base algebras and the model CDGAs over them.

Base presets: projective spaces P^n (Q[x]/x^{n+1}, |x| = 2), closed
orientable surfaces of genus g (a_i b_i = [X] = -b_i a_i), products via
Kunneth, and user-supplied algebras from JSON files.

Model families over a base X with H^2-class c:

* ``configuration_model(X, r)``: the Kriz-Totaro algebra for the ordered
  configuration space of r points.  Generators G_ab (a < b, degree
  2n - 1, weight 2n; G_ba is normalized to G_ab on input), the Arnold
  three-term relations, the pullback relations (pi_a^* x - pi_b^* x) G_ab,
  and d(G_ab) = pi_ab^*(Delta) for Delta the diagonal class.
* ``section_model(X, c, r)``: the configuration model tensored with free
  generators s[b] (one per basis element b, degree |b| + 1, weight
  |b| + 2), alpha_i (degree 2n - 1, weight 2n) and eta_i (degree 2n,
  weight 2n + 2), with d(alpha_i) = pi_i^*[X] and
  d(eta_i) = sum_j pi_i^*(b_j^dual) s[b_j] - pi_i^*(c) alpha_i.
* ``twisted_section_model(X, chern, d, r)``: same underlying algebra; the
  differential uses the Euler class of the twisted cotangent bundle,
  d(alpha_i) = pi_i^*(e) with e = sum_i c_i(Omega^1) c_1(L)^{n-i} d^{n-i},
  and d*c_1(L) in place of c.

The diagonal class is Delta = sum_j (-1)^{|b_j|} b_j (x) b_j^dual; the
sign convention is pinned operationally by (x (x) 1 - 1 (x) x) Delta = 0
for every basis x together with the self-intersection identity (the
coefficient of [X] (x) [X] in Delta^2 equals chi(X)).  Both follow from
Poincare duality on a valid base and are checked by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional, Sequence, Union

from .algebra import (AlgebraContext, AlgebraError, BaseAlgebra, Element,
                      GeneratorSpec, Monomial, MonomialPermutation,
                      TensorAlgebra, dual_basis, load_base_algebra,
                      tensor_many, tensor_power)
from .engine import Presentation
from .rat import ONE, exact, rat_from_str


# ---------------------------------------------------------------------------
# Space specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectiveSpace:
    n: int


@dataclass(frozen=True)
class Surface:
    genus: int


@dataclass(frozen=True)
class Product:
    left: "SpaceSpec"
    right: "SpaceSpec"


@dataclass(frozen=True)
class Custom:
    path: str


SpaceSpec = Union[ProjectiveSpace, Surface, Product, Custom]


def parse_space(text: str) -> SpaceSpec:
    """Parse CLI space strings: ``P2``, ``S1``, ``P1xP1``, ``custom:<path>``."""
    s = text.strip()
    if s.startswith("custom:"):
        path = s[len("custom:"):]
        if not path:
            raise AlgebraError("custom space needs a file path")
        return Custom(path)
    tokens = s.split("x")
    specs: list[SpaceSpec] = []
    for tok in tokens:
        tok = tok.strip()
        if len(tok) >= 2 and tok[0] == "P" and tok[1:].isdigit():
            n = int(tok[1:])
            if n < 1:
                raise AlgebraError(f"projective space needs n >= 1: {tok!r}")
            specs.append(ProjectiveSpace(n))
        elif len(tok) >= 2 and tok[0] == "S" and tok[1:].isdigit():
            specs.append(Surface(int(tok[1:])))
        else:
            raise AlgebraError(f"cannot parse space token {tok!r} "
                               f"(expected P<n>, S<g>, or custom:<path>)")
    if not specs:
        raise AlgebraError(f"empty space specification {text!r}")
    spec = specs[0]
    for nxt in specs[1:]:
        spec = Product(spec, nxt)
    return spec


# The largest dim H*(X) a space may have.  P^127 builds in about 0.4 s on
# a 2.0 GHz Xeon, and the largest space in the tests, table1, the bench
# and the ladder is S1xS3, of dimension 32.
MAX_BASE_DIM = 128
# The largest dim H*(X)^r a model may have.  P1^17 (2^17 classes) builds in
# about 0.07 s on the same machine; the largest power in the tests,
# table1, the bench and the ladder is P2^8, and P2^10 has 59,049 classes.
MAX_TENSOR_DIM = 2 ** 17


def _base_dim(spec: SpaceSpec) -> int:
    """dim H*(X) read off the specification: n + 1 for P^n, 2g + 2 for
    S_g, the product for a product.  A custom factor counts as 1, a
    lower bound, as its size is known only once its file is read."""
    if isinstance(spec, ProjectiveSpace):
        return spec.n + 1
    if isinstance(spec, Surface):
        return 2 * spec.genus + 2
    if isinstance(spec, Product):
        return _base_dim(spec.left) * _base_dim(spec.right)
    return 1


def build_base(spec: SpaceSpec) -> BaseAlgebra:
    """Resolve a space specification to a validated BaseAlgebra.  Raises
    :class:`AlgebraError` before building anything when dim H*(X) would
    exceed ``MAX_BASE_DIM``."""
    dim = _base_dim(spec)
    if dim > MAX_BASE_DIM:
        raise AlgebraError(f"dim H* of the space is at least {dim}, "
                           f"above the limit of {MAX_BASE_DIM}")
    if isinstance(spec, ProjectiveSpace):
        n = spec.n
        if n < 1:
            raise AlgebraError("projective space needs n >= 1")
        labels = ["1", "x"] + [f"x^{i}" for i in range(2, n + 1)]
        table = {(i, j): {i + j: ONE}
                 for i in range(n + 1) for j in range(n + 1) if i + j <= n}
        return BaseAlgebra(f"P{n}", n, labels, [2 * i for i in range(n + 1)],
                           0, n, table)
    if isinstance(spec, Surface):
        g = spec.genus
        if g < 0:
            raise AlgebraError("surface needs genus >= 0")
        labels = (["1"] + [f"a{i}" for i in range(1, g + 1)]
                  + [f"b{i}" for i in range(1, g + 1)] + ["X"])
        degrees = [0] + [1] * (2 * g) + [2]
        dim = len(labels)
        top = dim - 1
        table = {(0, i): {i: ONE} for i in range(dim)}
        table.update({(i, 0): {i: ONE} for i in range(1, dim)})
        for i in range(1, g + 1):
            table[(i, g + i)] = {top: ONE}
            table[(g + i, i)] = {top: -ONE}
        return BaseAlgebra(f"S{g}", 1, labels, degrees, 0, top, table)
    if isinstance(spec, Product):
        left = build_base(spec.left)
        right = build_base(spec.right)
        return tensor_many([left, right], name=f"{left.name}x{right.name}")
    if isinstance(spec, Custom):
        return load_base_algebra(spec.path)
    raise AlgebraError(f"unknown space specification {spec!r}")


# ---------------------------------------------------------------------------
# Degree-2 classes
# ---------------------------------------------------------------------------

def degree_two_class(base: BaseAlgebra, coords: Sequence) -> dict:
    """Coefficients on the degree-2 basis (basis order) -> base element."""
    deg2 = base.basis_of_degree(2)
    if len(coords) != len(deg2):
        raise AlgebraError(
            f"{base.name} has H^2 of rank {len(deg2)}; got "
            f"{len(coords)} coordinates")
    out = {}
    for idx, c in zip(deg2, coords):
        c = exact(c)
        if c:
            out[idx] = c
    return out


def parse_ample_class(base: BaseAlgebra, text: str) -> dict:
    """Parse ``"1"`` (rank-1 H^2) or ``"[p:q]"`` into a degree-2 class.

    Ampleness is never enforced; any rational coordinates are accepted.
    """
    s = text.strip()
    bracketed = s.startswith("[") and s.endswith("]")
    tokens = s[1:-1].split(":") if bracketed else [s]
    try:
        parts = [rat_from_str(tok) for tok in tokens]
    except ValueError as err:
        raise AlgebraError(f"cannot parse degree-2 class {text!r}: {err}; "
                           "expected 'p', 'p/q' or '[p:q]'") from None
    return degree_two_class(base, parts)


def class_label(base: BaseAlgebra, coeffs: dict) -> str:
    """The name of a base element in model names: its terms in index
    order, a coefficient of 1 left out.  A product base's labels begin
    with a factor's label, which may be a digit, so there a coefficient
    is joined to its label by '·' and a negative term follows the one
    before it with its own '-': 2/3·1⊗x-5/2·x⊗1."""
    if not coeffs:
        return "0"
    product = isinstance(base, TensorAlgebra)
    text = ""
    for idx in sorted(coeffs):
        c = coeffs[idx]
        lab = base.label(idx)
        if text and not (product and c < 0):
            text += "+"
        text += lab if c == 1 else f"{c}·{lab}" if product else f"{c}{lab}"
    return text


def _base_mul(base: BaseAlgebra, u: dict, v: dict) -> dict:
    out: dict[int, object] = {}
    for i, ci in u.items():
        for j, cj in v.items():
            for k, c in base.product(i, j).items():
                val = out.get(k, 0) + ci * cj * c
                if val:
                    out[k] = val
                else:
                    out.pop(k, None)
    return out


# ---------------------------------------------------------------------------
# Poincare duality data
# ---------------------------------------------------------------------------

def _diagonal_triples(base: BaseAlgebra,
                      duals: list[dict]) -> list[tuple[int, int, object]]:
    """(j, i, c) for the terms c b_j (x) b_i of the diagonal class, from
    ``duals = dual_basis(base)``."""
    triples = []
    for j in range(base.dim):
        sign = -ONE if base.degrees[j] % 2 else ONE
        for idx, c in duals[j].items():
            triples.append((j, idx, sign * c))
    return triples


# ---------------------------------------------------------------------------
# Model builders
# ---------------------------------------------------------------------------

def _gen_label(a: int, b: int, r: int) -> str:
    return f"G{a}{b}" if r <= 9 else f"G{a}_{b}"


@dataclass(frozen=True)
class ModelLayout:
    """Generator index bookkeeping shared by the model builders."""
    r: int
    n_pairs: int
    base_dim: int
    has_marks: bool

    def g_index(self, a: int, b: int) -> int:
        # pairs (1,2),(1,3),...,(1,r),(2,3),... in lexicographic order
        if a > b:
            a, b = b, a
        if a == b:
            raise AlgebraError("G_ab needs a != b")
        # the rows a' < a hold (r - 1) + ... + (r - a + 1) pairs
        return (a - 1) * self.r - a * (a - 1) // 2 + (b - a - 1)

    def s_index(self, j: int) -> int:
        return self.n_pairs + j

    def alpha_index(self, i: int) -> int:
        return self.n_pairs + self.base_dim + (i - 1)

    def eta_index(self, i: int) -> int:
        return self.n_pairs + self.base_dim + self.r + (i - 1)


def _layout(p: Presentation) -> ModelLayout:
    r = p.params.get("r")
    kind = p.params.get("model")
    if r is None or kind not in ("C", "A", "AL"):
        raise AlgebraError(
            "presentation was not built by the model builders")
    base_dim = p.context.base.factors[0].dim if isinstance(
        p.context.base, TensorAlgebra) else p.context.base.dim
    layout = ModelLayout(r, r * (r - 1) // 2, base_dim, kind != "C")
    expected = layout.n_pairs + (base_dim + 2 * r if layout.has_marks else 0)
    if len(p.context.generators) != expected:
        raise AlgebraError(
            f"presentation has {len(p.context.generators)} generators, the "
            f"model as built has {expected}; the S_r action is defined on "
            "the model as built, not on its reduced model")
    return layout


class ConfigurationCore:
    """Closed-form basis and normal form of the configuration core.

    The core H*(X)^⊗r ⊗ Λ(G_ab) / (Arnold, (p_a^* x - p_b^* x) G_ab) is
    the Kriz-Totaro model of the configuration space (Kriz, Ann. of Math.
    139, 1994; Totaro, Topology 35, 1996).  Its basis: the NBC monomials
    G_{a1 b1}...G_{ak bk} (a_i < b_i, the b_i distinct; Orlik-Solomon,
    Invent. Math. 56, 1980), each times H*(X) classes on the least point
    of each connected component of its forest and the unit elsewhere.
    Any other monomial is the first, in the canonical order, of the
    terms of an ideal element: the Arnold relation of a broken pair, or
    a pullback relation moving a class to a lower point, which raises
    the base index.  So each slice's basis is exactly the set of
    non-pivot columns of the rref of its ideal slice, in the same order,
    and the normal form below is that rref's rewrite.  That needs
    H^0(X) spanned by the unit, and a unit at index 0 and products that
    raise the basis index, as P^n, the surfaces and their products have;
    :meth:`of` gives None for any other base, whose core takes the rref.

    Nothing is built up front: a degree's basis is enumerated on first
    use, and a monomial gets a normal form only when something reduces
    it (the slices memoise it).
    """

    def __init__(self, tensor: TensorAlgebra, r: int):
        base = self.base = tensor.factors[0]
        self.r = r
        self.tensor = tensor
        layout = ModelLayout(r, r * (r - 1) // 2, base.dim, False)
        self.n_pairs = layout.n_pairs
        # the points a < b (0-based) of each G, in generator order, and
        # the generator of each pair of points
        self.points = [(a, b) for a in range(r) for b in range(a + 1, r)]
        self.pair = {(a, b): layout.g_index(a + 1, b + 1)
                     for a, b in self.points}
        self.stride = [base.dim ** (r - 1 - i) for i in range(r)]
        self.gen_degree, self.gen_weight = 2 * base.n - 1, 2 * base.n
        self._bases: dict = {}
        self._forests: dict = {}
        self._straight: dict = {}

    @classmethod
    def of(cls, tensor: TensorAlgebra,
           r: int) -> Optional["ConfigurationCore"]:
        """The closed form over ``tensor``, the r-th tensor power of a
        base, or None when its NBC basis need not be the rref's (see the
        class docstring)."""
        base = tensor.factors[0]
        if base.unit != 0 or base.basis_of_degree(0) != (0,):
            return None
        for i in range(base.dim):
            for j in range(1, base.dim):
                if any(k <= i for k in base.product(i, j)):
                    return None
        return cls(tensor, r)

    # -- basis ---------------------------------------------------------------

    def _forests_up_to(self, kmax: int) -> list:
        """(mask, roots, k) for the NBC G-monomials with k <= kmax factors:
        each point b has at most one G_ab with a < b, and the roots (the
        points with none) are the least points of the components."""
        hit = self._forests.get(kmax)
        if hit is None:
            level = [(0, (0,), 0)]
            for b in range(1, self.r):
                grown = []
                for mask, roots, k in level:
                    grown.append((mask, roots + (b,), k))
                    if k < kmax:
                        grown.extend((mask | 1 << self.pair[a, b], roots,
                                      k + 1) for a in range(b))
                level = grown
            hit = self._forests[kmax] = level
        return hit

    def _exps(self, mask: int) -> tuple:
        return tuple(mask >> i & 1 for i in range(self.n_pairs))

    def basis(self, degree: int) -> dict:
        """Weight -> the basis monomials of (degree, weight), in canonical
        order (generator degree, exponents, base index); only nonempty
        slices are listed.  Built once per degree."""
        hit = self._bases.get(degree)
        if hit is not None:
            return hit
        base = self.base
        kmax = min(self.r - 1, degree // self.gen_degree)
        made = []
        for mask, roots, k in self._forests_up_to(kmax):
            rem = degree - k * self.gen_degree
            # (base index, degree used, weight) with classes on the roots
            placed = [(0, 0, k * self.gen_weight)]
            for root in roots:
                placed = [(idx + c * self.stride[root], d + base.degrees[c],
                           w + base.weights[c])
                          for idx, d, w in placed for c in range(base.dim)
                          if d + base.degrees[c] <= rem]
            exps = self._exps(mask)
            made.extend((k, exps, idx, w) for idx, d, w in placed if d == rem)
        made.sort()
        grouped: dict = {}
        for _, exps, idx, w in made:
            grouped.setdefault(w, []).append(Monomial(idx, exps))
        hit = self._bases[degree] = {w: tuple(v) for w, v in grouped.items()}
        return hit

    # -- normal form ---------------------------------------------------------

    def normal_form(self, mono, degree: int, weight: int) -> Optional[dict]:
        """Normal form of a core monomial of slice (degree, weight) as
        Monomial -> coefficient, or None when it is not in that slice."""
        b, e = mono
        tensor = self.tensor
        if (len(e) != self.n_pairs or not 0 <= b < tensor.dim
                or any(x not in (0, 1) for x in e)):
            return None
        mask = sum(1 << i for i, x in enumerate(e) if x)
        k = mask.bit_count()
        if (tensor.degrees[b] + k * self.gen_degree != degree
                or tensor.weights[b] + k * self.gen_weight != weight):
            return None
        out: dict = {}
        if weight not in self.basis(degree):
            return out
        for nbc, c in self._straighten(mask).items():
            exps = self._exps(nbc)
            for idx, c2 in self._gather(b, nbc).items():
                m = Monomial(idx, exps)
                v = out.get(m, 0) + c * c2
                if v:
                    out[m] = v
                else:
                    del out[m]
        return out

    def _straighten(self, mask: int) -> dict:
        """The G-monomial ``mask`` as NBC masks -> coefficient, memoised.

        A broken pair G_ac G_bc (a < b < c) is rewritten by the Arnold
        relation G_ab G_ac - G_ab G_bc + G_ac G_bc = 0, which is
        ``_model``'s Arnold relation with G_ba = G_ab and its terms in
        generator order; moving the pair next to the other factors costs
        one sign per odd factor it passes.  The rewritten
        terms are later in the canonical order, so this ends.
        """
        hit = self._straight.get(mask)
        if hit is not None:
            return hit
        broken = self._broken_pair(mask)
        if broken is None:
            hit = {mask: 1}
        else:
            a, b, c = broken
            ab, ac, bc = self.pair[a, b], self.pair[a, c], self.pair[b, c]
            rest = mask & ~(1 << ac | 1 << bc)
            hit = {}
            if not rest >> ab & 1:
                # [G_ac G_bc][rest] = [G_ab G_bc][rest] - [G_ab G_ac][rest]
                sign = _pair_sign(rest, ac, bc)
                for x, y, c1 in ((ab, bc, sign), (ab, ac, -sign)):
                    c1 *= _pair_sign(rest, x, y)
                    for m, c2 in self._straighten(rest | 1 << x | 1 << y
                                                  ).items():
                        v = hit.get(m, 0) + c1 * c2
                        if v:
                            hit[m] = v
                        else:
                            del hit[m]
        self._straight[mask] = hit
        return hit

    def _broken_pair(self, mask: int) -> Optional[tuple]:
        """(a, b, c) with G_ac and G_bc in ``mask``, a < b < c, or None."""
        lower = [None] * self.r
        for i, (a, c) in enumerate(self.points):
            if mask >> i & 1:
                if lower[c] is not None:
                    return lower[c], a, c
                lower[c] = a
        return None

    def _gather(self, b: int, mask: int) -> dict:
        """Base class b times the NBC monomial ``mask``, with every class
        moved to its component's least point: base index -> coefficient.

        By the pullback relations x_i G_T = x_l G_T when i and l are
        joined in T's forest.  So b = prod_i p_i^*(b_i), in point order,
        becomes prod_i p_l(i)^*(b_i), and grouping those factors by least
        point costs the Koszul sign of the odd classes that change order;
        each group multiplies out in H*(X) in point order.
        """
        base = self.base
        root = list(range(self.r))
        for i, (a, c) in enumerate(self.points):
            if mask >> i & 1:
                root[c] = a
        for c in range(self.r):
            root[c] = root[root[c]]  # parents are lower, so already rooted
        classes = self.tensor.decode(b)
        flip = 0
        odd_roots: list = []
        groups: dict = {}
        for i, cls in enumerate(classes):
            if base.degrees[cls] & 1:
                flip ^= sum(1 for l in odd_roots if l > root[i]) & 1
                odd_roots.append(root[i])
            if cls:
                prod = groups.get(root[i])
                groups[root[i]] = {cls: 1} if prod is None else _base_mul(
                    base, prod, {cls: 1})
        terms = [(0, -1 if flip else 1)]
        for l, prod in groups.items():
            terms = [(idx + k * self.stride[l], c * c2)
                     for idx, c in terms for k, c2 in prod.items()]
        return {idx: c for idx, c in terms if c}


def _pair_sign(rest: int, x: int, y: int) -> int:
    """Sign of sorting G_x G_y (x < y) times the sorted product ``rest``
    into generator order: one per factor of rest before x or before y."""
    return -1 if ((rest & ((1 << x) - 1)).bit_count()
                  + (rest & ((1 << y) - 1)).bit_count()) & 1 else 1


def _model(base: BaseAlgebra, r: int, marks: Optional[tuple], name: str,
           params: dict) -> Presentation:
    """The Kriz-Totaro configuration model of r points on X, and with
    ``marks = (a, c)``, two base classes, the marked model over it:
    generators s[b], alpha_i and eta_i with d(alpha_i) = pi_i^*(a) and
    d(eta_i) = sum_j pi_i^*(b_j^dual) s[b_j] - pi_i^*(c) alpha_i.  Each
    relation and differential is written as a term table, monomial ->
    coefficient, with every term's monomial and Koszul sign known
    without forming a product, and goes through the checks of
    ``Presentation(...)``.  The closed-form core over the tensor power
    is attached, which the core of the presentation takes over when it
    is built.  Raises
    :class:`AlgebraError` before building anything when dim(B)^r would
    exceed ``MAX_TENSOR_DIM``."""
    # dim(B) >= 2, so dim(B)^bit_length(MAX) > MAX already: capping r
    # keeps the test exact and cheap
    if base.dim ** min(r, MAX_TENSOR_DIM.bit_length()) > MAX_TENSOR_DIM:
        raise AlgebraError(f"dim H* of X^{r} is {base.dim}^{r}, above the "
                           f"limit of {MAX_TENSOR_DIM}")
    tensor = tensor_power(base, r)
    layout = ModelLayout(r, r * (r - 1) // 2, base.dim, marks is not None)
    n = base.n
    gens = [GeneratorSpec(_gen_label(a, b, r), 2 * n - 1, 2 * n)
            for a in range(1, r + 1) for b in range(a + 1, r + 1)]
    if marks:
        gens += [GeneratorSpec(f"s[{base.label(j)}]", base.degrees[j] + 1,
                               base.weights[j] + 2) for j in range(base.dim)]
        gens += [GeneratorSpec(f"alpha{i}", 2 * n - 1, 2 * n)
                 for i in range(1, r + 1)]
        gens += [GeneratorSpec(f"eta{i}", 2 * n, 2 * n + 2)
                 for i in range(1, r + 1)]
    ctx = AlgebraContext(tensor, gens)
    duals = dual_basis(base)
    g = layout.g_index
    zero = (0,) * len(gens)

    def mono(b: int, *ones: int) -> Monomial:
        """Base class b times the generators ``ones``, in index order."""
        exps = list(zero)
        for i in ones:
            exps[i] = 1
        return Monomial(b, tuple(exps))

    def pull(i: int, cls: dict) -> dict:
        return tensor.pullback(i - 1, cls)

    diagonal = _diagonal_triples(base, duals)
    diff: dict[int, Element] = {}
    for a in range(1, r + 1):
        for b in range(a + 1, r + 1):
            terms: dict[int, object] = {}
            for j, k, c in diagonal:
                combo = [base.unit] * r
                combo[a - 1], combo[b - 1] = j, k
                enc = tensor.encode(combo)
                terms[enc] = terms.get(enc, 0) + c
            diff[g(a, b)] = ctx.base_element(terms)
    # Every term below is a base class times at most two generators and is
    # written straight into its table: a base class left of the generators
    # takes no sign, and no two terms of one table share a monomial.
    if marks:
        a_class, c_class = marks
        for i in range(1, r + 1):
            diff[layout.alpha_index(i)] = ctx.base_element(pull(i, a_class))
            terms = {mono(b, layout.s_index(j)): v for j in range(base.dim)
                     for b, v in pull(i, duals[j]).items()}
            terms.update((mono(b, layout.alpha_index(i)), -v)
                         for b, v in pull(i, c_class).items())
            diff[layout.eta_index(i)] = Element(ctx, terms)
    # The Arnold relations G_ab G_ac - G_ab G_bc + G_ac G_bc (a < b < c):
    # the G_ab are odd, of degree 2n - 1 with n >= 1, and indexed in
    # lexicographic order, so G_bc G_ab = -G_ab G_bc.  Then the pullback
    # relations (pi_a^* x - pi_b^* x) G_ab, one per class x, each pi_i^* x
    # a single base class.
    unit = tensor.unit
    relations = [Element(ctx, {mono(unit, g(a, b), g(a, c)): ONE,
                               mono(unit, g(a, b), g(b, c)): -ONE,
                               mono(unit, g(a, c), g(b, c)): ONE})
                 for a in range(1, r + 1) for b in range(a + 1, r + 1)
                 for c in range(b + 1, r + 1)]
    relations += [Element(ctx, {mono(*pull(a, {x: ONE}), g(a, b)): ONE,
                                mono(*pull(b, {x: ONE}), g(a, b)): -ONE})
                  for a in range(1, r + 1) for b in range(a + 1, r + 1)
                  for x in base.positive_degree_indices()]
    p = Presentation(ctx, relations, diff, name=name, params=params)
    p._closed_form = ConfigurationCore.of(tensor, r)
    return p


def configuration_model(base: BaseAlgebra, r: int) -> Presentation:
    """Model for the ordered configuration space of r points on X."""
    if r < 1:
        raise AlgebraError("configuration model needs r >= 1")
    return _model(base, r, None, f"C{r}({base.name})",
                  {"model": "C", "r": r, "space": base.name})


def section_model(base: BaseAlgebra, c: dict, r: int) -> Presentation:
    """Stable model with r point constraints and H^2-class c.

    ``c`` is a degree-2 base element (any rational coordinates; nothing
    about positivity is assumed or used).
    """
    if r < 1:
        raise AlgebraError("section model needs r >= 1")
    for idx in c:
        if base.degrees[idx] != 2:
            raise AlgebraError(
                f"c must be homogeneous of degree 2; {base.label(idx)} "
                f"has degree {base.degrees[idx]}")
    cname = class_label(base, c)
    return _model(base, r, ({base.fundamental: ONE}, dict(c)),
                  f"A{r}({base.name}, c={cname})",
                  {"model": "A", "r": r, "space": base.name, "c": cname})


# ---------------------------------------------------------------------------
# Chern data and the twisted model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChernData:
    """Chern classes of the cotangent bundle plus c_1 of the line bundle.

    ``cotangent[i]`` holds c_i(Omega^1_X) as base coefficients, i = 0..n
    with c_0 = 1; ``c1_line`` holds c_1(L).
    """
    base: BaseAlgebra
    cotangent: tuple
    c1_line: dict

    def __post_init__(self):
        if len(self.cotangent) != self.base.n + 1:
            raise AlgebraError(
                f"need c_0..c_{self.base.n} of the cotangent bundle")
        if dict(self.cotangent[0]) != {self.base.unit: ONE}:
            raise AlgebraError("c_0 of the cotangent bundle must be 1")
        for i, cl in enumerate(self.cotangent):
            for idx in cl:
                if self.base.degrees[idx] != 2 * i:
                    raise AlgebraError(f"c_{i} must have degree {2 * i}")
        for idx in self.c1_line:
            if self.base.degrees[idx] != 2:
                raise AlgebraError("c_1(L) must have degree 2")


def cotangent_chern(spec: SpaceSpec) -> ChernData:
    """Cotangent Chern data for the built-in spaces.

    P^n: c(T) = (1+x)^{n+1} so c_i(Omega^1) = (-1)^i binom(n+1, i) x^i;
    surfaces: c_1(Omega^1) = (2g - 2)[X]; products by the Whitney formula.
    The line class is the ample generator (sum of the factor generators
    on products).
    """
    base = build_base(spec)
    if isinstance(spec, ProjectiveSpace):
        n = spec.n
        cot = []
        for i in range(n + 1):
            coeff = (-1) ** i * comb(n + 1, i)
            cot.append({i: coeff} if coeff else {})
        c1 = {1: ONE}
    elif isinstance(spec, Surface):
        chi = 2 - 2 * spec.genus
        cot = [{base.unit: ONE},
               {base.fundamental: -chi} if chi else {}]
        c1 = {base.fundamental: ONE}
    elif isinstance(spec, Product):
        left, right = cotangent_chern(spec.left), cotangent_chern(spec.right)
        # Whitney: c(Omega^1) is the product of the factors' total classes
        u, v = ({k: c for ci in f.cotangent for k, c in ci.items()}
                for f in (left, right))
        total = _base_mul(base, base.pullback(0, u), base.pullback(1, v))
        cot = [{k: c for k, c in total.items() if base.degrees[k] == 2 * i}
               for i in range(base.n + 1)]
        c1 = {**base.pullback(0, left.c1_line),
              **base.pullback(1, right.c1_line)}
    else:
        raise AlgebraError(
            "cotangent data for custom spaces must be supplied explicitly")
    return ChernData(base, tuple(cot), c1)


def euler_class_twist(chern: ChernData, d: int):
    """Euler class of the twisted cotangent bundle and its top coefficient.

    Returns ``(e, m)`` with ``e = sum_i c_i(Omega^1) c_1(L)^{n-i} d^{n-i}``
    as base coefficients and ``m = e[X]`` the coefficient on the
    fundamental class.
    """
    if d < 0:
        raise AlgebraError("twist exponent must be >= 0")
    base = chern.base
    n = base.n
    e: dict[int, object] = {}
    power = {base.unit: ONE}
    powers = [power]
    for _ in range(n):
        power = _base_mul(base, power, chern.c1_line)
        powers.append(power)
    for i in range(n + 1):
        scale = d ** (n - i)
        if not scale:
            continue
        term = _base_mul(base, chern.cotangent[i], powers[n - i])
        for k, c in term.items():
            val = e.get(k, 0) + scale * c
            if val:
                e[k] = val
            else:
                e.pop(k, None)
    m = e.get(base.fundamental, 0)
    return e, m


def twisted_section_model(base: BaseAlgebra, chern: ChernData, d: int,
                          r: int) -> Presentation:
    """Section model with the honest degree-d differential.

    Identical underlying algebra to :func:`section_model`; only the
    differential changes: d(alpha_i) uses the twisted Euler class and the
    eta differential uses d * c_1(L).
    """
    if r < 1:
        raise AlgebraError("section model needs r >= 1")
    if chern.base is not base and chern.base.labels != base.labels:
        raise AlgebraError("Chern data belongs to a different base algebra")
    e, m = euler_class_twist(chern, d)
    scaled_c1 = {k: d * v for k, v in chern.c1_line.items() if d * v}
    return _model(base, r, (e, scaled_c1), f"A{r}({base.name}, L^{d})",
                  {"model": "AL", "r": r, "space": base.name, "d": d,
                   "m": str(m)})


# ---------------------------------------------------------------------------
# Symmetric group action
# ---------------------------------------------------------------------------

def _check_permutation(sigma: Sequence[int], r: int) -> tuple[int, ...]:
    sig = tuple(sigma)
    if sorted(sig) != list(range(r)):
        raise AlgebraError(
            f"{sig} is not a permutation of 0..{r - 1}")
    return sig


def symmetric_action(p: Presentation,
                     sigma: Sequence[int]) -> MonomialPermutation:
    """Action of a permutation on a model presentation.

    ``sigma`` is 0-indexed: point i moves to slot sigma[i].  The base map
    permutes tensor factors with Koszul signs, G_ab goes to
    G_{sigma(a) sigma(b)} (normalized), alpha and eta indices follow
    sigma, the s[b] generators stay fixed.  By construction the map is
    multiplicative, commutes with d and preserves the relations, which
    the test suite checks.  Each permutation's map is built once per
    presentation and cached there, for ``character_euler``, which images
    only the basis monomials of core slices with it, and for library
    callers; ``isotypic_cohomology`` builds its own from
    :func:`_generator_map`, on the reduced model it ranks.
    """
    layout = _layout(p)
    sig = _check_permutation(sigma, layout.r)
    return p._cached(("action", sig), lambda: MonomialPermutation(
        p.context, sig, _generator_map(p, layout, sig)))


def _generator_map(p: Presentation, layout: ModelLayout,
                   sig: tuple[int, ...]) -> list[int]:
    r = layout.r
    gen_to = list(range(len(p.context.generators)))
    for a in range(1, r + 1):
        for b in range(a + 1, r + 1):
            gen_to[layout.g_index(a, b)] = layout.g_index(sig[a - 1] + 1,
                                                          sig[b - 1] + 1)
    if layout.has_marks:
        for i in range(1, r + 1):
            gen_to[layout.alpha_index(i)] = layout.alpha_index(sig[i - 1] + 1)
            gen_to[layout.eta_index(i)] = layout.eta_index(sig[i - 1] + 1)
    return gen_to
