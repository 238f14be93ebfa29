"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every check is an equality of integers (dimensions or series
coefficients); there are no tolerances anywhere.  Each criterion prints
one PASS/FAIL line (visible with ``pytest -s`` or on failure).
"""

import random

from cdgacalc.algebra import AlgebraContext, Element, GeneratorSpec
from cdgacalc.analysis import (BigradedSeries, all_permutations,
                               invariant_cohomology, isotypic_cohomology,
                               p_r_closed_form, rho_bracket, rho_series,
                               sign_character, weightwise_euler)
from cdgacalc.engine import (Presentation, cohomology, differential_matrix,
                             quotient_slice, verify_d_squared)
from cdgacalc.models import (ProjectiveSpace, build_base, configuration_model,
                             cotangent_chern, euler_class_twist,
                             parse_ample_class, parse_space, section_model,
                             symmetric_action, twisted_section_model)
from cdgacalc.rat import ONE

from oracle import dense_cohomology_dims, map_matrix, matmul, same_matrix

TABLE1 = {
    ("P2", 2): [1, 1, 2, 3, 1, 4, 5, 3, 4, 4, 6],
    ("S1", 2): [1, 5, 15, 29, 47, 69, 94, 122, 153, 187, 224],
    ("P1xP1", 2): [1, 1, 4, 6, 5, 16, 14, 12, 28, 18, 15],
    ("P2", 3): [1, 1, 3, 4, 1, 9, 12, 7, 15, 21, 22],
}

_cache = {}


def model(space, r, c="1"):
    key = (space, r, c)
    if key not in _cache:
        base = build_base(parse_space(space))
        _cache[key] = section_model(base, parse_ample_class(base, c), r)
    return _cache[key]


def config(space, r):
    key = ("C", space, r)
    if key not in _cache:
        _cache[key] = configuration_model(build_base(parse_space(space)), r)
    return _cache[key]


def report(name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def series_product(factors, trunc, var="t"):
    out = BigradedSeries.one(trunc, var)
    for coeffs, power in factors:
        out = out * BigradedSeries(coeffs, trunc, var).power(power)
    return out


def test_criterion_1_table1_exact():
    ok = True
    for (space, r), expected in TABLE1.items():
        c = "[1:1]" if space == "P1xP1" else "1"
        dims = cohomology(model(space, r, c), 10).dims()
        if dims != expected:
            ok = False
            print(f"  {space} r={r}: computed {dims} expected {expected}")
    report("criterion 1: all 44 reference table entries match exactly", ok)


def test_criterion_2_c_dependence():
    skew = cohomology(model("P1xP1", 2, "[1:0]"), 10)
    balanced = cohomology(model("P1xP1", 2, "[1:1]"), 10)
    ok = (skew.dim(9), skew.dim(10)) == (19, 17) \
        and (balanced.dim(9), balanced.dim(10)) == (18, 15)
    report("criterion 2: H^9/H^10 depend on c ([1:0] -> 19,17 vs "
           "[1:1] -> 18,15)", ok)


def test_criterion_3_two_points_on_sphere_closed_form():
    # (1+t)^2 (1+t^3) / (1-t^2)
    expect = series_product(
        [({0: 1, 1: 1}, 2), ({0: 1, 3: 1}, 1), ({0: 1, 2: -1}, -1)], 10)
    dims = cohomology(model("P1", 2), 10).dims()
    ok = dims == expect.coefficients() == [1, 2, 2, 3, 4, 4, 4, 4, 4, 4, 4]
    report("criterion 3: two marked points on the sphere match "
           "(1+t)^2(1+t^3)/(1-t^2)", ok)


def test_criterion_4_single_point_closed_form():
    expect = series_product(
        [({0: 1, 2: 1}, 1), ({0: 1, 1: 1}, 1), ({0: 1, 3: 1}, 1),
         ({0: 1, 5: 1}, 1)], 10)
    ok = True
    for c in ("1", "5"):
        dims = cohomology(model("P2", 1, c), 10).dims()
        if dims != expect.coefficients():
            ok = False
            print(f"  c={c}: {dims} vs {expect.coefficients()}")
    report("criterion 4: one marked point on P2 matches "
           "(1+t^2)(1+t)(1+t^3)(1+t^5), independent of c", ok)


def test_criterion_5_twist_isomorphism():
    chern = cotangent_chern(ProjectiveSpace(2))
    _, m2 = euler_class_twist(chern, 2)
    base = build_base(parse_space("P2"))
    twisted = twisted_section_model(base, chern, 2, 2)
    dims_tw = cohomology(twisted, 8).dims()
    dims_plain = cohomology(model("P2", 2), 8).dims()
    ok = m2 == 1 and dims_tw == dims_plain
    report("criterion 5: twist d=2 on P2 has m(2)=1 and matches the "
           "untwisted model for i<=8", ok)


def test_criterion_6_twisted_betti_series():
    ok = rho_series(build_base(parse_space("P2")), 12).coefficients() \
        == [0] * 13
    bracket = rho_bracket(build_base(parse_space("P1")), 12)
    ok = ok and bracket == BigradedSeries({0: 1, 3: 1}, 12, "t")
    report("criterion 6: rho series vanishes on P2; P1 bracket is 1 + t^3",
           ok)


BUILTIN_MODELS = [
    ("C2(P1)", lambda: config("P1", 2)),
    ("C3(P1)", lambda: config("P1", 3)),
    ("A1(P2)", lambda: model("P2", 1)),
    ("A2(P1)", lambda: model("P1", 2)),
    ("A2(P2)", lambda: model("P2", 2)),
    ("A2(S1)", lambda: model("S1", 2)),
    ("A2(P1xP1)[1:1]", lambda: model("P1xP1", 2, "[1:1]")),
    ("A2(P1xP1)[1:0]", lambda: model("P1xP1", 2, "[1:0]")),
    ("A3(P2)", lambda: model("P2", 3)),
]


def test_criterion_7a_d_squared_to_degree_11():
    ok = True
    for name, make in BUILTIN_MODELS:
        rep = verify_d_squared(make(), 11)
        if not rep.ok:
            ok = False
            print(f"  {name}: {rep.message()}")
    report("criterion 7a: d^2 = 0 and d(ideal) in ideal on all built-in "
           "models to degree 11", ok)


def test_criterion_7b_weight_preservation():
    ok = True
    m = model("S1", 2)
    ctx = m.context
    for d in range(7):
        for mono in ctx.monomials_of(d):
            k = ctx.monomial_weight(mono)
            dm = m.differential_of(Element(ctx, {mono: ONE}))
            for target in dm.terms:
                if ctx.monomial_weight(target) != k:
                    ok = False
    # cross-weight blocks of the slice matrices are identically zero:
    # building D(d, k) reduces d(m) in the weight-k target slice, which
    # would reject any cross-weight term outright.
    for d in range(9):
        for k in sorted({ctx.monomial_weight(mm)
                         for mm in ctx.monomials_of(d)}):
            differential_matrix(m, d, k)
    # every nonzero table entry of the built-in models has weight >= degree
    for (space, r), _ in TABLE1.items():
        c = "[1:1]" if space == "P1xP1" else "1"
        tab = cohomology(model(space, r, c), 10)
        if any(k < d for (d, k) in tab.entries):
            ok = False
    report("criterion 7b: the differential preserves the weight grading",
           ok)


def test_criterion_7c_euler_independent_of_differential():
    ok = True
    for space in ("P1", "P2"):
        m = model(space, 2)
        tab = cohomology(m, 8)
        for k in range(9):
            lhs = sum((-1) ** d * tab.dim(d, k) for d in range(9))
            rhs = sum((-1) ** i * quotient_slice(m, i, k).dim
                      for i in range(k + 1))
            if lhs != rhs:
                ok = False
                print(f"  {space} weight {k}: {lhs} != {rhs}")
    report("criterion 7c: per-weight Euler characteristic equals the "
           "differential-free alternating sum", ok)


def test_criterion_7d_closed_form_matches_engine():
    ok = True
    for space in ("P1", "P2"):
        base = build_base(parse_space(space))
        engine = weightwise_euler(model(space, 2), 12)
        closed = p_r_closed_form(base, 2, 12)
        if engine != closed:
            ok = False
            print(f"  {space}: {engine} vs {closed}")
    report("criterion 7d: weightwise Euler series equals the closed-form "
           "product for (P1, r=2) and (P2, r=2) up to w=12", ok)


def test_criterion_7e_equivariance():
    m = model("P1", 2)
    swap = symmetric_action(m, (1, 0))
    ok = True
    for d in range(9):
        for k in sorted({m.context.monomial_weight(mm)
                         for mm in m.context.monomials_of(d)}):
            if quotient_slice(m, d, k).dim == 0:
                continue
            a_src = map_matrix(m, swap, d, k)
            a_tgt = map_matrix(m, swap, d + 1, k)
            dmat = differential_matrix(m, d, k)
            if not same_matrix(matmul(a_src, dmat), matmul(dmat, a_tgt)):
                ok = False
                print(f"  equivariance fails at ({d},{k})")
    report("criterion 7e: the swap action commutes with every "
           "differential matrix of A2(P1)", ok)


def test_criterion_7f_isotypic_decomposition():
    m = model("P1", 2)
    full = cohomology(m, 8)
    s2 = all_permutations(2)
    triv = invariant_cohomology(m, s2, 8)
    sgn = isotypic_cohomology(m, s2, sign_character(2), 8)
    ok = all(triv.dim(i) + sgn.dim(i) == full.dim(i)
             and triv.dim(i) <= full.dim(i) for i in range(9))
    report("criterion 7f: invariant and sign isotypic dimensions sum to "
           "the full dimensions (r=2)", ok)


def test_criterion_7g_configuration_oracles():
    ok = cohomology(config("P1", 2), 8).dims() == [1, 0, 1, 0, 0, 0, 0, 0, 0]
    ok = ok and cohomology(config("P1", 3), 8).dims() \
        == [1, 0, 0, 1, 0, 0, 0, 0, 0]
    report("criterion 7g: configuration models match the sphere "
           "topological oracles (1,0,1,0,...) and (1,0,0,1,0,...)", ok)


# -- criterion 8: randomized engine cross-validation ------------------------

def random_presentation(seed):
    """A valid random presentation: d and relations live in a d-closed
    subalgebra, so d^2 = 0 and d(ideal) <= ideal hold by construction."""
    rng = random.Random(seed)
    base = build_base(parse_space(rng.choice(["P1", "P2", "S1"])))
    ngens = rng.randint(2, 4)
    specs = []
    for idx in range(ngens):
        deg = rng.randint(1, 3)
        specs.append(GeneratorSpec(f"g{idx}", deg, deg + rng.randint(0, 2)))
    ctx = AlgebraContext(base, specs)
    active = set(rng.sample(range(ngens), rng.randint(1, min(2, ngens))))

    def closed_monomials(d, k=None):
        return [m for m in ctx.monomials_of(d, k)
                if all(m.exps[i] == 0 for i in active)]

    differential = {}
    for i in sorted(active):
        g = specs[i]
        cands = closed_monomials(g.degree + 1, g.weight)
        terms = {m: rng.randint(-2, 2) for m in cands if rng.random() < 0.6}
        terms = {m: c for m, c in terms.items() if c}
        if terms:
            differential[i] = ctx.element(terms)
    relations = []
    for _ in range(rng.randint(0, 2)):
        d = rng.randint(1, 4)
        pool = closed_monomials(d)
        if not pool:
            continue
        k = ctx.monomial_weight(rng.choice(pool))
        slice_pool = closed_monomials(d, k)
        terms = {m: rng.randint(-2, 2) for m in slice_pool
                 if rng.random() < 0.7}
        terms = {m: c for m, c in terms.items() if c}
        if terms:
            relations.append(ctx.element(terms))
    pres = Presentation(ctx, relations, differential,
                        name=f"random-{seed}")
    max_degree = 5
    while max_degree > 2 and sum(len(ctx.monomials_of(d))
                                 for d in range(max_degree + 2)) > 50:
        max_degree -= 1
    return pres, max_degree


def test_criterion_8_dense_cross_validation():
    checked = 0
    interesting = 0
    ok = True
    for seed in range(24):
        pres, max_degree = random_presentation(seed)
        total = sum(len(pres.context.monomials_of(d))
                    for d in range(max_degree + 2))
        assert total <= 50
        assert verify_d_squared(pres, max_degree).ok
        dense = dense_cohomology_dims(pres, max_degree)
        sparse = cohomology(pres, max_degree, by_weight=True).dims()
        merged = cohomology(pres, max_degree, by_weight=False).dims()
        expected = [dense[d] for d in range(max_degree + 1)]
        if sparse != expected or merged != expected:
            ok = False
            print(f"  seed {seed}: dense {expected} sparse {sparse} "
                  f"merged {merged}")
        checked += 1
        if pres.relations or pres.differential:
            interesting += 1
    ok = ok and checked >= 20 and interesting >= 15
    report(f"criterion 8: sparse cohomology equals dense brute force on "
           f"{checked} random presentations ({interesting} nontrivial)", ok)
