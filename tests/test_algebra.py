import gc
import itertools
import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from cdgacalc.algebra import (AlgebraError, AlgebraContext, BaseAlgebra,
                              GeneratorSpec, Monomial, MonomialPermutation,
                              TensorAlgebra, base_algebra_from_dict,
                              load_base_algebra, tensor_many, tensor_power)
from cdgacalc.models import (build_base, parse_ample_class, parse_space,
                             section_model)
from cdgacalc.rat import ONE, Rational
from oracle import (check_multiplicative, check_tensor_products,
                    dense_tensor_algebra, dense_validate, euler_characteristic)


def p1_algebra():
    table = {
        (0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
    }
    return BaseAlgebra("P1", 1, ["1", "x"], [0, 2], 0, 1, table)


def genus1_algebra():
    # H*(Sigma_1): a*b = X = -b*a, all other positive-degree products zero.
    lab = ["1", "a1", "b1", "X"]
    table = {(0, i): {i: 1} for i in range(4)}
    table.update({(i, 0): {i: 1} for i in range(1, 4)})
    table[(1, 2)] = {3: 1}
    table[(2, 1)] = {3: -1}
    return BaseAlgebra("S1", 1, lab, [0, 1, 1, 2], 0, 3, table)


def p2_algebra():
    table = {
        (0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1},
        (1, 0): {1: 1}, (2, 0): {2: 1},
        (1, 1): {2: 1},
    }
    return BaseAlgebra("P2", 2, ["1", "x", "x^2"], [0, 2, 4], 0, 2, table)


def test_base_algebra_validation_accepts_presets():
    for alg in (p1_algebra(), genus1_algebra(), p2_algebra()):
        assert alg.product(alg.unit, alg.fundamental) == {alg.fundamental: ONE}


def test_euler_characteristics():
    assert euler_characteristic(p1_algebra()) == 2
    assert euler_characteristic(p2_algebra()) == 3
    assert euler_characteristic(genus1_algebra()) == 0
    sq = tensor_power(p1_algebra(), 2)
    assert euler_characteristic(sq) == 4


def test_multiply_unit_law_and_odd_squares():
    ctx = AlgebraContext(p1_algebra(), [GeneratorSpec("g", 1, 2)])
    one = ctx.one()
    g = ctx.gen_element("g")
    x = ctx.base_element({1: ONE})
    for elem in (g, x, g * x):
        assert one * elem == elem
        assert elem * one == elem
    assert (g * g).is_zero()


def test_multiply_surface_antisymmetry():
    ctx = AlgebraContext(genus1_algebra(), [])
    a = ctx.base_element({1: ONE})
    b = ctx.base_element({2: ONE})
    X = ctx.base_element({3: ONE})
    assert a * b == X
    assert b * a == -X


def test_monomials_of_degree_zero():
    ctx = AlgebraContext(genus1_algebra(), [GeneratorSpec("g", 1, 2)])
    monos = ctx.monomials_of(0)
    assert monos == (Monomial(0, (0,)),)


def test_monomials_of_marked_p1_free_algebra():
    # base H*(P1), generators s1 (deg 1), alpha (deg 1), s[x] (deg 3),
    # eta (deg 2): three monomials in degree 2: x, s1*alpha, eta.
    ctx = AlgebraContext(p1_algebra(), [
        GeneratorSpec("s1", 1, 2), GeneratorSpec("alpha", 1, 2),
        GeneratorSpec("s[x]", 3, 4), GeneratorSpec("eta", 2, 4),
    ])
    monos = ctx.monomials_of(2)
    assert len(monos) == 3
    labels = {ctx.monomial_label(m) for m in monos}
    assert labels == {"x", "s1·alpha", "eta"}


def test_monomials_of_configuration_p1_degree_one():
    base = tensor_power(p1_algebra(), 2)
    ctx = AlgebraContext(base, [GeneratorSpec("G12", 1, 2)])
    monos = ctx.monomials_of(1)
    assert len(monos) == 1
    assert ctx.monomial_label(monos[0]) == "G12"


def test_monomials_partition_by_weight():
    ctx = AlgebraContext(genus1_algebra(), [
        GeneratorSpec("s1", 1, 2), GeneratorSpec("eta", 2, 4),
    ])
    for d in range(6):
        all_monos = ctx.monomials_of(d)
        weights = sorted({ctx.monomial_weight(m) for m in all_monos})
        concat = []
        for k in weights:
            concat.extend(ctx.monomials_of(d, k))
        assert sorted(concat, key=ctx.monomial_key) == list(all_monos)
        total = sum(len(ctx.monomials_of(d, k)) for k in weights)
        assert total == len(all_monos)


def _brute_force_monomials(ctx, degree):
    """Every monomial of the degree, from all exponent vectors at once,
    sorted by the canonical key."""
    ranges = [range(2) if g.odd else range(degree // g.degree + 1)
              for g in ctx.generators]
    out = []
    for exps in itertools.product(*ranges):
        rest = degree - sum(e * g.degree for e, g in zip(exps, ctx.generators))
        out.extend(Monomial(b, exps) for b in range(ctx.base.dim)
                   if ctx.base.degrees[b] == rest)
    return sorted(out, key=ctx.monomial_key)


@settings(max_examples=60, deadline=None)
@given(space=st.sampled_from(["P1", "S1", "P1xP1"]),
       gens=st.lists(st.tuples(st.integers(1, 4), st.integers(0, 3)),
                     max_size=4))
def test_monomials_of_equals_a_brute_force_enumeration(space, gens):
    ctx = AlgebraContext(build_base(parse_space(space)), [
        GeneratorSpec(f"g{i}", d, d + extra)
        for i, (d, extra) in enumerate(gens)])
    for d in range(7):
        want = _brute_force_monomials(ctx, d)
        assert ctx.monomials_of(d) == tuple(want), d
        weights = {ctx.monomial_weight(m) for m in want}
        for k in sorted(weights | {max(weights, default=0) + 1}):
            assert ctx.monomials_of(d, k) == tuple(
                m for m in want if ctx.monomial_weight(m) == k), (d, k)


def test_monomials_of_leaves_no_reference_cycles():
    s1 = build_base(parse_space("S1"))
    ctx = section_model(s1, parse_ample_class(s1, "1"), 2).context
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for d in range(8):
            ctx.monomials_of(d)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_tensor_power_rank_one_copies_base():
    base = p1_algebra()
    t = tensor_power(base, 1)
    assert t.dim == base.dim
    assert t.degrees == base.degrees
    assert t.product(0, 1) == {1: ONE}


def test_tensor_power_p1_squared_betti():
    t = tensor_power(p1_algebra(), 2)
    assert t.dim == 4
    assert [t.betti(i) for i in range(5)] == [1, 0, 2, 0, 1]


def test_tensor_power_koszul_sign():
    t = tensor_power(genus1_algebra(), 2)
    assert t.dim == 16
    ctx = AlgebraContext(t, [])
    a_left = ctx.base_element({t.encode((1, 0)): ONE})
    a_right = ctx.base_element({t.encode((0, 1)): ONE})
    assert a_left * a_right == -(a_right * a_left)
    assert not (a_left * a_right).is_zero()


def test_apply_homomorphism_swap_sign():
    t = tensor_power(genus1_algebra(), 2)
    ctx = AlgebraContext(t, [GeneratorSpec("u", 1, 1),
                             GeneratorSpec("v", 1, 1)])
    # swap of tensor factors: u (x) v -> (-1)^{|u||v|} v (x) u
    base_to = []
    for idx in range(t.dim):
        u, v = t.decode(idx)
        sign = -1 if (t.factors[0].degrees[u] % 2
                      and t.factors[1].degrees[v] % 2) else 1
        base_to.append((t.encode((v, u)), sign))
    swap = MonomialPermutation(ctx, (1, 0), [1, 0])
    assert [swap.base_image(idx) for idx in range(t.dim)] == base_to
    check_multiplicative(swap)
    a_both = t.encode((1, 1))  # a1 (x) a1
    assert swap.image(Monomial(a_both, (0, 0))) == (Monomial(a_both, (0, 0)),
                                                    -1)
    # u v -> v u = -u v, times the base sign
    assert swap.image(Monomial(a_both, (1, 1))) == (Monomial(a_both, (1, 1)),
                                                    1)
    assert swap.image(Monomial(t.unit, (1, 0))) == (Monomial(t.unit, (0, 1)),
                                                    1)


def test_context_mismatch_raises():
    ctx1 = AlgebraContext(p1_algebra(), [])
    ctx2 = AlgebraContext(p1_algebra(), [])
    with pytest.raises(AlgebraError, match="context mismatch"):
        ctx1.one() * ctx2.one()


def random_homogeneous(rng, ctx, degree):
    monos = ctx.monomials_of(degree)
    if not monos:
        return ctx.zero(), None
    k = ctx.monomial_weight(rng.choice(monos))
    slice_k = ctx.monomials_of(degree, k)
    terms = {m: Rational(rng.randint(-3, 3)) for m in slice_k
             if rng.random() < 0.7}
    return ctx.element(terms), k


def test_associativity_and_commutativity_randomized():
    rng = random.Random(11)
    contexts = [
        AlgebraContext(genus1_algebra(), [
            GeneratorSpec("g", 1, 2), GeneratorSpec("e", 2, 4)]),
        AlgebraContext(tensor_power(p1_algebra(), 2), [
            GeneratorSpec("G", 1, 2), GeneratorSpec("s", 3, 4)]),
    ]
    for ctx in contexts:
        for _ in range(25):
            da, db, dc = (rng.randint(0, 3) for _ in range(3))
            a, _ = random_homogeneous(rng, ctx, da)
            b, _ = random_homogeneous(rng, ctx, db)
            c, _ = random_homogeneous(rng, ctx, dc)
            assert (a * b) * c == a * (b * c)
            ab, ba = a * b, b * a
            if da % 2 and db % 2:
                assert ab == -ba
            else:
                assert ab == ba
            if not ab.is_zero():
                assert ab.degree() == da + db


def test_weight_additivity_randomized():
    rng = random.Random(5)
    ctx = AlgebraContext(genus1_algebra(), [
        GeneratorSpec("g", 1, 2), GeneratorSpec("e", 2, 4)])
    for _ in range(25):
        a, ka = random_homogeneous(rng, ctx, rng.randint(0, 3))
        b, kb = random_homogeneous(rng, ctx, rng.randint(0, 3))
        prod = a * b
        if not prod.is_zero():
            assert prod.weight() == ka + kb


P1_JSON = {
    "name": "P1-custom",
    "n": 1,
    "basis": [{"label": "e", "degree": 0}, {"label": "h", "degree": 2}],
    "unit": "e",
    "fundamental": "h",
    "products": [{"left": "h", "right": "h", "value": []}],
}


def test_loader_roundtrip_p1(tmp_path):
    path = tmp_path / "p1.json"
    path.write_text(json.dumps(P1_JSON))
    alg = load_base_algebra(str(path))
    ref = p1_algebra()
    assert alg.degrees == ref.degrees
    assert alg.weights == ref.weights
    assert alg.product(0, 1) == {1: ONE}
    assert alg.product(1, 1) == {}


def test_loader_accepts_triple_form():
    doc = {
        "name": "triples", "n": 1,
        "basis": [{"label": "1", "degree": 0}, {"label": "h", "degree": 2}],
        "unit": "1", "fundamental": "h",
        "products": [["h", "h", []]],
    }
    alg = base_algebra_from_dict(doc)
    assert alg.product(1, 1) == {}


def test_loader_rejects_nonassociative():
    doc = {
        "name": "bad", "n": 1,
        "basis": [{"label": "1", "degree": 0}, {"label": "u", "degree": 1},
                  {"label": "v", "degree": 1}, {"label": "w", "degree": 2}],
        "unit": "1", "fundamental": "w",
        "products": [
            {"left": "u", "right": "v", "value": [["w", "1"]]},
            {"left": "u", "right": "u", "value": [["w", "1"]]},
            {"left": "v", "right": "v", "value": []},
        ],
    }
    # u*u = w is odd-square nonzero: violates graded commutativity
    # (u*u = -u*u), reported before associativity.
    with pytest.raises(AlgebraError, match="graded commutativity"):
        base_algebra_from_dict(doc)


def test_loader_rejects_degenerate_pairing():
    doc = {
        "name": "degenerate", "n": 1,
        "basis": [{"label": "1", "degree": 0}, {"label": "u", "degree": 1},
                  {"label": "v", "degree": 1}, {"label": "w", "degree": 2}],
        "unit": "1", "fundamental": "w",
        "products": [
            {"left": "u", "right": "v", "value": []},
            {"left": "u", "right": "u", "value": []},
            {"left": "v", "right": "v", "value": []},
        ],
    }
    with pytest.raises(AlgebraError, match="pairing.*degree block \\(1, 1\\)"):
        base_algebra_from_dict(doc)


def test_loader_rejects_pairing_blocks_of_different_sizes():
    doc = {
        "name": "lopsided", "n": 2,
        "basis": [{"label": "1", "degree": 0}, {"label": "u", "degree": 1},
                  {"label": "v", "degree": 3}, {"label": "w", "degree": 3},
                  {"label": "X", "degree": 4}],
        "unit": "1", "fundamental": "X",
        "products": [{"left": "u", "right": "v", "value": [["X", "1"]]}],
    }
    with pytest.raises(AlgebraError, match=re.escape(
            "Poincaré pairing nondegeneracy: degree block (1, 3) has sizes "
            "1 != 2")):
        base_algebra_from_dict(doc)


def test_loader_rejects_true_nonassociativity():
    # 1, t (deg 2), t2 (deg 4), t3 (deg 6=2n): t*t = t2 but t*t2 = 0 while
    # associativity forces (t*t)*t = t*(t*t).  Break it asymmetrically via
    # a non-unital trick is impossible; instead set t2*t != t*t2.
    doc = {
        "name": "bad2", "n": 3,
        "basis": [{"label": "1", "degree": 0}, {"label": "t", "degree": 2},
                  {"label": "t2", "degree": 4}, {"label": "t3", "degree": 6}],
        "unit": "1", "fundamental": "t3",
        "products": [
            {"left": "t", "right": "t", "value": [["t2", "1"]]},
            {"left": "t", "right": "t2", "value": [["t3", "1"]]},
            {"left": "t2", "right": "t", "value": [["t3", "2"]]},
            {"left": "t2", "right": "t2", "value": []},
            {"left": "t", "right": "t3", "value": []},
            {"left": "t3", "right": "t", "value": []},
            {"left": "t2", "right": "t3", "value": []},
            {"left": "t3", "right": "t3", "value": []},
            {"left": "t3", "right": "t2", "value": []},
        ],
    }
    with pytest.raises(AlgebraError, match="graded commutativity|associativity"):
        base_algebra_from_dict(doc)


def test_loader_rejects_associativity_alone():
    # unital, graded commutative (all degrees even, mirrors implied) and
    # with a nondegenerate pairing, but (a*a)*b = p*b = top while
    # a*(a*b) = a*q = 0
    doc = {
        "name": "nonassoc", "n": 3,
        "basis": [{"label": "1", "degree": 0},
                  {"label": "a", "degree": 2}, {"label": "b", "degree": 2},
                  {"label": "p", "degree": 4}, {"label": "q", "degree": 4},
                  {"label": "top", "degree": 6}],
        "unit": "1", "fundamental": "top",
        "products": [
            ["a", "a", [["p", "1"]]], ["a", "b", [["q", "1"]]],
            ["b", "b", []],
            ["a", "p", [["top", "1"]]], ["b", "p", [["top", "1"]]],
            ["b", "q", [["top", "1"]]], ["a", "q", []],
        ],
    }
    with pytest.raises(AlgebraError) as err:
        base_algebra_from_dict(doc)
    assert str(err.value) == "associativity: (a*a)*b != a*(a*b)"


def p1_cubed_two_term_algebra():
    # H*(P1^3) with degree-4 basis s = xy + yz, t = xz, u = yz, so that
    # x*y = s - u has two terms
    lab = ["1", "x", "y", "z", "s", "t", "u", "top"]
    table = {(0, i): {i: 1} for i in range(8)}
    table.update({(i, 0): {i: 1} for i in range(1, 8)})
    for i, j, value in ((1, 2, {4: 1, 6: -1}), (1, 3, {5: 1}), (2, 3, {6: 1}),
                        (1, 4, {7: 1}), (1, 6, {7: 1}), (2, 5, {7: 1}),
                        (3, 4, {7: 1})):
        table[(i, j)] = table[(j, i)] = value
    return BaseAlgebra("P1^3'", 3, lab, [0, 2, 2, 2, 4, 4, 4, 6], 0, 7, table)


def test_tensor_table_equals_all_pairs_enumeration():
    # each P1xP1 factor is fresh: it has memoised no pair, so the outer
    # products must go through its ``product``
    s1 = genus1_algebra()
    for tensor in (tensor_power(p2_algebra(), 3), tensor_power(s1, 3),
                   tensor_many([build_base(parse_space("P1xP1")), s1]),
                   tensor_power(build_base(parse_space("P1xP1")), 3),
                   tensor_power(p1_cubed_two_term_algebra(), 2)):
        check_tensor_products(tensor)


def klein_algebra():
    # Q[f, g]/(f^2 - 1, g^2 - 1), all in degree 0: products of non-unit
    # elements hit the unit, so associativity paths pass through it
    table = {}
    for i in range(4):
        for j in range(4):
            table[(i, j)] = {i ^ j: 1}
    return BaseAlgebra("K", 0, ["1", "f", "g", "fg"], [0, 0, 0, 0], 0, 3,
                       table)


def _outcome(check, alg):
    try:
        check(alg)
    except AlgebraError as err:
        return str(err)
    return None


def _perturbed(alg, rng, mode):
    """A copy of ``alg`` with one to three products edited.

    ``unit``: products with the unit stay; ``symmetric``: the mirrored
    product gets the Koszul-signed edit too; ``raw``: any product may
    change, to any basis element.
    """
    table = {key: dict(prod) for key, prod in alg.table.items()}
    deg, wt = alg.degrees, alg.weights
    pairs = [(i, j) for i in range(alg.dim) for j in range(alg.dim)
             if mode == "raw" or (alg.unit not in (i, j) and
                                  alg.basis_of_degree(deg[i] + deg[j],
                                                      wt[i] + wt[j]))]
    for _ in range(rng.randint(1, 3)):
        i, j = rng.choice(pairs)
        targets = alg.basis_of_degree(deg[i] + deg[j], wt[i] + wt[j])
        if mode == "raw" and (not targets or rng.random() < 0.2):
            targets = range(alg.dim)
        prod = table.get((i, j), {})
        if rng.random() < 0.6:
            prod[rng.choice(targets)] = rng.choice(
                [-2, -1, 1, 2, Rational(1, 2)])
        elif prod:
            del prod[rng.choice(sorted(prod))]
        table[(i, j)] = prod
        if mode == "symmetric":
            sign = -1 if deg[i] % 2 and deg[j] % 2 else 1
            table[(j, i)] = {k: sign * c for k, c in prod.items()}
    bad = BaseAlgebra.__new__(BaseAlgebra)  # the constructor would reject it
    bad._fill(alg.name, alg.n, alg.labels, alg.degrees, alg.unit,
              alg.fundamental, table, alg.weights)
    return bad


def test_sparse_validate_matches_dense_reference():
    rng = random.Random(2024)
    algebras = [build_base(parse_space(s))
                for s in ("P2", "S1", "P1xP1", "S2", "P1xP2")]
    algebras += [tensor_power(build_base(parse_space("S1")), 2),
                 tensor_power(build_base(parse_space("P2")), 2),
                 klein_algebra()]
    # a tensor product is a lazy view: perturb its all-pairs table
    algebras = [dense_tensor_algebra(alg) if isinstance(alg, TensorAlgebra)
                else alg for alg in algebras]
    laws = {}
    for alg in algebras:
        assert _outcome(BaseAlgebra.validate, alg) is None
        for trial in range(240):
            bad = _perturbed(alg, rng, ("unit", "symmetric", "raw")[trial % 3])
            expected = _outcome(dense_validate, bad)
            assert _outcome(BaseAlgebra.validate, bad) == expected, alg.name
            law = expected.split(":")[0] if expected else "ok"
            laws[law] = laws.get(law, 0) + 1
    # the comparison reaches every branch that edits can break
    for law in ("ok", "unit law", "degree additivity",
                "graded commutativity", "associativity",
                "Poincaré pairing nondegeneracy"):
        assert laws.get(law, 0) >= 5, laws


def test_tensor_labels_bracket_factor_labels_holding_the_tensor_sign():
    square = build_base(parse_space("P1xP1"))
    assert square.labels == ("1⊗1", "1⊗x", "x⊗1", "x⊗x")
    fourth = tensor_power(square, 2)
    assert len(set(fourth.labels)) == fourth.dim == 16
    assert fourth.labels[fourth.encode((1, 2))] == "(1⊗x)⊗(x⊗1)"
