import json

import pytest

from cdgacalc import models
from cdgacalc.algebra import AlgebraError, TensorAlgebra
from cdgacalc.analysis import (all_permutations, invariant_cohomology,
                               isotypic_cohomology, p_r_closed_form,
                               sign_character, weightwise_euler)
from cdgacalc.engine import cohomology, differential_matrix, \
    quotient_slice, verify_d_squared
from cdgacalc.models import (ProjectiveSpace, Surface, Product, build_base,
                             configuration_model, cotangent_chern,
                             dual_basis, euler_class_twist,
                             parse_ample_class, parse_space, section_model,
                             symmetric_action, twisted_section_model)
from cdgacalc.rat import ONE
from oracle import (_free_weights, check_d_and_relations,
                    check_diagonal_identities, check_graded_permutation,
                    check_multiplicative, check_tensor_products,
                    diagonal_class, euler_characteristic, explicit_image,
                    map_matrix, matmul, same_matrix)


def test_build_base_presets():
    p2 = build_base(parse_space("P2"))
    assert [p2.betti(i) for i in range(5)] == [1, 0, 1, 0, 1]
    assert euler_characteristic(p2) == 3

    s1 = build_base(parse_space("S1"))
    assert [s1.betti(i) for i in range(3)] == [1, 2, 1]
    assert euler_characteristic(s1) == 0

    pp = build_base(parse_space("P1xP1"))
    assert [pp.betti(i) for i in range(5)] == [1, 0, 2, 0, 1]
    a, b = pp.basis_of_degree(2)
    assert pp.product(a, a) == {}
    assert pp.product(b, b) == {}
    assert pp.product(a, b) == {pp.fundamental: ONE}
    # Euler characteristics multiply across products
    assert euler_characteristic(pp) == 4
    assert euler_characteristic(build_base(parse_space("S1xP1"))) == 0
    assert euler_characteristic(build_base(parse_space("S2xP2"))) == -6


def test_parse_space_products_and_errors():
    assert build_base(parse_space("S1xP1")).dim == 8
    with pytest.raises(AlgebraError):
        parse_space("Q3")
    with pytest.raises(AlgebraError):
        parse_space("P0")


def test_base_dimension_is_predicted_from_the_specification():
    for text in ("P1", "P3", "S0", "S2", "P1xP1", "S1xS3", "S2xP2xP1",
                 "P127"):
        spec = parse_space(text)
        assert models._base_dim(spec) == build_base(spec).dim, text
    assert models._base_dim(parse_space("P127")) == models.MAX_BASE_DIM
    for text in ("P128", "S64", "P1xP64", "P99999999xS1"):
        with pytest.raises(AlgebraError, match="above the limit"):
            build_base(parse_space(text))


def test_tensor_power_is_bounded_before_it_is_built(monkeypatch):
    p2 = build_base(parse_space("P2"))
    assert 3 ** 10 <= models.MAX_TENSOR_DIM < 3 ** 11
    built = []
    monkeypatch.setattr(models, "tensor_power",
                        lambda base, r: built.append(r))
    for make in (lambda r: configuration_model(p2, r),
                 lambda r: section_model(p2, {}, r),
                 lambda r: twisted_section_model(
                     p2, cotangent_chern(parse_space("P2")), 1, r)):
        for r in (11, 30, 10 ** 9):
            with pytest.raises(AlgebraError, match="above the limit"):
                make(r)
    assert not built


def test_parse_ample_class():
    pp = build_base(parse_space("P1xP1"))
    c = parse_ample_class(pp, "[1:0]")
    assert list(c.values()) == [ONE]
    c2 = parse_ample_class(pp, "[2:-1/3]")
    assert sorted(str(v) for v in c2.values()) == ["-1/3", "2"]
    with pytest.raises(AlgebraError, match="rank"):
        parse_ample_class(pp, "1")
    p2 = build_base(parse_space("P2"))
    assert parse_ample_class(p2, "1") == {1: ONE}


def test_dual_basis_examples():
    p2 = build_base(parse_space("P2"))
    assert dual_basis(p2) == [{2: ONE}, {1: ONE}, {0: ONE}]
    s1 = build_base(parse_space("S1"))
    duals = dual_basis(s1)
    # dual(a1) = b1 since a1*b1 = [X]; dual(b1) = -a1
    assert duals[1] == {2: ONE}
    assert duals[2] == {1: -ONE}
    pp = build_base(parse_space("P1xP1"))
    a, b = pp.basis_of_degree(2)
    assert dual_basis(pp)[a] == {b: ONE}


def test_diagonal_classes():
    p1 = build_base(parse_space("P1"))
    d = diagonal_class(p1)
    labels = {d.context.monomial_label(m): c for m, c in d.terms.items()}
    assert labels == {"1⊗x": ONE, "x⊗1": ONE}

    p2 = build_base(parse_space("P2"))
    d = diagonal_class(p2)
    labels = {d.context.monomial_label(m): c for m, c in d.terms.items()}
    assert labels == {"1⊗x^2": ONE, "x⊗x": ONE, "x^2⊗1": ONE}

    s1 = build_base(parse_space("S1"))
    d = diagonal_class(s1)
    labels = {d.context.monomial_label(m): c for m, c in d.terms.items()}
    assert labels == {"1⊗X": ONE, "X⊗1": ONE, "a1⊗b1": -ONE, "b1⊗a1": ONE}


def test_configuration_cohomology_oracles():
    # F^2(P1) fibers over P1 with contractible fiber: dims (1,0,1,0,...);
    # F^3(P1) is rationally a 3-sphere: dims (1,0,0,1,0,...)
    p1 = build_base(parse_space("P1"))
    assert cohomology(configuration_model(p1, 2), 6).dims() == \
        [1, 0, 1, 0, 0, 0, 0]
    assert cohomology(configuration_model(p1, 3), 6).dims() == \
        [1, 0, 0, 1, 0, 0, 0]


def test_g_index_enumerates_pairs_lexicographically():
    for r in range(1, 10):
        layout = models.ModelLayout(r, r * (r - 1) // 2, 1, False)
        pairs = [(a, b) for a in range(1, r + 1) for b in range(a + 1, r + 1)]
        for i, (a, b) in enumerate(pairs):
            assert layout.g_index(a, b) == layout.g_index(b, a) == i
        with pytest.raises(AlgebraError):
            layout.g_index(r, r)


def _pinned_models():
    p1 = build_base(parse_space("P1"))
    pp = build_base(parse_space("P1xP1"))
    spec = parse_space("P2")
    p2 = build_base(spec)
    return [configuration_model(p1, 3),
            section_model(pp, parse_ample_class(pp, "[2/3:-5/2]"), 2),
            twisted_section_model(p2, cotangent_chern(spec), 2, 2)]


# name, params, generator labels, relations and d of each generator of the
# three model families, as the builders made them when this was written
PINNED_MODELS = [
    ("C3(P1)", {"model": "C", "r": 3, "space": "P1"},
     ["G12", "G13", "G23"],
     ["G13·G23 + -1·G12·G23 + G12·G13", "-1·1⊗x⊗1·G12 + x⊗1⊗1·G12",
      "-1·1⊗1⊗x·G13 + x⊗1⊗1·G13", "-1·1⊗1⊗x·G23 + 1⊗x⊗1·G23"],
     {"G12": "1⊗x⊗1 + x⊗1⊗1", "G13": "1⊗1⊗x + x⊗1⊗1",
      "G23": "1⊗1⊗x + 1⊗x⊗1"}),
    ("A2(P1xP1, c=2/3·1⊗x-5/2·x⊗1)",
     {"model": "A", "r": 2, "space": "P1xP1", "c": "2/3·1⊗x-5/2·x⊗1"},
     ["G12", "s[1⊗1]", "s[1⊗x]", "s[x⊗1]", "s[x⊗x]", "alpha1", "alpha2",
      "eta1", "eta2"],
     ["-1·(1⊗1)⊗(1⊗x)·G12 + (1⊗x)⊗(1⊗1)·G12",
      "-1·(1⊗1)⊗(x⊗1)·G12 + (x⊗1)⊗(1⊗1)·G12",
      "-1·(1⊗1)⊗(x⊗x)·G12 + (x⊗x)⊗(1⊗1)·G12"],
     {"G12": "(1⊗1)⊗(x⊗x) + (1⊗x)⊗(x⊗1) + (x⊗1)⊗(1⊗x) + (x⊗x)⊗(1⊗1)",
      "alpha1": "(x⊗x)⊗(1⊗1)",
      "eta1": "(x⊗x)⊗(1⊗1)·s[1⊗1] + -2/3·(1⊗x)⊗(1⊗1)·alpha1 + "
              "5/2·(x⊗1)⊗(1⊗1)·alpha1 + (1⊗x)⊗(1⊗1)·s[x⊗1] + "
              "(x⊗1)⊗(1⊗1)·s[1⊗x] + s[x⊗x]",
      "alpha2": "(1⊗1)⊗(x⊗x)",
      "eta2": "(1⊗1)⊗(x⊗x)·s[1⊗1] + -2/3·(1⊗1)⊗(1⊗x)·alpha2 + "
              "5/2·(1⊗1)⊗(x⊗1)·alpha2 + (1⊗1)⊗(1⊗x)·s[x⊗1] + "
              "(1⊗1)⊗(x⊗1)·s[1⊗x] + s[x⊗x]"}),
    ("A2(P2, L^2)", {"model": "AL", "r": 2, "space": "P2", "d": 2, "m": "1"},
     ["G12", "s[1]", "s[x]", "s[x^2]", "alpha1", "alpha2", "eta1", "eta2"],
     ["-1·1⊗x·G12 + x⊗1·G12", "-1·1⊗x^2·G12 + x^2⊗1·G12"],
     {"G12": "1⊗x^2 + x⊗x + x^2⊗1", "alpha1": "x^2⊗1",
      "eta1": "x^2⊗1·s[1] + -2·x⊗1·alpha1 + x⊗1·s[x] + s[x^2]",
      "alpha2": "1⊗x^2",
      "eta2": "1⊗x^2·s[1] + -2·1⊗x·alpha2 + 1⊗x·s[x] + s[x^2]"}),
]


@pytest.mark.parametrize("index", range(len(PINNED_MODELS)))
def test_model_builders_keep_their_presentations(index):
    p = _pinned_models()[index]
    name, params, labels, relations, diff = PINNED_MODELS[index]
    assert (p.name, p.params) == (name, params)
    assert [g.label for g in p.context.generators] == labels
    assert [repr(rel) for rel in p.relations] == relations
    assert {labels[g]: repr(img) for g, img in p.differential.items()} == diff
    assert p._closed_form is not None


def test_section_model_generator_degrees():
    s1 = build_base(parse_space("S1"))
    m = section_model(s1, parse_ample_class(s1, "1"), 2)
    degs = {g.label: (g.degree, g.weight) for g in m.context.generators}
    assert degs["G12"] == (1, 2)
    assert degs["s[1]"] == (1, 2)
    assert degs["s[a1]"] == (2, 3)
    assert degs["s[X]"] == (3, 4)
    assert degs["alpha1"] == (1, 2)
    assert degs["eta2"] == (2, 4)


def test_section_model_p1_series():
    p1 = build_base(parse_space("P1"))
    m = section_model(p1, parse_ample_class(p1, "1"), 2)
    assert cohomology(m, 10).dims() == [1, 2, 2, 3, 4, 4, 4, 4, 4, 4, 4]


def test_section_model_p1_weight_refinement():
    # H* of the r=2 model over P1 is free on classes of (degree, weight)
    # (1,2), (1,2), (2,4), (3,4): two odd weight-2 lines, one even
    # weight-4 polynomial class, one odd weight-4 class.  The engine's
    # per-weight table must match the multiplicative prediction.
    p1 = build_base(parse_space("P1"))
    m = section_model(p1, parse_ample_class(p1, "1"), 2)
    tab = cohomology(m, 5)
    expected = {}
    for e1 in (0, 1):            # first weight-2 line
        for e2 in (0, 1):        # second weight-2 line
            for e3 in range(3):  # weight-4 polynomial class, degree 2
                for e4 in (0, 1):  # weight-4 class, degree 3
                    d = e1 + e2 + 2 * e3 + 3 * e4
                    k = 2 * e1 + 2 * e2 + 4 * e3 + 4 * e4
                    if d <= 5:
                        expected[(d, k)] = expected.get((d, k), 0) + 1
    assert tab.entries == expected


def test_euler_class_twist_p2():
    chern = cotangent_chern(ProjectiveSpace(2))
    values = {d: euler_class_twist(chern, d)[1] for d in (0, 1, 2, 3)}
    # m(d) = d^2 - 3d + 3
    assert values == {0: 3, 1: 1, 2: 1, 3: 3}


def test_euler_class_twist_d0_signed_euler_characteristic():
    for spec, chi in ((ProjectiveSpace(1), 2), (ProjectiveSpace(2), 3),
                      (Surface(1), 0), (Surface(2), -2),
                      (Product(ProjectiveSpace(1), ProjectiveSpace(1)), 4)):
        base = build_base(spec)
        chern = cotangent_chern(spec)
        _, m0 = euler_class_twist(chern, 0)
        assert m0 == (-1) ** base.n * chi


def test_euler_class_twist_p1_curve_formula():
    chern = cotangent_chern(ProjectiveSpace(1))
    # for curves: m(d) = a d - chi with a = c_1(L)[X] = 1, chi = 2
    for d in range(5):
        assert euler_class_twist(chern, d)[1] == d - 2


def test_twisted_model_matches_untwisted_when_unit():
    p1 = build_base(parse_space("P1"))
    chern = cotangent_chern(ProjectiveSpace(1))
    tw = twisted_section_model(p1, chern, 3, 1)  # m(3) = 1
    plain = section_model(p1, parse_ample_class(p1, "1"), 1)
    assert cohomology(tw, 8).dims() == cohomology(plain, 8).dims()


def test_twisted_model_honest_when_euler_class_vanishes():
    # d = 2 on P1 kills the Euler class (m = 0); the model still builds,
    # still satisfies d^2 = 0, and its cohomology genuinely differs.
    p1 = build_base(parse_space("P1"))
    chern = cotangent_chern(ProjectiveSpace(1))
    tw = twisted_section_model(p1, chern, 2, 2)
    assert verify_d_squared(tw, 5).ok
    dims = cohomology(tw, 5).dims()
    plain = cohomology(section_model(p1, parse_ample_class(p1, "1"), 2),
                       5).dims()
    assert dims == [1, 3, 4, 4, 4, 4]
    assert dims != plain


def test_symmetric_action_identity():
    p1 = build_base(parse_space("P1"))
    m = section_model(p1, parse_ample_class(p1, "1"), 2)
    ident = symmetric_action(m, (0, 1))
    for d in range(4):
        for k in _free_weights(m, d):
            mat = map_matrix(m, ident, d, k)
            for i in range(mat.nrows):
                assert mat.rows[i] == {i: ONE}


def test_symmetric_action_swap_on_configuration():
    p1 = build_base(parse_space("P1"))
    cm = configuration_model(p1, 2)
    swap = symmetric_action(cm, (1, 0))
    ctx = cm.context
    (g, _), = ctx.gen_element(0).terms.items()
    assert swap.image(g) == (g, 1)
    t = ctx.base
    x1 = ctx.monomial(t.encode((1, 0)))
    x2 = ctx.monomial(t.encode((0, 1)))
    assert swap.image(x1) == (x2, 1)


def test_symmetric_action_swap_sign_on_surface():
    s1 = build_base(parse_space("S1"))
    cm = configuration_model(s1, 2)
    swap = symmetric_action(cm, (1, 0))
    ctx = cm.context
    t = ctx.base
    a_idx = s1.index_of("a1")
    both = ctx.monomial(t.encode((a_idx, a_idx)))
    assert swap.image(both) == (both, -1)


def test_symmetric_action_equivariance():
    p1 = build_base(parse_space("P1"))
    m = section_model(p1, parse_ample_class(p1, "1"), 2)
    swap = symmetric_action(m, (1, 0))
    for d in range(5):
        for k in sorted({m.context.monomial_weight(mm)
                         for mm in m.context.monomials_of(d)}):
            if quotient_slice(m, d, k).dim == 0:
                continue
            a_src = map_matrix(m, swap, d, k)
            a_tgt = map_matrix(m, swap, d + 1, k)
            dd = differential_matrix(m, d, k)
            assert same_matrix(matmul(a_src, dd), matmul(dd, a_tgt))


def test_symmetric_action_three_points():
    p2 = build_base(parse_space("P2"))
    m = configuration_model(p2, 3)
    cycle = symmetric_action(m, (1, 2, 0))
    (g12, _), = m.context.gen_element(0).terms.items()
    (g23, _), = m.context.gen_element(m.context.gen_index("G23")).terms.items()
    # G12 -> G_{sigma(1)sigma(2)} = G23
    assert cycle.image(g12) == (g23, 1)


@pytest.mark.parametrize("space, r, c, max_degree", [
    ("S1", 2, "1", 6),       # odd G_12, alpha_i and odd base classes
    ("S1", 3, "-1/2", 4),
    ("P2", 3, "1", 8),
    ("P1xP1", 2, "[1:1]", 8),
    ("S1", 3, None, 6),      # configuration model
])
def test_compiled_action_equals_explicit_product(space, r, c, max_degree):
    base = build_base(parse_space(space))
    p = (configuration_model(base, r) if c is None
         else section_model(base, parse_ample_class(base, c), r))
    ctx = p.context
    flips = 0
    for sig in all_permutations(r):
        phi = symmetric_action(p, sig)
        for d in range(max_degree + 1):
            for mono in ctx.monomials_of(d):
                image, c = phi.image(mono)
                assert {image: c} == explicit_image(phi, mono).terms, \
                    (sig, mono)
                flips += c == -1
    assert flips  # some images change sign


def test_symmetric_action_built_once_per_presentation(monkeypatch):
    calls = []
    build = models._build_action
    monkeypatch.setattr(models, "_build_action",
                        lambda p, layout, sig: calls.append(sig)
                        or build(p, layout, sig))
    p2 = build_base(parse_space("P2"))
    m = section_model(p2, parse_ample_class(p2, "1"), 3)
    group = all_permutations(3)
    invariant_cohomology(m, group, 3)
    isotypic_cohomology(m, group, sign_character(3), 3)
    assert sorted(calls) == group
    assert symmetric_action(m, [1, 2, 0]) is symmetric_action(m, (1, 2, 0))
    assert len(calls) == 6
    other = section_model(p2, parse_ample_class(p2, "1"), 3)
    symmetric_action(other, (1, 2, 0))
    assert len(calls) == 7


# H*(S^1 x S^3): odd classes in two degrees, and no H^2
ODD_CUSTOM = {
    "name": "S1xS3", "n": 2,
    "basis": [{"label": "1", "degree": 0}, {"label": "u", "degree": 1},
              {"label": "v", "degree": 3}, {"label": "uv", "degree": 4}],
    "unit": "1", "fundamental": "uv",
    "products": [["u", "v", [["uv", "1"]]], ["u", "u", []], ["v", "v", []]],
}


def _law_families(space, r, tmp_path):
    if space == "custom":
        path = tmp_path / "s1xs3.json"
        path.write_text(json.dumps(ODD_CUSTOM))
        base = build_base(parse_space(f"custom:{path}"))
        return base, [configuration_model(base, r), section_model(base, {}, r)]
    spec = parse_space(space)
    base = build_base(spec)
    c = parse_ample_class(base, "[1:1]" if space == "P1xP1" else "1")
    return base, [configuration_model(base, r), section_model(base, c, r),
                  twisted_section_model(base, cotangent_chern(spec), 2, r)]


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("space", ["P1", "P2", "S1", "S2", "P1xP1", "custom"])
def test_laws_that_hold_by_construction(space, r, tmp_path):
    # tensor powers, the diagonal class and the S_r actions are not
    # re-checked when a model is built; their laws are checked here
    base, families = _law_families(space, r, tmp_path)
    delta = diagonal_class(base)
    tensors = [delta.context.base] + [p.context.base for p in families]
    if isinstance(base, TensorAlgebra):
        tensors.append(base)
    for tensor in tensors:
        check_tensor_products(tensor)
    check_diagonal_identities(base, delta)
    actions = [[symmetric_action(p, sig) for sig in all_permutations(r)]
               for p in families]
    for p, maps in zip(families, actions):
        for phi in maps:
            check_graded_permutation(phi)
        check_d_and_relations(p, maps)
    # every family acts on the same tensor power by the same base map, so
    # multiplicativity is checked on the configuration model's maps
    for phi in actions[0]:
        check_multiplicative(phi)
    dim = families[0].context.base.dim
    images = [[phi.base_image(b) for b in range(dim)] for phi in actions[0]]
    for maps in actions[1:]:
        assert [[phi.base_image(b) for b in range(dim)]
                for phi in maps] == images


def test_symmetric_action_rejects_the_reduced_model():
    p1 = build_base(parse_space("P1"))
    p = section_model(p1, parse_ample_class(p1, "1"), 2)
    assert p.reduced is not p
    with pytest.raises(AlgebraError, match="defined on the model as built"):
        symmetric_action(p.reduced, (1, 0))
    with pytest.raises(AlgebraError, match="defined on the model as built"):
        invariant_cohomology(p.reduced, all_permutations(2), 5)


def test_map_matrix_rejects_map_on_another_context():
    p1 = build_base(parse_space("P1"))
    m = section_model(p1, parse_ample_class(p1, "1"), 2)
    other = section_model(p1, parse_ample_class(p1, "1"), 2)
    swap = symmetric_action(other, (1, 0))
    with pytest.raises(AlgebraError, match="context mismatch"):
        map_matrix(m, swap, 2, 2)


def test_custom_space_pipeline(tmp_path):
    doc = {
        "name": "myP1", "n": 1,
        "basis": [{"label": "1", "degree": 0}, {"label": "h", "degree": 2}],
        "unit": "1", "fundamental": "h",
        "products": [{"left": "h", "right": "h", "value": []}],
    }
    path = tmp_path / "p1.json"
    path.write_text(json.dumps(doc))
    base = build_base(parse_space(f"custom:{path}"))
    assert cohomology(configuration_model(base, 2), 5).dims() == \
        [1, 0, 1, 0, 0, 0]


def test_section_model_s2_three_points():
    # a dim(B)^3 = 216 tensor power, built and validated from its nonzero
    # products only
    s2 = build_base(parse_space("S2"))
    p = section_model(s2, parse_ample_class(s2, "1"), 3)
    assert verify_d_squared(p, 2).ok
    assert weightwise_euler(p, 5) == p_r_closed_form(s2, 3, 5)
