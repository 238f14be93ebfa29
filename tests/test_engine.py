import random
from collections import Counter

import pytest

from cdgacalc import cli
from cdgacalc.algebra import (AlgebraContext, AlgebraError, Element,
                              GeneratorSpec, Monomial, tensor_power)
from cdgacalc.analysis import (all_permutations, isotypic_cohomology,
                               sign_character, weightwise_euler)
from cdgacalc.engine import (Presentation, PresentationError, _assemble,
                             _core_slices, _slice_weights,
                             _suffix_differential,
                             cohomology, differential_matrix,
                             differential_rank, ideal_slice, quotient_slice,
                             verify_d_squared)
from cdgacalc.linalg import SparseMatrix, rank, rref
from cdgacalc.models import build_base, cotangent_chern, parse_ample_class, \
    parse_space, section_model, configuration_model, twisted_section_model
from cdgacalc.rat import ONE, Rational

from oracle import (_free_weights, dense_cohomology_dims, every_group_blocks,
                    free_differential, is_zero, nonempty_core_slices,
                    reference_differential_matrix, rref_slice_basis,
                    slice_d_squared, slice_weights, suffix_differential,
                    suffix_monomials, unfactored_slice, unreduced_cohomology)
from test_acceptance import random_presentation


def c2_p1(diagonal="good"):
    """Hand-built configuration model of two points on the sphere."""
    base = build_base(parse_space("P1"))
    t = tensor_power(base, 2)
    ctx = AlgebraContext(t, [GeneratorSpec("G12", 1, 2)])
    x1 = ctx.base_element({t.encode((1, 0)): ONE})
    x2 = ctx.base_element({t.encode((0, 1)): ONE})
    rel = (x1 - x2) * ctx.gen_element("G12")
    diag = x1 + x2 if diagonal == "good" else x1
    return Presentation(ctx, [rel], {0: diag}, name="C2(P1)-hand",
                        params={"model": "C", "r": 2, "space": "P1"})


def test_ideal_slice_no_relations():
    base = build_base(parse_space("P1"))
    ctx = AlgebraContext(base, [GeneratorSpec("a", 1, 2)])
    p = Presentation(ctx, [], {}, name="free")
    assert ideal_slice(p, 3, 4).nrows == 0


def test_ideal_slice_c2_p1_degree_three():
    p = c2_p1()
    mat = ideal_slice(p, 3, 4)
    # free degree-3 monomials are x(x)1*G and 1(x)x*G, both of weight 4;
    # the ideal is the span of their difference
    assert mat.ncols == 2
    assert rref(mat).rank == 1


def test_ideal_slice_c2_p1_degree_two_empty():
    p = c2_p1()
    assert rref(ideal_slice(p, 2, 2)).rank == 0


def test_quotient_slice_dims():
    p = c2_p1()
    assert quotient_slice(p, 0, 0).dim == 1
    assert quotient_slice(p, 3, 4).dim == 1
    # projector kills each ideal row
    mat = ideal_slice(p, 3, 4)
    sl = quotient_slice(p, 3, 4)
    cols = p.context.monomials_of(3, 4)
    for row in mat.rows:
        terms = {cols[j]: v for j, v in row.items()}
        assert sl.reduce(terms) == {}


def test_quotient_slice_a2_p2_degree_one():
    base = build_base(parse_space("P2"))
    m = section_model(base, parse_ample_class(base, "1"), 2)
    sl = quotient_slice(m, 1, 2)
    assert sl.dim == 1
    assert m.context.monomial_label(sl.quotient[0]) == "s[1]"


def test_differential_degree_zero_is_zero():
    p = c2_p1()
    assert is_zero(differential_matrix(p, 0, 0))


def test_differential_c2_p1_rank_one():
    p = c2_p1()
    mat = differential_matrix(p, 1, 2)
    assert (mat.nrows, mat.ncols) == (1, 2)
    assert mat.rows[0] == {0: ONE, 1: ONE}
    assert differential_rank(p, 1, 2) == 1


def test_differential_a1_p1():
    base = build_base(parse_space("P1"))
    m = section_model(base, parse_ample_class(base, "1"), 1)
    # alpha sits in degree 1, weight 2; d(alpha) = x has rank 1 onto
    # degree 2
    mat = differential_matrix(m, 1, 2)
    assert differential_rank(m, 1, 2) >= 1
    alpha_row = None
    sl = quotient_slice(m, 1, 2)
    for i, mono in enumerate(sl.quotient):
        if m.context.monomial_label(mono) == "alpha1":
            alpha_row = mat.rows[i]
    tgt = quotient_slice(m, 2, 2)
    labels = {j: m.context.monomial_label(mono)
              for j, mono in enumerate(tgt.quotient)}
    assert alpha_row is not None
    assert {labels[j] for j in alpha_row} == {"x"}


def test_cohomology_c2_p1():
    p = c2_p1()
    tab = cohomology(p, 6)
    assert tab.dims() == [1, 0, 1, 0, 0, 0, 0]


def test_merged_equals_by_weight():
    base = build_base(parse_space("P1"))
    m = section_model(base, parse_ample_class(base, "1"), 2)
    by_w = cohomology(m, 6, by_weight=True)
    # the dense oracle eliminates whole-degree slices
    merged = dense_cohomology_dims(m, 6)
    assert by_w.dims() == [merged[i] for i in range(7)]
    # weight splitting: the per-weight dims sum to the merged dims
    for i in range(7):
        assert sum(by_w.dim(i, k) for k in by_w.weights_at(i)) == merged[i]
    # there is no whole-degree computation
    with pytest.raises(AlgebraError, match="by_weight"):
        cohomology(m, 3, by_weight=False)


def test_euler_characteristic_differential_free():
    base = build_base(parse_space("P1"))
    m = section_model(base, parse_ample_class(base, "1"), 2)
    tab = cohomology(m, 8)
    weights = {k for (_, k) in tab.entries}
    for k in weights:
        if k > 8:
            continue  # degrees above max_degree could still contribute
        lhs = sum((-1) ** d * tab.dim(d, k) for d in range(9))
        rhs = sum((-1) ** i * quotient_slice(m, i, k).dim
                  for i in range(k + 1))
        assert lhs == rhs


def test_cross_weight_blocks_vanish():
    base = build_base(parse_space("S1"))
    m = section_model(base, parse_ample_class(base, "1"), 2)
    ctx = m.context
    for d in range(5):
        for mono in ctx.monomials_of(d):
            k = ctx.monomial_weight(mono)
            dm = m.differential_of(Element(ctx, {mono: ONE}))
            for m2 in dm.terms:
                assert ctx.monomial_weight(m2) == k
                assert ctx.monomial_degree(m2) == d + 1


def test_verify_passes_on_hand_model():
    rep = verify_d_squared(c2_p1(), 6)
    assert rep.ok
    assert rep.slices_checked > 0


def test_verify_fails_on_wrong_diagonal():
    rep = verify_d_squared(c2_p1("bad"), 4)
    assert not rep.ok
    assert rep.failure_kind == "relation"
    assert "G12" in rep.witness


def test_presentation_rejects_inhomogeneous_relation():
    base = build_base(parse_space("P1"))
    ctx = AlgebraContext(base, [GeneratorSpec("a", 1, 2)])
    bad = ctx.one() + ctx.gen_element("a")
    with pytest.raises(PresentationError, match="not homogeneous"):
        Presentation(ctx, [bad], {})


def test_presentation_rejects_wrong_differential_degree():
    base = build_base(parse_space("P1"))
    ctx = AlgebraContext(base, [GeneratorSpec("a", 1, 2)])
    with pytest.raises(PresentationError, match="degree"):
        Presentation(ctx, [], {0: ctx.one()})


def test_presentation_rejects_weight_inhomogeneous_differential():
    base = build_base(parse_space("P1"))
    # generator of weight 3 whose differential has weight 2: rejected
    ctx = AlgebraContext(base, [GeneratorSpec("a", 1, 3)])
    with pytest.raises(PresentationError, match="weight"):
        Presentation(ctx, [], {0: ctx.base_element({1: ONE})})


def test_presentation_rejects_relation_from_another_algebra():
    base = build_base(parse_space("P1"))
    ctx = AlgebraContext(base, [GeneratorSpec("a", 1, 2)])
    other = AlgebraContext(base, [GeneratorSpec("a", 1, 2)])
    rel = other.gen_element("a") * other.base_element({1: ONE})
    with pytest.raises(PresentationError, match="relation .* lives in "
                                                "another algebra"):
        Presentation(ctx, [rel], {})


def test_presentation_rejects_differential_from_another_algebra():
    base = build_base(parse_space("P1"))
    ctx = AlgebraContext(base, [GeneratorSpec("a", 1, 2)])
    other = AlgebraContext(base, [GeneratorSpec("a", 1, 2)])
    with pytest.raises(PresentationError,
                       match=r"d\(a\) lives in another algebra"):
        Presentation(ctx, [], {0: other.base_element({1: ONE})})


def test_presentation_rejects_negative_differential_key():
    base = build_base(parse_space("P1"))
    ctx = AlgebraContext(base, [GeneratorSpec("a", 1, 2)])
    with pytest.raises(PresentationError,
                       match="differential key -1 is not a generator index"):
        Presentation(ctx, [], {-1: ctx.base_element({1: ONE})})


def test_presentation_rejects_differential_key_past_the_generators():
    base = build_base(parse_space("P1"))
    ctx = AlgebraContext(base, [GeneratorSpec("a", 1, 2)])
    with pytest.raises(PresentationError,
                       match="differential key 1 is not a generator index "
                             "0..0"):
        Presentation(ctx, [], {1: ctx.base_element({1: ONE})})


def test_slice_caches_keep_their_key_shapes():
    # bench/child.py harvest_keys reads these caches by their key shapes;
    # cohomology runs on the reduced model, which caches its factored
    # slices, and the core it shares with the model caches its slices but
    # not the ideal slices they come from
    base = build_base(parse_space("P2"))
    p = section_model(base, parse_ample_class(base, "1"), 2)
    cohomology(p, 4)
    assert verify_d_squared(p, 4).ok
    core, reduced = p.core, p.reduced
    assert core is not p and reduced is not p
    assert reduced.core is core
    # the core of a built-in model enumerates nothing: its closed form
    # lists each slice's basis
    assert core._closed_form is not None
    for pres in (p, reduced, core):
        assert not pres.context._mono_cache, pres.name
    # a generic presentation still enumerates its free slices
    generic = c2_p1()
    cohomology(generic, 4)
    assert generic.core is generic and generic._closed_form is None
    assert generic.context._mono_cache
    for pres, layers in ((reduced, {"slice", "rank"}),
                         (core, {"slice"}), (generic, {"slice", "rank"})):
        assert pres._cache
        for key in pres._cache:
            assert isinstance(key, tuple) and len(key) == 3
            layer, degree, weight = key
            assert layer in layers
            assert isinstance(degree, int) and isinstance(weight, int)
        assert {key[0] for key in pres._cache} == layers
    for key in generic.context._mono_cache:
        assert isinstance(key, tuple) and len(key) == 2
        degree, weight = key
        assert isinstance(degree, int)
        assert weight is None or isinstance(weight, int)
    # no ideal slice outlives the rref that made its core slice
    q = _section("S1", 3)
    cohomology(q, 5)
    isotypic_cohomology(q, all_permutations(3), sign_character(3), 5)
    for pres in (q, q.reduced, q.core):
        assert pres._cache
        assert all(key[0] != "ideal" for key in pres._cache), pres.name


def test_dense_oracle_agrees_on_hand_models():
    p = c2_p1()
    dense = dense_cohomology_dims(p, 5)
    tab = cohomology(p, 5)
    assert [dense[d] for d in range(6)] == tab.dims()

    base = build_base(parse_space("P1"))
    m = section_model(base, parse_ample_class(base, "1"), 1)
    dense = dense_cohomology_dims(m, 5)
    tab = cohomology(m, 5)
    assert [dense[d] for d in range(6)] == tab.dims()


def test_dense_oracle_agrees_on_real_models():
    # exercises the Arnold relation (whose d is nonzero in the free
    # algebra but lands in the ideal) and odd base classes
    cases = [
        (configuration_model(build_base(parse_space("P1")), 3), 6),
        (configuration_model(build_base(parse_space("S1")), 2), 5),
        (section_model(build_base(parse_space("P2")),
                       parse_ample_class(build_base(parse_space("P2")), "1"),
                       2), 5),
    ]
    for pres, max_degree in cases:
        dense = dense_cohomology_dims(pres, max_degree)
        sparse = cohomology(pres, max_degree).dims()
        assert [dense[d] for d in range(max_degree + 1)] == sparse, pres.name


def test_configuration_r1_is_base_cohomology():
    base = build_base(parse_space("P2"))
    p = configuration_model(base, 1)
    assert not p.relations
    tab = cohomology(p, 5)
    assert tab.dims() == [base.betti(i) for i in range(6)]


def _section(space, r, c="1"):
    base = build_base(parse_space(space))
    return section_model(base, parse_ample_class(base, c), r)


def test_reducing_a_monomial_outside_its_slice_raises():
    p = _section("P1", 2)
    unit = p.context.base.unit
    g12 = Monomial(unit, (1,))  # the core's generator, degree 1
    hand = c2_p1()
    assert p.core._closed_form is not None and hand._closed_form is None
    factored = quotient_slice(p, 1, 2)
    blocks = {u: sl for u, sl, _ in factored.blocks}
    # a present block whose core slice is (0, 0), handed a degree-1 part
    u = next(u for u, sl in blocks.items() if sl.degree == 0)
    # a suffix generator of degree above the slice's, which has no block
    j = next(j for j, d in enumerate(p.context.gen_degrees[1:]) if d > 1)
    v = tuple(int(i == j) for i in range(len(u)))
    assert v not in blocks
    # s[1] has no block in slice (2, 2), whose core slice at (1, 0) is
    # empty; G12 s[1] has the weight of (2, 4)
    top = quotient_slice(p, 2, 2)
    s1 = tuple(int(i == 0) for i in range(len(u)))
    assert [b[0] for b in top.blocks] == [(0,) * len(u)]
    cases = [(quotient_slice(p.core, 0, 0), g12),
             (quotient_slice(hand, 0, 0), Monomial(hand.context.base.unit,
                                                   (1,))),
             (factored, Monomial(unit, (1,) + u)),
             (factored, Monomial(unit, (0,) + v)),
             (top, Monomial(unit, (1,) + s1))]
    for sl, m in cases:
        for reduce in (sl.coords, sl.reduce):
            with pytest.raises(AlgebraError, match="outside slice"):
                reduce({m: 1})


def test_compiled_leibniz_matches_factorwise_oracle():
    # the models behind table1 and the CLI's --model C / AL, then the
    # random presentations, whose d(g) carry products and powers of
    # generators
    models = [(_section("P1", 2), 6), (_section("S1", 2), 5),
              (_section("P1xP1", 2, "[2:3]"), 5),
              (twisted_section_model(build_base(parse_space("P2")),
                                     cotangent_chern(parse_space("P2")),
                                     2, 2), 6),
              (configuration_model(build_base(parse_space("P1")), 3), 6)]
    models += [random_presentation(seed) for seed in range(24)]
    checked = 0
    for p, max_degree in models:
        ctx = p.context
        for d in range(max_degree + 1):
            for mono in (m for k in _free_weights(p, d)
                         for m in quotient_slice(p, d, k).quotient):
                got = p.differential_of(Element(ctx, {mono: ONE}))
                assert got == free_differential(p, mono), (
                    p.name, ctx.monomial_label(mono))
                checked += 1
    assert checked > 1000


def _values(rows):
    return [v for row in rows for v in row.values()]


def test_scalars_stay_int_on_integer_models_and_never_float():
    integer = _section("P1xP1", 2, "[1:1]")
    # rational c: eliminating S1's slices yields integral Rationals
    rationals = (_section("P1xP1", 2, "[2/3:1]"), _section("S1", 2, "-1/2"))
    models = [integer, integer.reduced]
    models += [q for p in rationals for q in (p, p.reduced)]
    for p in models:
        ctx = p.context
        for d in range(7):
            for k in sorted({ctx.monomial_weight(m)
                             for m in ctx.monomials_of(d)}):
                ideal = ideal_slice(p, d, k)
                sl = quotient_slice(p, d, k)
                dmat = differential_matrix(p, d, k)
                reduced = rref(ideal).reduced
                # a factored slice keeps its rewrites in the core's slices
                rewrite = [row for _, block, _ in sl.blocks
                           for row in block.rewrite.values()]
                values = (_values(ideal.rows) + _values(rewrite)
                          + _values(dmat.rows) + _values(reduced.rows))
                kinds = {type(v) for v in values}
                assert float not in kinds
                assert kinds <= {int, Rational}
                if p in (integer, integer.reduced):
                    assert kinds <= {int}, (d, k, kinds)
                # exact form: an integral value is never a Rational
                assert all(type(v) is int
                           for v in _values(reduced.rows) + _values(dmat.rows)
                           if v == int(v)), (p.name, d, k)
                assert type(rank(dmat)) is int


def _families(space, r):
    spec = parse_space(space)
    base = build_base(spec)
    c = parse_ample_class(base, "[1:1]" if space == "P1xP1" else "1")
    return [configuration_model(base, r), section_model(base, c, r),
            twisted_section_model(base, cotangent_chern(spec), 2, r)]


def _assert_slices_match_unfactored(p, max_degree):
    """Every slice to max_degree equals the dense whole-slice elimination,
    and in each degree the weight slices together equal the dense
    elimination of the whole-degree free slice."""
    ctx = p.context
    checked = 0
    for d in range(max_degree + 1):
        weights = sorted({ctx.monomial_weight(m) for m in ctx.monomials_of(d)})
        slices = {k: quotient_slice(p, d, k) for k in weights}
        for k in weights + [None]:
            # k None: the whole-degree free slice, which the weight slices
            # partition
            quotient, normal = unfactored_slice(p, d, k)
            got = [m for w in (weights if k is None else [k])
                   for m in slices[w].quotient]
            # a factored slice lists its basis in block order
            assert len(got) == len(quotient), (p.name, d, k)
            assert set(got) == set(quotient), (p.name, d, k)
            for m, form in normal.items():
                assert slices[ctx.monomial_weight(m)].reduce({m: ONE}) \
                    == form, (p.name, d, k, ctx.monomial_label(m))
            checked += 1
    return checked


def _slice_budget(p, largest=90, top=6):
    """Highest degree <= top whose free slices hold <= largest monomials."""
    ctx = p.context
    for d in range(top + 1):
        if any(len(ctx.monomials_of(d, ctx.monomial_weight(m))) > largest
               for m in ctx.monomials_of(d)):
            return d - 1
    return top


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("space", ["P1", "P2", "S1", "S2", "P1xP1"])
def test_factored_slices_match_unfactored(space, r):
    families = _families(space, r)
    for p in families:
        max_degree = _slice_budget(p)
        assert max_degree >= 1
        assert _assert_slices_match_unfactored(p, max_degree) > 0
    # the section models carry a relation-free suffix; C has none
    conf, section, twisted = families
    assert conf.core is conf
    for p in (section, twisted):
        assert len(p.core.context.generators) == r * (r - 1) // 2
        assert p.core.core is p.core


def test_factored_slices_match_unfactored_on_random_presentations():
    factored = 0
    for seed in range(24):
        p, max_degree = random_presentation(seed)
        _assert_slices_match_unfactored(p, max_degree)
        factored += p.core is not p
    assert factored >= 5


def _assert_differential_matches_reference(p, max_degree):
    """Every differential matrix to max_degree, weight by weight, equals
    the per-monomial reference entry by entry."""
    ctx = p.context
    nnz = 0
    for d in range(max_degree + 1):
        for k in _slice_weights(p, d):
            got = differential_matrix(p, d, k)
            want = reference_differential_matrix(p, d, k)
            assert (got.nrows, got.ncols) == (want.nrows, want.ncols)
            basis = quotient_slice(p, d, k).quotient
            for i, (row, ref) in enumerate(zip(got.rows, want.rows)):
                assert row == ref, (p.name, d, k,
                                    ctx.monomial_label(basis[i]))
            nnz += got.nnz()
    return nnz


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("space", ["P1", "P2", "S1", "S2", "P1xP1"])
def test_assembled_differential_equals_reference(space, r):
    base = build_base(parse_space(space))
    c = "[2/3:1]" if space == "P1xP1" else "-1/2"
    models = _families(space, r) + [
        section_model(base, parse_ample_class(base, c), r)]
    for p in models:
        max_degree = _slice_budget(p)
        for q in {p: None, p.reduced: None}:
            assert _assert_differential_matches_reference(q, max_degree) > 0


def test_assembled_differential_equals_reference_on_random_presentations():
    nnz = 0
    for seed in range(24):
        p, max_degree = random_presentation(seed)
        for q in {p: None, p.reduced: None}:
            nnz += _assert_differential_matches_reference(q, max_degree)
    assert nnz > 0


def test_assembled_differential_moves_odd_suffix_generators():
    # d(a) = x y2 lands in the suffix: d(a y1) = -x y1 y2 + x a and
    # d(a y2) = 0 exercise the sign and the vanishing of s u in the
    # assembly
    base = build_base(parse_space("P1"))
    ctx = AlgebraContext(base, [GeneratorSpec("a", 2, 3),
                                GeneratorSpec("y1", 1, 2),
                                GeneratorSpec("y2", 1, 1)])
    x = ctx.base_element({base.fundamental: ONE})
    a, y1, y2 = (ctx.gen_element(g) for g in ("a", "y1", "y2"))
    p = Presentation(ctx, [x * a], {0: x * y2, 1: x}, name="odd suffix")
    assert p.core is not p and len(p.core.context.generators) == 1
    assert verify_d_squared(p, 6).ok
    assert _assert_differential_matches_reference(p, 6) > 0
    assert p.differential_of(a * y1) == x * a - x * y1 * y2
    assert p.differential_of(a * y2).is_zero()
    dense = dense_cohomology_dims(p, 6)
    assert cohomology(p, 6).dims() == [dense[d] for d in range(7)]


# -- L d: the derivation tables with d's denominators cleared ------------

@pytest.mark.parametrize("space, c, scale", [
    ("S1", "-1/2", 2), ("P1", "7/3", 3), ("P1xP1", "[2/3:1]", 3)])
def test_rational_models_assemble_the_scale_times_d_in_ints(space, c, scale):
    p = _section(space, 2, c)
    assert p._scale == scale and p.reduced is not p
    for q in (p, p.reduced):
        assert q._scale > 1, q.name
        ctx = q.context
        rows = 0
        for d in range(6):
            for k in _slice_weights(q, d):
                src = quotient_slice(q, d, k)
                assembled = _assemble(q, src, quotient_slice(q, d + 1, k))
                mat = differential_matrix(q, d, k)
                assert [{j: v for j, v in row.items() if v}
                        for row in assembled] \
                    == [{j: q._scale * v for j, v in row.items()}
                        for row in mat.rows], (q.name, d, k)
                assert all(type(v) is int
                           for row in assembled for v in row.values())
                # differential_of divides L back; the oracle reads
                # q.differential, not the tables
                for mono in src.quotient:
                    assert q.differential_of(Element(ctx, {mono: ONE})) \
                        == free_differential(q, mono), (q.name, mono)
                rows += src.dim
        assert rows > 0


@pytest.mark.parametrize("space, c", [
    ("P1", "-3"), ("S1", "-3"), ("P1xP1", "[2:-1]")])
def test_integer_models_have_scale_one(space, c):
    for p in _families(space, 2) + [_section(space, 2, c)]:
        for q in (p, p.reduced, p.core):
            assert q._scale == 1, q.name


@pytest.mark.parametrize("c, edit, label, kind, detail", [
    ("-1/2", "dropped", "G12", "relation",
     "d(relation) not in ideal: -1·x⊗x"),
    ("-1/2", "moved", "alpha1", "d_squared", "d(d(eta1)) = 1/2·x⊗x"),
    ("7/3", "moved", "alpha1", "d_squared", "d(d(eta1)) = -7/3·x⊗x")])
def test_failure_witness_is_divided_back_by_the_scale(c, edit, label, kind,
                                                      detail):
    # d^2 is checked on L d; the witness is the normal form of d itself
    edits = {"dropped": _first_term_dropped,
             "moved": _pulled_back_at_point_two}
    bad = _with_differential(_section("P1", 2, c), label, edits[edit], "bad")
    assert bad._scale > 1
    rep = verify_d_squared(bad, 4)
    assert (rep.ok, rep.failure_kind, rep.detail) == (False, kind, detail)


def test_relation_free_generator_before_a_relation_generator():
    # a relation-free generator ahead of the relation's one stays in the
    # core; with nothing after it the core is the model itself
    base = build_base(parse_space("P1"))
    t = tensor_power(base, 2)
    specs = {"a": GeneratorSpec("a", 1, 2), "b": GeneratorSpec("b", 2, 2),
             "G12": GeneratorSpec("G12", 1, 2)}
    for gens in (["a", "G12"], ["a", "G12", "b"]):
        ctx = AlgebraContext(t, [specs[g] for g in gens])
        x1 = ctx.base_element({t.encode((1, 0)): ONE})
        x2 = ctx.base_element({t.encode((0, 1)): ONE})
        g12 = ctx.gen_element("G12")
        p = Presentation(ctx, [(x1 - x2) * g12], {
            ctx.gen_index("G12"): x1 + x2, ctx.gen_index("a"): x1 - x2})
        assert [g.label for g in p.core.context.generators] == ["a", "G12"]
        assert (p.core is p) == (gens == ["a", "G12"])
        assert verify_d_squared(p, 5).ok
        _assert_slices_match_unfactored(p, 5)
        dense = dense_cohomology_dims(p, 5)
        assert cohomology(p, 5).dims() == [dense[d] for d in range(6)]


def test_presentation_without_relations_has_an_empty_core():
    base = build_base(parse_space("S1"))
    ctx = AlgebraContext(base, [GeneratorSpec("a", 1, 2),
                                GeneratorSpec("b", 2, 3)])
    p = Presentation(ctx, [], {0: ctx.base_element({base.fundamental: ONE})},
                     name="free")
    assert p.core is not p and p.core.context.generators == ()
    assert not p.core.relations and not p.core.differential
    _assert_slices_match_unfactored(p, 5)
    for d in range(6):
        for k in range(3 * d + 1):
            assert quotient_slice(p, d, k).quotient \
                == ctx.monomials_of(d, k)
    dense = dense_cohomology_dims(p, 5)
    assert cohomology(p, 5).dims() == [dense[d] for d in range(6)]


# -- the d^2 certificate against the slice-by-slice check ----------------

def _with_differential(p, label, edit, tag):
    """``p`` with d(label) replaced by ``edit(d(label))``."""
    ctx = p.context
    diff = dict(p.differential)
    g = ctx.gen_index(label)
    diff[g] = edit(diff[g])
    return Presentation(ctx, p.relations, diff, name=f"{p.name} {tag}",
                        params=p.params)


def _first_term_negated(elem):
    terms = dict(elem.terms)
    first = min(terms, key=elem.context.monomial_key)
    terms[first] = -terms[first]
    return Element(elem.context, terms)


def _first_term_dropped(elem):
    terms = dict(elem.terms)
    del terms[min(terms, key=elem.context.monomial_key)]
    return Element(elem.context, terms)


def _pulled_back_at_point_two(elem):
    # d(alpha1) = pi_1^*[X] moved to pi_2^*[X]: d(d(eta1)) = -c [X]_2 != 0
    ctx = elem.context
    tensor = ctx.base
    (m, c), = elem.terms.items()
    combo = list(tensor.decode(m.base))
    combo[0], combo[1] = combo[1], combo[0]
    return ctx.base_element({tensor.encode(tuple(combo)): c})


def _mutated_builtin_models():
    out = []
    for space, r in (("P1", 2), ("S1", 2), ("P2", 3)):
        p = _section(space, r)
        out += [_with_differential(p, f"eta{r}", _first_term_negated,
                                   "flipped sign in d(eta)"),
                _with_differential(p, "G12", _first_term_dropped,
                                   "term dropped from Delta"),
                _with_differential(p, "alpha1", _pulled_back_at_point_two,
                                   "d(alpha1) at point 2")]
    return out


def _mutated_random(seed):
    """The random presentation with d of one generator given an extra
    monomial through a generator of nonzero d, or None."""
    p, _ = random_presentation(seed)
    ctx = p.context
    for g, spec in enumerate(ctx.generators):
        for m in ctx.monomials_of(spec.degree + 1, spec.weight):
            if not m.exps[g] and any(m.exps[h] for h in p.differential):
                diff = dict(p.differential)
                diff[g] = diff.get(g, ctx.zero()) + Element(ctx, {m: ONE})
                return Presentation(ctx, p.relations, diff,
                                    name=f"{p.name} with d({spec.label}) "
                                         f"changed")
    return None


def test_certificate_rejects_exactly_what_the_slice_check_rejects():
    cases = [random_presentation(seed)[0] for seed in range(24)]
    cases += [m for seed in range(24) if (m := _mutated_random(seed))]
    cases += _mutated_builtin_models()
    verdicts = Counter()
    for p in cases:
        # above the largest generator degree plus one, the slice check
        # sees d^2 on every generator
        top = max(g.degree for g in p.context.generators) + 2
        cert = verify_d_squared(p, top)
        ref = slice_d_squared(p, top)
        assert (cert.ok, cert.failure_kind) == (ref.ok, ref.failure_kind), \
            (p.name, cert.message(), ref.message())
        if cert.ok:
            assert cert.slices_checked == ref.slices_checked, p.name
        else:
            assert "\n" not in cert.message()
        verdicts[cert.failure_kind] += 1
    assert verdicts[None] >= 24
    assert verdicts["relation"] >= 3 and verdicts["d_squared"] >= 3


def test_certificate_counts_the_slices_the_slice_check_visits():
    models = [_section("S1", 2), _section("P1xP1", 2, "[1:1]"),
              configuration_model(build_base(parse_space("S1")), 3),
              twisted_section_model(build_base(parse_space("P2")),
                                    cotangent_chern(parse_space("P2")), 2, 3)]
    for p in models:
        for max_degree in (0, 3, 7):
            assert verify_d_squared(p, max_degree).slices_checked \
                == slice_d_squared(p, max_degree).slices_checked, p.name


def test_certificate_names_the_generator_and_verify_exits_1(monkeypatch,
                                                            capsys):
    bad = _with_differential(_section("P1", 2), "alpha1",
                             _pulled_back_at_point_two, "bad")
    rep = verify_d_squared(bad, 3)
    assert not rep.ok and rep.failure_kind == "d_squared"
    assert (rep.witness, rep.degree, rep.weight) == ("eta1", 2, 4)
    monkeypatch.setattr(cli, "_build_model", lambda args: bad)
    code = cli.main(["verify", "--space", "P1", "--r", "2",
                     "--max-degree", "3"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1 and len(out) == 2
    assert out[1].startswith("FAIL[d_squared] at degree 2, weight 4: "
                             "witness eta1; d(d(eta1)) = ")


def test_verify_rejects_a_negative_max_degree():
    with pytest.raises(AlgebraError, match="max_degree"):
        verify_d_squared(c2_p1(), -1)


# -- the reduced model -----------------------------------------------------

REDUCTION_DEGREES = {"P1": 7, "P2": 7, "S1": 5, "S2": 4, "P1xP1": 6}


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("space", ["P1", "P2", "S1", "S2", "P1xP1"])
def test_reduced_cohomology_equals_the_model_as_built(space, r):
    spec = parse_space(space)
    base = build_base(spec)
    classes = ("[1:1]", "[7/3:1]") if space == "P1xP1" else ("1", "7/3")
    models = ([configuration_model(base, r)]
              + [section_model(base, parse_ample_class(base, c), r)
                 for c in classes]
              + [twisted_section_model(base, cotangent_chern(spec), 2, r)])
    pair = {"eta1", f"s[{base.labels[base.fundamental]}]"}
    unit = f"s[{base.labels[base.unit]}]"
    max_degree = REDUCTION_DEGREES[space] - (r == 3)
    for p in models:
        euler = weightwise_euler(p, max_degree)
        assert p._reduced is None  # the Euler check never reduces
        red = p.reduced
        lost = ({g.label for g in p.context.generators}
                - {g.label for g in red.context.generators})
        if p.params["model"] == "C":
            assert red is p and p._factors == ()
        else:
            # s[1] splits off by eta_i -> eta_i - alpha_i s[1] / e[X],
            # unless d(alpha_i) = e[X] pi_i^*[X] vanishes (AL L^2 over P1)
            free = set() if p.params.get("m") == "0" else {unit}
            assert lost == pair | free and red.core is p.core, p.name
            assert p._factors == ((1, 2),) * len(free)
            assert red._factors == ()
        table = cohomology(p, max_degree)
        assert table.model == {"name": p.name, **p.params}
        assert table.entries == unreduced_cohomology(p, max_degree), p.name
        for k in range(max_degree + 1):
            assert euler.coefficient(k) == sum(
                (-1) ** i * table.dim(i, k) for i in range(k + 1)), (p.name, k)


def _free_presentation(space, specs, images):
    """Relation-free presentation over the base ``space``, whose
    degree-2 class is x; ``images(g, x)`` gives d by generator label,
    from the generator elements ``g`` by label."""
    base = build_base(parse_space(space))
    ctx = AlgebraContext(base, [GeneratorSpec(*s) for s in specs])
    g = {s[0]: ctx.gen_element(s[0]) for s in specs}
    x = ctx.base_element({base.index_of("x"): ONE})
    diff = {ctx.gen_index(label): img
            for label, img in images(g, x).items()}
    return Presentation(ctx, [], diff, name=f"free over {space}")


def test_reduction_signs_powers_and_greedy_cancellation():
    # odd y with an odd generator after it: y b = -b y, so y -> -x a must
    # give d(w) = (y + x a) b -> 0, not -2 x a b
    odd = _free_presentation(
        "P1", [("a", 1, 1), ("y", 3, 3), ("b", 1, 1), ("e", 2, 3),
               ("w", 3, 4)],
        lambda g, x: {"e": g["y"] + x * g["a"],
                      "w": g["y"] * g["b"] + x * g["a"] * g["b"]})
    # even y: y -> -x; d(z) = y^2 + x y -> 0; d(t) = e y - z -> -z, so
    # (t, z) becomes a second contractible pair
    even = _free_presentation(
        "P2", [("e", 1, 2), ("y", 2, 2), ("z", 3, 4), ("t", 2, 4)],
        lambda g, x: {"e": g["y"] + x, "z": g["y"] * g["y"] + x * g["y"],
                      "t": g["e"] * g["y"] - g["z"]})
    # in odd, b splits off first, as d(w) = d(e) b: w -> w - e b leaves
    # d(w) = 0, so the odd w splits off after it
    for p, kept, factors in ((odd, ["a"], ((1, 1), (3, 4))),
                             (even, [], ())):
        assert verify_d_squared(p, 6).ok
        red = p.reduced
        assert [g.label for g in red.context.generators] == kept
        assert p._factors == factors
        assert not red.differential
        dense = dense_cohomology_dims(p, 6)
        assert cohomology(p, 6).dims() == [dense[d] for d in range(7)]


# -- free exterior factors ---------------------------------------------------

def _twisted_tensor(p, rng):
    """``(q, twisted)``: p (x) (Lambda(s), 0) for a new odd generator s
    after p's, twisted by g -> g + c h s on random suffix generators g
    of p that occur in no differential, h a generator with d(h) != 0 of
    the grade of g minus that of s, c a random nonzero rational;
    ``twisted`` counts the g.  So d(g) gains c d(h) s, and q is isomorphic
    to p (x) Lambda(s)."""
    ctx = p.context
    n = len(ctx.generators)
    first = len(p.core.context.generators)
    deg, wt = ctx.gen_degrees, ctx.gen_weights
    used = {i for img in p.differential.values() for m in img.terms
            for i, x in enumerate(m.exps) if x}
    pairs = [(g, h) for g in range(first, n) if g not in used
             for h in p.differential if h != g
             and (deg[g] - deg[h]) % 2 and wt[g] - wt[h] >= deg[g] - deg[h] > 0]
    if pairs:
        g, h = rng.choice(pairs)
        grade = (deg[g] - deg[h], wt[g] - wt[h])
    else:
        grade = (rng.choice((1, 3)), 3)
    qctx = AlgebraContext(ctx.base, list(ctx.generators)
                          + [GeneratorSpec("s", *grade)])

    def pad(elem):
        return Element(qctx, {Monomial(b, e + (0,)): c
                              for (b, e), c in elem.terms.items()})

    diff = {g: pad(img) for g, img in p.differential.items()}
    twist, rng_pairs = {}, pairs[:]
    rng.shuffle(rng_pairs)
    for g, h in rng_pairs:
        if ((deg[g] - deg[h], wt[g] - wt[h]) == grade and g not in twist
                and g not in twist.values() and h not in twist):
            twist[g] = h
            c = Rational(rng.choice((-1, 1)) * rng.randint(1, 5),
                         rng.randint(1, 3))
            image = pad(p.differential[h]) * qctx.gen_element("s") * c
            diff[g] = diff[g] + image if g in diff else image
    q = Presentation(qctx, [pad(rel) for rel in p.relations], diff,
                     name=f"{p.name} (x) Lambda(s), twisted")
    return q, len(twist)


def test_twisted_free_factors_split_off():
    # g -> g + c h s hides the free factor Lambda(s) of p (x) Lambda(s);
    # the rule finds it, exactly, and the table equals the dense oracle's
    twisted = 0
    for seed in range(200):
        p, top = random_presentation(seed)
        q, count = _twisted_tensor(p, random.Random(seed))
        twisted += count
        assert verify_d_squared(q, top).ok
        red = q.reduced
        assert "s" not in [g.label for g in red.context.generators], seed
        spec = q.context.generators[-1]
        assert (spec.degree, spec.weight) in q._factors, seed
        dense = dense_cohomology_dims(q, top)
        assert cohomology(q, top).dims() == [dense[d] for d in range(top + 1)]
        assert red._factors == ()
        assert cohomology(red, top).entries \
            == unreduced_cohomology(red, top), seed
    assert twisted >= 10


def test_free_factors_that_the_rule_refuses():
    base = build_base(parse_space("P1xP1"))
    x, y = (base.index_of(label) for label in ("x⊗1", "1⊗x"))

    def model(specs, images):
        ctx = AlgebraContext(base, [GeneratorSpec(*sp) for sp in specs])
        g = {sp[0]: ctx.gen_element(sp[0]) for sp in specs}
        cls = {"x": ctx.base_element({x: ONE}),
               "y": ctx.base_element({y: ONE})}
        return Presentation(ctx, [], {ctx.gen_index(label): img for
                                      label, img in images(g, cls).items()})

    # d(g) = d(a s), but g occurs in d(t) (x^2 = 0 keeps d^2 = 0)
    in_a_differential = model(
        [("a", 1, 2), ("s", 1, 2), ("g", 2, 4), ("t", 3, 6)],
        lambda g, c: {"a": c["x"], "g": c["x"] * g["s"],
                      "t": c["x"] * g["g"]})
    # d(g) = (x + 2y) s, and d(a) = x + y has its terms but not its ratio
    no_multiple = model(
        [("a", 1, 2), ("s", 1, 2), ("g", 2, 4)],
        lambda g, c: {"a": c["x"] + c["y"],
                      "g": (c["x"] + c["y"] * 2) * g["s"]})
    # d(g) = x s, and no generator has d = x
    no_candidate = model([("s", 1, 2), ("g", 2, 4)],
                         lambda g, c: {"g": c["x"] * g["s"]})
    chern = cotangent_chern(parse_space("P1"))
    p1 = build_base(parse_space("P1"))
    twisted_m0 = twisted_section_model(p1, chern, 2, 2)
    for p in (in_a_differential, no_multiple, no_candidate, twisted_m0):
        assert verify_d_squared(p, 5).ok
        labels = [g.label for g in p.reduced.context.generators]
        assert p._factors == () and {"s", "s[1]"} & set(labels), p.name
        if p is not twisted_m0:
            assert p.reduced is p
            dense = dense_cohomology_dims(p, 5)
            assert cohomology(p, 5).dims() == [dense[d] for d in range(6)]
    # the rule passes once the obstacle is gone: drop t, or the 2
    for p in (model([("a", 1, 2), ("s", 1, 2), ("g", 2, 4)],
                    lambda g, c: {"a": c["x"], "g": c["x"] * g["s"]}),
              model([("a", 1, 2), ("s", 1, 2), ("g", 2, 4)],
                    lambda g, c: {"a": c["x"] + c["y"],
                                  "g": (c["x"] + c["y"]) * g["s"] * -3})):
        assert p.reduced is not p and p._factors == ((1, 2),)


# -- the suffix walk, empty ideal slices and clearing -----------------------

def _builtin_models():
    for space in ("P1", "P2", "S1", "S2", "P1xP1"):
        for r in (1, 2, 3):
            for p in _families(space, r):
                yield p
                yield p.reduced


def test_suffix_walk_equals_brute_force_enumeration():
    models = list(_builtin_models())
    models += [random_presentation(seed)[0] for seed in range(24)]
    nonempty = 0
    for p in models:
        for d in range(13):
            # weights in the same order, each list in the same order
            got = list(p._suffix_monomials(d).items())
            assert got == list(suffix_monomials(p, d).items()), (p.name, d)
            nonempty += bool(got) and d > 0
    assert nonempty > 0


def _models_with_suffix_to(max_degree):
    """The C, A and AL models over P1, P2, S1, S2 and P1xP1 at r = 2, 3,
    and the random presentations, each with its reduced model, and the
    degree to check each to."""
    for space in ("P1", "P2", "S1", "S2", "P1xP1"):
        for r in (2, 3):
            for p in _families(space, r):
                for q in {p: None, p.reduced: None}:
                    yield q, max_degree
    for seed in range(24):
        p, top = random_presentation(seed)
        for q in {p: None, p.reduced: None}:
            yield q, top + 1


def test_suffix_differential_equals_the_leibniz_route():
    # the suffix-local tables give d(u) with the Leibniz routine's terms,
    # order and signs, on every suffix monomial a block can carry; the
    # terms are also L times the factor-by-factor expansion of d(u),
    # which shares no loop with the engine's
    checked = Counter()
    for p, top in _models_with_suffix_to(8):
        n = len(p.core.context.generators)
        unit = p.context.base.unit
        for d in range(top + 1):
            for suffix in p._suffix_monomials(d).values():
                for u in suffix:
                    got = _suffix_differential(p, u)
                    assert got == suffix_differential(p, u), (p.name, u)
                    free = free_differential(
                        p, Monomial(unit, (0,) * n + u))
                    assert ({Monomial(kappa.base, kappa.exps + u2): c
                             for c, kappa, u2 in got}
                            == {m: p._scale * c
                                for m, c in free.terms.items()}), (p.name, u)
                    checked[len(got) > 1] += 1
    assert checked[True] > 1000 and checked[False]


def test_slice_weights_equal_the_suffix_walk():
    # the reachability table of the suffix's weights, with each odd
    # generator at most once and each even one as often as it fits
    for p, top in _models_with_suffix_to(8):
        for d in range(top + 1):
            assert _slice_weights(p, d) == slice_weights(p, d), (p.name, d)


def test_blocks_equal_the_every_group_walk():
    # the index of nonempty core slices gives each slice the blocks, in
    # the order, of the walk over every suffix weight group; every weight
    # of the free slice is checked, empty slices included
    models = [p for space in ("P1", "P2", "S1", "P1xP1") for r in (2, 3)
              for p in _families(space, r)]
    models += [random_presentation(seed)[0] for seed in range(48)]
    checked = Counter()
    for p in models + [p.reduced for p in models]:
        core = p.core
        for d in range(9):
            assert _core_slices(core, d) == nonempty_core_slices(core, d), \
                (p.name, d)
            if core is p:
                continue
            for k in sorted({wu + kc for du in range(d + 1)
                             for wu in p._suffix_monomials(du)
                             for kc in _free_weights(core, d - du)}):
                blocks = quotient_slice(p, d, k).blocks
                assert blocks == every_group_blocks(p, d, k), (p.name, d, k)
                checked[bool(blocks)] += 1
    assert checked[True] > 1000 and checked[False] > 100


def test_solving_table1_builds_no_empty_core_slice():
    # the factored slices, the slice weights and the verify count read
    # the core's index, and a closed-form core lists only nonempty slices
    for space, r, c, _ in cli.TABLE1_JOBS:
        p = _section(space, r, c)
        assert verify_d_squared(p, 9).ok
        cohomology(p, 10)
        dims = [sl.dim for key, sl in p.core._cache.items()
                if key[0] == "slice"]
        assert dims and 0 not in dims, (space, r)


def test_multiplication_tables_equal_products_in_the_target_slice():
    # each core slice's table of operators, as _assemble filled it
    checked = 0
    for space in ("P2", "S1", "P1xP1"):
        for p in _families(space, 2)[1:]:
            cohomology(p, 7)
            core = p.core
            ctx = core.context
            for key, table in core._blocks.items():
                if key[0] != "mul":
                    continue
                sl = quotient_slice(core, key[1], key[2])
                for kappa, entries in table.items():
                    tgt = quotient_slice(
                        core, sl.degree + ctx.monomial_degree(kappa),
                        sl.weight + ctx.monomial_weight(kappa))
                    expect = []
                    for i, m in enumerate(sl.quotient):
                        acc = {}
                        ctx.mul_term_into(acc, m, 1, kappa, 1)
                        expect.extend((i, j, v)
                                      for j, v in tgt.coords(acc).items())
                    assert entries == tuple(expect), (p.name, key, kappa)
                    checked += bool(entries)
    assert checked > 50


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("space", ["P1", "P2", "S1", "S2", "P1xP1"])
def test_core_slices_equal_the_rref_route(space, r):
    # the closed form's basis is the rref's, in the same order, and every
    # free monomial has the rref's normal form
    shapes = Counter()
    for p in _families(space, r):
        core = p.core
        ctx = core.context
        assert core._closed_form is not None
        # the core's free algebra is finite: its G_ab are odd
        assert all(g.odd for g in ctx.generators)
        top = max(ctx.base.degrees) + sum(g.degree for g in ctx.generators)
        for d in range(top + 1):
            for k in _free_weights(core, d):
                sl, ref = quotient_slice(core, d, k), rref_slice_basis(core, d, k)
                assert (sl.degree, sl.weight, sl.quotient, sl.index) \
                    == (ref.degree, ref.weight, ref.quotient, ref.index), \
                    (core.name, d, k)
                for m in ctx.monomials_of(d, k):
                    assert sl.reduce({m: 1}) == ref.reduce({m: 1}), \
                        (core.name, d, k, m)
                shapes[bool(ideal_slice(core, d, k).nrows)] += 1
    assert shapes[True] and shapes[False]


def _column_rank(m, cols):
    return rank(SparseMatrix.from_rows(m.nrows, m.ncols, (
        {j: v for j, v in row.items() if j in cols} for row in m.rows)))


def _assert_cleared_ranks(p, max_degree):
    """Each weight's chain, ranked bottom-up by ``differential_rank``,
    against the rank of the whole matrix; returns how many nonzero rows
    clearing left out."""
    weights = {k for d in range(max_degree + 1) for k in _slice_weights(p, d)}
    cleared = 0
    for k in sorted(weights):
        below = ()
        for d in range(max_degree + 1):
            whole = differential_matrix(p, d, k)
            assert differential_rank(p, d, k) == rank(whole), (p.name, d, k)
            cleared += sum(1 for i in below if whole.rows[i])
            # kept until the rank above reads them
            below = p._blocks.get(("pivots", d, k), ())
            assert len(below) == rank(whole)
            assert _column_rank(whole, below) == len(below), (p.name, d, k)
    return cleared


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("space", ["P1", "P2", "S1", "S2", "P1xP1"])
def test_cleared_ranks_equal_whole_ranks(space, r):
    for p in _families(space, r):
        for q in {p: None, p.reduced: None}:
            _assert_cleared_ranks(q, _slice_budget(p, largest=200, top=8))


def test_cleared_ranks_equal_whole_ranks_on_random_presentations():
    for seed in range(24):
        p, max_degree = random_presentation(seed)
        for q in {p: None, p.reduced: None}:
            _assert_cleared_ranks(q, max_degree)


def test_clearing_leaves_out_nonzero_rows():
    # rows that d^2 = 0 accounts for, yet which d does not send to zero
    p = _section("S1", 2)
    assert _assert_cleared_ranks(p.reduced, 6) > 0


def test_cleared_ranks_do_not_depend_on_call_order():
    # a rank asked before the ranks below it walks down its chain first;
    # the keys include empty slices, above and below which it stops
    for q, shuffled in ((_section("S1", 2).reduced, False),
                        (_section("P2", 3).reduced, True)):
        weights = {k for d in range(8) for k in _slice_weights(q, d)}
        keys = [(d, k) for d in range(8) for k in sorted(weights)]
        if shuffled:
            random.Random(7).shuffle(keys)
        else:
            keys.reverse()
        for d, k in keys:
            assert differential_rank(q, d, k) \
                == rank(differential_matrix(q, d, k)), (q.name, d, k)


def test_cohomology_refuses_a_differential_that_does_not_square_to_zero():
    bad = c2_p1("bad")
    with pytest.raises(AlgebraError, match="d is not a differential"):
        cohomology(bad, 4)
    with pytest.raises(AlgebraError, match="d is not a differential"):
        isotypic_cohomology(bad, all_permutations(2), sign_character(2), 4)
    with pytest.raises(AlgebraError, match="d is not a differential"):
        differential_rank(bad, 2, 2)
    # verify still reports the failure, as the slice-by-slice check does
    report = verify_d_squared(bad, 4)
    assert report == slice_d_squared(c2_p1("bad"), 4)
    assert (report.ok, report.failure_kind, report.slices_checked) \
        == (False, "relation", 1)
