import itertools
from fractions import Fraction

import pytest

from cdgacalc import analysis, engine
from cdgacalc.algebra import (AlgebraContext, AlgebraError, BaseAlgebra,
                              GeneratorSpec, Monomial)
from cdgacalc.analysis import (BigradedSeries, ClassFunction, all_permutations,
                               character_euler,
                               compose,
                               configuration_euler,
                               cycle_type, generated_subgroup,
                               invariant_cohomology, isotypic_cohomology,
                               p_r_closed_form, poincare_series_U,
                               r1_stable_series,
                               rho_bracket, rho_series, sign_character,
                               stable_range_bound, trivial_character,
                               weightwise_euler)
from cdgacalc.engine import (Presentation, _slice_weights, cohomology,
                             differential_matrix, quotient_slice)
from cdgacalc.linalg import rank, rref
from cdgacalc.models import (build_base, configuration_model,
                             cotangent_chern, parse_ample_class, parse_space,
                             section_model, symmetric_action,
                             twisted_section_model)
from oracle import (character_euler_by_elements, evaluate_at_one,
                    isotypic_projector, isotypic_table,
                    map_matrix, matmul, p1_configuration_table,
                    regular_character, same_matrix,
                    unordered_configuration_sign,
                    unordered_configuration_table, unreduced_cohomology)


def series(coeffs, trunc, var="w"):
    return BigradedSeries(coeffs, trunc, var)


def test_series_arithmetic():
    a = series({0: 1, 2: -1}, 6)
    b = series({0: 1, 2: 1, 4: 1, 6: 1}, 6)
    assert a * b == series({0: 1}, 6)  # (1-w^2) * geometric series
    assert a.reciprocal() == b
    assert a.power(2) == series({0: 1, 2: -2, 4: 1}, 6)
    assert a.power(-1) == b
    assert (a - a) == series({}, 6)
    with pytest.raises(AlgebraError, match="constant term"):
        series({0: 2}, 6).reciprocal()
    with pytest.raises(AlgebraError, match="variable"):
        a * series({0: 1}, 6, "t")


def test_series_rejects_non_integral_coefficients():
    with pytest.raises(AlgebraError, match="non-integral coefficient 1/2 of"
                                           " w\\^0"):
        series({0: Fraction(1, 2), 1: 2}, 3)
    with pytest.raises(AlgebraError, match="non-integral coefficient 2.7"):
        series({0: 1, 1: 2.7}, 3)
    assert series({0: Fraction(4, 2), 1: 3.0}, 3).coeffs == {0: 2, 1: 3}


def test_poincare_series_weight_version():
    # shifted classes of H^*(P1) sit in weights 2 and 4
    p1 = build_base(parse_space("P1"))
    assert poincare_series_U(p1, 8, "w") == series(
        {0: 1, 2: -1, 4: -1, 6: 1}, 8)
    s1 = build_base(parse_space("S1"))
    # (1 - w^2)(1 - w^3)^{-2}(1 - w^4)
    expect = (series({0: 1, 2: -1}, 6) * series({0: 1, 4: -1}, 6)
              * series({0: 1, 3: -1}, 6).power(-2))
    assert poincare_series_U(s1, 6, "w") == expect


def test_poincare_series_point_degenerate_case():
    pt = BaseAlgebra("pt", 0, ["1"], [0], 0, 0, {(0, 0): {0: 1}})
    assert poincare_series_U(pt, 4, "w") == series({0: 1, 2: -1}, 4)


def test_poincare_series_degree_version():
    p2 = build_base(parse_space("P2"))
    # generators in degrees 1, 3: (1+t)(1+t^3); all odd Betti numbers zero
    assert poincare_series_U(p2, 6, "t") == series(
        {0: 1, 1: 1, 3: 1, 4: 1}, 6, "t")
    s1 = build_base(parse_space("S1"))
    # (1+t) / (1-t^2)^2 = (1+t) * geometric^2
    expect = (series({0: 1, 1: 1}, 5, "t")
              * series({0: 1, 2: -1}, 5, "t").power(-2))
    assert poincare_series_U(s1, 5, "t") == expect


def test_weightwise_euler_base_and_configuration():
    p1 = build_base(parse_space("P1"))
    assert weightwise_euler(configuration_model(p1, 1), 6) == series(
        {0: 1, 2: 1}, 6)
    # the model of two ordered points on the sphere: H^0 in weight 0 and
    # H^2 in weight 2 survive; everything else cancels weightwise
    assert weightwise_euler(configuration_model(p1, 2), 8) == series(
        {0: 1, 2: 1}, 8)


def test_weightwise_euler_matches_closed_form():
    p1 = build_base(parse_space("P1"))
    c = parse_ample_class(p1, "1")
    lhs = weightwise_euler(section_model(p1, c, 2), 10)
    assert lhs == p_r_closed_form(p1, 2, 10)
    assert lhs.coefficients()[:5] == [1, 0, -2, 0, 1]


def test_weightwise_euler_closed_form_r_up_to_three():
    for space in ("P1", "P2"):
        base = build_base(parse_space(space))
        c = parse_ample_class(base, "1")
        for r in (1, 2, 3):
            lhs = weightwise_euler(section_model(base, c, r), 10)
            assert lhs == p_r_closed_form(base, r, 10), (space, r)


def test_configuration_euler_matches_engine():
    # the product formula builds no model, so this checks the engine
    for space, r in (("P1", 2), ("P1", 4), ("P2", 3), ("S1", 2), ("S1", 3),
                     ("S2", 2), ("P1xP1", 2)):
        base = build_base(parse_space(space))
        engine = weightwise_euler(configuration_model(base, r), 14)
        assert configuration_euler(base, r, 14) == engine, (space, r)


def test_p_r_closed_form_r0_is_pu():
    p2 = build_base(parse_space("P2"))
    assert p_r_closed_form(p2, 0, 8) == poincare_series_U(p2, 8, "w")


def test_weightwise_euler_rejects_unbounded_weights():
    from cdgacalc.algebra import AlgebraContext, GeneratorSpec
    from cdgacalc.engine import Presentation
    p1 = build_base(parse_space("P1"))
    ctx = AlgebraContext(p1, [GeneratorSpec("g", 3, 2)])
    pres = Presentation(ctx, [], {}, name="unbounded")
    with pytest.raises(AlgebraError, match="weight.*degree"):
        weightwise_euler(pres, 6)


def test_euler_at_one_counts_configurations():
    # chi(F^r(X)) = prod_{j<r} (chi(X) - j); all weights of the
    # configuration models are bounded, so full truncations are exact
    for space, chi, r_max, w_max in (("P1", 2, 3, 14), ("P2", 3, 3, 26)):
        base = build_base(parse_space(space))
        for r in range(1, r_max + 1):
            expected = 1
            for j in range(r):
                expected *= chi - j
            got = evaluate_at_one(weightwise_euler(
                configuration_model(base, r), w_max))
            assert got == expected, (space, r)


def test_rho_series_examples():
    p2 = build_base(parse_space("P2"))
    assert rho_series(p2, 12) == series({}, 12, "t")
    p1 = build_base(parse_space("P1"))
    assert rho_bracket(p1, 12) == series({0: 1, 3: 1}, 12, "t")
    s1 = build_base(parse_space("S1"))
    assert rho_bracket(s1, 12) == series({0: 1, 1: 2, 2: 2, 3: 1}, 12, "t")


def test_rho_series_nonnegative_on_builtins():
    for space in ("P1", "P2", "S1", "P1xP1"):
        base = build_base(parse_space(space))
        rho = rho_series(base, 12)
        assert all(v >= 0 for v in rho.coeffs.values()), space


def test_r1_stable_series_p2():
    p2 = build_base(parse_space("P2"))
    got = r1_stable_series(p2, 10)
    # (1+t^2)(1+t)(1+t^3)(1+t^5)
    expect = (series({0: 1, 2: 1}, 10, "t") * series({0: 1, 1: 1}, 10, "t")
              * series({0: 1, 3: 1}, 10, "t")
              * series({0: 1, 5: 1}, 10, "t"))
    assert got == expect


def test_r1_stable_series_matches_engine_all_builtins():
    for space in ("P1", "P2", "S1"):
        base = build_base(parse_space(space))
        expect = r1_stable_series(base, 7).coefficients()
        for coeffs in ("1", "3"):
            c = parse_ample_class(base, coeffs)
            dims = cohomology(section_model(base, c, 1), 7).dims()
            assert dims == expect, (space, coeffs)


@pytest.mark.parametrize(
    "space", ["P1", "P2", "P3", "S1", "S2", "P1xP1", "S1xP1"])
def test_r1_stable_series_closed_form_matches_the_one_generator_model(space):
    # (H^*(X)[alpha], d(alpha) = [X]) by the engine, times the free factor
    base = build_base(parse_space(space))
    n = base.n
    ctx = AlgebraContext(base, [GeneratorSpec("alpha", 2 * n - 1, 2 * n)])
    model = Presentation(ctx, [], {0: ctx.base_element({base.fundamental: 1})})
    table = cohomology(model, 12)
    factor = series({i: table.dim(i) for i in range(13)}, 12, "t")
    assert r1_stable_series(base, 12) \
        == factor * poincare_series_U(base, 12, "t")


@pytest.mark.parametrize("space", ["P1", "P2", "S1", "P1xP1"])
def test_tables_do_not_change_when_c_is_rescaled_by_a_unit(space):
    # s[b] -> lam s[b], eta_i -> lam eta_i maps A(X, c) onto A(X, lam c)
    # and commutes with S_r; lam c takes the scaled int path of a rational
    # class, c = 1 the integer one
    base = build_base(parse_space(space))
    coeffs = (1, 2) if space == "P1xP1" else (1,)
    for r, top in ((2, 8), (3, 7)):
        group = all_permutations(r)
        tables = []
        for lam in (1, Fraction(7, 3), Fraction(-1, 2), 3):
            scaled = [lam * v for v in coeffs]
            text = (str(scaled[0]) if len(scaled) == 1
                    else f"[{scaled[0]}:{scaled[1]}]")
            p = section_model(base, parse_ample_class(base, text), r)
            tables.append([cohomology(p, top).entries] + [
                isotypic_cohomology(p, group, chi(r), top).entries
                for chi in (trivial_character, sign_character)])
        assert all(t == tables[0] for t in tables[1:]), (space, r)


def test_invariant_trivial_subgroup_is_plain():
    p1 = build_base(parse_space("P1"))
    m = section_model(p1, parse_ample_class(p1, "1"), 2)
    plain = cohomology(m, 6)
    inv = invariant_cohomology(m, [(0, 1)], 6)
    assert inv.entries == plain.entries


def test_invariant_plus_sign_equals_full():
    p1 = build_base(parse_space("P1"))
    m = section_model(p1, parse_ample_class(p1, "1"), 2)
    full = cohomology(m, 8)
    s2 = all_permutations(2)
    triv = invariant_cohomology(m, s2, 8)
    sign = isotypic_cohomology(m, s2, sign_character(2), 8)
    for i in range(9):
        assert triv.dim(i) <= full.dim(i)
        assert triv.dim(i) + sign.dim(i) == full.dim(i)


def test_invariant_configuration_p1():
    # unordered pairs of points on the sphere: rationally a point (the
    # swap acts by -1 on H^2 of the ordered model)
    p1 = build_base(parse_space("P1"))
    cm = configuration_model(p1, 2)
    inv = invariant_cohomology(cm, all_permutations(2), 6)
    assert inv.dims() == [1, 0, 0, 0, 0, 0, 0]


STANDARD_S3 = ClassFunction(3, {(1, 1, 1): 2, (2, 1): 0, (3,): -1})


@pytest.mark.parametrize("space", ["P1", "P2"])
def test_isotypic_pieces_of_s3_add_up_to_cohomology(space):
    # Q[S_3] = trivial + sign + 2 x standard, so the three isotypic
    # subcomplexes split the whole complex; an oracle for the projector
    base = build_base(parse_space(space))
    m = section_model(base, parse_ample_class(base, "1"), 3)
    max_degree = 6
    group = all_permutations(3)
    full = cohomology(m, max_degree)
    pieces = [invariant_cohomology(m, group, max_degree),
              isotypic_cohomology(m, group, sign_character(3), max_degree),
              isotypic_cohomology(m, group, STANDARD_S3, max_degree)]
    assert all(piece.entries for piece in pieces)
    for key, value in full.entries.items():
        assert sum(piece.entries.get(key, 0) for piece in pieces) == value
    for piece in pieces:
        assert set(piece.entries) <= set(full.entries)


def test_isotypic_with_zero_dimension_class_function_is_empty():
    p2 = build_base(parse_space("P2"))
    m = section_model(p2, parse_ample_class(p2, "1"), 3)
    chi = ClassFunction(3, {(1, 1, 1): 0, (2, 1): 1, (3,): -1})
    table = isotypic_cohomology(m, all_permutations(3), chi, 6)
    assert table.entries == {}
    assert table.dims() == [0] * 7


def isotypic_bases(p, group, chi, max_degree):
    """Each nonempty slice's basis of the projector's image, as
    isotypic_cohomology builds it, keyed by (degree, weight)."""
    basis_at = analysis._isotypic_bases(
        p, {sig: symmetric_action(p, sig) for sig in group}, chi)
    return {(d, k): basis_at(d, k) for d in range(max_degree + 1)
            for k in _slice_weights(p, d)}


def assert_reduced_basis_of(basis, projector):
    """The rows span the projector's image, and each has 1 at its own
    pivot and 0 at every other pivot."""
    got, want = rref(basis.reduced), rref(projector)
    assert got.pivots == want.pivots
    assert same_matrix(got.reduced, want.reduced)
    assert basis.rank == basis.reduced.nrows == len(set(basis.pivots))
    for pivot, row in zip(basis.pivots, basis.reduced.rows):
        assert {c: row.get(c, 0) for c in basis.pivots} == {
            c: int(c == pivot) for c in basis.pivots}


# chi(1) = 1 but chi is not multiplicative, on S_2, S_3 and on the
# 3-cycle's subgroup; on the transposition's subgroup the S_3 one is
# the trivial character
NONLINEAR = {2: ClassFunction(2, {(1, 1): 1, (2,): 0}),
             3: ClassFunction(3, {(1, 1, 1): 1, (2, 1): 1, (3,): 0})}


def _model(kind, space, r, param):
    spec = parse_space(space)
    base = build_base(spec)
    if kind == "C":
        return configuration_model(base, r)
    if kind == "AL":
        return twisted_section_model(base, cotangent_chern(spec), param, r)
    return section_model(base, parse_ample_class(base, param), r)


@pytest.mark.parametrize("kind, space, r, param", [
    ("A", "P1", 2, "1"), ("A", "P1", 3, "-5/2"), ("A", "P2", 3, "1"),
    ("A", "S1", 2, "7/3"), ("A", "P1xP1", 2, "[2/3:-5/2]"),
    ("A", "P1xP1", 3, "[1:1]"), ("C", "P2", 3, None), ("C", "S1", 3, None),
    ("C", "P1xP1", 2, None), ("AL", "P1", 3, 3), ("AL", "S1", 2, 2),
    ("AL", "P2", 2, 3)])
def test_orbit_sum_projectors_equal_the_summed_matrices(kind, space, r,
                                                        param):
    # linear characters take the bases induced from core slices, the
    # others the whole-slice orbit sums; both against the summed matrices
    p = _model(kind, space, r, param)
    max_degree = 6
    characters = [trivial_character(r), sign_character(r), NONLINEAR[r]]
    groups = [all_permutations(r)]
    if r == 3:
        characters.append(STANDARD_S3)
        groups += [generated_subgroup([(1, 0, 2)], 3),
                   generated_subgroup([(1, 2, 0)], 3)]
    for group in groups:
        for chi in characters:
            for (d, k), basis in isotypic_bases(p, group, chi,
                                                max_degree).items():
                oracle = isotypic_projector(p, group, chi, d, k)
                assert basis is not None, (d, k)
                assert_reduced_basis_of(basis, oracle)


def test_orbit_sum_cancels_on_a_sign_stabiliser():
    # the swap sends alpha1 alpha2 to alpha2 alpha1 = -alpha1 alpha2: it
    # is absent from the trivial piece and present in the sign piece
    p1 = build_base(parse_space("P1"))
    m = section_model(p1, parse_ample_class(p1, "1"), 2)
    group = all_permutations(2)
    gens = [g.label for g in m.context.generators]
    alphas = m.context.gen_element(gens.index("alpha1")) \
        * m.context.gen_element(gens.index("alpha2"))
    (mono, coeff), = alphas.terms.items()
    assert symmetric_action(m, (1, 0)).image(mono) == (mono, -coeff)
    col = quotient_slice(m, 2, 4).index[mono]
    triv = isotypic_bases(m, group, trivial_character(2), 3)[(2, 4)]
    assert all(col not in row for row in triv.reduced.rows)
    assert {} not in triv.reduced.rows
    sign = isotypic_bases(m, group, sign_character(2), 3)[(2, 4)]
    assert {col: 1} in sign.reduced.rows
    for chi, basis in ((trivial_character(2), triv),
                       (sign_character(2), sign)):
        assert_reduced_basis_of(
            basis, isotypic_projector(m, group, chi, 2, 4))


def test_linear_projectors_take_one_row_per_orbit():
    p2 = build_base(parse_space("P2"))
    m = section_model(p2, parse_ample_class(p2, "1"), 3)
    group = all_permutations(3)
    actions = [symmetric_action(m, sig) for sig in group]
    dims = orbits = 0
    for chi in (trivial_character(3), sign_character(3)):
        for (d, k), basis in isotypic_bases(m, group, chi, 6).items():
            quotient = quotient_slice(m, d, k).quotient
            orbit_of = {mono: frozenset(phi.image(mono)[0]
                                        for phi in actions)
                        for mono in quotient}
            count = len(set(orbit_of.values()))
            assert basis.rank <= count, (chi, d, k)
            dims += len(quotient)
            orbits += count
    assert orbits < dims  # the bound is below one row per basis monomial


def test_actions_keep_the_core_and_the_suffix_apart():
    # the induced bases need sigma(m u) = eps sigma(m) sigma(u) for core
    # monomials m and suffix monomials u
    for kind, space, r, param in [("A", "P2", 3, "1"), ("C", "S1", 3, None),
                                  ("AL", "P1", 3, 3), ("A", "P1", 1, "1")]:
        p = _model(kind, space, r, param)
        n = len(p.core.context.generators)
        for sig in all_permutations(r):
            gen_to = symmetric_action(p, sig).gen_to
            assert all((t < n) == (g < n) for g, t in enumerate(gen_to))


def test_restricted_actions_image_core_monomials_as_the_padded_ones():
    # the isotypic bases image core monomials by each action restricted to
    # the core: the whole action on the padded monomial, sliced back
    checked = 0
    for kind, space, r, param in [
            ("A", "P1", 3, "1"), ("A", "S1", 3, "1"), ("A", "P2", 3, "1"),
            ("C", "P1", 3, None), ("C", "S1", 3, None), ("C", "P2", 3, None),
            ("A", "P1xP1", 2, "[1:1]")]:
        p = _model(kind, space, r, param)
        core = p.core
        n = len(core.context.generators)
        pad = (0,) * (len(p.context.generators) - n)
        basis = [m for d in range(7) for w in _slice_weights(core, d)
                 for m in quotient_slice(core, d, w).quotient]
        for sig in all_permutations(r):
            action = symmetric_action(p, sig)
            restricted = action.restricted(core.context)
            for b, e in basis:
                (b2, e2), c = action.image(Monomial(b, e + pad))
                assert restricted.image(Monomial(b, e)) \
                    == (Monomial(b2, e2[:n]), c), (p.name, sig, b, e)
                checked += 1
    assert checked > 2000


def test_induced_bases_on_a_proper_sign_stabiliser():
    # in P2 r=3 the suffix monomial alpha1 alpha2 has stabiliser <(01)>
    # in S_3, and the swap acts on it by -1
    m = _model("A", "P2", 3, "1")
    gens = [g.label for g in m.context.generators]
    alphas = m.context.gen_element(gens.index("alpha1")) \
        * m.context.gen_element(gens.index("alpha2"))
    (mono, coeff), = alphas.terms.items()
    group = all_permutations(3)
    stabiliser = [sig for sig in group
                  if symmetric_action(m, sig).image(mono)[0] == mono]
    assert stabiliser == [(0, 1, 2), (1, 0, 2)]
    assert symmetric_action(m, (1, 0, 2)).image(mono) == (mono, -coeff)
    degree, weight = 6, 8
    col = quotient_slice(m, degree, weight).index[mono]
    for sub in (group, stabiliser):
        triv, sign = (isotypic_bases(m, sub, chi, degree)[(degree, weight)]
                      for chi in (trivial_character(3), sign_character(3)))
        assert all(col not in row for row in triv.reduced.rows)
        assert any(col in row for row in sign.reduced.rows)
        for chi, basis in ((trivial_character(3), triv),
                           (sign_character(3), sign)):
            assert_reduced_basis_of(basis, isotypic_projector(
                m, sub, chi, degree, weight))


SPLIT_DEGREES = {"P1": 6, "P2": 8, "S1": 5, "P1xP1": 6, "S1xP1": 6}


def _fixed_suffix(p, group):
    """The generators after p's core that every permutation in ``group``
    fixes: the candidates ``isotypic_cohomology`` reduces over."""
    actions = [symmetric_action(p, sig) for sig in group]
    return tuple(g for g in range(len(p.core.context.generators),
                                  len(p.context.generators))
                 if all(a.gen_to[g] == g for a in actions))


@pytest.mark.parametrize("space, r", [
    ("P1", 2), ("P1", 3), ("P2", 2), ("P2", 3), ("S1", 2), ("S1", 3),
    ("P1xP1", 2), ("P1xP1", 3), ("S1xP1", 2)])
def test_split_tables_equal_the_unsplit_computation(space, r):
    # cohomology and the trivial and sign pieces split off the free
    # factors; the oracles compute on the model as built.  On AL L^0 over
    # S1 and S1xP1, d(alpha_i) = 0: alpha_i splits off for cohomology, but
    # S_r moves it, so the isotypic pieces keep it
    base = build_base(parse_space(space))
    cs = ["[2/3:-1]", "[0:0]"] if "x" in space else ["-5/2", "0"]
    kinds = ([("A", c) for c in cs] + [("C", None)]
             + [("AL", d) for d in range(4)])
    if space == "S1xP1":
        kinds = [("AL", 0)]
    max_degree = SPLIT_DEGREES[space] - (r == 3)
    group = all_permutations(r)
    split = 0
    for kind, param in kinds:
        p = _model(kind, space, r, param)
        assert cohomology(p, max_degree).entries \
            == unreduced_cohomology(p, max_degree), p.name
        for chi in (trivial_character(r), sign_character(r)):
            assert isotypic_cohomology(p, group, chi, max_degree).entries \
                == isotypic_table(p, group, chi, max_degree), (p.name, chi)
        factors = p._reduce(_fixed_suffix(p, group))[2]
        assert len(factors) <= len(p._reduce()[2])
        if kind == "AL" and param == 0 and space in ("S1", "S1xP1"):
            assert factors == () and len(p._reduce()[2]) == r
        split += bool(factors)
    assert (split > 0) == (len(kinds) > 1)


def test_ranges_above_the_limit_are_refused_before_any_slice():
    p = _model("A", "P2", 2, "1")
    group = all_permutations(2)
    calls = [
        lambda n: cohomology(p, n), lambda n: engine.verify_d_squared(p, n),
        lambda n: isotypic_cohomology(p, group, sign_character(2), n),
        lambda n: weightwise_euler(p, n),
        lambda n: character_euler(p, trivial_character(2), n)]
    for call in calls:
        with pytest.raises(AlgebraError, match="above the limit of 100"):
            call(engine.MAX_DEGREE + 1)
        assert not p._cache and not p.reduced._cache
    # the bound itself is admitted
    assert engine.verify_d_squared(p, engine.MAX_DEGREE).ok


@pytest.mark.parametrize("space, r, generators, max_degree", [
    ("P2", 3, [(0, 2, 1)], 8), ("S1", 3, [(0, 2, 1)], 6),
    ("P1", 4, [(0, 2, 1, 3), (0, 1, 3, 2)], 5)])
def test_a_fixed_point_cancels_its_pair(space, r, generators, max_degree):
    # the subgroup fixes point 1, so eta1 and s[X] are fixed, and the
    # isotypic path cancels them as well as splitting s[1]; under S_r only
    # s[1] goes.  The tables equal the projector oracle's on the model as
    # built
    base = build_base(parse_space(space))
    unit, top = (f"s[{base.labels[i]}]" for i in (base.unit, base.fundamental))
    p = _model("A", space, r, "1")
    sub = generated_subgroup(generators, r)
    labels = {g.label for g in p.context.generators}
    for group, lost in ((sub, {"eta1", top, unit}),
                        (all_permutations(r), {unit})):
        q = p._reduce(_fixed_suffix(p, group))[0]
        assert labels - {g.label for g in q.context.generators} == lost
    for chi in (trivial_character(r), sign_character(r)):
        assert isotypic_cohomology(p, sub, chi, max_degree).entries \
            == isotypic_table(p, sub, chi, max_degree), chi


@pytest.mark.parametrize("kind, space, r, param", [
    ("A", "P2", 3, "1"), ("C", "P2", 3, None), ("C", "S1", 3, None),
    ("AL", "P1", 3, 3)])
def test_isotypic_tables_match_the_projector_oracle(kind, space, r, param):
    p = _model(kind, space, r, param)
    max_degree = 6
    group = all_permutations(r)
    pieces = []
    for sub in (group, generated_subgroup([(1, 0, 2)], 3)):
        for chi in (trivial_character(r), sign_character(r)):
            table = isotypic_cohomology(p, sub, chi, max_degree)
            assert table.entries == isotypic_table(p, sub, chi, max_degree)
            if sub is group:
                pieces.append(table)
    pieces.append(isotypic_cohomology(p, group, STANDARD_S3, max_degree))
    full = cohomology(p, max_degree)
    assert all(piece.entries for piece in pieces)
    for key in set(full.entries).union(*(t.entries for t in pieces)):
        assert sum(t.entries.get(key, 0) for t in pieces) \
            == full.entries.get(key, 0), key


@pytest.mark.parametrize("space, param, sub, chi", [
    ("S1", "1", all_permutations(3), sign_character(3)),
    ("S1", "1", all_permutations(3), trivial_character(3)),
    ("P1xP1", "[1:1]", generated_subgroup([(1, 0, 2)], 3), sign_character(3)),
    ("S1", "1", all_permutations(3), STANDARD_S3),
    ("S1", "-1/2", all_permutations(3), sign_character(3)),
    ("P1xP1", "[2/3:1]", generated_subgroup([(1, 0, 2)], 3),
     sign_character(3)),
    ("P1", 2, all_permutations(3), sign_character(3)),
    ("S1", 0, generated_subgroup([(1, 0, 2)], 3), sign_character(3))])
def test_cleared_restricted_ranks_match_the_projector_oracle(
        monkeypatch, space, param, sub, chi):
    # every rank isotypic_cohomology takes, with its cleared rows left
    # out, equals rank(P D) of the summed projector times the differential,
    # on the model with its G-fixed free factors split off: s[1] on the A
    # models (a class c), alpha3 on AL L^0 over S1 under the swap, which
    # fixes it, and nothing on AL L^2 over P1, where e[X] = 0 (a twist d)
    kind = "AL" if isinstance(param, int) else "A"
    p = _model(kind, space, 3, param)
    q, _, factors = p._reduce(_fixed_suffix(p, sub))
    assert len(factors) == ((kind, space) != ("AL", "P1"))
    max_degree = 6
    ranked, kept = {}, {}
    at = []

    def assemble(q, src, tgt, skip):
        at.append((src.degree, src.weight))
        return analysis_assemble(q, src, tgt, skip)

    def pivot_columns(images):
        images = list(images)
        key = at.pop()
        kept[key] = len(images)
        cols = linalg_pivot_columns(images)
        ranked[key] = len(cols)
        return cols

    analysis_assemble = analysis._assemble
    linalg_pivot_columns = engine.pivot_columns
    monkeypatch.setattr(analysis, "_assemble", assemble)
    monkeypatch.setattr(engine, "pivot_columns", pivot_columns)
    isotypic_cohomology(p, sub, chi, max_degree)
    cleared = 0
    for d in range(max_degree + 1):
        for k in _slice_weights(q, d):
            proj = isotypic_projector(q, sub, chi, d, k, model=p)
            want = rank(matmul(proj, differential_matrix(q, d, k)))
            assert ranked.get((d, k), 0) == want, (d, k)
            if (d, k) in kept:
                cleared += rank(proj) - kept[(d, k)]
    assert cleared > 0


def test_isotypic_ranks_build_no_differential_matrix():
    p = _model("A", "S1", 3, "1")
    group = all_permutations(3)
    invariant_cohomology(p, group, 7)
    isotypic_cohomology(p, group, sign_character(3), 7)
    assert not [key for key in p._cache if key[0] == "diff"]


def test_isotypic_ranks_build_only_the_rows_they_keep(monkeypatch):
    # Phi(x) is built for each row a restricted rank keeps, and for no
    # other: not for the rows clearing drops, and not for the slices of
    # degree max_degree + 1, which serve only as targets
    p = _model("A", "S1", 3, "1")
    group, chi, max_degree = all_permutations(3), sign_character(3), 6
    pending, built, kept = [], {}, {}

    def induced_row(off, x, moved):
        pending.append(off)
        return analysis_induced_row(off, x, moved)

    def assemble(q, src, tgt, skip):
        # the rows of src are built just before its differential
        built[(src.degree, src.weight)] = len(pending)
        pending.clear()
        return analysis_assemble(q, src, tgt, skip)

    def pivot_columns(images):
        images = list(images)
        kept[len(kept)] = len(images)
        return linalg_pivot_columns(images)

    analysis_induced_row = analysis._induced_row
    analysis_assemble = analysis._assemble
    linalg_pivot_columns = engine.pivot_columns
    monkeypatch.setattr(analysis, "_induced_row", induced_row)
    monkeypatch.setattr(analysis, "_assemble", assemble)
    monkeypatch.setattr(engine, "pivot_columns", pivot_columns)
    isotypic_cohomology(p, group, chi, max_degree)
    monkeypatch.undo()
    assert not pending
    assert list(built.values()) == list(kept.values())
    assert max(d for d, _ in built) <= max_degree
    bases = isotypic_bases(p, group, chi, max_degree + 1)
    top = sum(b.rank for (d, _), b in bases.items() if d == max_degree + 1)
    every = sum(b.rank for (d, _), b in bases.items() if d <= max_degree)
    assert top > 0 and sum(kept.values()) < every


def test_orbit_data_is_kept_per_subgroup(monkeypatch):
    # suffix orbits, cosets and signed stabilisers do not depend on the
    # character: a second linear character on the same model and
    # subgroup computes none, another subgroup its own
    p = _model("A", "P2", 3, "1")
    group = all_permutations(3)
    orbits = []

    def suffix_orbit(actions, unit, n, u):
        orbits.append(u)
        return analysis_suffix_orbit(actions, unit, n, u)

    analysis_suffix_orbit = analysis._suffix_orbit
    monkeypatch.setattr(analysis, "_suffix_orbit", suffix_orbit)
    trivial = invariant_cohomology(p, group, 6)
    assert orbits
    orbits.clear()
    sign = isotypic_cohomology(p, group, sign_character(3), 6)
    assert not orbits
    swap = generated_subgroup([(1, 0, 2)], 3)
    isotypic_cohomology(p, swap, sign_character(3), 6)
    assert orbits
    for table, chi in ((trivial, trivial_character(3)),
                       (sign, sign_character(3))):
        assert table.entries == isotypic_table(p, group, chi, 6)


@pytest.mark.parametrize("r", [3, 4, 5, 6])
def test_points_on_p1_match_closed_forms(r):
    # F(P^1, r) = PGL_2 x M_{0,r}: the oracle's tables call no engine;
    # the model is its own core, so each isotypic basis is the one
    # block's stabiliser projector, an orbit sum over up to 5! = 120
    # permutations at r = 5
    base = build_base(parse_space("P1"))
    p = configuration_model(base, r)
    assert cohomology(p, r + 1).entries == p1_configuration_table(r, r + 1)
    if r <= 5:
        group = all_permutations(r)
        assert invariant_cohomology(p, group, r + 1).entries \
            == unordered_configuration_table(base, r, r + 1)
        assert isotypic_cohomology(p, group, sign_character(r),
                                   r + 1).entries == {}


@pytest.mark.parametrize("space, r", [
    ("P1", 1), ("P1", 2), ("P1", 3), ("P1", 4), ("P1", 5),
    ("P2", 1), ("P2", 2), ("P2", 3), ("P2", 4),
    ("S1", 1), ("S1", 2), ("S1", 3), ("S1", 4),
    ("P1xP1", 1), ("P1xP1", 2), ("P1xP1", 3),
    ("S2", 3), ("S1xP1", 2), ("P3", 3)])
def test_sign_part_of_configuration_spaces_matches_the_shifted_classes(
        space, r):
    # the length-r part of Sym(Pi H*(X)), which calls no engine; it pins
    # the induced isotypic path, stabiliser projectors included
    base = build_base(parse_space(space))
    table = isotypic_cohomology(configuration_model(base, r),
                                all_permutations(r), sign_character(r), r + 3)
    assert table.entries == unordered_configuration_sign(base, r, r + 3)


@pytest.mark.parametrize("space, r", [
    ("P1", 1), ("P1", 2), ("P1", 3), ("P1", 4), ("P1", 5), ("P1", 6),
    ("P2", 1), ("P2", 2), ("P2", 3), ("P2", 4),
    ("S1", 1), ("S1", 2), ("S1", 3), ("S1", 4),
    ("P1xP1", 1), ("P1xP1", 2), ("P1xP1", 3), ("S2", 3)])
def test_invariant_part_of_configuration_spaces_matches_the_small_complex(
        space, r):
    # the length-r part of (Lambda(V + W), d), built from the base's
    # classes and its diagonal, with dense ranks and no engine call
    base = build_base(parse_space(space))
    table = invariant_cohomology(configuration_model(base, r),
                                 all_permutations(r), r + 3)
    assert table.entries == unordered_configuration_table(base, r, r + 3)


# Total dims of H^0..H^6 of the trivial and sign pieces under the full
# S_r, recorded with c = 1 and equal for every nonzero c; they pin the
# answers of the benchmark's ``symmetric`` workload, which runs at
# seeded non-integer c.
SYMMETRIC_DIMS = {
    ("S1", 2, "trivial"): [1, 3, 8, 17, 29, 41, 53],
    ("S1", 2, "sign"): [0, 2, 7, 12, 18, 28, 41],
    ("P2", 3, "trivial"): [1, 1, 1, 2, 1, 3, 3],
    ("P2", 3, "sign"): [0, 0, 0, 0, 0, 0, 1],
}


@pytest.mark.parametrize("c", ["-1/2", "7/3"])
@pytest.mark.parametrize("space, r", [("S1", 2), ("P2", 3)])
def test_symmetric_pieces_at_non_integer_c(space, r, c):
    base = build_base(parse_space(space))
    m = section_model(base, parse_ample_class(base, c), r)
    group = all_permutations(r)
    triv = invariant_cohomology(m, group, 6)
    sign = isotypic_cohomology(m, group, sign_character(r), 6)
    assert triv.dims() == SYMMETRIC_DIMS[(space, r, "trivial")]
    assert sign.dims() == SYMMETRIC_DIMS[(space, r, "sign")]


def test_character_euler_identities():
    p1 = build_base(parse_space("P1"))
    m = section_model(p1, parse_ample_class(p1, "1"), 2)
    plain = weightwise_euler(m, 8)
    assert character_euler(m, regular_character(2), 8) == plain
    triv = character_euler(m, trivial_character(2), 8)
    sign = character_euler(m, sign_character(2), 8)
    assert triv + sign == plain


@pytest.mark.parametrize("space", ["P1", "P2", "S1"])
def test_character_euler_matches_summed_traces(space):
    m = _model("A", space, 3, "1")
    w_max = 7
    group = all_permutations(3)
    actions = [symmetric_action(m, sig) for sig in group]
    for chi in (trivial_character(3), sign_character(3), STANDARD_S3):
        want = {}
        for k in range(w_max + 1):
            total = 0
            for i in range(k + 1):
                for sig, phi in zip(group, actions):
                    mat = map_matrix(m, phi, i, k)
                    trace = sum(r.get(a, 0) for a, r in enumerate(mat.rows))
                    total += (-1) ** i * chi(sig) * trace
            if total:
                want[k] = total / 6
        assert character_euler(m, chi, w_max).coeffs == want, chi


def _standard_character(r):
    """chi(sigma) = fix(sigma) - 1, the character of the standard
    representation of S_r."""
    return ClassFunction(r, {part: part.count(1) - 1
                             for part in analysis._partitions(r)})


@pytest.mark.parametrize("kind, space, r, param", [
    ("A", "P1", 2, "1"), ("A", "P1", 3, "-5/2"), ("A", "P1", 4, "1"),
    ("C", "S1", 3, None), ("C", "P2", 4, None), ("AL", "S1", 3, 0)])
def test_character_euler_by_cycle_type_matches_every_element(kind, space, r,
                                                             param):
    # one representative per cycle type, weighted by its class size, gives
    # the sum over all r! elements
    p = _model(kind, space, r, param)
    w_max = 6
    nonzero = 0
    for chi in (trivial_character(r), sign_character(r),
                _standard_character(r)):
        want = character_euler_by_elements(p, chi, w_max)
        assert character_euler(p, chi, w_max).coeffs == want, (chi, p.name)
        nonzero += bool(want)
    assert nonzero >= 2


def test_character_euler_trivial_matches_invariants():
    p1 = build_base(parse_space("P1"))
    m = section_model(p1, parse_ample_class(p1, "1"), 2)
    max_degree = 8
    inv = invariant_cohomology(m, all_permutations(2), max_degree)
    triv = character_euler(m, trivial_character(2), max_degree)
    for k in range(max_degree + 1):
        # weight-k classes live in degrees <= k <= max_degree, so the
        # truncated table already sees the whole weight-k column
        euler = sum((-1) ** d * inv.dim(d, k) for d in range(k + 1))
        assert euler == triv.coefficient(k), k


def test_subgroup_closure_helpers():
    assert len(generated_subgroup([(1, 2, 0)], 3)) == 3
    assert len(generated_subgroup([(1, 0, 2), (0, 2, 1)], 3)) == 6
    with pytest.raises(AlgebraError, match="duplicate"):
        analysis._closed_with_generators([(0, 1), (1, 0), (0, 1)])
    with pytest.raises(AlgebraError, match="not closed"):
        analysis._closed_with_generators([(1, 2, 0)])
    with pytest.raises(AlgebraError, match="not closed"):
        analysis._closed_with_generators([(0, 1, 2), (1, 2, 0)])
    assert cycle_type((1, 0, 2)) == (2, 1)
    assert cycle_type((1, 2, 0)) == (3,)


def test_closure_stops_at_the_group_order_limit(monkeypatch):
    # the closure raises at the first element past the limit, whichever
    # route reaches it; the limit itself is admitted
    assert analysis.MAX_GROUP_ORDER == 362880
    monkeypatch.setattr(analysis, "MAX_GROUP_ORDER", 3)
    assert len(generated_subgroup([(1, 2, 0)], 3)) == 3
    with pytest.raises(AlgebraError, match="than the limit of 3"):
        generated_subgroup([(1, 0, 2), (0, 2, 1)], 3)
    with pytest.raises(AlgebraError, match="than the limit of 3"):
        analysis._closed_with_generators(all_permutations(3))


def test_subgroup_checks_per_generator_match_all_pairs():
    # closure is checked on products with a generating set; every subset
    # of S_3 holding the identity is judged as the all-pairs check does
    elems = all_permutations(3)
    identity, others = elems[0], elems[1:]
    closed = 0
    for n in range(len(others) + 1):
        for subset in itertools.combinations(others, n):
            group = [identity, *subset]
            pairs = all(compose(a, b) in group for a in group for b in group)
            if pairs:
                assert analysis._closed_with_generators(group) == group
                assert generated_subgroup(subset, 3) == sorted(group)
                closed += 1
            else:
                with pytest.raises(AlgebraError, match="not closed"):
                    analysis._closed_with_generators(group)
    assert closed == 6


def test_invariant_and_isotypic_reject_non_subgroups():
    p1 = build_base(parse_space("P1"))
    m = section_model(p1, parse_ample_class(p1, "1"), 3)
    for bad, msg in (([(1, 2, 0)], "not closed"),
                     ([(0, 1, 2), (0, 1, 2)], "duplicate")):
        with pytest.raises(AlgebraError, match=msg):
            invariant_cohomology(m, bad, 2)
        with pytest.raises(AlgebraError, match=msg):
            isotypic_cohomology(m, bad, sign_character(3), 2)


def test_isotypic_rejects_malformed_input_plainly():
    p1 = build_base(parse_space("P1"))
    m = section_model(p1, parse_ample_class(p1, "1"), 2)
    group = all_permutations(2)
    with pytest.raises(AlgebraError, match="^subgroup is empty$"):
        isotypic_cohomology(m, [], sign_character(2), 2)
    with pytest.raises(AlgebraError, match="^subgroup is empty$"):
        invariant_cohomology(m, [], 2)
    with pytest.raises(AlgebraError,
                       match="class function is on S_3, subgroup permutes "
                             "2 points"):
        isotypic_cohomology(m, group, STANDARD_S3, 2)
    with pytest.raises(AlgebraError, match="max_degree must be >= 0"):
        isotypic_cohomology(m, group, sign_character(2), -1)


def test_class_function_validation():
    with pytest.raises(AlgebraError, match="partition"):
        ClassFunction(2, {(3,): 1})
    chi = trivial_character(3)
    assert chi((0, 1, 2)) == 1
    assert sign_character(3)((1, 0, 2)) == -1
    assert sign_character(3)((1, 2, 0)) == 1


def test_stable_range_bound():
    assert stable_range_bound(0, 1, 3, 1) == 6
    assert stable_range_bound(10, 2, 3, 1) == 28
    assert stable_range_bound(0, 1, 100, 1) == 101
    with pytest.raises(AlgebraError):
        stable_range_bound(-1, 1, 3, 1)
