"""The closed-form configuration core against the rref route.

A configuration core lists each slice's basis from the NBC monomials and
reduces by straightening and gathering (``models.ConfigurationCore``).
``oracle.rref_slice_basis`` eliminates the same slice's ideal slice, and
``oracle.totaro_series`` gives its dimension from the base alone.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from cdgacalc import engine
from cdgacalc.algebra import base_algebra_from_dict
from cdgacalc.analysis import (all_permutations, isotypic_cohomology,
                               sign_character)
from cdgacalc.engine import (_slice_weights, cohomology, quotient_slice,
                             verify_d_squared)
from cdgacalc.models import (build_base, configuration_model, parse_space,
                             symmetric_action)

from oracle import rref_slice_basis, totaro_series
from test_acceptance import random_presentation
from test_cli import P1_CLONE, S1_CLONE
from test_engine import _families, c2_p1

SPACES = ["P1", "P2", "S1", "S2", "P1xP1"]


def _core(space, r):
    base = (base_algebra_from_dict(S1_CLONE) if space == "custom"
            else build_base(parse_space(space)))
    return configuration_model(base, r)


def _transpositions(r):
    out = []
    for i in range(r):
        for j in range(i + 1, r):
            sig = list(range(r))
            sig[i], sig[j] = j, i
            out.append(tuple(sig))
    return out


@pytest.mark.parametrize("space, r, top", [
    (space, r, 12) for space in SPACES for r in (2, 3)
] + [("S1", 4, 10), ("P2", 4, 12)])
def test_core_slice_dims_equal_the_totaro_series(space, r, top):
    p = _core(space, r)
    series = totaro_series(p.context.base.factors[0], r, top)
    checked = 0
    for d in range(top + 1):
        weights = set(_slice_weights(p, d))
        assert weights == {w for dd, w in series if dd == d}, (d, weights)
        for w in weights:
            assert quotient_slice(p, d, w).dim == series[d, w], (d, w)
            checked += 1
    assert checked


@pytest.mark.parametrize("space, r, top", [
    ("S1", 4, 6), ("P2", 4, 6), ("custom", 2, 6), ("custom", 3, 6)])
def test_closed_slices_equal_the_rref_route(space, r, top):
    # (a) the same basis tuple and (b) the rref's normal form for every
    # free monomial of the core
    p = _core(space, r)
    assert p.core is p and p._closed_form is not None
    ctx = p.context
    rewritten = 0
    for d in range(top + 1):
        weights = {ctx.monomial_weight(m) for m in ctx.monomials_of(d)}
        for w in sorted(weights):
            sl, ref = quotient_slice(p, d, w), rref_slice_basis(p, d, w)
            assert sl.quotient == ref.quotient and sl.index == ref.index
            for m in ctx.monomials_of(d, w):
                assert sl.reduce({m: 1}) == ref.reduce({m: 1}), (d, w, m)
            rewritten += len(ref.rewrite)
    assert rewritten


@pytest.mark.parametrize("space, r", [
    (space, 3) for space in SPACES + ["custom"]] + [("S1", 4), ("P2", 4)])
def test_permuted_basis_monomials_reduce_as_the_rref(space, r):
    # (c) sigma moves basis monomials off the NBC basis: G_12 G_13 goes to
    # G_12 G_23 under the transposition of points 1 and 2
    p = _core(space, r)
    sigmas = all_permutations(3) if r == 3 else _transpositions(r)
    outside = 0
    for d in range(7):
        for w in _slice_weights(p, d):
            sl, ref = quotient_slice(p, d, w), rref_slice_basis(p, d, w)
            for sig in sigmas:
                phi = symmetric_action(p, sig)
                for m in sl.quotient:
                    image, c = phi.image(m)
                    outside += image not in sl.index
                    assert sl.reduce({image: c}) == ref.reduce({image: c}), \
                        (sig, m)
    assert outside


_MADE: dict = {}


def _made(key, build):
    hit = _MADE.get(key)
    if hit is None:
        hit = _MADE[key] = build()
    return hit


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_products_of_basis_monomials_reduce_as_the_rref(data):
    # (d) a product of two basis monomials is in general neither NBC nor
    # gathered on least points
    space, r = data.draw(st.sampled_from(
        [(space, 3) for space in SPACES + ["custom"]] + [("S1", 4)]))
    p = _made((space, r), lambda: _core(space, r))
    factors = []
    for _ in range(2):
        d = data.draw(st.integers(0, 4))
        weights = _slice_weights(p, d)
        assume(weights)
        w = data.draw(st.sampled_from(weights))
        m = data.draw(st.sampled_from(quotient_slice(p, d, w).quotient))
        factors.append((d, w, m))
    (d1, w1, m1), (d2, w2, m2) = factors
    product: dict = {}
    p.context.mul_term_into(product, m1, 1, m2, 1)
    d, w = d1 + d2, w1 + w2
    ref = _made((space, r, d, w), lambda: rref_slice_basis(p, d, w))
    assert quotient_slice(p, d, w).reduce(product) == ref.reduce(product)


def test_closed_form_needs_a_basis_the_rref_keeps():
    # with the unit listed second, a pullback relation's first term is the
    # class at the least point, so the rref keeps another basis: no closed
    # form, and the same cohomology by elimination
    swapped = dict(P1_CLONE, basis=P1_CLONE["basis"][::-1])
    base = base_algebra_from_dict(swapped)
    assert base.unit == 1
    p = configuration_model(base, 3)
    assert p._closed_form is None
    builtin = configuration_model(build_base(parse_space("P1")), 3)
    assert cohomology(p, 6) == cohomology(builtin, 6)
    sl, ref = quotient_slice(p, 3, 4), rref_slice_basis(builtin, 3, 4)
    assert sl.dim == ref.dim and sl.quotient != ref.quotient


def test_built_in_cores_never_eliminate(monkeypatch):
    seen = []
    ideal_slice = engine.ideal_slice

    def spy(p, degree, weight):
        seen.append(p)
        return ideal_slice(p, degree, weight)

    monkeypatch.setattr(engine, "ideal_slice", spy)
    for space, r in (("S1", 3), ("P1xP1", 2)):
        for p in _families(space, r):
            assert verify_d_squared(p, 6).ok
            cohomology(p, 6)
            isotypic_cohomology(p, all_permutations(r), sign_character(r), 5)
            assert not p.core.context._mono_cache, p.name
    assert not seen
    # everything else takes the rref path
    cohomology(c2_p1(), 4)
    cohomology(random_presentation(3)[0], 4)
    assert len({id(p) for p in seen}) == 2
    assert all(p._closed_form is None for p in seen)
