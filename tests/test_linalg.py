import copy
import random
from fractions import Fraction
from math import gcd, lcm

from hypothesis import given, settings, strategies as st

from cdgacalc import linalg
from cdgacalc.linalg import SparseMatrix, rref, rank
from cdgacalc.rat import Rational
from oracle import (entry, from_dense, identity, kernel_basis,
                    markowitz_pivots, matmul, rank_of, same_matrix, to_dense,
                    transpose)


def dense(rows):
    return from_dense(rows)


def test_rref_empty_matrix():
    res = rref(SparseMatrix(0, 0))
    assert res.rank == 0
    assert res.pivots == ()


def test_rref_identity():
    res = rref(identity(3))
    assert res.rank == 3
    assert res.pivots == (0, 1, 2)
    assert same_matrix(res.reduced, identity(3))


def test_rref_rank_one():
    # [[1,2],[2,4]]: second row is twice the first.
    res = rref(dense([[1, 2], [2, 4]]))
    assert res.rank == 1
    assert res.pivots == (0,)
    assert to_dense(res.reduced) == [[Rational(1), Rational(2)]]


def test_rref_canonical_form():
    # rref is unique, so shuffled rows must give the same matrix.
    rows = [[0, 1, 2], [1, 1, 1], [1, 2, 3]]
    a = rref(dense(rows)).reduced
    b = rref(dense([rows[2], rows[0], rows[1]])).reduced
    assert same_matrix(a, b)
    # leading entries are 1 and pivot columns are cleared elsewhere
    for i, p in enumerate(rref(dense(rows)).pivots):
        assert entry(a, i, p) == 1


def test_kernel_identity_and_zero():
    assert kernel_basis(identity(2)) == []
    vecs = kernel_basis(SparseMatrix(2, 3))
    assert vecs == [{0: Rational(1)}, {1: Rational(1)}, {2: Rational(1)}]


def test_kernel_one_relation():
    vecs = kernel_basis(dense([[1, 1]]))
    assert len(vecs) == 1
    v = vecs[0]
    assert v[1] == 1 and v[0] == -1


def test_rank_identity_and_ones():
    assert rank(identity(4)) == 4
    ones = dense([[1, 1, 1]] * 3)
    assert rank(ones) == 1


def test_rank_of_sparse_factor_product():
    # 20x10 and 10x20 factors, each containing an identity block, so both
    # have full rank 10 by construction; the product then has rank 10.
    rng = random.Random(7)
    a = SparseMatrix(20, 10)
    b = SparseMatrix(10, 20)
    for i in range(10):
        a.rows[i][i] = Rational(1)
        b.rows[i][i] = Rational(1)
    for _ in range(25):
        a.rows[rng.randrange(10, 20)][rng.randrange(10)] = Rational(
            rng.randint(-3, 3))
        b.rows[rng.randrange(10)][rng.randrange(10, 20)] = Rational(
            rng.randint(-3, 3))
    prod = matmul(a, b)
    assert prod.nrows == 20 and prod.ncols == 20
    assert rank(prod) == 10


def random_matrix(rng, nrows, ncols, density=0.3):
    m = SparseMatrix(nrows, ncols)
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < density:
                v = Rational(rng.randint(-4, 4), rng.randint(1, 3))
                if v:
                    m.rows[i][j] = v
    return m


def dense_rref(rows, ncols):
    """Textbook dense reduced row echelon form, for cross-checking."""
    mat = [list(r) for r in rows]
    pivots = []
    row_at = 0
    for col in range(ncols):
        sel = None
        for r in range(row_at, len(mat)):
            if mat[r][col]:
                sel = r
                break
        if sel is None:
            continue
        mat[row_at], mat[sel] = mat[sel], mat[row_at]
        inv = Rational(1) / mat[row_at][col]
        mat[row_at] = [v * inv for v in mat[row_at]]
        for r in range(len(mat)):
            if r != row_at and mat[r][col]:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[row_at])]
        pivots.append(col)
        row_at += 1
    return pivots, mat[:row_at]


def test_rref_matches_dense_textbook_rref():
    rng = random.Random(99)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        res = rref(m)
        pivots, reduced = dense_rref(to_dense(m), m.ncols)
        assert res.pivots == tuple(pivots)
        assert to_dense(res.reduced) == reduced


def test_rank_properties_randomized():
    rng = random.Random(20240)
    for _ in range(30):
        m = random_matrix(rng, rng.randint(0, 8), rng.randint(0, 8))
        res = rref(m)
        assert res.rank == rank(transpose(m))
        assert res.rank + len(kernel_basis(m)) == m.ncols
        assert res.rank == rank(m)
        # idempotence: rref of the reduced matrix is the reduced matrix
        again = rref(res.reduced)
        assert same_matrix(again.reduced, res.reduced)
        assert again.pivots == res.pivots
        # kernel vectors really lie in the kernel
        for vec in kernel_basis(m):
            for row in m.rows:
                s = sum((row[j] * vec[j] for j in row if j in vec),
                        Rational(0))
                assert s == 0


# -- property tests of the shared elimination kernel -------------------------

INTS = st.integers(-5, 5)
FRACTIONS = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
SCALARS = {"int": INTS, "rational": FRACTIONS,
           "mixed": st.one_of(INTS, FRACTIONS)}


@st.composite
def sparse_matrices(draw):
    """Sparse int, rational or mixed matrices, often rank deficient.

    Zero rows and columns come from the sparsity; rank deficiency from
    building the matrix as a product through a narrow inner dimension.
    """
    scalars = SCALARS[draw(st.sampled_from(sorted(SCALARS)))]
    nrows, ncols = draw(st.integers(0, 7)), draw(st.integers(0, 7))

    def sparse(n, m):
        return [[draw(scalars) if draw(st.booleans()) else 0
                 for _ in range(m)] for _ in range(n)]

    if draw(st.booleans()):
        dense_rows = sparse(nrows, ncols)
    else:
        inner = draw(st.integers(0, 3))
        a, b = sparse(nrows, inner), sparse(inner, ncols)
        dense_rows = [[sum((a[i][k] * b[k][j] for k in range(inner)), 0)
                       for j in range(ncols)] for i in range(nrows)]
    return SparseMatrix(nrows, ncols,
                        ((i, j, v) for i, row in enumerate(dense_rows)
                         for j, v in enumerate(row) if v))


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
def test_rank_equals_dense_textbook_rank(m):
    pivots, _ = dense_rref(to_dense(m), m.ncols)
    assert rank(m) == len(pivots) == rref(m).rank
    assert rank(transpose(m)) == len(pivots)


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_elimination_keeps_scalars_exact(m):
    # inputs and outputs are int where integral, Rational otherwise
    for row in m.rows + rref(m).reduced.rows:
        for v in row.values():
            assert type(v) is (int if v == int(v) else Rational)
    assert type(rank(m)) is int


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_rows_enter_primitive_and_scaling_changes_no_pivot(m):
    # _integral returns the primitive int multiple of each row, so rows
    # times 6 (or any nonzero multiple) are eliminated step for step alike
    for row in m.rows:
        prim = linalg._integral(row)
        assert all(type(v) is int for v in prim.values())
        if prim:
            assert gcd(*prim.values()) == 1
            ratio = Fraction(next(iter(row.values())),
                             next(iter(prim.values())))
            assert prim == {j: v / ratio for j, v in row.items()}
        assert linalg._integral({j: 6 * v for j, v in row.items()}) == prim
    six = SparseMatrix.from_rows(m.nrows, m.ncols, [
        {j: 6 * v for j, v in row.items()} for row in m.rows])
    odd = SparseMatrix.from_rows(m.nrows, m.ncols, [
        {j: v * Fraction(-5, 7 + i) for j, v in row.items()}
        for i, row in enumerate(m.rows)])
    for other in (six, odd):
        assert linalg.pivot_columns(other.rows) \
            == linalg.pivot_columns(m.rows)
        for canonical in (True, False):
            assert linalg._eliminate(other.rows, canonical)[1] \
                == linalg._eliminate(m.rows, canonical)[1]
        got, want = rref(other), rref(m)
        assert (got.rank, got.pivots, got.reduced.rows) \
            == (want.rank, want.pivots, want.reduced.rows)


@st.composite
def row_lists(draw):
    """Rows of up to 7 (column -> scalar) dicts, as the engine hands them
    to the kernel: int, rational or mixed entries, often rank deficient,
    with explicit zeros and empty rows."""
    rows = []
    for row in draw(sparse_matrices()).rows:
        row = dict(row)
        for j in draw(st.lists(st.integers(0, 8), max_size=3)):
            row.setdefault(j, draw(st.sampled_from([0, Fraction(0)])))
        rows.append(row)
    return rows


# The oracle clears rows in order of row id.  The kernel clears them in
# the order of a column's set of row ids, which is the same while every
# id is below 8, the size of a new set's hash table; so at most 7 rows.
@settings(max_examples=300, deadline=None)
@given(row_lists())
def test_pivot_order_is_the_documented_policy(rows):
    for canonical in (True, False):
        assert linalg._eliminate(rows, canonical)[1] \
            == markowitz_pivots(rows, canonical)


@settings(max_examples=200, deadline=None)
@given(row_lists())
def test_pivot_columns_carry_the_rank_and_leave_the_input_alone(rows):
    # clearing keeps only the coordinates at the pivot columns, so the
    # rows restricted to them must keep the whole rank
    given_rows = copy.deepcopy(rows)
    cols = sorted(linalg.pivot_columns(rows))
    ncols = 1 + max((j for row in rows for j in row), default=0)
    full = [[Fraction(row.get(j, 0)) for j in range(ncols)] for row in rows]
    at = [[Fraction(row.get(j, 0)) for j in cols] for row in rows]
    assert rank_of(at) == rank_of(full) == len(cols)
    m = SparseMatrix(len(rows), ncols)
    m.rows = rows
    assert rank(m) == rref(m).rank == len(cols)
    assert rows == given_rows and m.rows is rows


def primitive_reference(row):
    """The primitive int multiple of a row, by the definition: drop the
    zeros, clear the denominators, divide by the gcd."""
    nonzero = {c: Fraction(v) for c, v in row.items() if v}
    den = lcm(*(v.denominator for v in nonzero.values()))
    ints = {c: int(v * den) for c, v in nonzero.items()}
    g = gcd(*ints.values())
    return {c: v // g for c, v in ints.items()}


ENTRIES = st.one_of(
    st.integers(-10 ** 25, 10 ** 25), st.integers(-6, 6),
    st.fractions(-30, 30, max_denominator=12),
    st.integers(-9, 9).map(Fraction), st.sampled_from([0, Fraction(0)]))


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.dictionaries(st.integers(0, 12), ENTRIES, max_size=9),
    st.dictionaries(st.integers(0, 12), st.sampled_from([0, Fraction(0)]),
                    max_size=5)))
def test_integral_is_the_primitive_int_multiple(row):
    # rows mix int and Fraction entries, explicit zeros and zero rows; the
    # int test is gcd() itself, falling back on a Fraction entry
    given_row = dict(row)
    prim = linalg._integral(row)
    assert row == given_row and prim is not row
    assert prim == primitive_reference(row)
    assert all(type(v) is int and v for v in prim.values())
    if prim:
        assert gcd(*prim.values()) == 1


# -- edge cases of the fraction-free kernel, against the dense textbook rref --

def assert_matches_dense(m):
    pivots, reduced = dense_rref(to_dense(m), m.ncols)
    res = rref(m)
    assert res.pivots == tuple(pivots)
    assert to_dense(res.reduced) == reduced
    assert rank(m) == len(pivots) == rank(transpose(m))


def test_huge_entries_with_non_unit_pivots():
    rng = random.Random(1020)
    big = 10 ** 20
    for _ in range(30):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        m = SparseMatrix(nrows, ncols)
        for i in range(nrows):
            for j in range(ncols):
                if rng.random() < 0.6:
                    m.rows[i][j] = rng.randint(-big, big) or 1
        assert_matches_dense(m)
    # rank deficient: the third row is 10^20 + 7 times the first plus the
    # second, so every pivot after the first is far from +-1
    a = [3 * big + 1, -2 * big, 5, 0]
    b = [0, 7, big - 3, 11]
    k = big + 7
    m = from_dense([a, b, [k * x + y for x, y in zip(a, b)]])
    assert_matches_dense(m)
    assert rank(m) == 2


def test_rows_assigned_with_mixed_int_and_integral_fractions():
    rng = random.Random(5)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        m = SparseMatrix(nrows, ncols)
        for i in range(nrows):
            for j in range(ncols):
                v = rng.randint(-6, 6)
                if v:
                    kind = rng.randrange(3)
                    m.rows[i][j] = (v if kind == 0 else Fraction(v, 1)
                                    if kind == 1 else Fraction(v, 4))
        assert_matches_dense(m)
    m = SparseMatrix(2, 2)
    m.rows = [{0: Fraction(2, 1), 1: 4}, {0: 3, 1: Fraction(6, 1)}]
    assert rank(m) == 1
    assert rref(m).reduced.rows == [{0: 1, 1: 2}]


def test_zero_and_empty_matrices():
    for nrows, ncols in [(0, 0), (0, 4), (4, 0), (3, 5)]:
        m = SparseMatrix(nrows, ncols)
        res = rref(m)
        assert rank(m) == res.rank == 0
        assert res.pivots == ()
        assert (res.reduced.nrows, res.reduced.ncols) == (0, ncols)
        assert_matches_dense(m)


def test_integer_input_builds_no_rational(monkeypatch):
    rng = random.Random(77)
    mats = []
    for _ in range(20):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        mats.append(SparseMatrix(
            nrows, ncols, ((i, j, rng.choice([-9, -4, -2, 2, 3, 6, 15]))
                           for i in range(nrows) for j in range(ncols)
                           if rng.random() < 0.5)))

    def no_rational(*args):
        raise AssertionError("the elimination loop built a Rational")

    monkeypatch.setattr(linalg, "Rational", no_rational)
    ranks = [rank(m) for m in mats]
    for m in mats:
        work, _ = linalg._eliminate(m.rows, canonical=True)
        assert all(type(v) is int for row in work for v in row.values())
    monkeypatch.undo()
    for m, r in zip(mats, ranks):
        assert r == len(dense_rref(to_dense(m), m.ncols)[0])
        assert_matches_dense(m)


def test_rank_ignores_explicit_zeros():
    # rows assembled by accumulation may hold 0 or Fraction(0) entries,
    # which must never serve as a pivot
    cases = [
        [{0: 0}],
        [{0: Fraction(0), 1: 0}, {1: Fraction(0)}],
        [{0: 0, 1: 2}, {0: Fraction(0), 1: 4, 2: Fraction(0)}, {2: 0},
         {0: 1, 2: Fraction(0, 3)}],
        [{0: Fraction(1, 2), 1: 0}, {0: 0, 1: Fraction(1, 3)},
         {0: 3, 1: Fraction(0)}],
    ]
    rng = random.Random(5)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        cases.append([{**row, **{j: rng.choice([0, Fraction(0)])
                                 for j in range(m.ncols)
                                 if j not in row and rng.random() < 0.3}}
                      for row in m.rows])
    for rows in cases:
        ncols = 1 + max((j for row in rows for j in row), default=0)
        m = SparseMatrix(len(rows), ncols)
        m.rows = rows
        want = len(dense_rref([[row.get(j, 0) for j in range(ncols)]
                               for row in rows], ncols)[0])
        assert rank(m) == len(linalg.pivot_columns(rows)) == want, rows
