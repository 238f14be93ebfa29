"""Sparse exact linear algebra over the rationals.

The whole engine reduces to two primitives on sparse rational matrices:
reduced row echelon form (for ideal slices and normal forms) and rank
(for cohomology dimensions).  ``rref`` and ``rank`` are two pivot
policies of one elimination loop:

* ``rref`` returns *the* reduced row echelon form, which is unique for a
  given row space; every module downstream relies on that for
  determinism.  Pivot columns are therefore taken left to right.
* ``rank`` pivots in the live column with the fewest live rows
  (Markowitz 1957), as last counted in a lazy heap, to limit fill-in on the
  wide differential matrices.  ``pivot_columns`` returns the columns it
  pivots in, on rows given without a matrix; the engine clears the next
  differential's rows with them, and ``rank`` is their count.

Rank is exact sparse elimination over Q (Dumas-Villard, CASC 2002) with
no shortcut mod p: with small integer entries it costs about as much,
and half of the differential matrices are rank deficient, where a mod-p
rank certifies nothing.  The loop is fraction-free (``_eliminate``), so
it runs in ``int`` arithmetic on integer and rational input alike, and
``rref`` divides each pivot row by its pivot only at the end.  Rows
enter primitive: cleared of denominators and divided by the gcd of
their entries, so a row given times a constant is eliminated exactly as
the row itself.  All functions are pure: inputs are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Iterable

from .rat import Rational, exact


class SparseMatrix:
    """Immutable sparse matrix over Q; no explicit zeros are stored."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int,
                 entries: Iterable[tuple[int, int, object]] = ()):
        if nrows < 0 or ncols < 0:
            raise ValueError("negative matrix dimension")
        rows: list[dict[int, object]] = [dict() for _ in range(nrows)]
        for i, j, v in entries:
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise ValueError(f"entry ({i},{j}) out of bounds "
                                 f"for {nrows}x{ncols} matrix")
            v = exact(v)
            if v:
                rows[i][j] = v
            else:
                rows[i].pop(j, None)
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows

    @classmethod
    def from_rows(cls, nrows: int, ncols: int,
                  rows: Iterable[dict[int, object]]) -> "SparseMatrix":
        m = cls(nrows, ncols)
        for i, row in enumerate(rows):
            m.rows[i] = {j: exact(v) for j, v in row.items() if v}
        return m

    def nnz(self) -> int:
        return sum(len(r) for r in self.rows)

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz()})"


def _integral(row: dict) -> dict:
    """The primitive ``int`` multiple of ``row``: times the lcm of its
    entries' denominators, then divided by the gcd of the results, with
    no explicit zeros."""
    try:
        g = gcd(*row.values())
    except TypeError:  # a Fraction entry
        den = lcm(*(v.denominator for v in row.values()))
        out = {c: v.numerator * (den // v.denominator)
               for c, v in row.items() if v}
        g = gcd(*out.values())
    else:
        out = (dict(row) if 0 not in row.values()
               else {c: v for c, v in row.items() if v})
    if g > 1:
        for c in out:
            out[c] //= g
    return out


def _eliminate(rows: Iterable[dict], canonical: bool):
    """Fraction-free Gauss-Jordan elimination of ``rows`` (column -> Q):
    (rows, [(column, row id)]).

    Each row is first made primitive (``_integral``), and every row
    operation keeps it integral: a pivot p = ±1 clears its column by
    subtraction, any other pivot replaces each row r by
    (p/g)·r − (r[col]/g)·prow, with g = gcd(p, r[col]), and then divides
    r by the gcd of its entries.
    Rows are numbered after those with no entries are dropped; a row of
    explicit zeros keeps its number.  The pivot row is the sparsest row
    of its column, ties to the lowest row id, and is not scaled.
    ``canonical`` takes columns left to right and keeps pivot rows live,
    so each pivot column is cleared everywhere (the rref up to one scale
    per row); otherwise pivot rows retire once used, and are dropped
    (None in the returned rows) to free their fill-in.  There the heap
    holds (count of live rows, column) as last counted: a popped column
    whose count has changed is pushed back with its current count, and
    one that fill-in brings back from no live row is pushed with count 0.
    ``tests/oracle.py``'s ``markowitz_pivots`` states the same policy
    without a heap.

    The loop makes no call or object it can do without: the column index
    is built and grown without a throwaway set per entry, a heap pop
    reads its column's live set once, the sparsest row is picked by a
    plain loop with no key tuple per candidate, and a column's rows are
    copied only when some row besides the pivot row must be cleared.
    The pivot order and its tie-breaks are those of the policies above,
    and the input rows are never mutated.
    """
    work = [_integral(r) for r in rows if r]
    # column -> live row ids with a nonzero there, kept current
    col_rows: dict[int, set[int]] = {}
    for ri, row in enumerate(work):
        for c in row:
            s = col_rows.get(c)
            if s is None:
                col_rows[c] = {ri}
            else:
                s.add(ri)

    heap = [(0 if canonical else len(s), c) for c, s in col_rows.items()]
    heapify(heap)
    pivots: list[tuple[int, int]] = []
    used: set[int] = set()
    while heap:
        key, col = heappop(heap)
        live = col_rows.get(col)
        if live is None:
            continue
        if canonical:
            candidates = live - used
            if not candidates:
                continue
        else:
            if key != len(live):
                heappush(heap, (len(live), col))
                continue
            candidates = live
        if len(candidates) == 1:
            ri, = candidates
        else:
            # the sparsest row, ties to the lowest row id
            it = iter(candidates)
            ri = next(it)
            best = len(work[ri])
            for r in it:
                n = len(work[r])
                if n < best or (n == best and r < ri):
                    ri, best = r, n
        prow = work[ri]
        p = prow[col]
        unit = p == 1 or p == -1
        if not canonical:
            for c in prow:
                s = col_rows[c]
                s.discard(ri)
                if not s:
                    del col_rows[c]
        # rows to clear: the column's live rows but ri, which canonical
        # mode keeps in its sets
        live = col_rows.get(col)
        others = list(live) if live and len(live) > canonical else ()
        for other in others:
            if other == ri:
                continue
            orow = work[other]
            factor = orow[col]
            if unit:
                factor *= p
            else:
                g = gcd(p, factor)
                scale, factor = p // g, factor // g
                if scale != 1:
                    for c in orow:
                        orow[c] *= scale
            for c, v in prow.items():
                nv = orow.get(c)
                if nv is None:
                    s = col_rows.get(c)
                    if s is None:
                        col_rows[c] = {other}
                        heappush(heap, (0, c))
                    else:
                        s.add(other)
                    orow[c] = -factor * v
                    continue
                nv -= factor * v
                if nv:
                    orow[c] = nv
                else:
                    del orow[c]
                    s = col_rows[c]
                    s.discard(other)
                    if not s:
                        del col_rows[c]
            if not unit:
                g = gcd(*orow.values())
                if g > 1:
                    for c in orow:
                        orow[c] //= g
        if canonical:
            used.add(ri)
        else:
            work[ri] = None
        pivots.append((col, ri))
    return work, pivots


def _scaled(row: dict, pivot: int) -> dict:
    """``row`` divided by its pivot, in ``rat.exact`` form: an ``int``
    where the pivot divides the entry, else a ``Rational``."""
    if pivot == 1:
        return row
    return {c: v // pivot if v % pivot == 0 else Rational(v, pivot)
            for c, v in row.items()}


@dataclass(frozen=True)
class RrefResult:
    rank: int
    pivots: tuple[int, ...]
    reduced: SparseMatrix


def rref(m: SparseMatrix) -> RrefResult:
    """Reduced row echelon form of ``m`` (unique; rows sorted by pivot)."""
    work, pivots = _eliminate(m.rows, canonical=True)
    reduced = SparseMatrix(len(pivots), m.ncols)
    reduced.rows = [_scaled(work[ri], work[ri][col]) for col, ri in pivots]
    return RrefResult(len(pivots), tuple(c for c, _ in pivots), reduced)


def pivot_columns(rows: Iterable[dict]) -> frozenset[int]:
    """Pivot columns of the Markowitz-style elimination of ``rows``
    (column -> Q, explicit zeros allowed).

    The submatrix at these columns has the rank of the whole, so the
    row space maps isomorphically onto their coordinates.
    """
    return frozenset(c for c, _ in _eliminate(rows, canonical=False)[1])


def rank(m: SparseMatrix) -> int:
    """Exact rank, by the free Markowitz-style pivot policy."""
    return len(pivot_columns(m.rows))
