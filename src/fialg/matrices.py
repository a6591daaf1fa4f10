"""Exact matrix kernels used by the linear-map layer.

Matrices are lists of columns (column[j][i] is the (i, j) entry), matching
how linear maps store basis images.

invert_columns inverts by one Gauss-Jordan elimination over the rationals on
sparse rows, held as {column: nonzero} dicts: the matrices the pipeline
inverts (Jordan maps and their basis changes) are mostly zeros.  The signed
product of its pivots is the determinant, which decides invertibility, so it
makes no separate determinant pass.

require_unit_determinant is the invertibility test of a matrix that is not
inverted (decompose's).  Bareiss's fraction-free elimination computes the
determinant of an integer lift of the matrix, and the matrix is refused
unless that determinant is a unit of the ring.  It stays dense: a sparse
elimination determinant was x3-8 faster than Bareiss on the Jordan maps of
incidence algebras but x1.5-1.8 slower on maps rebased onto a twisted
codomain, whose rows fill in during elimination, so switching would slow
decompose there (library timings on a 2-CPU Xeon, Python 3.11).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import NotInvertibleError
from .rings import RationalRing, Ring


def identity_columns(ring: Ring, n: int):
    return [
        [ring.one if i == j else ring.zero for i in range(n)] for j in range(n)
    ]


def mat_vec(ring: Ring, columns, vec):
    """Matrix times coordinate vector: sum_j vec[j] * columns[j]."""
    n = len(columns[0]) if columns else 0
    out = [ring.zero] * n
    add, mul = ring.add, ring.mul
    for j, a in enumerate(vec):
        if not a:
            continue
        col = columns[j]
        for i in range(n):
            c = col[i]
            if c:
                out[i] = add(out[i], mul(a, c))
    return out


def bareiss_determinant(rows: list[list[int]]) -> int:
    """Fraction-free determinant of a square integer matrix.

    Every intermediate value stays an integer; each elimination step divides
    exactly by the previous pivot (Bareiss's one-step condensation).
    """
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (pivot * m[i][j] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def require_unit_determinant(ring: Ring, columns) -> int:
    """Raise NotInvertibleError unless the column matrix is square with a
    determinant that is a unit of the ring.

    Returns the Bareiss determinant of the integer lift: the matrix itself
    over the integers and residue rings, and each rational column scaled by
    the lcm of its denominators over the rationals.
    """
    n = len(columns)
    if any(len(col) != n for col in columns):
        raise NotInvertibleError("matrix is not square")
    if isinstance(ring, RationalRing):
        lifted = []
        for col in columns:
            scale = lcm(*(v.denominator for v in col))
            lifted.append([v.numerator * (scale // v.denominator) for v in col])
    else:
        lifted = columns
    # Bareiss reads the columns as rows: the transpose has the same determinant
    det = bareiss_determinant(lifted)
    if not ring.is_unit(ring.normalize(det)):
        raise NotInvertibleError(
            f"determinant {ring.format(ring.normalize(det))} is not a unit of {ring!r}"
        )
    return det


def invert_columns(ring: Ring, columns):
    """Exact two-sided inverse of a square column matrix over the ring.

    Gauss-Jordan over the rationals on the rows of [A | I], each held as a
    {column: nonzero} dict.  The pivot of column k is the first row at or
    below k with a nonzero there.  The signed product of the pivots is the
    determinant (outside the rationals, the exact integer one), and
    NotInvertibleError is raised unless it is a unit of the ring.
    """
    n = len(columns)
    if any(len(col) != n for col in columns):
        raise NotInvertibleError("matrix is not square")
    # rows[i] holds row i of A under keys 0..n-1 and of I under keys n..2n-1
    rows = [{n + i: Fraction(1)} for i in range(n)]
    for j, col in enumerate(columns):
        for i, v in enumerate(col):
            if v:
                rows[i][j] = Fraction(v)
    det = Fraction(1)
    for k in range(n):
        p = next((r for r in range(k, n) if k in rows[r]), None)
        if p is None:
            det = Fraction(0)
            break
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            det = -det
        pivot_row = rows[k]
        pivot = pivot_row.pop(k)
        det *= pivot
        if pivot != 1:
            for c in pivot_row:
                pivot_row[c] /= pivot
        for row in rows:
            factor = row.pop(k, None)  # None on the pivot row, popped above
            if factor is None:
                continue
            for c, w in pivot_row.items():
                v = row.get(c, 0) - factor * w
                if v:
                    row[c] = v
                else:
                    del row[c]
    rational = isinstance(ring, RationalRing)
    # outside the rationals the input is integral, and so is det
    residue = ring.normalize(det if rational else det.numerator)
    scale = ring.try_invert(residue)
    if scale is None:
        raise NotInvertibleError(
            f"determinant {ring.format(residue)} is not a unit of {ring!r}"
        )
    inverse = [[ring.zero] * n for _ in range(n)]
    for i, row in enumerate(rows):
        for c, v in row.items():
            if not rational:
                # v * det is an entry of the integral adjugate; divide by det
                # in the ring
                v = ring.normalize(v.numerator * (det.numerator // v.denominator) * scale)
            inverse[c - n][i] = v
    return inverse
