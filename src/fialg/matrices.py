"""Exact dense matrix kernels used by the linear-map layer.

Matrices are lists of columns (column[j][i] is the (i, j) entry), matching
how linear maps store basis images.  require_unit_determinant is the one
invertibility test: Bareiss's fraction-free elimination computes the
determinant of an integer lift of the matrix, and the matrix is refused
unless that determinant is a unit of the ring.  invert_columns runs it first,
then inverts by exact elimination over the rationals; over the integers and
residue rings it scales the integral adjugate by the inverted determinant.
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


def _gauss_jordan_inverse(rows):
    """Exact inverse over the rationals of a nonsingular matrix.

    Input rows may be ints or Fractions; output rows are Fractions.
    """
    n = len(rows)
    a = [[Fraction(v) for v in row] for row in rows]
    inv = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot_row = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[pivot_row] = a[pivot_row], a[col]
        inv[col], inv[pivot_row] = inv[pivot_row], inv[col]
        pivot = a[col][col]
        if pivot != 1:
            a[col] = [v / pivot for v in a[col]]
            inv[col] = [v / pivot for v in inv[col]]
        for r in range(n):
            if r != col and a[r][col]:
                factor = a[r][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
                inv[r] = [v - factor * w for v, w in zip(inv[r], inv[col])]
    return inv


def invert_columns(ring: Ring, columns):
    """Exact two-sided inverse of a square column matrix over the ring.

    Raises NotInvertibleError unless the determinant is a unit.
    """
    det = require_unit_determinant(ring, columns)
    n = len(columns)
    rows = [[columns[j][i] for j in range(n)] for i in range(n)]
    inv_rows = _gauss_jordan_inverse(rows)
    if isinstance(ring, RationalRing):
        return [[inv_rows[i][j] for i in range(n)] for j in range(n)]
    # det * A^-1 is the integral adjugate, which reduces to the adjugate of
    # the matrix over the integers or mod n; invert det once and scale it.
    inv_det = ring.invert(ring.normalize(det))
    return [
        [ring.normalize(int(inv_rows[i][j] * det) * inv_det) for i in range(n)]
        for j in range(n)
    ]
