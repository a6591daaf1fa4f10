"""Exact matrix kernels used by the linear-map layer.

Matrices are lists of columns, the images of basis vectors, each held as an
{index: nonzero} dict, as LinMap stores them.  mat_vec, the one
matrix-vector kernel, sums the columns a sparse vector touches (Gustavson's
sparse accumulation), so a zero coordinate costs nothing.

Both invertibility kernels run one elimination loop over the rationals on
sparse rows, {column: nonzero} dicts, since the pipeline's matrices (Jordan
maps, basis changes) are mostly zeros; the shortest candidate row is the
pivot, which keeps the rows sparse on twisted codomains.  The signed product
of the pivots is the determinant that decides invertibility.
require_unit_determinant eliminates forward only; invert_columns reduces
above the pivots too (Gauss-Jordan) and reads the inverse off the rows.
certifies_unit_determinant runs the same forward loop in the ring's own
arithmetic, integers or residues, and only certifies: it accepts when each
column finds a unit pivot and declines otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import NotInvertibleError
from .rings import RationalRing, Ring


def mat_vec(ring: Ring, columns, pairs) -> dict:
    """The image of the vector with these (index, nonzero payload) pairs
    under the map with the given columns, all held as {index: nonzero
    payload}: a combination of the columns the vector touches."""
    add, mul = ring.add, ring.mul
    out: dict = {}
    for j, a in pairs:
        for i, c in columns[j].items():
            w = mul(a, c)
            out[i] = add(out[i], w) if i in out else w
    return {k: w for k, w in out.items() if w}


def _eliminate(rows, reduce_above: bool) -> Fraction:
    """Gaussian elimination in place on n rows, {column: nonzero Fraction}
    dicts, over the columns 0..n-1.  The pivot of column k, the shortest row
    at or below k with a nonzero there, is swapped into place k, scaled to 1
    (its pivot entry dropped) and cleared out of the rows below, and above
    with reduce_above.  Returns the signed product of the pivots, the
    determinant, or 0 at the first column without a pivot."""
    n = len(rows)
    det = Fraction(1)
    for k in range(n):
        candidates = [r for r in range(k, n) if k in rows[r]]
        if not candidates:
            return Fraction(0)
        p = min(candidates, key=lambda r: len(rows[r]))
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            det = -det
        pivot_row = rows[k]
        pivot = pivot_row.pop(k)
        det *= pivot
        if pivot != 1:
            for c in pivot_row:
                pivot_row[c] /= pivot
        for r in range(0 if reduce_above else k + 1, n):
            row = rows[r]
            factor = row.pop(k, None)  # None on the pivot row, popped above
            if factor is None:
                continue
            for c, w in pivot_row.items():
                v = row.get(c, 0) - factor * w
                if v:
                    row[c] = v
                else:
                    del row[c]
    return det


# A rational matrix whose integer lift is nonsingular mod this prime is
# nonsingular, so its determinant is a unit; a large prime makes a needless
# decline, a nonzero determinant divisible by it, rare.
_CERTIFYING_PRIME = 2**61 - 1


def certifies_unit_determinant(ring: Ring, columns, height: int) -> bool:
    """True only when the matrix of these {index: nonzero} columns of the
    given height is square with a unit determinant, decided in the ring's
    own arithmetic, without Fractions; False declines, and
    require_unit_determinant decides.

    The columns are eliminated forward as rows, on integers mod q: the
    residues mod n over Z/n, the integers themselves over Z (q = 0), and over
    the rationals the integer lift (each column scaled by the lcm of its
    denominators) mod _CERTIFYING_PRIME.  Column k's pivot is the shortest
    row at or below k whose entry there is a unit mod q, gcd(v, q) = 1: any
    nonzero mod the prime, 1 or -1 over Z.  A column without one runs
    Euclid's algorithm on its entries by row operations first, down to a
    unit or to one row left.  Row swaps and additions only change the
    determinant's sign, so a unit pivot in every column makes it a unit.  A
    non-square matrix, or a column whose entries' gcd is not a unit,
    declines; over Z and Z/n that determinant is not a unit either.
    """
    n = len(columns)
    if height != n:
        return False
    if isinstance(ring, RationalRing):
        q = _CERTIFYING_PRIME
        rows = []
        for col in columns:
            scale = lcm(*(v.denominator for v in col.values()))
            lift = (v.numerator * (scale // v.denominator) % q for v in col.values())
            rows.append({i: v for i, v in zip(col, lift) if v})
    else:
        q = ring.characteristic
        rows = [dict(col) for col in columns]
    for k in range(n):
        while True:
            found = [r for r in range(k, n) if k in rows[r]]
            units = [r for r in found if gcd(rows[r][k], q) == 1]
            if units:
                p = min(units, key=lambda r: len(rows[r]))
                break
            if len(found) < 2:
                return False
            # the smallest entry leaves each other row its remainder
            p = min(found, key=lambda r: abs(rows[r][k]))
            for r in found:
                if r != p:
                    _add_multiple(rows[r], rows[p], -(rows[r][k] // rows[p][k]), q)
        rows[k], rows[p] = rows[p], rows[k]
        pivot_row = rows[k]
        pivot = pivot_row.pop(k)
        inverse = pow(pivot, -1, q) if q else pivot
        for r in range(k + 1, n):
            if (factor := rows[r].pop(k, None)) is not None:
                _add_multiple(rows[r], pivot_row, -factor * inverse, q)
    return True


def _add_multiple(row: dict, source: dict, t: int, q: int) -> None:
    """row += t * source in place, mod q unless q is 0, dropping zeros."""
    for c, w in source.items():
        v = row.get(c, 0) + t * w
        if q:
            v %= q
        if v:
            row[c] = v
        else:
            row.pop(c, None)


def require_unit_determinant(ring: Ring, columns, height: int) -> int:
    """Raise NotInvertibleError unless the matrix of these {index: nonzero}
    columns of the given height is square with a unit determinant.

    Returns the determinant of the integer lift: the matrix itself over the
    integers and residue rings, each rational column scaled by the lcm of its
    denominators over the rationals.  The columns are eliminated as rows, in
    Fractions; certifies_unit_determinant, which callers ask first, decides
    most unit determinants without them but returns no determinant.
    """
    if height != len(columns):
        raise NotInvertibleError("matrix is not square")
    rows = [{i: Fraction(v) for i, v in col.items()} for col in columns]
    # integer entries have denominator 1, so only rational columns scale
    lift = 1
    for row in rows:
        lift *= lcm(*(v.denominator for v in row.values()))
    det = (_eliminate(rows, reduce_above=False) * lift).numerator
    residue = ring.normalize(det)
    if not ring.is_unit(residue):
        raise NotInvertibleError(
            f"determinant {ring.format(residue)} is not a unit of {ring!r}"
        )
    return det


def invert_columns(ring: Ring, columns, height: int) -> list:
    """Exact two-sided inverse, in {index: nonzero} columns, of the square
    matrix with these columns of the given height.

    Gauss-Jordan over the rationals on the rows of [A | I], each held as a
    {column: nonzero} dict.  The signed product of the pivots is the
    determinant (outside the rationals, the exact integer one), and
    NotInvertibleError is raised unless it is a unit of the ring.
    """
    n = len(columns)
    if height != n:
        raise NotInvertibleError("matrix is not square")
    # rows[i] holds row i of A under keys 0..n-1 and of I under keys n..2n-1
    rows = [{n + i: Fraction(1)} for i in range(n)]
    for j, col in enumerate(columns):
        for i, v in col.items():
            rows[i][j] = Fraction(v)
    det = _eliminate(rows, reduce_above=True)
    rational = isinstance(ring, RationalRing)
    # outside the rationals the input is integral, and so is det
    residue = ring.normalize(det if rational else det.numerator)
    scale = ring.try_invert(residue)
    if scale is None:
        raise NotInvertibleError(
            f"determinant {ring.format(residue)} is not a unit of {ring!r}"
        )
    inverse = [{} for _ in range(n)]
    for i, row in enumerate(rows):
        for c, v in row.items():
            if not rational:
                # v * det is an entry of the integral adjugate; divide by det
                # in the ring
                v = ring.normalize(v.numerator * (det.numerator // v.denominator) * scale)
            if v:
                inverse[c - n][i] = v
    return inverse
