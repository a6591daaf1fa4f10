"""Exact matrix kernels used by the linear-map layer.

Matrices are lists of columns, the images of basis vectors, each held as an
{index: nonzero} dict, as LinMap stores them.  mat_vec, the one
matrix-vector kernel, sums the columns a sparse vector touches (Gustavson's
sparse accumulation), so a zero coordinate costs nothing.

Both invertibility kernels run one elimination loop, _eliminate, on sparse
rows, {column: nonzero} dicts, in the ring's own arithmetic, since the
pipeline's matrices (Jordan maps, basis changes) are mostly zeros.  The
signed product of its pivots is the determinant that decides invertibility.
Every payload operation, Euclid's size and step too, is the ring's.
require_unit_determinant eliminates forward only, first on the integer lift
(Ring.lift) in the ring's screen if it has one; invert_columns reduces above
the pivots too (Gauss-Jordan on [A | I]) and reads the inverse off the rows.
_add_multiple, row += t * source, is the one sparse row operation, which
random_basis_change's column shears use too.
"""

from __future__ import annotations

from .errors import NotInvertibleError
from .rings import Ring


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


def _eliminate(ring: Ring, rows, reduce_above: bool):
    """Gaussian elimination in place, in the ring's arithmetic, on n rows,
    {column: nonzero payload} dicts, over the columns 0..n-1.  Returns the
    determinant: row swaps flip its sign, adding a multiple of one row to
    another keeps it, and what is left is triangular.

    Column k's pivot row (_pivot) is swapped into place k and its pivot
    entry popped into the determinant.  A unit pivot is cleared out of the
    rows below, and with reduce_above its row is scaled to 1 and it is
    cleared out of the rows above too.  A pivot that is not a unit is alone
    in its column at or below k, so the loop goes on past it and the
    determinant stays exact.  A column without entries makes it 0.
    """
    n = len(rows)
    mul, neg = ring.mul, ring.neg
    det = ring.one
    for k in range(n):
        p, inverse = _pivot(ring, rows, k)
        if p is None:
            return ring.zero
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            det = neg(det)
        pivot_row = rows[k]
        det = mul(det, pivot_row.pop(k))
        if inverse is None:
            continue
        if reduce_above:
            for c, w in pivot_row.items():
                pivot_row[c] = mul(w, inverse)
            inverse = ring.one
        for r in range(0 if reduce_above else k + 1, n):
            row = rows[r]
            factor = row.pop(k, None)  # None on the pivot row, popped above
            if factor is None:
                continue
            _add_multiple(ring, row, pivot_row, neg(mul(factor, inverse)))
    return det


def _pivot(ring: Ring, rows, k: int):
    """Column k's pivot: the shortest row at or below k whose entry there is
    a unit, and that entry's inverse.  When no entry is a unit, Euclid's
    algorithm on the column by row operations, in the ring's euclid_size and
    euclid_step, runs first, down to a unit or to one row, which is returned
    with None for the inverse; (None, None) for a column without entries."""
    n, size, step = len(rows), ring.euclid_size, ring.euclid_step
    while True:
        found = [r for r in range(k, n) if k in rows[r]]
        found.sort(key=lambda r: len(rows[r]))
        for r in found:
            inverse = ring.try_invert(rows[r][k])
            if inverse is not None:
                return r, inverse
        if len(found) < 2:
            return (found[0] if found else None), None
        # the smallest entry leaves each other row its remainder
        p = min(found, key=lambda r: size(rows[r][k]))
        for r in found:
            if r != p:
                _add_multiple(ring, rows[r], rows[p], step(rows[r][k], rows[p][k]))


def _add_multiple(ring: Ring, row: dict, source: dict, t) -> None:
    """row += t * source in place, dropping zeros."""
    add, mul = ring.add, ring.mul
    for c, w in source.items():
        v = add(row[c], mul(t, w)) if c in row else mul(t, w)
        if v:
            row[c] = v
        else:
            row.pop(c, None)


def _require_unit(ring: Ring, det) -> None:
    if not ring.is_unit(det):
        raise NotInvertibleError(
            f"determinant {ring.format(det)} is not a unit of {ring!r}"
        )


def require_unit_determinant(ring: Ring, columns, height: int) -> None:
    """Raise NotInvertibleError unless the matrix of these {index: nonzero}
    columns of the given height is square with a unit determinant.

    The columns are eliminated forward as rows, in the ring's arithmetic:
    integers over Z, residues over Z/n.  A ring with a screen (Q's is the
    prime field of 2^61 - 1) first has the integer lift (ring.lift: each
    column's numerators over the lcm of its denominators) eliminated there;
    a nonzero determinant in the screen makes the ring's a unit, and only a
    zero one eliminates the ring's payloads themselves, so that a refusal
    over Q always reads determinant 0.
    """
    if height != len(columns):
        raise NotInvertibleError("matrix is not square")
    screen = ring.screen
    if screen is not None:
        lifted = [screen.reduce(ring.lift(col)[0], 1) for col in columns]
        if _eliminate(screen, lifted, reduce_above=False):
            return
    _require_unit(ring, _eliminate(ring, [dict(col) for col in columns], reduce_above=False))


def invert_columns(ring: Ring, columns, height: int) -> list:
    """Exact two-sided inverse, in {index: nonzero} columns, of the square
    matrix with these columns of the given height.

    Gauss-Jordan in the ring on the rows of [A | I], each held as a
    {column: nonzero} dict; NotInvertibleError unless the determinant, the
    signed product of the pivots, is a unit of the ring.
    """
    n = len(columns)
    if height != n:
        raise NotInvertibleError("matrix is not square")
    # rows[i] holds row i of A under keys 0..n-1 and of I under keys n..2n-1
    rows = [{n + i: ring.one} for i in range(n)]
    for j, col in enumerate(columns):
        for i, v in col.items():
            rows[i][j] = v
    _require_unit(ring, _eliminate(ring, rows, reduce_above=True))
    inverse = [{} for _ in range(n)]
    for i, row in enumerate(rows):
        for c, v in row.items():
            inverse[c - n][i] = v
    return inverse
