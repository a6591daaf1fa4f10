"""The incidence algebra of a finite poset, in two coordinate systems.

FinSeries is the sparse form: a finitely supported function on comparable
pairs, multiplied by convolution over intervals.  StructAlgebra is the same
algebra (or any other finite-dimensional one) presented by an ordered basis
and structure constants, which is the form the linear-map layer works in.
incidence_algebra() builds the structure-constant presentation of FinSeries
with its unit basis attached, so element_from_series() maps a series to its
coordinate tuple exactly; it is the one builder that attaches a basis.

Each type has one checking door, as LinMap does.  FinSeries(...) checks every
key and StructAlgebra(...) every cell index and the identity and associative
laws on the basis; both send every payload through ring.normalize and drop
zeros.  StructAlgebra(...) builds a generic algebra, with no incidence basis.
The builders inside the package, which already hold canonical payloads, use
FinSeries._of and StructAlgebra._of_tuples and are not checked again.

For a finite poset every series has finite support, so the full function
algebra and its finitely-supported subalgebra coincide; there is only one
series type here.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping

from .errors import (
    ContextMismatchError,
    FialgError,
    NotAUnitError,
    NotComparableError,
)
from .matrices import invert_columns, mat_vec
from .posets import Poset
from .rings import Ring


@dataclass(frozen=True, eq=True, init=False)
class FinSeries:
    """A sparse function on the comparable pairs of a poset.

    coeffs maps index pairs (i, j) with elements[i] <= elements[j] to nonzero
    ring payloads.  Zeros are dropped eagerly by every constructor and
    operation, so == is both representation and mathematical equality.
    FinSeries(poset, ring, coeffs) is the checking door: each key must be
    such an index pair, and each payload passes ring.normalize.
    """

    poset: Poset
    ring: Ring
    coeffs: dict

    def __init__(self, poset: Poset, ring: Ring, coeffs: Mapping):
        n, normalize, kept = poset.size, ring.normalize, {}
        for key, raw in coeffs.items():
            if not (isinstance(key, tuple) and len(key) == 2
                    and all(type(i) is int and 0 <= i < n for i in key)):
                raise FialgError(f"not an index pair of a {n}-element poset: {key!r}")
            _require_comparable(poset, *key)
            if v := normalize(raw):
                kept[key] = v
        self.__dict__.update(poset=poset, ring=ring, coeffs=kept)

    @classmethod
    def _of(cls, poset: Poset, ring: Ring, coeffs: dict) -> "FinSeries":
        """The series with these coefficients, comparable index pairs to
        nonzero canonical payloads, as the package's builders make them; not
        checked or normalized again."""
        f = cls.__new__(cls)
        f.__dict__.update(poset=poset, ring=ring, coeffs=coeffs)
        return f

    # -- constructors ---------------------------------------------------------

    @classmethod
    def delta(cls, poset: Poset, ring: Ring) -> "FinSeries":
        """The convolution identity: 1 on the diagonal."""
        return cls._of(poset, ring, {(i, i): ring.one for i in range(poset.size)})

    @classmethod
    def unit(cls, poset: Poset, ring: Ring, x: str, y: str) -> "FinSeries":
        """The matrix unit e_xy; requires x <= y."""
        return cls(poset, ring, {(poset.index(x), poset.index(y)): ring.one})

    @classmethod
    def subset_idempotent(cls, poset: Poset, ring: Ring, labels: Iterable[str]) -> "FinSeries":
        """e_Y: the diagonal idempotent supported on a subset of elements."""
        idx = sorted({poset.index(x) for x in labels})
        return cls._of(poset, ring, {(i, i): ring.one for i in idx})

    @classmethod
    def zeta(cls, poset: Poset, ring: Ring) -> "FinSeries":
        """1 on every comparable pair."""
        return cls._of(poset, ring, {p: ring.one for p in poset.comparable_index_pairs()})

    @classmethod
    def from_entries(cls, poset: Poset, ring: Ring, entries: Mapping) -> "FinSeries":
        """Build from {(x_label, y_label): value}, through the checking door."""
        index = poset.index
        return cls(poset, ring, {(index(x), index(y)): v for (x, y), v in entries.items()})

    # -- queries --------------------------------------------------------------

    def get(self, x: str, y: str):
        """The coefficient at (x, y); zero off the support, but the pair must
        still be comparable to be a meaningful address."""
        i, j = self.poset.index(x), self.poset.index(y)
        _require_comparable(self.poset, i, j)
        return self.coeffs.get((i, j), self.ring.zero)

    def entries(self):
        """Support as (x_label, y_label, value), sorted by index pair."""
        for (i, j) in sorted(self.coeffs):
            yield self.poset.elements[i], self.poset.elements[j], self.coeffs[(i, j)]

    def is_strict(self) -> bool:
        return all(i != j for (i, j) in self.coeffs)

    # -- arithmetic -----------------------------------------------------------

    def _peer(self, other: "FinSeries") -> "FinSeries":
        if not isinstance(other, FinSeries):
            raise TypeError(f"expected FinSeries, got {type(other).__name__}")
        if other.poset != self.poset or other.ring != self.ring:
            raise ContextMismatchError(
                "series live over different posets or rings"
            )
        return other

    def __add__(self, other):
        coeffs = _sparse_add(self.ring, self.coeffs, self._peer(other).coeffs)
        return FinSeries._of(self.poset, self.ring, coeffs)

    def __neg__(self):
        neg = self.ring.neg
        return FinSeries._of(self.poset, self.ring, {k: neg(v) for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._peer(other))

    def scale(self, r) -> "FinSeries":
        r, mul = self.ring.normalize(r), self.ring.mul
        out = {k: w for k, v in self.coeffs.items() if (w := mul(r, v))}
        return FinSeries._of(self.poset, self.ring, out)

    def __mul__(self, other):
        """Convolution: (fg)(x, y) = sum over x <= z <= y of f(x,z) g(z,y)."""
        other = self._peer(other)
        ring = self.ring
        add, mul = ring.add, ring.mul
        rows: dict[int, list] = {}
        for (z, y), v in other.coeffs.items():
            rows.setdefault(z, []).append((y, v))
        acc: dict = {}
        for (x, z), u in self.coeffs.items():
            for (y, v) in rows.get(z, ()):
                key = (x, y)
                w = mul(u, v)
                if key in acc:
                    acc[key] = add(acc[key], w)
                else:
                    acc[key] = w
        return FinSeries._of(self.poset, ring, {k: v for k, v in acc.items() if v})

    # -- the structure maps the decomposition engine leans on ------------------

    def split_diag(self):
        """f = f_D + f_Z: the diagonal part and the strictly-upper part.
        The diagonal parts form a commutative subalgebra, the strict parts a
        two-sided ideal."""
        diag = {k: v for k, v in self.coeffs.items() if k[0] == k[1]}
        strict = {k: v for k, v in self.coeffs.items() if k[0] != k[1]}
        return (
            FinSeries._of(self.poset, self.ring, diag),
            FinSeries._of(self.poset, self.ring, strict),
        )

    def inverse(self) -> "FinSeries":
        """Convolution inverse; exists iff every diagonal entry is a unit.

        Solved row by row, v(x, -) = u(x,x)^-1 e_x - sum over x < z of
        u(x,x)^-1 u(x,z) v(z, -), one mat_vec over the solved rows v(z, -)
        that the strict nonzeros of u's row x touch.  Rows are solved in
        ascending up-set size, so each z above x is solved before x, and the
        work is in proportion to the nonzeros met, with no recursion.
        """
        poset, ring = self.poset, self.ring
        n = poset.size
        diag_inv = []
        for i in range(n):
            inv = ring.try_invert(self.coeffs.get((i, i), ring.zero))
            if inv is None:
                raise NotAUnitError(
                    f"series is not invertible: diagonal entry at "
                    f"{poset.elements[i]!r} is not a unit"
                )
            diag_inv.append(inv)
        strict_rows = [[] for _ in range(n)]
        for (i, z), a in self.coeffs.items():
            if i != z:
                strict_rows[i].append((z, a))
        mul, rows = ring.mul, [None] * n
        for i in sorted(range(n), key=[sum(row) for row in poset.relation].__getitem__):
            t = ring.neg(diag_inv[i])
            rows[i] = mat_vec(ring, rows, [(z, mul(t, a)) for z, a in strict_rows[i]])
            rows[i][i] = diag_inv[i]
        pairs = poset.comparable_index_pairs()
        return FinSeries._of(poset, ring, {p: v for p in pairs if (v := rows[p[0]].get(p[1]))})


class AlgBasis:
    """The ordered unit basis of an incidence algebra: diagonal units e_x in
    element order, then strict units e_xy sorted lexicographically by index."""

    def __init__(self, poset: Poset):
        self.poset = poset
        diag = [(i, i) for i in range(poset.size)]
        strict = sorted(poset.strict_index_pairs())
        self.pairs: tuple = tuple(diag + strict)
        self.diagonal_count = poset.size
        self.index_of = {p: k for k, p in enumerate(self.pairs)}

    @property
    def dimension(self) -> int:
        return len(self.pairs)

    def diagonal_indices(self) -> tuple[int, ...]:
        return tuple(range(self.diagonal_count))

    def strict_indices(self) -> tuple[int, ...]:
        return tuple(range(self.diagonal_count, len(self.pairs)))

    def __eq__(self, other):
        return isinstance(other, AlgBasis) and other.poset == self.poset

    def __hash__(self):
        return hash(self.poset)


class StructAlgebra:
    """A finite-dimensional associative unital algebra given by structure
    constants over an ordered basis.

    cells[i][j] lists the nonzero coordinates of b_i * b_j as (k, coeff)
    pairs.  StructAlgebra(...) checks the table's shape and each index k,
    normalizes each coefficient and identity coordinate and drops zero
    coefficients.  It then checks the laws that decompose's certificate
    uses: the identity is two-sided on every basis vector, and every basis
    triple associates, d^3 products paid at this door only.  It attaches no
    basis, since decompose presumes that a domain carrying an AlgBasis is
    that basis's incidence algebra.  The two builders, incidence_algebra(),
    the one that attaches a basis, and change_basis(), produce unital
    associative tables by construction and go through _of_tuples.
    multiply() takes and returns {index: nonzero payload} dicts and touches
    only the nonzero coordinates and cells.
    """

    def __init__(self, ring: Ring, cells, identity):
        normalize = ring.normalize
        identity = tuple(map(normalize, identity))
        d = len(identity)

        def cell(entries) -> tuple:
            out = []
            for k, c in entries:
                if type(k) is not int or not 0 <= k < d:
                    raise FialgError(f"structure-constant index {k!r} is not below {d}")
                if c := normalize(c):
                    out.append((k, c))
            return tuple(out)

        self._take(ring, tuple(tuple(map(cell, row)) for row in cells), identity, None)
        units = [{k: ring.one} for k in range(d)]
        one = sparse_vector(identity)
        for k, b in enumerate(units):
            if self.multiply(one, b) != b or self.multiply(b, one) != b:
                raise FialgError(f"the identity is not two-sided at basis vector {k}")
        products = [[self.multiply(a, b) for b in units] for a in units]
        for i, j, k in itertools.product(range(d), repeat=3):
            if self.multiply(products[i][j], units[k]) != self.multiply(
                units[i], products[j][k]
            ):
                raise FialgError(f"basis triple {(i, j, k)} does not associate")

    @classmethod
    def _of_tuples(cls, ring: Ring, cells: tuple, identity, basis: AlgBasis | None):
        # a builder's table of canonical payloads, tuples throughout, kept as
        # it is: no Θ(d²) copy and no check
        (algebra := cls.__new__(cls))._take(ring, cells, identity, basis)
        return algebra

    def _take(self, ring: Ring, cells: tuple, identity, basis) -> None:
        self.ring, self.cells, self.basis = ring, cells, basis
        self.identity = tuple(identity)
        d = self.dimension = len(self.identity)
        if len(cells) != d or any(len(row) != d for row in cells):
            raise FialgError("structure-constant table shape mismatch")
        self._lifted_cells = ring.lift_table(cells)  # cells itself over Z and Z/n

    def multiply(self, u: dict, v: dict) -> dict:
        """Product of two vectors held as {index: nonzero payload}, with the
        zeros of the result dropped, so that == on the dicts is equality of
        the vectors.  The work is nonzeros of u x nonzeros of v x cell size:
        sparse accumulation (Gustavson 1978), in plain Python ints.  The
        ring lifts u and v to integer numerators over one denominator each
        (over Z and Z/n, u and v themselves over 1), the table is lifted
        once per algebra, and one ring.reduce turns each summed output
        coordinate back into a canonical payload."""
        if not u or not v:
            return {}
        ring = self.ring
        u, du = ring.lift(u)
        v, dv = ring.lift(v)
        cells, dc = self._lifted_cells
        acc: dict = {}
        get = acc.get
        for i, a in u.items():
            row = cells[i]
            for j, b in v.items():
                cell = row[j]
                if cell:
                    ab = a * b
                    for k, c in cell:
                        acc[k] = get(k, 0) + ab * c
        return ring.reduce(acc, du * dv * dc)

    def dense(self, vec: dict) -> list:
        """The coordinate list of a vector held as {index: nonzero payload}."""
        zero = self.ring.zero
        return [vec.get(k, zero) for k in range(self.dimension)]

    # -- the coordinates of a series, in an incidence model ---------------------

    def element_from_series(self, f: FinSeries) -> tuple:
        if self.basis is None:
            raise ContextMismatchError("algebra carries no incidence basis")
        if f.poset != self.basis.poset or f.ring != self.ring:
            raise ContextMismatchError("series does not match this algebra")
        coords = [self.ring.zero] * self.dimension
        for key, v in f.coeffs.items():
            coords[self.basis.index_of[key]] = v
        return tuple(coords)

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, StructAlgebra)
            and other.ring == self.ring
            and other.cells == self.cells
            and other.identity == self.identity
            and other.basis == self.basis
        )

    def __repr__(self):
        tag = "incidence" if self.basis is not None else "generic"
        return f"StructAlgebra({tag}, dim={self.dimension}, ring={self.ring!r})"


def sparse_vector(coords) -> dict:
    """The {index: nonzero payload} form of a coordinate vector, as
    StructAlgebra.multiply takes it."""
    return {k: a for k, a in enumerate(coords) if a}


def _sparse_add(ring, u: dict, *vectors: dict) -> dict:
    """u plus each of vectors, all held as {index: nonzero payload}, with the
    zeros of the sum dropped."""
    add = ring.add
    out = dict(u)
    for v in vectors:
        for k, b in v.items():
            out[k] = add(out[k], b) if k in out else b
    return {k: w for k, w in out.items() if w}


def _require_comparable(poset: Poset, i: int, j: int) -> None:
    if not poset.relation[i][j]:
        x, y = poset.elements[i], poset.elements[j]
        raise NotComparableError(f"{x!r} <= {y!r} does not hold")


@lru_cache(maxsize=None)
def incidence_algebra(poset: Poset, ring: Ring) -> StructAlgebra:
    """The structure-constant presentation of the incidence algebra, with its
    unit basis attached (so series convert to coordinates and back exactly).

    Cached per (poset, ring): all callers share one algebra object.
    """
    basis = AlgBasis(poset)
    d, n = basis.dimension, poset.size
    units_from = [[] for _ in range(n)]  # y -> the units e_yv as (index, v)
    for k, (y, v) in enumerate(basis.pairs):
        units_from[y].append((k, v))
    unit_cell = [{v: ((k, ring.one),) for k, v in units} for units in units_from]
    cells = []
    for (x, y) in basis.pairs:
        row = [()] * d
        cell_to = unit_cell[x]
        for k, v in units_from[y]:
            row[k] = cell_to[v]  # e_xy * e_yv = e_xv, as x <= y <= v
        cells.append(tuple(row))
    identity = [ring.one] * n + [ring.zero] * (d - n)
    return StructAlgebra._of_tuples(ring, tuple(cells), identity, basis)


def change_basis(algebra: StructAlgebra, new_basis_columns) -> StructAlgebra:
    """The same algebra presented over a new basis.

    new_basis_columns[j] holds the old coordinates of the j-th new basis
    vector, each sent through ring.normalize (a float or bool is refused)
    unless it is the ring's own zero object, ring.zero, which is canonical;
    the column matrix must be invertible over the ring.  The result
    carries no incidence basis — it is a generic StructAlgebra.  It costs one
    invert_columns, then works on the nonzeros: cell (i, j) is the
    product of new basis vectors i and j, mapped through the inverse's
    {index: nonzero} columns.  The product is formed only for the j whose
    vector holds an old b with a nonempty cell (a, b) for some old a in
    vector i; every other cell is empty with no product made.
    """
    return _change_basis(algebra, new_basis_columns)[0]


def _change_basis(algebra: StructAlgebra, new_basis_columns):
    """change_basis's algebra, and the inverse of the basis change as
    {index: nonzero} columns, for callers that carry vectors across too."""
    ring = algebra.ring
    d = algebra.dimension
    cols = [list(c) for c in new_basis_columns]
    if len(cols) != d or any(len(c) != d for c in cols):
        raise FialgError("change of basis must be a square matrix of full size")
    # the ring's own zero object is canonical already; any other entry,
    # 0.0 and False included, goes through normalize
    zero, normalize = ring.zero, ring.normalize
    basis = [
        {k: w for k, a in enumerate(c) if a is not zero and (w := normalize(a))}
        for c in cols
    ]
    inverse = invert_columns(ring, basis, d)

    def transported(w: dict) -> tuple:
        return tuple(sorted(mat_vec(ring, inverse, w.items()).items())) if w else ()

    holders = [[] for _ in range(d)]  # old index b -> the new vectors holding it
    for j, v in enumerate(basis):
        for b in v:
            holders[b].append(j)
    rows = _nonempty_cells(algebra)
    multiply = algebra.multiply
    cells = []
    for u in basis:
        # u v is zero unless some a of u and b of v have a nonempty cell
        row = [()] * d
        for j in {j for a in u for b in rows[a] for j in holders[b]}:
            row[j] = transported(multiply(u, basis[j]))
        cells.append(tuple(row))
    one = sparse_vector(algebra.identity)
    identity = algebra.dense(mat_vec(ring, inverse, one.items()))
    return StructAlgebra._of_tuples(ring, tuple(cells), identity, None), inverse


def _nonempty_cells(algebra: StructAlgebra) -> list:
    """For each basis index i, the indices j whose cell (i, j) is nonempty,
    in increasing order: the b_j whose product with b_i can be nonzero."""
    return [[j for j, cell in enumerate(row) if cell] for row in algebra.cells]


def random_series(
    poset: Poset,
    ring: Ring,
    rng: random.Random,
    density: float = 0.5,
    strict_only: bool = False,
) -> FinSeries:
    """A sparse random series with ring-sampled coefficients; with
    strict_only the diagonal is left empty (a sample from the strict ideal)."""
    coeffs = {}
    for (i, j) in poset.comparable_index_pairs():
        if strict_only and i == j:
            continue
        if rng.random() < density and (v := ring.sample(rng)):
            coeffs[(i, j)] = v
    return FinSeries._of(poset, ring, coeffs)
