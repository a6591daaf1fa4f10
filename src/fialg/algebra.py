"""The incidence algebra of a finite poset, in two coordinate systems.

FinSeries is the sparse form: a finitely supported function on comparable
pairs, multiplied by convolution over intervals.  StructAlgebra is the same
algebra (or any other finite-dimensional one) presented by an ordered basis
and structure constants, which is the form the linear-map layer works in.
incidence_algebra() builds the structure-constant presentation of FinSeries
together with exact coordinate maps both ways.

For a finite poset every series has finite support, so the full function
algebra and its finitely-supported subalgebra coincide; there is only one
series type here.
"""

from __future__ import annotations

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
from .matrices import _sparse_image, invert_columns
from .posets import Poset
from .rings import Ring


@dataclass(frozen=True, eq=True)
class FinSeries:
    """A sparse function on the comparable pairs of a poset.

    coeffs maps index pairs (i, j) with elements[i] <= elements[j] to nonzero
    ring payloads.  Zeros are dropped eagerly by every constructor and
    operation, so == is both representation and mathematical equality.
    """

    poset: Poset
    ring: Ring
    coeffs: dict

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, poset: Poset, ring: Ring) -> "FinSeries":
        return cls(poset, ring, {})

    @classmethod
    def delta(cls, poset: Poset, ring: Ring) -> "FinSeries":
        """The convolution identity: 1 on the diagonal."""
        return cls(poset, ring, {(i, i): ring.one for i in range(poset.size)})

    @classmethod
    def unit(cls, poset: Poset, ring: Ring, x: str, y: str) -> "FinSeries":
        """The matrix unit e_xy; requires x <= y."""
        i, j = poset.index(x), poset.index(y)
        if not poset.relation[i][j]:
            raise NotComparableError(f"{x!r} <= {y!r} does not hold")
        return cls(poset, ring, {(i, j): ring.one})

    @classmethod
    def subset_idempotent(cls, poset: Poset, ring: Ring, labels: Iterable[str]) -> "FinSeries":
        """e_Y: the diagonal idempotent supported on a subset of elements."""
        idx = sorted({poset.index(x) for x in labels})
        return cls(poset, ring, {(i, i): ring.one for i in idx})

    @classmethod
    def zeta(cls, poset: Poset, ring: Ring) -> "FinSeries":
        """1 on every comparable pair."""
        return cls(poset, ring, {p: ring.one for p in poset.comparable_index_pairs()})

    @classmethod
    def from_entries(cls, poset: Poset, ring: Ring, entries: Mapping) -> "FinSeries":
        """Build from {(x_label, y_label): value}; validates labels and
        comparability, normalizes payloads, drops zeros."""
        coeffs = {}
        for (x, y), raw in entries.items():
            i, j = poset.index(x), poset.index(y)
            if not poset.relation[i][j]:
                raise NotComparableError(f"{x!r} <= {y!r} does not hold")
            v = ring.normalize(raw)
            if not ring.is_zero(v):
                coeffs[(i, j)] = v
        return cls(poset, ring, coeffs)

    # -- queries --------------------------------------------------------------

    def get(self, x: str, y: str):
        """The coefficient at (x, y); zero off the support, but the pair must
        still be comparable to be a meaningful address."""
        i, j = self.poset.index(x), self.poset.index(y)
        if not self.poset.relation[i][j]:
            raise NotComparableError(f"{x!r} <= {y!r} does not hold")
        return self.coeffs.get((i, j), self.ring.zero)

    def entries(self):
        """Support as (x_label, y_label, value), sorted by index pair."""
        for (i, j) in sorted(self.coeffs):
            yield self.poset.elements[i], self.poset.elements[j], self.coeffs[(i, j)]

    def is_diagonal(self) -> bool:
        return all(i == j for (i, j) in self.coeffs)

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
        other = self._peer(other)
        ring = self.ring
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            s = ring.add(out.get(k, ring.zero), v)
            if ring.is_zero(s):
                out.pop(k, None)
            else:
                out[k] = s
        return FinSeries(self.poset, ring, out)

    def __neg__(self):
        neg = self.ring.neg
        return FinSeries(self.poset, self.ring, {k: neg(v) for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._peer(other))

    def scale(self, r) -> "FinSeries":
        ring = self.ring
        r = ring.normalize(r)
        out = {}
        for k, v in self.coeffs.items():
            w = ring.mul(r, v)
            if not ring.is_zero(w):
                out[k] = w
        return FinSeries(self.poset, ring, out)

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
        return FinSeries(
            self.poset, ring, {k: v for k, v in acc.items() if not ring.is_zero(v)}
        )

    # -- the structure maps the decomposition engine leans on ------------------

    def split_diag(self):
        """f = f_D + f_Z: the diagonal part and the strictly-upper part.
        The diagonal parts form a commutative subalgebra, the strict parts a
        two-sided ideal."""
        diag = {k: v for k, v in self.coeffs.items() if k[0] == k[1]}
        strict = {k: v for k, v in self.coeffs.items() if k[0] != k[1]}
        return (
            FinSeries(self.poset, self.ring, diag),
            FinSeries(self.poset, self.ring, strict),
        )

    def truncate(self, x: str, mode: str) -> "FinSeries":
        """Row/column slice at x: mode "above" keeps entries (x, v) with
        v > x; mode "below" keeps entries (u, x) with u < x."""
        i = self.poset.index(x)
        if mode == "above":
            kept = {k: v for k, v in self.coeffs.items() if k[0] == i and k[1] != i}
        elif mode == "below":
            kept = {k: v for k, v in self.coeffs.items() if k[1] == i and k[0] != i}
        else:
            raise FialgError(f'truncate mode must be "above" or "below", got {mode!r}')
        return FinSeries(self.poset, self.ring, kept)

    def sandwich(self, x: str, y: str) -> "FinSeries":
        """e_x * f * e_y in closed form: f(x,y) e_xy when x <= y, else 0."""
        i, j = self.poset.index(x), self.poset.index(y)
        if not self.poset.relation[i][j]:
            return FinSeries.zero(self.poset, self.ring)
        c = self.coeffs.get((i, j))
        if c is None:
            return FinSeries.zero(self.poset, self.ring)
        return FinSeries(self.poset, self.ring, {(i, j): c})

    def inverse(self) -> "FinSeries":
        """Convolution inverse; exists iff every diagonal entry is a unit.

        Solved by the triangular recursion
        v(x,x) = u(x,x)^-1,
        v(x,y) = -u(x,x)^-1 * sum over x < z <= y of u(x,z) v(z,y).
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
        add, mul, neg = ring.add, ring.mul, ring.neg
        memo: dict = {}

        def v(i: int, j: int):
            if i == j:
                return diag_inv[i]
            key = (i, j)
            if key in memo:
                return memo[key]
            s = ring.zero
            for z in range(n):
                if z != i and poset.relation[i][z] and poset.relation[z][j]:
                    u_iz = self.coeffs.get((i, z))
                    if u_iz is not None:
                        s = add(s, mul(u_iz, v(z, j)))
            val = neg(mul(diag_inv[i], s))
            memo[key] = val
            return val

        out = {}
        for (i, j) in poset.comparable_index_pairs():
            val = v(i, j)
            if not ring.is_zero(val):
                out[(i, j)] = val
        return FinSeries(poset, ring, out)

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "entries": [
                {"x": x, "y": y, "value": self.ring.format(v)}
                for x, y, v in self.entries()
            ]
        }

    @classmethod
    def from_json(cls, poset: Poset, ring: Ring, obj) -> "FinSeries":
        if not isinstance(obj, dict) or not isinstance(obj.get("entries"), list):
            raise FialgError(f"not a series description: {obj!r}")
        entries: dict = {}
        for e in obj["entries"]:
            if not (
                isinstance(e, dict)
                and {"x", "y", "value"} <= e.keys()
                and isinstance(e["x"], str)
                and isinstance(e["y"], str)
            ):
                raise FialgError(
                    f"series entries must be {{x, y, value}} objects with "
                    f"string labels: {e!r}"
                )
            key = (e["x"], e["y"])
            if key in entries:
                raise FialgError(f"duplicate series entry at {key}")
            entries[key] = ring.parse(e["value"])
        return cls.from_entries(poset, ring, entries)


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

    def label_pair(self, k: int) -> tuple[str, str]:
        i, j = self.pairs[k]
        return self.poset.elements[i], self.poset.elements[j]

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
    pairs.  Construction checks only the table's shape: the two builders,
    incidence_algebra() and change_basis(), produce unital associative
    tables by construction.  multiply() takes and returns dense coordinate
    lists; multiply_sparse() takes and returns {index: nonzero payload}
    dicts and touches only the nonzero coordinates and cells.
    """

    def __init__(self, ring: Ring, cells, identity, basis: AlgBasis | None = None):
        self.ring = ring
        self.cells = tuple(tuple(tuple(cell) for cell in row) for row in cells)
        self.identity = tuple(identity)
        self.dimension = len(self.identity)
        self.basis = basis
        if len(self.cells) != self.dimension or any(
            len(row) != self.dimension for row in self.cells
        ):
            raise FialgError("structure-constant table shape mismatch")

    def unit_vector(self, k: int) -> tuple:
        return tuple(
            self.ring.one if i == k else self.ring.zero for i in range(self.dimension)
        )

    def multiply(self, u, v) -> list:
        """Product of two coordinate vectors."""
        ring = self.ring
        add, mul = ring.add, ring.mul
        out = [ring.zero] * self.dimension
        cells = self.cells
        for i, a in enumerate(u):
            if not a:
                continue
            row = cells[i]
            for j, b in enumerate(v):
                if not b:
                    continue
                cell = row[j]
                if not cell:
                    continue
                ab = mul(a, b)
                for k, c in cell:
                    out[k] = add(out[k], mul(ab, c))
        return out

    def multiply_sparse(self, u: dict, v: dict) -> dict:
        """Product of two vectors held as {index: nonzero payload}, with the
        zeros of the result dropped, so that == on the dicts is equality of
        the vectors.  The work is nonzeros of u x nonzeros of v x cell size:
        sparse accumulation (Gustavson 1978)."""
        ring = self.ring
        add, mul = ring.add, ring.mul
        cells = self.cells
        out: dict = {}
        for i, a in u.items():
            row = cells[i]
            for j, b in v.items():
                cell = row[j]
                if not cell:
                    continue
                ab = mul(a, b)
                for k, c in cell:
                    w = mul(ab, c)
                    out[k] = add(out[k], w) if k in out else w
        return {k: w for k, w in out.items() if w}

    def dense(self, vec: dict) -> list:
        """The coordinate list of a vector held as {index: nonzero payload}."""
        zero = self.ring.zero
        return [vec.get(k, zero) for k in range(self.dimension)]

    def basis_product(self, i: int, j: int) -> list:
        out = [self.ring.zero] * self.dimension
        for k, c in self.cells[i][j]:
            out[k] = c
        return out

    # -- coordinate maps for incidence models ----------------------------------

    def element_from_series(self, f: FinSeries) -> "AlgElem":
        if self.basis is None:
            raise ContextMismatchError("algebra carries no incidence basis")
        if f.poset != self.basis.poset or f.ring != self.ring:
            raise ContextMismatchError("series does not match this algebra")
        coords = [self.ring.zero] * self.dimension
        for key, v in f.coeffs.items():
            coords[self.basis.index_of[key]] = v
        return AlgElem(self, tuple(coords))

    def series_from_element(self, a: "AlgElem") -> FinSeries:
        if self.basis is None:
            raise ContextMismatchError("algebra carries no incidence basis")
        if a.algebra is not self and a.algebra != self:
            raise ContextMismatchError("element does not live in this algebra")
        ring = self.ring
        coeffs = {}
        for k, v in enumerate(a.coords):
            if not ring.is_zero(v):
                coeffs[self.basis.pairs[k]] = v
        return FinSeries(self.basis.poset, ring, coeffs)

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


@dataclass(frozen=True)
class AlgElem:
    """An element of a StructAlgebra, as an immutable coordinate vector."""

    algebra: StructAlgebra
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != self.algebra.dimension:
            raise ContextMismatchError(
                f"{len(self.coords)} coordinates for an algebra of dimension "
                f"{self.algebra.dimension}"
            )

    def _peer(self, other: "AlgElem") -> "AlgElem":
        if not isinstance(other, AlgElem):
            raise TypeError(f"expected AlgElem, got {type(other).__name__}")
        if other.algebra is not self.algebra and other.algebra != self.algebra:
            raise ContextMismatchError("elements live in different algebras")
        return other

    def __add__(self, other):
        other = self._peer(other)
        add = self.algebra.ring.add
        return AlgElem(
            self.algebra, tuple(add(a, b) for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self):
        neg = self.algebra.ring.neg
        return AlgElem(self.algebra, tuple(neg(a) for a in self.coords))

    def __sub__(self, other):
        other = self._peer(other)
        sub = self.algebra.ring.sub
        return AlgElem(
            self.algebra, tuple(sub(a, b) for a, b in zip(self.coords, other.coords))
        )

    def __mul__(self, other):
        other = self._peer(other)
        return AlgElem(
            self.algebra, tuple(self.algebra.multiply(self.coords, other.coords))
        )

    def scale(self, r) -> "AlgElem":
        ring = self.algebra.ring
        r = ring.normalize(r)
        return AlgElem(self.algebra, tuple(ring.mul(r, a) for a in self.coords))

    def is_zero(self) -> bool:
        ring = self.algebra.ring
        return all(ring.is_zero(a) for a in self.coords)


def sparse_vector(coords) -> dict:
    """The {index: nonzero payload} form of a coordinate vector, as
    StructAlgebra.multiply_sparse takes it."""
    return {k: a for k, a in enumerate(coords) if a}


@lru_cache(maxsize=None)
def incidence_algebra(poset: Poset, ring: Ring) -> StructAlgebra:
    """The structure-constant presentation of the incidence algebra, with its
    unit basis attached (so series convert to coordinates and back exactly).

    Cached per (poset, ring): all callers share one algebra object.
    """
    basis = AlgBasis(poset)
    d = basis.dimension
    index_of = basis.index_of
    cells = []
    for (x, y) in basis.pairs:
        row = []
        for (u, v) in basis.pairs:
            if y == u:
                # e_xy * e_yv = e_xv; x <= v holds by transitivity.
                row.append(((index_of[(x, v)], ring.one),))
            else:
                row.append(())
        cells.append(tuple(row))
    identity = [
        ring.one if k < basis.diagonal_count else ring.zero for k in range(d)
    ]
    return StructAlgebra(ring, tuple(cells), identity, basis=basis)


def change_basis(algebra: StructAlgebra, new_basis_columns) -> StructAlgebra:
    """The same algebra presented over a new basis.

    new_basis_columns[j] holds the old coordinates of the j-th new basis
    vector; the column matrix must be invertible over the ring.  The result
    carries no incidence basis — it is a generic StructAlgebra.  It costs one
    invert_columns, then works on the nonzeros: cell (i, j) is the
    multiply_sparse product of new basis vectors i and j, mapped through the
    inverse's {index: nonzero} columns, so a zero product costs one check.
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
    basis = [sparse_vector(c) for c in cols]
    inverse = invert_columns(ring, basis, d)

    def transported(w: dict) -> tuple:
        return tuple(sorted(_sparse_image(ring, inverse, w.items()).items())) if w else ()

    multiply = algebra.multiply_sparse
    cells = [[transported(multiply(u, v)) for v in basis] for u in basis]
    one = sparse_vector(algebra.identity)
    identity = algebra.dense(_sparse_image(ring, inverse, one.items()))
    return StructAlgebra(ring, cells, identity, basis=None), inverse


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
        if rng.random() < density:
            v = ring.sample(rng)
            if not ring.is_zero(v):
                coeffs[(i, j)] = v
    return FinSeries(poset, ring, coeffs)
