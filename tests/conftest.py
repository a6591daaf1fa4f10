"""Shared fixtures: the named poset menagerie, the ring roster, and the
corpus of generated Jordan isomorphisms used across test modules."""

import itertools
import random

import pytest

from fialg import (
    INTEGERS,
    RATIONALS,
    FinSeries,
    LinMap,
    Poset,
    StructAlgebra,
    modular,
    random_basis_change,
    random_jordan_iso,
    random_poset,
    validate_poset,
)
from fialg.algebra import sparse_vector
from fialg.errors import NotAUnitError
from fialg.linmaps import rebase_codomain
from fialg.matrices import invert_columns, require_unit_determinant


def dense_mat_vec(ring, columns, vec):
    """Matrix times coordinate vector on dense columns, sum_j vec[j] *
    columns[j], entry by entry: the oracle of the sparse mat_vec."""
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


def dense_multiply(algebra, u, v):
    """Product of two coordinate lists of a StructAlgebra, entry by entry
    over every pair of coordinates: the oracle of the sparse multiply."""
    ring = algebra.ring
    add, mul = ring.add, ring.mul
    out = [ring.zero] * algebra.dimension
    cells = algebra.cells
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


def ring_arithmetic_multiply(algebra, u, v):
    """Product of two {index: nonzero payload} vectors of a StructAlgebra in
    the ring's own add and mul, one call per term, zeros dropped: the sparse
    loop that StructAlgebra.multiply ran before it summed integers, kept as
    the oracle of the integer kernel, key order included."""
    ring = algebra.ring
    add, mul = ring.add, ring.mul
    cells = algebra.cells
    out = {}
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


def recursive_series_inverse(u):
    """The convolution inverse of a series by the memoized triangular
    recursion v(x,x) = u(x,x)^-1, v(x,y) = -u(x,x)^-1 * sum over x < z <= y
    of u(x,z) v(z,y), scanning every element for each pair: the loop that
    FinSeries.inverse ran before it solved by rows, kept as its oracle, key
    order and NotAUnitError text included."""
    poset, ring = u.poset, u.ring
    n = poset.size
    diag_inv = []
    for i in range(n):
        inv = ring.try_invert(u.coeffs.get((i, i), ring.zero))
        if inv is None:
            raise NotAUnitError(
                f"series is not invertible: diagonal entry at "
                f"{poset.elements[i]!r} is not a unit"
            )
        diag_inv.append(inv)
    add, mul, neg = ring.add, ring.mul, ring.neg
    memo = {}

    def v(i, j):
        if i == j:
            return diag_inv[i]
        if (i, j) not in memo:
            s = ring.zero
            for z in range(n):
                if z != i and poset.relation[i][z] and poset.relation[z][j]:
                    u_iz = u.coeffs.get((i, z))
                    if u_iz is not None:
                        s = add(s, mul(u_iz, v(z, j)))
            memo[i, j] = neg(mul(diag_inv[i], s))
        return memo[i, j]

    pairs = poset.comparable_index_pairs()
    return FinSeries._of(poset, ring, {p: val for p in pairs if (val := v(*p))})


def counted_products(monkeypatch):
    """A one-item list that counts StructAlgebra.multiply calls from now
    on."""
    calls = [0]
    multiply = StructAlgebra.multiply

    def counting(self, u, v):
        calls[0] += 1
        return multiply(self, u, v)

    monkeypatch.setattr(StructAlgebra, "multiply", counting)
    return calls


def le(poset, x, y):
    """x <= y in a poset, by label."""
    return poset.relation[poset.index(x)][poset.index(y)]


def order_image(m, label):
    """The image of a label under an OrderMap."""
    return m.target.elements[m.images[m.source.index(label)]]


def zero_map(domain, codomain):
    """The zero map, through the checking LinMap door."""
    zero = domain.ring.zero
    return LinMap(domain, codomain, [[zero] * codomain.dimension] * domain.dimension)


def unit_vector(algebra, k):
    """Basis vector b_k of a StructAlgebra as a coordinate tuple."""
    return tuple(algebra.dense({k: algebra.ring.one}))


def basis_product(algebra, i, j):
    """b_i b_j as a coordinate list, read off cell (i, j)."""
    return algebra.dense(dict(algebra.cells[i][j]))


def series_of(algebra, coords):
    """The series whose coordinates in an incidence algebra's unit basis are
    coords, through the checking FinSeries door, which drops the zeros."""
    pairs = algebra.basis.pairs
    return FinSeries(
        algebra.basis.poset, algebra.ring, {pairs[k]: v for k, v in enumerate(coords)}
    )


def invert_dense(ring, cols):
    """invert_columns on dense columns, read back dense; the kernel's
    {index: nonzero} columns must hold no zero."""
    height = len(cols[0]) if cols else 0
    inverse = invert_columns(ring, [sparse_vector(c) for c in cols], height)
    assert all(v for col in inverse for v in col.values())
    return [[col.get(i, ring.zero) for i in range(height)] for col in inverse]


def unit_determinant_dense(ring, cols):
    """require_unit_determinant on dense columns."""
    height = len(cols[0]) if cols else 0
    return require_unit_determinant(ring, [sparse_vector(c) for c in cols], height)


def singleton():
    return validate_poset(["a"], [])


def chain(n):
    labels = [str(i + 1) for i in range(n)]
    return validate_poset(labels, list(zip(labels, labels[1:])))


def antichain(n):
    return validate_poset([str(i + 1) for i in range(n)], [])


def diamond():
    return validate_poset(
        ["bot", "l", "r", "top"],
        [("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top")],
    )


def two_two_chains():
    return validate_poset(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])


def boolean_lattice(k):
    """B_k: the subsets of a k-set, as bit strings, ordered by inclusion."""
    labels = ["".join(bits) for bits in itertools.product("01", repeat=k)]
    return validate_poset(
        labels,
        [
            (x, y)
            for x in labels
            for y in labels
            if x != y and all(a <= b for a, b in zip(x, y))
        ],
    )


def disjoint_union(*posets):
    """The posets side by side, labels prefixed by position: "0:1", "1:bot"."""
    labels, pairs = [], []
    for k, p in enumerate(posets):
        labels += [f"{k}:{e}" for e in p.elements]
        pairs += [(f"{k}:{x}", f"{k}:{y}") for x, y in p.covers()]
    return validate_poset(labels, pairs)


def unitriangular_shear(algebra, seed):
    """A dense basis change: 1 on the diagonal, a ring sample at every entry
    above it, so invertible over every ring."""
    ring, d = algebra.ring, algebra.dimension
    rng = random.Random(seed)
    return [
        [ring.sample(rng) if i < j else ring.one if i == j else ring.zero
         for i in range(d)]
        for j in range(d)
    ]


NAMED_POSETS = {
    "singleton": singleton,
    "2-chain": lambda: chain(2),
    "3-chain": lambda: chain(3),
    "diamond": diamond,
    "2-antichain": lambda: antichain(2),
    "two-2-chains": two_two_chains,
}


@pytest.fixture(params=sorted(NAMED_POSETS))
def named_poset(request):
    return NAMED_POSETS[request.param]()


@pytest.fixture(params=["rationals", "mod9", "integers"])
def exact_ring(request):
    return {"rationals": RATIONALS, "mod9": modular(9), "integers": INTEGERS}[
        request.param
    ]


def jordan_corpus(poset, ring, seeds=range(3), twist=False):
    """Generated Jordan isomorphisms on a poset; optionally with the codomain
    rewritten over a random basis so it is no longer an incidence presentation."""
    maps = []
    for seed in seeds:
        phi = random_jordan_iso(poset, ring, seed)
        if twist:
            phi = rebase_codomain(
                phi, random_basis_change(phi.codomain, seed + 1000)
            )
        maps.append(phi)
    return maps


def small_random_posets(count=6, n=5, seed0=100):
    return [random_poset(n, 0.4, seed0 + k) for k in range(count)]


def all_posets_up_to(n_max: int):
    """Every labeled partial order on {1..n} for n <= n_max, by brute
    enumeration of strict relations closed under transitivity."""
    out = []
    for n in range(1, n_max + 1):
        labels = [str(i + 1) for i in range(n)]
        off_diag = [(i, j) for i in range(n) for j in range(n) if i != j]
        for bits in itertools.product([False, True], repeat=len(off_diag)):
            rel = [[i == j for j in range(n)] for i in range(n)]
            for (i, j), b in zip(off_diag, bits):
                if b:
                    rel[i][j] = True
            # keep only relations that are already transitive and antisymmetric
            ok = True
            for i in range(n):
                for j in range(n):
                    if i != j and rel[i][j] and rel[j][i]:
                        ok = False
                    if not ok:
                        break
                    for k in range(n):
                        if rel[i][j] and rel[j][k] and not rel[i][k]:
                            ok = False
                            break
                if not ok:
                    break
            if ok:
                out.append(Poset(tuple(labels), tuple(map(tuple, rel))))
    return out
