"""Series arithmetic, the unit-product rule, idempotents, inversion, and
structure-constant presentations."""

import inspect
import itertools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fialg import (
    FinSeries,
    INTEGERS,
    LinMap,
    NotAUnitError,
    NotComparableError,
    RATIONALS,
    change_basis,
    check_homomorphism,
    check_jordan,
    decompose,
    incidence_algebra,
    modular,
    random_basis_change,
    random_series,
    random_unit_series,
    validate_poset,
)
from fialg.algebra import AlgBasis, StructAlgebra, sparse_vector
from fialg.errors import ContextMismatchError, FialgError

from conftest import (
    basis_product,
    counted_products,
    dense_mat_vec,
    dense_multiply,
    invert_dense,
    recursive_series_inverse,
    ring_arithmetic_multiply,
    all_posets_up_to,
    boolean_lattice,
    chain,
    diamond,
    disjoint_union,
    series_of,
    two_two_chains,
    unit_vector,
    unitriangular_shear,
)

P3 = chain(3)
D = diamond()


def rs(poset, ring, seed, **kw):
    return random_series(poset, ring, random.Random(seed), **kw)


# -- series basics -------------------------------------------------------------


def test_unit_series_requires_comparable_pair():
    e = FinSeries.unit(P3, RATIONALS, "1", "3")
    assert e.get("1", "3") == 1
    with pytest.raises(NotComparableError):
        FinSeries.unit(P3, RATIONALS, "3", "1")


def test_get_rejects_incomparable_pairs():
    f = FinSeries.zeta(D, INTEGERS)
    with pytest.raises(NotComparableError):
        f.get("l", "r")
    assert f.get("bot", "top") == 1


def test_zero_coefficients_are_dropped():
    f = FinSeries.from_entries(P3, INTEGERS, {("1", "2"): 0, ("1", "3"): 4})
    assert (0, 1) not in f.coeffs and f.get("1", "3") == 4


@pytest.mark.parametrize("ring", [RATIONALS, INTEGERS, modular(9)], ids=repr)
def test_the_series_door_drops_stored_zeros_and_checks_keys(ring):
    P2 = chain(2)
    assert FinSeries(P2, ring, {(0, 0): 0}) == FinSeries(P2, ring, {})
    assert FinSeries(P2, ring, {(0, 0): 0, (0, 1): 2}) == FinSeries.from_entries(
        P2, ring, {("1", "2"): 2}
    )
    with pytest.raises(NotComparableError):
        FinSeries(P2, ring, {(1, 0): 1})
    for key in ((7, 0), (0, 2), (-1, 0), (True, True), (0,), (0, 0, 0), "00", 0):
        with pytest.raises(FialgError):
            FinSeries(P2, ring, {key: 1})


@pytest.mark.parametrize("ring", [RATIONALS, INTEGERS, modular(9)], ids=repr)
def test_structure_constant_indices_are_checked_at_construction(ring):
    for index in (5, 1, -1, True, "0"):
        with pytest.raises(FialgError):
            StructAlgebra(ring, [[[(index, 1)]]], (1,))
    B = StructAlgebra(ring, [[[(0, 1), (0, 0)]]], (1,))
    assert B.cells == ((((0, ring.one),),),)
    assert B.multiply({0: ring.one}, {0: ring.one}) == {0: ring.one}


def test_addition_and_scaling():
    f = FinSeries.unit(P3, RATIONALS, "1", "2")
    g = FinSeries.unit(P3, RATIONALS, "2", "3")
    h = f + g - f
    assert h == g
    assert f.scale(Fraction(0)) == FinSeries(P3, RATIONALS, {})


def test_unit_product_rule_small_posets():
    """e_xy e_uv = e_xv when y = u and x <= v, else 0 — exhaustively."""
    for poset in (P3, D, two_two_chains()):
        ring = modular(9)
        pairs = poset.comparable_index_pairs()
        for (x, y) in pairs:
            for (u, v) in pairs:
                lhs = FinSeries(poset, ring, {(x, y): 1}) * FinSeries(
                    poset, ring, {(u, v): 1}
                )
                if y == u and poset.relation[x][v]:
                    assert lhs == FinSeries(poset, ring, {(x, v): 1})
                else:
                    assert lhs == FinSeries(poset, ring, {})


def test_delta_is_two_sided_identity():
    one = FinSeries.delta(D, RATIONALS)
    f = rs(D, RATIONALS, 5)
    assert one * f == f
    assert f * one == f


def test_zeta_squared_counts_intervals():
    z = FinSeries.zeta(P3, INTEGERS)
    zz = z * z
    assert zz.get("1", "3") == len(P3.interval("1", "3"))
    assert zz.get("1", "1") == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_convolution_associativity_random(sa, sb, sc):
    f, g, h = (rs(D, modular(12), s) for s in (sa, sb, sc))
    assert (f * g) * h == f * (g * h)


def test_subset_idempotents_multiply_by_intersection():
    from itertools import combinations

    labels = D.elements
    subsets = [
        list(c) for k in range(len(labels) + 1) for c in combinations(labels, k)
    ]
    for ys in subsets:
        for zs in subsets:
            ey = FinSeries.subset_idempotent(D, RATIONALS, ys)
            ez = FinSeries.subset_idempotent(D, RATIONALS, zs)
            inter = [l for l in ys if l in zs]
            assert ey * ez == FinSeries.subset_idempotent(D, RATIONALS, inter)


def test_split_diag_recombines():
    f = rs(D, RATIONALS, 8)
    fd, fz = f.split_diag()
    assert all(i == j for (i, j) in fd.coeffs) and fz.is_strict()
    assert fd + fz == f


def test_diagonal_part_is_multiplicative_projection():
    f, g = rs(P3, modular(9), 1), rs(P3, modular(9), 2)
    assert (f * g).split_diag()[0] == f.split_diag()[0] * g.split_diag()[0]


def test_sandwich_closed_form():
    f = rs(D, RATIONALS, 21, density=1.0)
    for (i, j) in D.comparable_index_pairs():
        x, y = D.elements[i], D.elements[j]
        ex = FinSeries.subset_idempotent(D, RATIONALS, [x])
        ey = FinSeries.subset_idempotent(D, RATIONALS, [y])
        expected = FinSeries(D, RATIONALS, {(i, j): f.coeffs.get((i, j), Fraction(0))})
        assert ex * f * ey == expected


def test_inverse_triangular_recursion():
    z = FinSeries.zeta(P3, INTEGERS)
    mu = z.inverse()
    assert z * mu == FinSeries.delta(P3, INTEGERS)
    assert mu * z == FinSeries.delta(P3, INTEGERS)
    assert mu.get("1", "2") == -1


def test_inverse_over_each_ring():
    for ring in (RATIONALS, modular(9)):
        u = rs(D, ring, 13, density=0.8)
        # force unit diagonal
        fixed = dict(u.coeffs)
        for i in range(D.size):
            fixed[(i, i)] = ring.one
        u = FinSeries(D, ring, fixed)
        v = u.inverse()
        assert u * v == FinSeries.delta(D, ring)
        assert v * u == FinSeries.delta(D, ring)


def test_inverse_names_offending_element():
    f = FinSeries.from_entries(P3, INTEGERS, {("1", "1"): 2})
    with pytest.raises(NotAUnitError, match="1"):
        f.inverse()


# primes just below 10^6: a product of vectors over them has a common
# denominator far larger than any of them
COPRIME_DENOMINATORS = (999983, 999979, 999961, 999959, 999953)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(all_posets_up_to(4) + [chain(7), boolean_lattice(3)]),
    st.sampled_from([RATIONALS, INTEGERS, modular(9), modular(15), modular(4)]),
    st.sampled_from(["random_unit_series", "large-entries", "one-non-unit"]),
    st.integers(0, 10 ** 6),
)
def test_inverse_agrees_with_the_recursive_inverse(poset, ring, kind, seed):
    """The row solve against the recursion it replaced: the same
    coefficients in the same key order, or the same NotAUnitError text.
    The labels are shuffled, so index order need not be a linear
    extension and rows are not solved in index order."""
    rng = random.Random(seed)
    perm = list(range(poset.size))
    rng.shuffle(perm)
    poset = poset.restrict(perm)
    u = random_unit_series(poset, ring, rng, density=rng.random())
    if kind == "large-entries":
        coeffs = {}
        for (i, j) in poset.comparable_index_pairs():
            if i == j:
                coeffs[i, j] = ring.sample_unit(rng)
            elif ring is RATIONALS:
                den = rng.choice(COPRIME_DENOMINATORS + (rng.randint(1, 10 ** 6),))
                coeffs[i, j] = Fraction(rng.randint(-10 ** 6, 10 ** 6), den)
            else:
                coeffs[i, j] = rng.randint(-10 ** 6, 10 ** 6)
        if ring is RATIONALS:  # a unit with a large denominator too
            coeffs[0, 0] = Fraction(rng.randint(1, 10 ** 6), rng.choice(COPRIME_DENOMINATORS))
        u = FinSeries(poset, ring, coeffs)
    elif kind == "one-non-unit":
        a = ring.sample(rng)
        while ring.is_unit(a):
            a = ring.sample(rng)
        coeffs = dict(u.coeffs)
        coeffs[(x := rng.randrange(poset.size)), x] = a
        u = FinSeries(poset, ring, coeffs)
    try:
        expected = recursive_series_inverse(u)
    except NotAUnitError as refused:
        assert kind == "one-non-unit"
        with pytest.raises(NotAUnitError) as got:
            u.inverse()
        assert str(got.value) == str(refused)
        return
    v = u.inverse()
    assert list(v.coeffs.items()) == list(expected.coeffs.items())
    assert u * v == FinSeries.delta(poset, ring) == v * u


def test_series_inverse_needs_no_recursion():
    """The zeta series of a 120-element chain inverts with the stack capped
    just above the caller's depth: its inverse is the Moebius function, 1 on
    the diagonal and -1 on the covers.  The recursion it replaced recurses
    once per chain element and raises RecursionError here."""
    poset = chain(120)
    zeta = FinSeries.zeta(poset, INTEGERS)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 40)
    try:
        mu = zeta.inverse()
    finally:
        sys.setrecursionlimit(limit)
    n = poset.size
    expected = {(i, i): 1 for i in range(n)} | {(i, i + 1): -1 for i in range(n - 1)}
    assert mu.coeffs == expected


def test_cross_context_arithmetic_refused():
    f = FinSeries.zeta(P3, RATIONALS)
    g = FinSeries.zeta(P3, INTEGERS)
    with pytest.raises(FialgError):
        _ = f + g
    h = FinSeries.zeta(chain(2), RATIONALS)
    with pytest.raises(FialgError):
        _ = f * h


# -- structure-constant presentations ------------------------------------------


def test_incidence_algebra_round_trip():
    A = incidence_algebra(D, RATIONALS)
    f = rs(D, RATIONALS, 31)
    g = rs(D, RATIONALS, 32)
    uf, ug = A.element_from_series(f), A.element_from_series(g)
    prod = series_of(A, A.dense(A.multiply(sparse_vector(uf), sparse_vector(ug))))
    assert prod == f * g
    assert series_of(A, dense_multiply(A, uf, ug)) == f * g
    assert series_of(A, list(map(A.ring.add, uf, ug))) == f + g


def test_element_product_matches_the_dense_kernel():
    for ring in (RATIONALS, INTEGERS, modular(9)):
        A = incidence_algebra(D, ring)
        for algebra in (A, change_basis(A, random_basis_change(A, 5))):
            rng = random.Random(6)
            for _ in range(10):
                u = [ring.sample(rng) for _ in range(algebra.dimension)]
                v = [ring.sample(rng) for _ in range(algebra.dimension)]
                product = algebra.multiply(sparse_vector(u), sparse_vector(v))
                assert algebra.dense(product) == dense_multiply(algebra, u, v)


def dense_incidence_cells(poset, ring):
    """The incidence table and identity by the double loop over every pair
    of basis units, as incidence_algebra built them before it filled only
    the nonempty cells: the oracle of its table."""
    basis = AlgBasis(poset)
    index_of = basis.index_of
    cells = []
    for (x, y) in basis.pairs:
        row = []
        for (u, v) in basis.pairs:
            if y == u:
                row.append(((index_of[(x, v)], ring.one),))
            else:
                row.append(())
        cells.append(tuple(row))
    identity = tuple(
        ring.one if k < basis.diagonal_count else ring.zero
        for k in range(basis.dimension)
    )
    return tuple(cells), identity


@pytest.mark.parametrize("ring", [RATIONALS, INTEGERS, modular(9)], ids=repr)
def test_incidence_table_matches_the_dense_loop(ring):
    larger = [chain(13), boolean_lattice(4), disjoint_union(chain(7), chain(7))]
    for poset in all_posets_up_to(4) + larger:
        A = incidence_algebra(poset, ring)
        assert (A.cells, A.identity) == dense_incidence_cells(poset, ring)


def test_struct_algebra_makes_every_row_and_cell_a_tuple():
    A = incidence_algebra(D, RATIONALS)
    for given_cells in (
        [[list(cell) for cell in row] for row in A.cells],
        tuple(tuple(list(cell) for cell in row) for row in A.cells),
        tuple(map(list, A.cells)),
    ):
        B = StructAlgebra(RATIONALS, given_cells, list(A.identity))
        assert B.cells == A.cells and B.identity == A.identity
        assert all(type(cell) is tuple for row in B.cells for cell in row)
        assert all(type(row) is tuple for row in B.cells)


@pytest.mark.parametrize("ring", [RATIONALS, INTEGERS, modular(9)], ids=repr)
def test_struct_algebra_refuses_a_table_without_the_laws(ring):
    # chain-2's incidence table with e_b e_a = e_ab: e_a + e_b is no longer
    # a two-sided identity, and decompose's certificate, which presumes the
    # laws, would pass the identity map on it while the full scan fails.
    A = incidence_algebra(chain(2), ring)
    cells = [list(row) for row in A.cells]
    cells[1][0] = ((2, ring.one),)
    with pytest.raises(FialgError, match="identity is not two-sided"):
        StructAlgebra(ring, cells, A.identity)
    # 1, x, y with x x = y, x y = 0 and y x = x: unital, but (x x) x = x
    # while x (x x) = 0
    one = ring.one
    cells = [
        [[(0, one)], [(1, one)], [(2, one)]],
        [[(1, one)], [(2, one)], []],
        [[(2, one)], [(1, one)], []],
    ]
    with pytest.raises(FialgError, match=r"basis triple \(1, 1, 1\) does not associate"):
        StructAlgebra(ring, cells, (one, ring.zero, ring.zero))
    # e, f with x y = y, or with x y = x: associative, and e is an identity
    # on one side only
    for k in (1, 0):
        cells = [[[((i, j)[k], one)] for j in range(2)] for i in range(2)]
        with pytest.raises(FialgError, match="not two-sided at basis vector 1"):
            StructAlgebra(ring, cells, (one, ring.zero))


@pytest.mark.parametrize("ring", [RATIONALS, INTEGERS, modular(9)], ids=repr)
def test_every_builders_table_passes_the_checking_door(ring):
    for poset in all_posets_up_to(3) + [diamond()]:
        A = incidence_algebra(poset, ring)
        B = change_basis(A, random_basis_change(A, 1))
        for built in (A, B):
            copy = StructAlgebra(ring, built.cells, built.identity)
            assert (copy.cells, copy.identity) == (built.cells, built.identity)
            assert copy.basis is None


@pytest.mark.parametrize("ring", [RATIONALS, INTEGERS, modular(9)], ids=repr)
def test_the_checking_door_attaches_no_basis(ring):
    # The lower-triangular 2x2 matrices, b0 = e11, b1 = e22, b2 = e21, obey
    # the laws the door checks, but they are not chain-2's incidence algebra
    # in chain-2's unit basis: b2 b0 = b2 where e_12 e_1 = 0.  With that basis
    # attached, decompose's certificate, which presumes an incidence domain,
    # failed the identity map, a Jordan automorphism.  The door takes no
    # basis, so decompose refuses the domain instead.
    one = ring.one
    cells = [
        [[(0, one)], [], []],
        [[], [(1, one)], [(2, one)]],
        [[(2, one)], [], []],
    ]
    identity = (one, one, ring.zero)
    with pytest.raises(TypeError):
        StructAlgebra(ring, cells, identity, AlgBasis(chain(2)))
    B = StructAlgebra(ring, cells, identity)
    assert B.basis is None
    phi = LinMap.identity(B)
    assert check_homomorphism(phi, unital=True).passed and check_jordan(phi).passed
    with pytest.raises(ContextMismatchError):
        decompose(phi)


@pytest.mark.parametrize(
    "ring, products, nonempty",
    [(RATIONALS, 116, 116), (INTEGERS, 130, 130), (modular(9), 99, 95)],
    ids=repr,
)
def test_change_basis_multiplies_only_the_pairs_that_meet(
    ring, products, nonempty, monkeypatch
):
    # chain-6 has d = 21: the pair loop made all 441 products.  A pair
    # (u, v) is multiplied when some old a of u and b of v have a nonempty
    # cell, so at least once per nonempty cell of the result; over Z/9, 4
    # of those products cancel to zero.
    A = incidence_algebra(chain(6), ring)
    cols = random_basis_change(A, 1)
    calls = counted_products(monkeypatch)
    B = change_basis(A, cols)
    assert calls[0] == products
    assert sum(1 for row in B.cells for cell in row if cell) == nonempty
    assert B.cells == is_zero_change_basis_cells(A, cols)


def dense_random_basis_change(algebra, seed):
    """random_basis_change with each shear applied as d dense ring
    operations: the oracle of its sparse shears."""
    ring, d = algebra.ring, algebra.dimension
    if d == 0:
        return []
    rng = random.Random(seed)
    perm = list(range(d))
    rng.shuffle(perm)
    cols = []
    for j in range(d):
        col = [ring.zero] * d
        col[perm[j]] = ring.sample_unit(rng)
        cols.append(col)
    for _ in range(d // 2 + 1):
        i, j = rng.randrange(d), rng.randrange(d)
        if i == j:
            continue
        r = ring.sample(rng)
        source = list(cols[i])
        cols[j] = [ring.add(a, ring.mul(r, b)) for a, b in zip(cols[j], source)]
    return cols


@pytest.mark.parametrize(
    "ring", [RATIONALS, INTEGERS, modular(9), modular(2), modular(15)], ids=repr
)
def test_random_basis_change_matches_the_dense_shears(ring):
    for poset in (P3, D, boolean_lattice(3), chain(6), validate_poset([], [])):
        A = incidence_algebra(poset, ring)
        for seed in range(4):
            sparse = random_basis_change(A, seed)
            dense = dense_random_basis_change(A, seed)
            assert sparse == dense
            assert [[type(a) for a in c] for c in sparse] == [
                [type(a) for a in c] for c in dense
            ]


def test_incidence_algebra_is_cached():
    assert incidence_algebra(D, RATIONALS) is incidence_algebra(D, RATIONALS)


def test_basis_pair_layout():
    basis = AlgBasis(P3)
    assert basis.pairs[: P3.size] == ((0, 0), (1, 1), (2, 2))
    assert basis.dimension == len(P3.comparable_index_pairs())
    i, j = basis.pairs[basis.index_of[(0, 2)]]
    assert (P3.elements[i], P3.elements[j]) == ("1", "3")


def test_identity_element_is_delta():
    A = incidence_algebra(P3, modular(9))
    one = series_of(A, A.identity)
    assert one == FinSeries.delta(P3, modular(9))


def assert_unital_associative(A):
    """The identity axiom and associativity on every basis triple: the
    oracle for the builders' claim that their tables need no check."""
    d = A.dimension
    for j in range(d):
        e_j = unit_vector(A, j)
        assert tuple(dense_multiply(A, A.identity, e_j)) == e_j, j
        assert tuple(dense_multiply(A, e_j, A.identity)) == e_j, j
    for i, j, k in itertools.product(range(d), repeat=3):
        left = dense_multiply(A, basis_product(A, i, j), unit_vector(A, k))
        right = dense_multiply(A, unit_vector(A, i), basis_product(A, j, k))
        assert left == right, (i, j, k)


def test_incidence_algebra_tables_are_unital_and_associative():
    for poset in all_posets_up_to(4):
        assert_unital_associative(incidence_algebra(poset, INTEGERS))
    # the oracle itself rejects a table whose "identity" b has b * b = 0,
    # built unchecked, as the checking door refuses it
    unlawful = StructAlgebra._of_tuples(RATIONALS, (((),),), (Fraction(1),), None)
    with pytest.raises(AssertionError):
        assert_unital_associative(unlawful)


@pytest.mark.parametrize("ring", [RATIONALS, INTEGERS, modular(9)], ids=repr)
def test_change_basis_tables_are_unital_and_associative(ring):
    for poset in (P3, D):
        A = incidence_algebra(poset, ring)
        for seed in range(2):
            assert_unital_associative(change_basis(A, random_basis_change(A, seed)))


def is_zero_change_basis_cells(algebra, cols):
    """change_basis's cells with every coordinate tested against ring.zero."""
    ring = algebra.ring
    inv = invert_dense(ring, cols)
    d = algebra.dimension
    return tuple(
        tuple(
            tuple(
                (k, c)
                for k, c in enumerate(
                    dense_mat_vec(ring, inv, dense_multiply(algebra, cols[i], cols[j]))
                )
                if c != ring.zero
            )
            for j in range(d)
        )
        for i in range(d)
    )


@pytest.mark.parametrize(
    "ring",
    [RATIONALS, INTEGERS, modular(9), modular(2), modular(4), modular(6), modular(15)],
    ids=repr,
)
def test_change_basis_cells_match_is_zero_oracle(ring):
    posets = (P3, D, two_two_chains(), boolean_lattice(3), validate_poset([], []))
    for poset in posets:
        A = incidence_algebra(poset, ring)
        changes = [random_basis_change(A, seed) for seed in range(3)]
        changes.append(unitriangular_shear(A, seed=1))
        for cols in changes:
            B = change_basis(A, cols)
            assert B.cells == is_zero_change_basis_cells(A, cols)
            inverse = invert_dense(ring, cols)
            assert B.identity == tuple(dense_mat_vec(ring, inverse, A.identity))


def test_element_context_guard():
    A = incidence_algebra(P3, RATIONALS)
    B = incidence_algebra(D, RATIONALS)
    f = rs(P3, RATIONALS, 1)
    with pytest.raises(ContextMismatchError):
        B.element_from_series(f)


def test_change_basis_transports_products():
    ring = modular(9)
    A = incidence_algebra(P3, ring)
    rng = random.Random(4)
    d = A.dimension
    # a random triangular-ish unit change of basis: identity plus one shear
    cols = [[ring.one if i == j else ring.zero for i in range(d)] for j in range(d)]
    cols[2][0] = ring.normalize(5)
    B = change_basis(A, cols)
    assert B.basis is None
    # multiply in B, map back, compare against A's product
    for _ in range(20):
        u = [ring.sample(rng) for _ in range(d)]
        v = [ring.sample(rng) for _ in range(d)]
        in_a = dense_multiply(
            A, dense_mat_vec(ring, cols, u), dense_mat_vec(ring, cols, v)
        )
        via_b = dense_mat_vec(ring, cols, dense_multiply(B, u, v))
        assert in_a == via_b


def cancelling_pair(A, rng):
    """u = a e_x + b e_xy and v = c e_xz + d e_yz for x < y <= z, with units
    a, b, c and d = -a c / b: the two nonzero products ac e_xz and bd e_xz
    cancel, so u v = 0."""
    ring = A.ring
    x, y = rng.choice(A.basis.poset.strict_index_pairs())
    z = rng.choice([j for (i, j) in A.basis.pairs if i == y])
    a, b, c = (ring.sample_unit(rng) for _ in range(3))
    d = ring.neg(ring.mul(ring.mul(a, c), ring.invert(b)))
    u, v = [ring.zero] * A.dimension, [ring.zero] * A.dimension
    index = A.basis.index_of
    u[index[(x, x)]], u[index[(x, y)]] = a, b
    v[index[(x, z)]], v[index[(y, z)]] = c, d
    return u, v


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(all_posets_up_to(4) + [chain(7), validate_poset([], [])]),
    st.sampled_from(
        [RATIONALS, INTEGERS, modular(9), modular(2), modular(4), modular(6),
         modular(15), modular(45)]
    ),
    st.sampled_from(
        ["random", "zero-left", "zero-right", "cancelling", "large-denominators"]
    ),
    st.booleans(),
    st.integers(0, 10 ** 6),
)
def test_multiply_agrees_with_dense_multiply(poset, ring, kind, twist, seed):
    rng = random.Random(seed)
    A = incidence_algebra(poset, ring)
    d = A.dimension

    def draw():
        if kind != "large-denominators":
            return ring.sample(rng)
        if ring is RATIONALS:  # pairwise coprime or random, up to 10^6
            den = rng.choice(COPRIME_DENOMINATORS + (rng.randint(1, 10 ** 6),))
            return Fraction(rng.randint(-10 ** 6, 10 ** 6), den)
        return ring.normalize(rng.randint(-10 ** 6, 10 ** 6))

    def sample():
        density = rng.random()
        return [draw() if rng.random() < density else ring.zero for _ in range(d)]

    u, v = sample(), sample()
    if kind == "zero-left":
        u = [ring.zero] * d
    elif kind == "zero-right":
        v = [ring.zero] * d
    cancelling = kind == "cancelling" and poset.strict_index_pairs()
    if cancelling:
        u, v = cancelling_pair(A, rng)
    if twist:
        # the transported table has dense cells; the product of the
        # transported vectors is the transport of the product
        cols = random_basis_change(A, seed)
        inv = invert_dense(ring, cols)
        A = change_basis(A, cols)
        u, v = dense_mat_vec(ring, inv, u), dense_mat_vec(ring, inv, v)
    dense = dense_multiply(A, u, v)
    product = A.multiply(sparse_vector(u), sparse_vector(v))
    assert product == sparse_vector(dense)
    assert A.dense(product) == dense
    # the integer kernel against the ring-arithmetic loop it replaced: the
    # same dict in the same key order, of canonical payloads
    oracle = ring_arithmetic_multiply(A, sparse_vector(u), sparse_vector(v))
    assert list(product.items()) == list(oracle.items())
    if ring is RATIONALS:
        assert all(type(w) is Fraction for w in product.values())
    elif ring is INTEGERS:
        assert all(type(w) is int and w for w in product.values())
    else:
        assert all(type(w) is int and 0 < w < ring.modulus for w in product.values())
    if cancelling:
        assert product == {}


def test_random_series_determinism():
    a = rs(D, RATIONALS, 77)
    b = rs(D, RATIONALS, 77)
    assert a == b
    strict = rs(D, RATIONALS, 78, strict_only=True)
    assert strict.is_strict()
