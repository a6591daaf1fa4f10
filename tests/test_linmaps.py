"""Linear maps between presentations, law recognizers, exact inversion."""

import collections
import copy
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fialg import (
    INTEGERS,
    LinMap,
    NotInvertibleError,
    RATIONALS,
    change_basis,
    check_homomorphism,
    check_jordan,
    conjugate_by_unit,
    equal_by_sandwiches,
    from_order_map,
    incidence_algebra,
    jordan_pair_check,
    modular,
    order_isomorphisms,
    random_jordan_iso,
    random_unit_series,
    rebase_codomain,
    random_basis_change,
    TorsionRefusedError,
    validate_poset,
)
from fialg.algebra import StructAlgebra, sparse_vector
from fialg.errors import ContextMismatchError, FialgError
from fialg.jordan import _cover_pairs
from fialg.linmaps import _homomorphism_failures
from fialg.reports import VerificationReport, run_check
from fialg import matrices
from fialg.rings import RationalRing, Ring
from fialg.matrices import (
    _eliminate,
    invert_columns,
    mat_vec,
    require_unit_determinant,
)

from conftest import (
    all_posets_up_to,
    antichain,
    basis_product,
    boolean_lattice,
    chain,
    dense_mat_vec,
    dense_multiply,
    diamond,
    disjoint_union,
    integer_euclid_pivot,
    invert_dense,
    jordan_corpus,
    two_two_chains,
    unit_determinant_dense,
    unit_vector,
    unitriangular_shear,
    zero_map,
)

P3 = chain(3)
EMPTY_POSET = validate_poset([], [])


def test_identity_map_passes_every_law():
    A = incidence_algebra(P3, RATIONALS)
    ident = LinMap.identity(A)
    assert check_homomorphism(ident, unital=True).passed
    assert check_homomorphism(ident, anti=True).passed is False  # FI(3-chain) is noncommutative
    assert check_jordan(ident).passed


def test_order_map_induces_homomorphism_or_anti():
    q = chain(3)
    iso = order_isomorphisms(P3, q)[0]
    rev = order_isomorphisms(P3, q, reversing=True)[0]
    for ring in (RATIONALS, modular(9)):
        straight = from_order_map(iso, ring)
        assert check_homomorphism(straight, unital=True).passed
        flipped = from_order_map(rev, ring)
        rep = check_homomorphism(flipped, anti=True)
        assert rep.passed
        assert not check_homomorphism(flipped).passed
        assert check_jordan(flipped).passed  # anti-homomorphisms are Jordan


def test_column_shape_guards():
    A = incidence_algebra(P3, RATIONALS)
    B = incidence_algebra(P3, INTEGERS)
    with pytest.raises(ContextMismatchError):
        LinMap(A, B, [[Fraction(0)] * A.dimension] * A.dimension)
    with pytest.raises(FialgError):
        LinMap(A, A, [[Fraction(0)] * A.dimension] * (A.dimension - 1))
    with pytest.raises(FialgError, match="column height"):
        LinMap(A, A, [[Fraction(0)] * (A.dimension - 1)] * A.dimension)
    with pytest.raises(ContextMismatchError):
        zero_map(A, B)


def test_dense_columns_are_normalized_once_and_kept_as_nonzeros():
    A = incidence_algebra(chain(2), modular(9))
    m = LinMap(A, A, [[10, 9, 0], [0, 1, -1], [0, 0, 18]])
    assert m.sparse_columns == ({0: 1}, {1: 1, 2: 8}, {})
    assert "columns" not in vars(m)
    assert m.columns == ((1, 0, 0), (0, 1, 8), (0, 0, 0))


def test_apply_compose_invert():
    ring = modular(9)
    A = incidence_algebra(P3, ring)
    phi = random_jordan_iso(P3, ring, seed=2)
    inv = phi.invert()
    rng = random.Random(0)
    for _ in range(10):
        v = [ring.sample(rng) for _ in range(A.dimension)]
        assert inv.apply_coords(phi.apply_coords(v)) == v
    assert phi.compose(inv).columns == LinMap.identity(A).columns


def test_maps_out_of_the_empty_algebra_have_the_codomain_dimension():
    # a map with no columns still lands in its codomain, of dimension 3 here
    ring = RATIONALS
    E = incidence_algebra(validate_poset([], []), ring)
    A = incidence_algebra(chain(2), ring)
    out = zero_map(E, A)
    assert out.apply_coords([]) == [ring.zero] * 3
    assert out.compose(zero_map(A, E)) == zero_map(A, A)
    assert zero_map(A, E).compose(out) == zero_map(E, E)


def test_wrong_length_vectors_are_refused():
    # chain-2's algebra has dimension 3: a 1-vector is in no context of it
    A = incidence_algebra(chain(2), RATIONALS)
    phi = LinMap.identity(A)
    with pytest.raises(ContextMismatchError):
        phi.apply_coords([1])
    with pytest.raises(ContextMismatchError):
        equal_by_sandwiches(phi, [1, 0, 0], [1])
    with pytest.raises(ContextMismatchError):
        equal_by_sandwiches(phi, [1, 0, 0, 0], [1, 0, 0, 0])
    assert equal_by_sandwiches(phi, [1, 0, 0], (1, 0, 0))


@pytest.mark.parametrize("ring", [RATIONALS, INTEGERS, modular(9)], ids=repr)
@pytest.mark.parametrize("entry", [0.5, 1.5, 0.0, True], ids=repr)
def test_apply_refuses_floats_and_bools(ring, entry):
    # neither is exact ring data, the zero-valued 0.0 and False included
    phi = random_jordan_iso(chain(2), ring, seed=1)
    with pytest.raises(FialgError):
        phi.apply_coords([entry, 0, 0])


MAT_VEC_RINGS = {
    "rationals": RATIONALS,
    "integers": INTEGERS,
    "mod9": modular(9),
    "mod15": modular(15),
}


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(MAT_VEC_RINGS)),
    st.integers(0, 6),
    st.integers(0, 6),
    st.integers(0, 10 ** 6),
)
def test_mat_vec_and_apply_coords_match_the_dense_oracle(ring_name, d_in, d_out, seed):
    # antichain(k)'s algebra has dimension k, so a domain or codomain may be
    # zero-dimensional; some columns are drawn empty
    ring = MAT_VEC_RINGS[ring_name]
    rng = random.Random(seed)
    column_density, vector_density = rng.random(), rng.random()

    def entry(density):
        return ring.sample(rng) if rng.random() < density else ring.zero

    cols = [
        [entry(column_density) for _ in range(d_out)] if rng.random() < 0.8
        else [ring.zero] * d_out
        for _ in range(d_in)
    ]
    vec = [entry(vector_density) for _ in range(d_in)]
    expected = dense_mat_vec(ring, cols, vec) if cols else [ring.zero] * d_out
    sparse_cols = [sparse_vector(c) for c in cols]
    image = mat_vec(ring, sparse_cols, sparse_vector(vec).items())
    assert image == sparse_vector(expected)
    dom = incidence_algebra(antichain(d_in), ring)
    cod = incidence_algebra(antichain(d_out), ring)
    assert LinMap(dom, cod, cols).apply_coords(vec) == expected


def test_invert_refuses_singular_maps():
    A = incidence_algebra(chain(2), RATIONALS)
    zero = zero_map(A, A)
    with pytest.raises(NotInvertibleError):
        zero.invert()
    B = incidence_algebra(P3, RATIONALS)
    with pytest.raises(NotInvertibleError, match="not square"):
        zero_map(A, B).invert()


def test_json_round_trip():
    phi = random_jordan_iso(diamond(), modular(9), seed=4)
    obj = phi.to_json()
    back = LinMap.from_json(phi.domain, phi.codomain, obj)
    assert back.columns == phi.columns
    with pytest.raises(ContextMismatchError):
        LinMap.from_json(
            phi.domain, phi.codomain, {**obj, "domain_dim": 3}
        )


@pytest.mark.parametrize("ring", [RATIONALS, INTEGERS, modular(9)], ids=repr)
def test_from_json_normalizes_each_entry_once(ring, monkeypatch):
    # ring.parse returns canonical payloads, and the loaded map keeps them
    phi = random_jordan_iso(diamond(), ring, seed=4)
    obj = phi.to_json()

    def refuse(self, a):
        raise AssertionError("a parsed entry was normalized again")

    monkeypatch.setattr(type(ring), "normalize", refuse)
    back = LinMap.from_json(phi.domain, phi.codomain, obj)
    monkeypatch.undo()
    assert back == phi
    assert [[type(v) for v in col] for col in back.columns] == [
        [type(v) for v in col] for col in phi.columns
    ]


def counting_parse(monkeypatch, ring):
    """The scalars ring.parse is called on from now on, in call order."""
    calls, parse = [], type(ring).parse

    def counted(self, text):
        calls.append(text)
        return parse(self, text)

    monkeypatch.setattr(type(ring), "parse", counted)
    return calls


@pytest.mark.parametrize("ring", [modular(9), RATIONALS, INTEGERS], ids=repr)
def test_from_json_parses_each_distinct_spelling_once(ring, monkeypatch):
    # per load, ring.parse runs once per distinct string spelling plus once
    # per non-string entry; a chain-7 map has 28 x 28 = 784 entries
    phi = random_jordan_iso(chain(7), ring, seed=1)
    wire = phi.to_json()
    mixed = copy.deepcopy(wire)
    mixed["columns"][0] = [int(v) if v in ("0", "1") else v for v in wire["columns"][0]]
    mixed["columns"][1][:3] = ["01", "-0", "1"]
    counts = []
    for obj in (wire, mixed):
        entries = [v for col in obj["columns"] for v in col]
        calls = counting_parse(monkeypatch, ring)
        loaded = LinMap.from_json(phi.domain, phi.codomain, obj)
        monkeypatch.undo()
        texts = [v for v in calls if isinstance(v, str)]
        assert sorted(texts) == sorted({v for v in entries if isinstance(v, str)})
        assert len(calls) - len(texts) == sum(not isinstance(v, str) for v in entries)
        assert loaded.sparse_columns[2:] == phi.sparse_columns[2:]
        counts.append((len(entries), len(calls)))
    assert counts[0][0] == 784 and counts[0][1] <= (9 if ring == modular(9) else 60)
    assert counts[1][1] > counts[0][1]  # the mixed map's integers are parsed each


def test_from_json_parses_only_the_spellings_it_is_given(monkeypatch):
    ring = RATIONALS
    empty = incidence_algebra(EMPTY_POSET, ring)
    one = incidence_algebra(chain(1), ring)
    calls = counting_parse(monkeypatch, ring)
    LinMap.from_json(empty, empty, LinMap.identity(empty).to_json())
    assert calls == []
    obj = {"domain_dim": 1, "codomain_dim": 1, "columns": [["2/4"]]}
    assert LinMap.from_json(one, one, obj).sparse_columns == ({0: Fraction(1, 2)},)
    assert calls == ["2/4"]


def dense_to_json(m):
    """LinMap.to_json on the dense view: every entry formatted."""
    fmt = m.ring.format
    return {
        "domain_dim": m.domain.dimension,
        "codomain_dim": m.codomain.dimension,
        "columns": [[fmt(v) for v in col] for col in m.columns],
    }


def writer_maps(ring):
    """Maps for the writer oracle: generated ones (a unit conjugation, and
    random_jordan_iso where 2-torsion-free) with their codomains twisted,
    the zero and identity maps, and maps to and from the empty poset's
    algebra."""
    empty = incidence_algebra(EMPTY_POSET, ring)
    maps = [LinMap.identity(empty)]
    for poset in (diamond(), two_two_chains(), EMPTY_POSET):
        A = incidence_algebra(poset, ring)
        generated = [conjugate_by_unit(random_unit_series(poset, ring, random.Random(5)))]
        if ring.is_two_torsionfree():
            generated.append(random_jordan_iso(poset, ring, seed=5))
        for m in generated:
            maps += [m, rebase_codomain(m, random_basis_change(m.codomain, 6))]
        maps += [zero_map(A, A), LinMap.identity(A)]
        maps += [zero_map(A, empty), zero_map(empty, A)]
    return maps


@pytest.mark.parametrize("ring", [RATIONALS, INTEGERS, modular(9), modular(2)], ids=repr)
def test_to_json_writes_the_dense_columns_from_the_sparse_store(ring):
    for m in writer_maps(ring):
        wire = m.to_json()
        assert "columns" not in vars(m)
        assert wire == dense_to_json(m)


def test_rebase_codomain_preserves_action():
    ring = RATIONALS
    phi = random_jordan_iso(two_two_chains(), ring, seed=6)
    U = random_basis_change(phi.codomain, seed=11)
    tw = rebase_codomain(phi, U)
    rng = random.Random(5)
    for _ in range(10):
        v = [ring.sample(rng) for _ in range(phi.domain.dimension)]
        old = phi.apply_coords(v)
        new = tw.apply_coords(v)
        assert dense_mat_vec(ring, U.columns, new) == old
    # products still transported correctly: tw stays Jordan
    assert check_jordan(tw).passed


@pytest.mark.parametrize(
    "ring", [RATIONALS, INTEGERS, modular(9), modular(4), modular(15)], ids=repr
)
def test_rebase_codomain_inverts_once_and_matches_the_dense_route(ring, monkeypatch):
    inversions = []

    def counted(*args):
        inversions.append(args)
        return invert_columns(*args)

    for poset in (P3, diamond(), two_two_chains(), EMPTY_POSET):
        orders = order_isomorphisms(poset, poset, reversing=True)
        phi = from_order_map(orders[0], ring)
        A = phi.codomain
        for change in (random_basis_change(A, seed=3), unitriangular_shear(A, seed=4)):
            inverse = invert_dense(ring, change.columns)
            expected = [dense_mat_vec(ring, inverse, col) for col in phi.columns]
            inversions.clear()
            with monkeypatch.context() as patch:
                for module in ("fialg.algebra", "fialg.linmaps"):
                    patch.setattr(f"{module}.invert_columns", counted)
                tw = rebase_codomain(phi, change)
            assert len(inversions) == 1
            assert tw.codomain == change_basis(A, change)
            assert "columns" not in vars(tw)
            assert tw.columns == tuple(tuple(col) for col in expected)
            assert tw.sparse_columns == tuple(
                {k: v for k, v in enumerate(col) if v} for col in expected
            )


def test_check_jordan_torsion_gate():
    A6 = incidence_algebra(P3, modular(6))
    ident = LinMap.identity(A6)
    with pytest.raises(TorsionRefusedError):
        check_jordan(ident)
    assert check_jordan(ident, allow_torsion=True).passed


def test_witnesses_carry_both_sides():
    ring = RATIONALS
    phi = random_jordan_iso(P3, ring, seed=1)
    cols = [list(c) for c in phi.columns]
    cols[3][0] = ring.add(cols[3][0], ring.one)
    bad = LinMap(phi.domain, phi.codomain, cols)
    rep = check_jordan(bad)
    assert not rep.passed
    failing = [c for c in rep.checks if not c.passed]
    assert failing and failing[0].witnesses
    w = failing[0].witnesses[0]
    assert w.left != w.right


def table_jordan_triples(m):
    """check_jordan's triple family with every pair product images[i]
    images[j] held in a d x d table built up front: the same instances,
    order and products as the column-at-a-time scan, which it checks."""
    dom, cod, add = m.domain, m.codomain, m.ring.add
    d = dom.dimension
    images = m.columns
    pair_products = [
        [dense_multiply(cod, images[i], images[j]) for j in range(d)] for i in range(d)
    ]

    def failures():
        for j in range(d):
            for i in range(d):
                left_ij = basis_product(dom, i, j)
                for k in range(i, d):
                    t1 = dense_multiply(dom, left_ij, unit_vector(dom, k))
                    t2 = dense_multiply(dom, basis_product(dom, k, j), unit_vector(dom, i))
                    lhs = m.apply_coords([add(a, b) for a, b in zip(t1, t2)])
                    r1 = dense_multiply(cod, pair_products[i][j], images[k])
                    r2 = dense_multiply(cod, pair_products[k][j], images[i])
                    rhs = [add(a, b) for a, b in zip(r1, r2)]
                    if lhs != rhs:
                        yield (i, j, k), lhs, rhs

    return run_check("jordan_triples", failures())


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([P3, chain(4), diamond(), two_two_chains()]),
    st.sampled_from(
        [RATIONALS, INTEGERS, modular(9), modular(2), modular(4), modular(6)]
    ),
    st.sampled_from(["jordan", "perturbed", "random-column"]),
    st.booleans(),
    st.integers(0, 10 ** 6),
)
def test_check_jordan_triples_agree_with_pair_table_oracle(
    poset, ring, kind, twist, seed
):
    rng = random.Random(seed)
    orders = order_isomorphisms(poset, poset) + order_isomorphisms(
        poset, poset, reversing=True
    )
    phi = from_order_map(rng.choice(orders), ring)
    cols = [list(c) for c in phi.columns]
    d = len(cols)
    if kind == "perturbed":
        k, r = rng.randrange(d), rng.randrange(d)
        cols[k][r] = ring.add(cols[k][r], ring.sample_unit(rng))
    elif kind == "random-column":
        cols[rng.randrange(d)] = [ring.sample(rng) for _ in range(d)]
    m = LinMap(phi.domain, phi.codomain, cols)
    if twist:
        m = rebase_codomain(m, random_basis_change(m.codomain, seed))
    fmt = ring.format
    triples = check_jordan(m, allow_torsion=True).check("jordan_triples")
    assert triples.to_json(fmt) == table_jordan_triples(m).to_json(fmt)


# -- sparse recognizers against the dense scans --------------------------------


def dense_apply(m, vec):
    """m applied to a coordinate list through the dense oracle; a map with
    no columns sends it to the codomain's zero."""
    if not m.columns:
        return [m.ring.zero] * m.codomain.dimension
    return dense_mat_vec(m.ring, m.columns, vec)


def dense_check_homomorphism(m, anti=False, unital=False):
    """check_homomorphism on dense coordinate lists: every left side through
    dense_mat_vec and every image product through dense_multiply."""
    dom, cod = m.domain, m.codomain
    images = m.columns

    def failures():
        for i in range(dom.dimension):
            for j in range(dom.dimension):
                lhs = dense_apply(m, basis_product(dom, i, j))
                rhs = (
                    dense_multiply(cod, images[j], images[i])
                    if anti
                    else dense_multiply(cod, images[i], images[j])
                )
                if lhs != rhs:
                    yield (i, j), lhs, rhs

    checks = [run_check("anti_homomorphism" if anti else "homomorphism", failures())]
    if unital:
        lhs = dense_apply(m, dom.identity)
        rhs = list(cod.identity)
        checks.append(run_check("unital", [] if lhs == rhs else [((), lhs, rhs)]))
    return VerificationReport(tuple(checks))


def dense_jordan_pair_check(m):
    """jordan_pair_check on dense coordinate lists."""
    dom, cod, add = m.domain, m.codomain, m.ring.add
    images = m.columns

    def failures():
        for i in range(dom.dimension):
            for j in range(i, dom.dimension):
                sym = [
                    add(a, b)
                    for a, b in zip(basis_product(dom, i, j), basis_product(dom, j, i))
                ]
                lhs = dense_apply(m, sym)
                p = dense_multiply(cod, images[i], images[j])
                q = dense_multiply(cod, images[j], images[i])
                rhs = [add(a, b) for a, b in zip(p, q)]
                if lhs != rhs:
                    yield (i, j), lhs, rhs

    return VerificationReport((run_check("jordan_pairs", failures()),))


def dense_quadratic_laws(m):
    """check_jordan's jordan_quadratic check on dense coordinate lists."""
    dom, cod = m.domain, m.codomain
    images = m.columns

    def failures():
        for i in range(dom.dimension):
            lhs = dense_apply(m, basis_product(dom, i, i))
            rhs = dense_multiply(cod, images[i], images[i])
            if lhs != rhs:
                yield (i, i), lhs, rhs
        for i in range(dom.dimension):
            for j in range(dom.dimension):
                product = dense_multiply(
                    dom, basis_product(dom, i, j), unit_vector(dom, i)
                )
                lhs = dense_apply(m, product)
                pair = dense_multiply(cod, images[i], images[j])
                rhs = dense_multiply(cod, pair, images[i])
                if lhs != rhs:
                    yield (i, j, i), lhs, rhs

    return run_check("jordan_quadratic", failures())


def dense_check_jordan(m):
    """check_jordan with allow_torsion, on dense coordinate lists."""
    checks = (table_jordan_triples(m),)
    if not m.ring.is_two_torsionfree():
        checks += (dense_quadratic_laws(m),)
    return dense_jordan_pair_check(m).extend(VerificationReport(checks))


def recognizer_map(poset, ring, kind, twist, seed):
    """A map for the recognizer oracles: a Jordan map (random_jordan_iso,
    or an order automorphism over a ring with 2-torsion), an anti-
    homomorphism from an order-reversing bijection, or a Jordan map with one
    entry shifted by a unit or one column replaced by random ring elements;
    with twist, its codomain rebased onto a random basis."""
    rng = random.Random(seed)
    if kind == "anti" or not ring.is_two_torsionfree():
        orders = order_isomorphisms(poset, poset, reversing=kind == "anti")
        phi = from_order_map(rng.choice(orders), ring)
    else:
        phi = random_jordan_iso(poset, ring, seed)
    cols = [list(c) for c in phi.columns]
    d = len(cols)
    if kind == "perturbed" and d:
        k, r = rng.randrange(d), rng.randrange(d)
        cols[k][r] = ring.add(cols[k][r], ring.sample_unit(rng))
    elif kind == "random-column" and d:
        cols[rng.randrange(d)] = [ring.sample(rng) for _ in range(d)]
    m = LinMap(phi.domain, phi.codomain, cols)
    if twist:
        m = rebase_codomain(m, random_basis_change(m.codomain, seed + 1))
    return m


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from([P3, chain(4), diamond(), two_two_chains(), EMPTY_POSET]),
    st.sampled_from(
        [RATIONALS, INTEGERS, modular(9), modular(2), modular(4), modular(6)]
    ),
    st.sampled_from(["jordan", "perturbed", "random-column", "anti"]),
    st.booleans(),
    st.booleans(),
    st.booleans(),
    st.integers(0, 10 ** 6),
)
def test_recognizers_match_dense_oracles(
    poset, ring, kind, twist, anti, unital, seed
):
    m = recognizer_map(poset, ring, kind, twist, seed)
    fmt = ring.format
    assert check_homomorphism(m, anti=anti, unital=unital).to_json(
        fmt
    ) == dense_check_homomorphism(m, anti=anti, unital=unital).to_json(fmt)
    assert jordan_pair_check(m).to_json(fmt) == dense_jordan_pair_check(m).to_json(fmt)
    assert check_jordan(m, allow_torsion=True).to_json(fmt) == dense_check_jordan(
        m
    ).to_json(fmt)


@pytest.mark.parametrize("ring", [RATIONALS, INTEGERS, modular(9)], ids=repr)
def test_unital_clause_decides_on_the_nonzeros(ring):
    for poset in (diamond(), two_two_chains()):
        for order_map in order_isomorphisms(poset, poset):
            m = from_order_map(order_map, ring)
            rep = check_homomorphism(m, unital=True)
            assert rep.passed and rep.check("unital").passed
            assert "columns" not in vars(m)
    empty = incidence_algebra(EMPTY_POSET, ring)
    ident = LinMap.identity(empty)
    assert check_homomorphism(ident, unital=True).check("unital").passed
    assert "columns" not in vars(ident)


def test_unital_clause_fails_twice_the_identity_with_a_witness():
    A = incidence_algebra(diamond(), INTEGERS)
    d = A.dimension
    doubled = LinMap(A, A, [[2 if i == j else 0 for i in range(d)] for j in range(d)])
    unital = check_homomorphism(doubled, unital=True).check("unital")
    assert not unital.passed and unital.failure_count == 1
    (witness,) = unital.witnesses
    assert witness.indices == ()
    assert witness.left == tuple(2 * v for v in A.identity)
    assert witness.right == A.identity
    assert "columns" not in vars(doubled)
    # the empty algebra's 1 is 0, so a map out of it is unital only onto it
    out = zero_map(incidence_algebra(EMPTY_POSET, INTEGERS), A)
    (witness,) = check_homomorphism(out, unital=True).check("unital").witnesses
    assert witness.left == (0,) * d and witness.right == A.identity


GENERATOR_RINGS = (RATIONALS, INTEGERS, modular(9), modular(2), modular(4), modular(6))


def generator_pairs(algebra):
    """The near-sum certificate's homomorphism pairs on an incidence algebra:
    the idempotent pairs (e_x, e_y), then the placements and rows of the
    cover units."""
    diagonal = algebra.basis.diagonal_indices()
    placements, rows, _, _ = _cover_pairs(algebra.basis)
    return [(i, j) for i in diagonal for j in diagonal] + placements + rows


def generator_row_corpus(poset, ring, seed):
    """Maps out of the incidence algebra of poset: the identity, an order
    isomorphism and (when there is one) an anti-isomorphism, a Jordan map
    (random_jordan_iso, or a unit conjugate of the order isomorphism over a
    ring with 2-torsion) with a copy that has one entry shifted by a unit,
    two random sparse column maps, the second with a zero column, and the
    Jordan map with its codomain rebased onto a random basis."""
    rng = random.Random(seed)
    A = incidence_algebra(poset, ring)
    d = A.dimension
    maps = [LinMap.identity(A)]
    for reversing in (False, True):
        orders = order_isomorphisms(poset, poset, reversing=reversing)
        if orders:
            maps.append(from_order_map(rng.choice(orders), ring))
    if ring.is_two_torsionfree():
        phi = random_jordan_iso(poset, ring, seed)
    else:
        phi = conjugate_by_unit(random_unit_series(poset, ring, rng)).compose(maps[1])
    cols = [list(c) for c in phi.columns]
    k, r = rng.randrange(d), rng.randrange(d)
    cols[k][r] = ring.add(cols[k][r], ring.sample_unit(rng))
    maps += [phi, LinMap(A, A, cols)]
    for singular in (False, True):
        density = rng.random()
        cols = [
            [ring.sample(rng) if rng.random() < density else ring.zero for _ in range(d)]
            for _ in range(d)
        ]
        if singular:
            cols[rng.randrange(d)] = [ring.zero] * d
        maps.append(LinMap(A, A, cols))
    maps.append(rebase_codomain(phi, random_basis_change(A, seed + 1)))
    return maps


def generator_rows_agree(m, anti):
    """The verdict of the homomorphism scan on the certificate's pairs,
    asserted equal to the dense scan of every basis pair, which is
    returned."""
    passed = dense_check_homomorphism(m, anti=anti).passed
    pairs = generator_pairs(m.domain)
    assert (next(_homomorphism_failures(m, pairs, anti), None) is None) == passed
    return passed


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(all_posets_up_to(4)),
    st.sampled_from(GENERATOR_RINGS),
    st.integers(0, 10 ** 6),
)
def test_generator_rows_decide_the_homomorphism_laws(poset, ring, seed):
    # the cover-chain induction behind the near-sum certificate needs only
    # associativity, so its pairs decide the laws on every ring, for any
    # linear map, with orthogonal idempotent images or not
    for m in generator_row_corpus(poset, ring, seed):
        for anti in (False, True):
            generator_rows_agree(m, anti)


def test_generator_row_corpus_has_both_verdicts():
    verdicts = collections.Counter(
        generator_rows_agree(m, anti)
        for poset in all_posets_up_to(3)
        for ring in GENERATOR_RINGS
        for m in generator_row_corpus(poset, ring, seed=7)
        for anti in (False, True)
    )
    assert verdicts[True] > 0 and verdicts[False] > 0


def test_recognizers_build_dense_lists_only_for_witnesses(monkeypatch):
    # the scans multiply {index: nonzero} columns with multiply and compare
    # dicts: a passing scan builds no dense coordinate list, and a failing
    # one builds two per failing instance, its witness's sides
    ring, poset = RATIONALS, diamond()
    phi = random_jordan_iso(poset, ring, seed=5)
    hom = from_order_map(order_isomorphisms(poset, poset)[1], ring)
    anti = from_order_map(order_isomorphisms(poset, poset, reversing=True)[0], ring)
    cols = [list(c) for c in phi.columns]
    cols[4][0] = ring.add(cols[4][0], ring.one)
    failing = LinMap(phi.domain, phi.codomain, cols)
    maps = [phi, hom, anti, failing]
    maps += [rebase_codomain(m, random_basis_change(m.codomain, seed=7)) for m in maps]

    dense_lists, dense = [0], StructAlgebra.dense

    def counted(self, vec):
        dense_lists[0] += 1
        return dense(self, vec)

    monkeypatch.setattr(StructAlgebra, "dense", counted)
    for jordan, straight, backward, bad in (maps[:4], maps[4:]):
        assert jordan_pair_check(jordan).passed
        assert check_jordan(jordan).passed
        assert check_homomorphism(straight, unital=True).passed
        assert check_homomorphism(backward, anti=True, unital=True).passed
        assert check_jordan(backward).passed
        assert dense_lists == [0]
        for scan in (check_jordan, lambda m: check_homomorphism(m, anti=True)):
            report = scan(bad)
            assert not report.passed
            assert dense_lists[0] == 2 * sum(c.failure_count for c in report.checks)
            dense_lists[0] = 0


# -- exact matrix kernel -------------------------------------------------------


def bareiss_determinant(rows: list[list[int]]) -> int:
    """Fraction-free determinant of a square integer matrix, kept as the
    oracle of the sparse elimination.

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


def integer_lift(columns):
    """Each column scaled by the lcm of its denominators, and the product of
    the scales: the integer matrix whose determinant is the product times
    the matrix's own."""
    lifted, scales = [], 1
    for col in columns:
        scale = math.lcm(*(v.denominator for v in col))
        lifted.append([v.numerator * (scale // v.denominator) for v in col])
        scales *= scale
    return lifted, scales


def bareiss_unit_determinant(ring, columns) -> int:
    """require_unit_determinant as a dense Bareiss determinant of the integer
    lift (each rational column scaled by the lcm of its denominators)."""
    n = len(columns)
    if any(len(col) != n for col in columns):
        raise NotInvertibleError("matrix is not square")
    lifted = integer_lift(columns)[0] if isinstance(ring, RationalRing) else columns
    det = bareiss_determinant(lifted)  # the transpose has the same determinant
    if not ring.is_unit(ring.normalize(det)):
        raise NotInvertibleError(
            f"determinant {ring.format(ring.normalize(det))} is not a unit of {ring!r}"
        )
    return det


def test_bareiss_determinant_known_values():
    assert bareiss_determinant([[2, 0], [0, 3]]) == 6
    assert bareiss_determinant([[1, 2], [3, 4]]) == -2
    assert bareiss_determinant([[0, 1], [1, 0]]) == -1
    assert bareiss_determinant([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0


def test_invert_columns_round_trip_all_rings():
    rng = random.Random(3)
    for ring, build in [
        (RATIONALS, lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 3))),
        (modular(15), lambda: rng.randrange(15)),
    ]:
        d = 4
        while True:
            cols = [[ring.normalize(build()) for _ in range(d)] for _ in range(d)]
            try:
                inv = invert_dense(ring, cols)
                break
            except NotInvertibleError:
                continue
        # inv composed with cols is the identity, column by column
        for j in range(d):
            e = [ring.one if i == j else ring.zero for i in range(d)]
            assert dense_mat_vec(ring, cols, dense_mat_vec(ring, inv, e)) == e


def test_invert_columns_integer_unimodularity():
    # determinant ±1 inverts over the integers; determinant 2 must refuse
    good = [[1, 1], [0, 1]]
    cols = [[r[j] for r in good] for j in range(2)]
    inv = invert_dense(INTEGERS, cols)
    assert all(isinstance(v, int) for col in inv for v in col)
    with pytest.raises(NotInvertibleError):
        invert_dense(INTEGERS, [[2, 0], [0, 1]])


def test_invert_columns_modular_composite_modulus():
    # matrix invertible mod 15 though its determinant is not coprime to
    # every prime: det = 7, a unit mod 15
    ring, cols = modular(15), [[2, 1], [1, 4]]
    inv = invert_dense(ring, cols)
    for j in range(2):
        e = [1 if i == j else 0 for i in range(2)]
        assert dense_mat_vec(ring, cols, dense_mat_vec(ring, inv, e)) == e


def leibniz_determinant(ring, columns):
    """The determinant as the signed sum over permutations, in the ring."""
    n = len(columns)
    det = ring.zero
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        term = ring.one if inversions % 2 == 0 else ring.neg(ring.one)
        for j in range(n):
            term = ring.mul(term, columns[j][perm[j]])
        det = ring.add(det, term)
    return ring.normalize(det)


DETERMINANT_RINGS = {
    "rationals": (RATIONALS, lambda rng: Fraction(rng.randint(-2, 2), rng.randint(1, 3))),
    "integers": (INTEGERS, lambda rng: rng.randint(-2, 2)),
    "mod9": (modular(9), lambda rng: rng.randrange(9)),
    "mod15": (modular(15), lambda rng: rng.randrange(15)),
}


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(DETERMINANT_RINGS)),
    st.integers(1, 4),
    st.integers(0, 10 ** 6),
    st.booleans(),
)
def test_unit_determinant_check_matches_leibniz(ring_name, n, seed, repeat_column):
    ring, entry = DETERMINANT_RINGS[ring_name]
    rng = random.Random(seed)
    cols = [[ring.normalize(entry(rng)) for _ in range(n)] for _ in range(n)]
    if repeat_column and n > 1:
        cols[0] = list(cols[1])
    if ring.is_unit(leibniz_determinant(ring, cols)):
        unit_determinant_dense(ring, cols)
        inv = invert_dense(ring, cols)
        for j in range(n):
            e = [ring.one if i == j else ring.zero for i in range(n)]
            assert dense_mat_vec(ring, cols, dense_mat_vec(ring, inv, e)) == e
            assert dense_mat_vec(ring, inv, dense_mat_vec(ring, cols, e)) == e
    else:
        with pytest.raises(NotInvertibleError, match="is not a unit of"):
            unit_determinant_dense(ring, cols)
        with pytest.raises(NotInvertibleError, match="is not a unit of"):
            invert_dense(ring, cols)


@pytest.mark.parametrize(
    "ring, rows, unit",
    [
        (INTEGERS, [[2, 0], [0, 1]], False),
        (INTEGERS, [[2, 1], [1, 1]], True),
        (modular(15), [[2, 1], [1, 4]], True),  # det 7, a unit mod 15
        (modular(15), [[2, 1], [1, 3]], False),  # det 5
        (modular(9), [[3, 0], [0, 1]], False),
        (RATIONALS, [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]], False),
        (RATIONALS, [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 5)]], True),
    ],
)
def test_unit_determinant_known_cases(ring, rows, unit):
    cols = [[ring.normalize(r[j]) for r in rows] for j in range(len(rows))]
    assert ring.is_unit(leibniz_determinant(ring, cols)) == unit
    if unit:
        unit_determinant_dense(ring, cols)
    else:
        with pytest.raises(NotInvertibleError):
            unit_determinant_dense(ring, cols)
    with pytest.raises(NotInvertibleError, match="not square"):
        unit_determinant_dense(ring, [cols[0]])


# -- sparse inversion against the dense oracle ---------------------------------


def dense_gauss_jordan_inverse(rows):
    """Exact inverse over the rationals of a nonsingular matrix, with dense
    rows.  Input rows may be ints or Fractions; output rows are Fractions."""
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


def dense_invert_columns(ring, columns):
    """The dense path the sparse invert_columns replaced: the Bareiss unit
    check, dense Gauss-Jordan over the rationals, and over the integers and
    residue rings the integral adjugate scaled by the inverted determinant."""
    det = bareiss_unit_determinant(ring, columns)
    n = len(columns)
    rows = [[columns[j][i] for j in range(n)] for i in range(n)]
    inv_rows = dense_gauss_jordan_inverse(rows)
    if isinstance(ring, RationalRing):
        return [[inv_rows[i][j] for i in range(n)] for j in range(n)]
    inv_det = ring.invert(ring.normalize(det))
    return [
        [ring.normalize(int(inv_rows[i][j] * det) * inv_det) for i in range(n)]
        for j in range(n)
    ]


def inversion_outcome(invert, ring, columns):
    """Columns with each payload's type (Fraction(1) == 1 would hide a type
    drift), or the refusal message."""
    try:
        inverse = invert(ring, columns)
    except NotInvertibleError as exc:
        return str(exc)
    return [[(type(v), v) for v in col] for col in inverse]


ORACLE_RINGS = {
    "rationals": RATIONALS,
    "integers": INTEGERS,
    "mod9": modular(9),
    "mod15": modular(15),
    "mod2": modular(2),
    "mod4": modular(4),
    "mod6": modular(6),
}
SMALL_POSETS = all_posets_up_to(4)


def oracle_matrix(source, ring, seed, poset_index):
    rng = random.Random(seed)
    poset = SMALL_POSETS[poset_index % len(SMALL_POSETS)]
    if source in ("jordan", "twisted") and not ring.is_two_torsionfree():
        source = "basis_change"  # Jordan maps are generated only without 2-torsion
    if source == "empty":
        return []
    if source == "integer":  # small integers, as sparse or as dense as drawn
        n, density = rng.randint(1, 7), rng.random()
        return [
            [ring.normalize(rng.randint(-3, 3)) if rng.random() < density else ring.zero
             for _ in range(n)]
            for _ in range(n)
        ]
    if source in ("random", "repeated_column"):
        n, density = rng.randint(1, 7), rng.random()
        cols = [
            [ring.sample(rng) if rng.random() < density else ring.zero for _ in range(n)]
            for _ in range(n)
        ]
        if source == "repeated_column" and n > 1:
            cols[rng.randrange(n)] = list(cols[rng.randrange(n)])
        return cols
    if source in ("basis_change", "doubled_column"):
        cols = list(random_basis_change(incidence_algebra(poset, ring), seed).columns)
        if source == "doubled_column":  # determinant ±2 over the integers
            two = ring.normalize(2)
            cols[0] = [ring.mul(two, v) for v in cols[0]]
        return cols
    phi = random_jordan_iso(poset, ring, seed)
    if source == "twisted":
        phi = rebase_codomain(phi, random_basis_change(phi.codomain, seed + 1))
    return phi.columns


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(
        ["random", "repeated_column", "doubled_column", "basis_change",
         "jordan", "twisted", "empty"]
    ),
    st.sampled_from(sorted(ORACLE_RINGS)),
    st.integers(0, 10 ** 6),
    st.integers(0, 10 ** 3),
)
def test_invert_columns_matches_dense_oracle(source, ring_name, seed, poset_index):
    ring = ORACLE_RINGS[ring_name]
    cols = oracle_matrix(source, ring, seed, poset_index)
    assert inversion_outcome(invert_dense, ring, cols) == inversion_outcome(
        dense_invert_columns, ring, cols
    )


def test_invert_columns_known_determinants():
    swap = [{1: 1}, {0: 1}]  # one row swap: determinant -1
    assert invert_columns(INTEGERS, swap, 2) == swap
    with pytest.raises(
        NotInvertibleError, match="^determinant 6 is not a unit of integers$"
    ):
        invert_dense(INTEGERS, [[2, 0], [0, 3]])
    singular = [[Fraction(1, 2), Fraction(1, 4)], [Fraction(1, 3), Fraction(1, 6)]]
    with pytest.raises(
        NotInvertibleError, match="^determinant 0 is not a unit of rationals$"
    ):
        invert_dense(RATIONALS, singular)


def determinant_outcome(determinant, ring, columns):
    """None when the determinant is accepted as a unit, else the refusal
    message."""
    try:
        determinant(ring, columns)
    except NotInvertibleError as exc:
        return str(exc)
    return None


ORACLE_SOURCES = [
    "integer", "random", "repeated_column", "doubled_column", "basis_change",
    "jordan", "twisted", "empty",
]


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(ORACLE_SOURCES),
    st.sampled_from(sorted(ORACLE_RINGS)),
    st.integers(0, 10 ** 6),
    st.integers(0, 10 ** 3),
)
def test_sparse_determinant_matches_bareiss(source, ring_name, seed, poset_index):
    # accepted exactly when Bareiss accepts, on every ring, Q included, and
    # refused with the same text
    ring = ORACLE_RINGS[ring_name]
    cols = oracle_matrix(source, ring, seed, poset_index)
    assert determinant_outcome(unit_determinant_dense, ring, cols) == (
        determinant_outcome(bareiss_unit_determinant, ring, cols)
    )


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(ORACLE_SOURCES),
    st.sampled_from(sorted(ORACLE_RINGS)),
    st.integers(0, 10 ** 6),
    st.integers(0, 10 ** 3),
    st.booleans(),
)
def test_elimination_determinant_matches_bareiss(
    source, ring_name, seed, poset_index, reduce_above
):
    # the elimination's value, singular and non-unit matrices included:
    # exact over Z, mod n over Z/n, and over Q in its screen on the integer
    # lift and exact in Fractions
    ring = ORACLE_RINGS[ring_name]
    cols = oracle_matrix(source, ring, seed, poset_index)
    if isinstance(ring, RationalRing):
        lifted, scales = integer_lift(cols)
        det = bareiss_determinant(lifted)
        screen = ring.screen
        rows = [sparse_vector(map(screen.normalize, col)) for col in lifted]
        assert _eliminate(screen, rows, reduce_above) == screen.normalize(det)
        assert _eliminate(ring, [sparse_vector(c) for c in cols], reduce_above) == (
            Fraction(det, scales)
        )
    else:
        rows = [sparse_vector(c) for c in cols]
        det = _eliminate(ring, rows, reduce_above)
        assert det == ring.normalize(bareiss_determinant(cols))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["jordan", "twisted"]),
    st.sampled_from(["rationals", "integers", "mod9"]),
    st.integers(0, 10 ** 6),
    st.integers(0, 10 ** 3),
)
def test_generated_maps_have_unit_determinants(source, ring_name, seed, poset_index):
    ring = ORACLE_RINGS[ring_name]
    unit_determinant_dense(ring, oracle_matrix(source, ring, seed, poset_index))


def test_unit_determinant_edge_cases():
    p = RATIONALS.screen.modulus
    with pytest.raises(NotInvertibleError, match="^matrix is not square$"):
        require_unit_determinant(INTEGERS, [{0: 1}], 2)
    # over Q a determinant divisible by the screen's prime is 0 on the lift, and
    # the elimination in Fractions accepts it
    unit_determinant_dense(RATIONALS, [[Fraction(p, 3)]])
    unit_determinant_dense(RATIONALS, [[Fraction(p), Fraction(1)], [Fraction(0), Fraction(2)]])
    with pytest.raises(NotInvertibleError, match="^determinant 0 is not a unit of rationals$"):
        unit_determinant_dense(RATIONALS, [[Fraction(p), Fraction(2 * p)]] * 2)
    # no entry 1 or -1, but Euclid's algorithm finds one: det [[2, 3], [3, 5]] = 1
    unit_determinant_dense(INTEGERS, [[2, 3], [3, 5]])
    with pytest.raises(NotInvertibleError, match="^determinant -2 is not a unit of integers$"):
        unit_determinant_dense(INTEGERS, [[2, 4], [3, 5]])
    # no unit entry of Z/15, determinant 9 - 25 = -16, a unit
    unit_determinant_dense(modular(15), [[3, 5], [5, 3]])
    with pytest.raises(NotInvertibleError, match=r"^determinant 0 is not a unit of modular\(15\)$"):
        unit_determinant_dense(modular(15), [[3, 5], [6, 10]])


@pytest.mark.parametrize("ring", [INTEGERS, modular(9), modular(15)], ids=repr)
def test_the_rings_euclid_makes_the_integer_euclids_row_operations(ring, monkeypatch):
    # the pivot search through the ring's euclid_size and euclid_step against
    # the integer Euclid it replaced: every row operation of the determinant
    # test and of the inversion, its rows, multiplier and order, and the
    # outcome, on generated (conjugated) and twisted maps, and on each map
    # with one column times 3, a non-unit: over Z/9 a unit determinant
    # always leaves a unit in the pivot column, so only refusals run Euclid
    three, inputs = ring.normalize(3), []
    for poset in (chain(6), boolean_lattice(3), disjoint_union(chain(3), chain(3))):
        for twist in (False, True):
            for phi in jordan_corpus(poset, ring, seeds=range(3), twist=twist):
                cols = phi.sparse_columns
                j = len(inputs) % len(cols)
                scaled = {i: w for i, v in cols[j].items() if (w := ring.mul(three, v))}
                inputs += [cols, [*cols[:j], scaled, *cols[j + 1:]]]
    add_multiple, calls = matrices._add_multiple, []

    def recorded(ring, row, source, t):
        calls.append((dict(row), dict(source), t))
        add_multiple(ring, row, source, t)

    def row_operations(pivot):
        monkeypatch.setattr(matrices, "_pivot", pivot)
        calls.clear()
        for cols in inputs:
            for kernel in (require_unit_determinant, invert_columns):
                try:
                    kernel(ring, cols, len(cols))
                except NotInvertibleError as exc:
                    calls.append(str(exc))
        return list(calls)

    step, steps = ring.euclid_step, []

    def counted_step(a, b):
        steps.append((a, b))
        return step(a, b)

    monkeypatch.setattr(matrices, "_add_multiple", recorded)
    monkeypatch.setattr(ring, "euclid_step", counted_step)
    ours = row_operations(matrices._pivot)
    assert steps  # Euclid ran, so the comparison is not vacuous
    assert ours == row_operations(integer_euclid_pivot)


class Boxed:
    """An integer payload in a box with no abs, //, unary minus or %, so a
    kernel that eliminates it must ask its ring for every operation."""

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __eq__(self, other):
        return isinstance(other, Boxed) and other.v == self.v

    def __hash__(self):
        return hash(self.v)

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return f"Boxed({self.v})"


class BoxedIntegers(Ring):
    kind = "boxed integers"
    zero, one = Boxed(0), Boxed(1)
    add = staticmethod(lambda a, b: Boxed(a.v + b.v))
    sub = staticmethod(lambda a, b: Boxed(a.v - b.v))
    neg = staticmethod(lambda a: Boxed(-a.v))
    mul = staticmethod(lambda a, b: Boxed(a.v * b.v))
    euclid_size = staticmethod(lambda a: abs(a.v))
    euclid_step = staticmethod(lambda a, b: Boxed(-(a.v // b.v)))

    def try_invert(self, a):
        return a if a.v in (1, -1) else None


def test_elimination_does_no_arithmetic_on_payloads():
    # no entry of [[2, 3], [3, 5]] is a unit, so Euclid runs, and only
    # through the ring's euclid_size and euclid_step
    ring = BoxedIntegers()

    def boxed(*cols):
        return [{i: Boxed(v) for i, v in enumerate(col) if v} for col in cols]

    require_unit_determinant(ring, boxed([2, 3], [3, 5]), 2)
    assert invert_columns(ring, boxed([2, 3], [3, 5]), 2) == boxed([5, -3], [-3, 2])
    message = r"^determinant Boxed\(-2\) is not a unit of boxed integers$"
    with pytest.raises(NotInvertibleError, match=message):
        require_unit_determinant(ring, boxed([2, 3], [4, 5]), 2)
    with pytest.raises(NotInvertibleError, match=message):
        invert_columns(ring, boxed([2, 3], [4, 5]), 2)
