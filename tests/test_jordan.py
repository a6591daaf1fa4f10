"""The near-sum decomposition engine and its verifiers."""

import collections
import functools
import gc
import hashlib
import itertools
import json
import operator
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fialg import (
    ContextMismatchError,
    Decomposition,
    FinSeries,
    INTEGERS,
    IntegerRing,
    LinMap,
    NotInvertibleError,
    NotJordanError,
    PreconditionFailedError,
    RATIONALS,
    StructAlgebra,
    TorsionRefusedError,
    VerificationReport,
    change_basis,
    check_homomorphism,
    check_jordan,
    conjugate_by_unit,
    decompose,
    equal_by_sandwiches,
    extend_via_inverse,
    from_order_map,
    incidence_algebra,
    jordan_pair_check,
    modular,
    near_sum_build,
    order_isomorphisms,
    random_jordan_iso,
    random_poset,
    random_basis_change,
    random_series,
    random_unit_series,
    rebase_codomain,
    run_check,
    validate_poset,
    verify_near_sum,
    verify_paper_identities,
)
from fialg import linmaps, matrices
from fialg.algebra import _sparse_add, sparse_vector
from fialg.errors import FialgError
from fialg.jordan import (
    _IDENTITY_SAMPLES,
    _annihilation_failures,
    _cover_pairs,
    _covers_hold,
    _idempotents_hold,
    _near_sum_columns,
    _near_sum_holds,
    _peirce_table,
    _series_image,
    _window_failures,
)
from fialg.matrices import mat_vec, require_unit_determinant

from conftest import (
    counted_products,
    all_posets_up_to,
    antichain,
    boolean_lattice,
    chain,
    dense_mat_vec,
    dense_multiply,
    diamond,
    disjoint_union,
    jordan_corpus,
    series_of,
    singleton,
    two_two_chains,
    unit_vector,
    zero_map,
)
from test_posets import brute_order_isomorphisms

P2, P3 = chain(2), chain(3)
TT = two_two_chains()
SMALL_POSETS = (P2, P3, diamond(), TT)
TORSIONFREE_RINGS = (RATIONALS, INTEGERS, modular(9))
TORSION_RINGS = (modular(2), modular(4), modular(6))


def order_jordan_map(poset, ring, seed):
    """A Jordan automorphism over any ring, 2-torsion included: an order
    automorphism or anti-automorphism followed by a unit conjugation."""
    rng = random.Random(seed)
    orders = order_isomorphisms(poset, poset) + order_isomorphisms(
        poset, poset, reversing=True
    )
    base = from_order_map(rng.choice(orders), ring)
    return conjugate_by_unit(random_unit_series(poset, ring, rng)).compose(base)


# Complementary idempotents e + f = 1 of the rings with more than two.
SPLIT_IDEMPOTENTS = {modular(15): (6, 10), modular(45): (10, 36)}


def proper_near_sum(poset, ring, seed):
    """c o (e sigma + f tau) for the complementary idempotents e, f of Z/15
    or Z/45, a random order automorphism sigma and anti-automorphism tau and
    a unit conjugation c.  It is Jordan, and psi and theta are both nonzero
    on each component with a strict pair; a poset with no anti-automorphism
    gets the generator's map."""
    rng = random.Random(seed)
    reversed_maps = order_isomorphisms(poset, poset, reversing=True)
    if not reversed_maps:
        return random_jordan_iso(poset, ring, seed)
    e, f = SPLIT_IDEMPOTENTS[ring]
    sigma = from_order_map(rng.choice(order_isomorphisms(poset, poset)), ring)
    tau = from_order_map(rng.choice(reversed_maps), ring)
    mixed = [
        [ring.add(ring.mul(e, a), ring.mul(f, b)) for a, b in zip(s, t)]
        for s, t in zip(sigma.columns, tau.columns)
    ]
    conj = conjugate_by_unit(random_unit_series(poset, ring, rng))
    return conj.compose(LinMap(sigma.domain, sigma.codomain, mixed))


def jordan_map(poset, ring, seed):
    """The generator's map over a 2-torsion-free ring, a proper near-sum over
    Z/15 and Z/45, else an order map."""
    if ring in SPLIT_IDEMPOTENTS:
        return proper_near_sum(poset, ring, seed)
    if ring.is_two_torsionfree():
        return random_jordan_iso(poset, ring, seed)
    return order_jordan_map(poset, ring, seed)


def dense_near_sum_columns(phi):
    """The sandwich columns psi(e_xy) = phi(e_x) phi(e_xy) phi(e_y) and
    theta(e_xy) = phi(e_y) phi(e_xy) phi(e_x) as dense products, kept as the
    oracle of the sparse _near_sum_columns."""
    cod, basis = phi.codomain, phi.domain.basis
    psi_cols, theta_cols = [], []
    for k, (i, j) in enumerate(basis.pairs):
        ex = phi.columns[basis.index_of[(i, i)]]
        ey = phi.columns[basis.index_of[(j, j)]]
        exy = phi.columns[k]
        if i == j:
            psi_cols.append(exy)
            theta_cols.append(exy)
        else:
            psi_cols.append(dense_multiply(cod, dense_multiply(cod, ex, exy), ey))
            theta_cols.append(dense_multiply(cod, dense_multiply(cod, ey, exy), ex))
    return psi_cols, theta_cols


def strict_zero(algebra):
    return [algebra.ring.zero] * algebra.dimension


def mixed_pair(ring):
    """On two disjoint 2-chains a-b and c-d: identity on the first block,
    order reversal m(c) = d, m(d) = c on the second, packaged as the
    (psi, theta) of a genuine near-sum.  The reversal swaps the diagonal
    units of the second chain and sends its strict unit e_cd to
    e_{m(d) m(c)} = e_cd."""
    algebra = incidence_algebra(TT, ring)
    basis = algebra.basis
    swap = {0: 0, 1: 1, 2: 3, 3: 2}
    psi_cols, theta_cols = [], []
    for (i, j) in basis.pairs:
        if i == j:
            col = unit_vector(algebra, basis.index_of[(swap[i], swap[i])])
            psi_cols.append(col)
            theta_cols.append(col)
        elif i <= 1:  # first chain: the straight block lives in psi
            psi_cols.append(unit_vector(algebra, basis.index_of[(i, j)]))
            theta_cols.append(strict_zero(algebra))
        else:  # second chain: the reversed block lives in theta
            psi_cols.append(strict_zero(algebra))
            theta_cols.append(
                unit_vector(algebra, basis.index_of[(swap[j], swap[i])])
            )
    return LinMap(algebra, algebra, psi_cols), LinMap(algebra, algebra, theta_cols)


# -- generators ----------------------------------------------------------------


def test_conjugation_fixed_example_on_2_chain():
    ring = RATIONALS
    u = FinSeries.from_entries(
        P2, ring, {("1", "1"): 1, ("2", "2"): 1, ("1", "2"): 1}
    )
    conj = conjugate_by_unit(u)
    A = conj.domain

    def as_series(label_pair):
        k = A.basis.index_of[
            (P2.index(label_pair[0]), P2.index(label_pair[1]))
        ]
        return series_of(A, conj.columns[k])

    e1_image = as_series(("1", "1"))
    assert e1_image == FinSeries.from_entries(
        P2, ring, {("1", "1"): 1, ("1", "2"): -1}
    )
    e2_image = as_series(("2", "2"))
    assert e2_image == FinSeries.from_entries(
        P2, ring, {("2", "2"): 1, ("1", "2"): 1}
    )
    assert as_series(("1", "2")) == FinSeries.unit(P2, ring, "1", "2")


def test_conjugation_is_a_unital_automorphism():
    rng = random.Random(7)
    from fialg import random_unit_series

    for ring in (RATIONALS, modular(9)):
        u = random_unit_series(diamond(), ring, rng)
        conj = conjugate_by_unit(u)
        assert check_homomorphism(conj, unital=True).passed
        conj.invert()  # must not raise


def convolution_conjugation(u):
    """conjugate_by_unit by FinSeries convolution, u * e_xy * u^-1 per basis
    unit: the oracle for the outer-product columns."""
    algebra = incidence_algebra(u.poset, u.ring)
    u_inv = u.inverse()
    cols = []
    for pair in algebra.basis.pairs:
        b = FinSeries(u.poset, u.ring, {pair: u.ring.one})
        cols.append(algebra.element_from_series(u * b * u_inv))
    return LinMap(algebra, algebra, cols)


@pytest.mark.parametrize("ring", TORSIONFREE_RINGS + (modular(15),), ids=repr)
def test_conjugation_matches_convolution_oracle(ring, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("conjugate_by_unit made a convolution")

    rng = random.Random(3)
    for poset in all_posets_up_to(4):
        for density in (0.4, 1.0):
            u = random_unit_series(poset, ring, rng, density=density)
            expected = convolution_conjugation(u)
            with monkeypatch.context() as patch:
                patch.setattr(FinSeries, "__mul__", refuse)
                conj = conjugate_by_unit(u)
            assert conj == expected
            # zero products (3 * 3 over Z/9) are dropped from the sparse view
            assert conj.sparse_columns == tuple(
                {k: v for k, v in enumerate(col) if v != ring.zero}
                for col in expected.columns
            )


def test_near_sum_build_mixed_example():
    psi, theta = mixed_pair(RATIONALS)
    phi = near_sum_build(psi, theta)
    assert check_jordan(phi).passed
    # genuinely mixed: neither law holds globally
    assert not check_homomorphism(phi).passed
    assert not check_homomorphism(phi, anti=True).passed


def test_near_sum_build_reports_every_violated_clause():
    # psi = theta = identity on the 3-chain: the identity is not an
    # anti-homomorphism there, and psi * theta never annihilates
    A = incidence_algebra(P3, RATIONALS)
    ident = LinMap.identity(A)
    with pytest.raises(PreconditionFailedError) as exc:
        near_sum_build(ident, ident)
    names = {c.name for c in exc.value.clauses}
    assert names == {"theta_anti_homomorphism", "strict_annihilation"}
    ann = next(c for c in exc.value.clauses if c.name == "strict_annihilation")
    assert ann.witnesses  # e.g. psi(e_12) * theta(e_23) = e_13 != 0


def test_random_jordan_iso_is_deterministic_and_jordan():
    for ring in (RATIONALS, modular(9), INTEGERS):
        a = random_jordan_iso(TT, ring, seed=5)
        b = random_jordan_iso(TT, ring, seed=5)
        assert a.columns == b.columns
        assert check_jordan(a).passed
        a.invert()
    with pytest.raises(TorsionRefusedError):
        random_jordan_iso(TT, modular(4), seed=5)


def test_random_jordan_iso_hits_mixed_maps():
    # over enough seeds, some generated map on a disconnected poset is
    # neither a homomorphism nor an anti-homomorphism
    found = False
    for seed in range(12):
        phi = random_jordan_iso(TT, RATIONALS, seed)
        if not check_homomorphism(phi).passed and not check_homomorphism(
            phi, anti=True
        ).passed:
            found = True
            break
    assert found


def test_random_jordan_iso_is_unchanged_under_the_brute_force_enumerator(
    monkeypatch,
):
    # The pruned search must hand rng.choice the same image tuples, in the same
    # order, as the permutation scan it replaced, so seeded outputs stay
    # byte-identical.
    posets = (
        chain(5),
        diamond(),
        boolean_lattice(3),
        disjoint_union(chain(3), chain(3)),
        disjoint_union(chain(4), diamond()),
    )
    cases = [(p, r, s) for p in posets for r in TORSIONFREE_RINGS for s in range(3)]
    fast = [random_jordan_iso(p, r, s).to_json() for p, r, s in cases]
    brute = functools.cache(brute_order_isomorphisms)
    monkeypatch.setattr(
        "fialg.jordan._iter_order_isomorphisms",
        lambda p, q, reversing=False: (m.images for m in brute(p, q, reversing)),
    )
    slow = [random_jordan_iso(p, r, s).to_json() for p, r, s in cases]
    assert fast == slow


def test_order_isomorphisms_scale_past_the_permutation_scan():
    # 20! and 16! permutations: only a pruned search finishes.
    c20, b4 = chain(20), boolean_lattice(4)
    assert [m.images for m in order_isomorphisms(c20, c20)] == [tuple(range(20))]
    assert [m.images for m in order_isomorphisms(c20, c20, reversing=True)] == [
        tuple(range(19, -1, -1))
    ]
    # Aut(B4) permutes the 4 atoms; complementation turns each automorphism
    # into an anti-automorphism.
    assert len(order_isomorphisms(b4, b4)) == 24
    assert len(order_isomorphisms(b4, b4, reversing=True)) == 24


def test_connected_13_element_poset_generates_and_decomposes():
    poset = random_poset(13, 0.3, seed=4)
    assert len(poset.components()) == 1
    for ring in TORSIONFREE_RINGS:
        phi = random_jordan_iso(poset, ring, seed=2)
        assert decompose(phi).report.passed


# -- decomposition -------------------------------------------------------------


def test_decompose_identity_map():
    A = incidence_algebra(P3, RATIONALS)
    dec = decompose(LinMap.identity(A))
    assert dec.report.passed
    assert dec.psi.columns == LinMap.identity(A).columns
    for k in A.basis.strict_indices():
        assert dec.theta.columns[k] == tuple(strict_zero(A)) or list(
            dec.theta.columns[k]
        ) == strict_zero(A)


def test_decompose_anti_map_puts_strict_part_in_theta():
    rev = order_isomorphisms(P3, P3, reversing=True)[0]
    phi = from_order_map(rev, modular(9))
    dec = decompose(phi)
    assert dec.report.passed
    for k in phi.domain.basis.strict_indices():
        assert list(dec.psi.columns[k]) == strict_zero(phi.codomain)
        assert dec.theta.columns[k] == phi.columns[k]


def test_decompose_recovers_mixed_blocks():
    psi, theta = mixed_pair(modular(9))
    phi = near_sum_build(psi, theta)
    dec = decompose(phi)
    assert dec.report.passed
    for k in phi.domain.basis.strict_indices():
        assert dec.psi.columns[k] == psi.columns[k]
        assert dec.theta.columns[k] == theta.columns[k]


@pytest.mark.parametrize("n", [3, 4, 6])
def test_decompose_splits_both_halves_on_one_component(n):
    # Over Z/15 the idempotents 6 and 10 sum to 1, so phi = c o (6 id + 10 rev)
    # is straight on the 6-part and reversed on the 10-part of one connected
    # chain: a proper near-sum, with psi and theta both nonzero on its
    # strict units.
    ring = modular(15)
    poset = chain(n)
    algebra = incidence_algebra(poset, ring)
    rev = from_order_map(order_isomorphisms(poset, poset, reversing=True)[0], ring)
    mixed = LinMap(
        algebra,
        algebra,
        [
            [ring.add(ring.mul(6, a), ring.mul(10, b)) for a, b in zip(e, r)]
            for e, r in zip(LinMap.identity(algebra).columns, rev.columns)
        ],
    )
    conj = conjugate_by_unit(random_unit_series(poset, ring, random.Random(n)))
    phi = conj.compose(mixed)

    assert not check_homomorphism(phi).passed
    assert not check_homomorphism(phi, anti=True).passed
    assert check_jordan(phi).passed
    dec = decompose(phi)
    assert dec.report.passed
    assert dec.psi.columns != phi.columns
    assert dec.theta.columns != phi.columns
    # On a strict unit psi keeps the straight 6-part and theta the reversed
    # 10-part: psi(e_xy) = c(6 e_xy) and theta(e_xy) = c(10 rev(e_xy)).
    for k in algebra.basis.strict_indices():
        assert list(dec.psi.columns[k]) == [ring.mul(6, v) for v in conj.columns[k]]
        assert list(dec.theta.columns[k]) == conj.apply_coords(
            [ring.mul(10, v) for v in rev.columns[k]]
        )
    assert near_sum_build(dec.psi, dec.theta).columns == phi.columns
    assert verify_paper_identities(phi).passed


def test_near_sum_needs_an_incidence_domain():
    A = incidence_algebra(P3, RATIONALS)
    m = LinMap.identity(change_basis(A, random_basis_change(A, 1)))
    with pytest.raises(ContextMismatchError):
        decompose(m)
    with pytest.raises(ContextMismatchError):
        verify_near_sum(Decomposition(m, m, m, None))
    with pytest.raises(ContextMismatchError):
        near_sum_build(m, m)


def test_verify_near_sum_refuses_maps_of_another_algebra():
    # psi or theta from chain-2 against phi on chain-3, and psi on two
    # 2-chains over Z/9, of phi's dimension 6 but over another ring: each
    # decomposition is refused as near_sum_build refuses its inputs, with
    # the same message, before any pair is read.
    phi = random_jordan_iso(chain(3), RATIONALS, seed=1)
    dec = decompose(phi)
    small = decompose(random_jordan_iso(chain(2), RATIONALS, seed=1))
    other = LinMap.identity(incidence_algebra(two_two_chains(), modular(9)))
    assert other.domain.dimension == phi.domain.dimension == 6
    message = "psi and theta must share domain and codomain"
    for psi, theta in (
        (small.psi, dec.theta),
        (dec.psi, small.theta),
        (other, dec.theta),
        (small.psi, small.theta),
    ):
        with pytest.raises(ContextMismatchError, match=message):
            verify_near_sum(Decomposition(phi, psi, theta, None))
    for psi, theta in ((small.psi, dec.theta), (other, dec.theta)):
        with pytest.raises(ContextMismatchError, match=message):
            near_sum_build(psi, theta)
    assert verify_near_sum(Decomposition(phi, dec.psi, dec.theta, None)).passed


def test_decompose_rejects_non_jordan_with_report():
    phi = random_jordan_iso(P3, RATIONALS, seed=3)
    cols = [list(c) for c in phi.columns]
    cols[4][1] = RATIONALS.add(cols[4][1], Fraction(1))
    bad = LinMap(phi.domain, phi.codomain, cols)
    with pytest.raises(NotJordanError) as exc:
        decompose(bad)
    assert exc.value.report is not None and not exc.value.report.passed


def test_decompose_torsion_gate_and_override():
    A = incidence_algebra(P3, modular(6))
    ident = LinMap.identity(A)
    with pytest.raises(TorsionRefusedError):
        decompose(ident)
    dec = decompose(ident, allow_torsion=True)
    assert dec.report.passed


TORSION_REFUSALS = {
    "random_jordan_iso": (
        lambda phi: random_jordan_iso(chain(3), phi.ring, seed=1),
        "modular(4) has 2-torsion; Jordan generation is not meaningful there",
    ),
    "decompose": (
        decompose,
        "modular(4) has 2-torsion; pass allow_torsion=True to proceed",
    ),
    "verify_paper_identities": (
        verify_paper_identities,
        "modular(4) has 2-torsion; pass allow_torsion=True to proceed",
    ),
    "check_jordan": (
        check_jordan,
        "modular(4) has 2-torsion; pass allow_torsion=True to check anyway",
    ),
}


@pytest.mark.parametrize("entry", sorted(TORSION_REFUSALS))
def test_each_torsion_refusal_keeps_its_message(entry):
    call, message = TORSION_REFUSALS[entry]
    phi = LinMap.identity(incidence_algebra(chain(3), modular(4)))
    with pytest.raises(TorsionRefusedError) as exc:
        call(phi)
    assert str(exc.value) == message


def test_decompose_degenerate_posets():
    for poset in (singleton(), antichain(3)):
        phi = random_jordan_iso(poset, RATIONALS, seed=1)
        dec = decompose(phi)
        assert dec.report.passed
        assert dec.phi.domain.basis.strict_indices() == ()
        assert dec.psi.columns == phi.columns
        assert dec.theta.columns == phi.columns


def test_decomposition_json_shape():
    dec = decompose(random_jordan_iso(P2, RATIONALS, seed=9))
    obj = dec.to_json()
    assert set(obj) == {"checks", "psi", "theta"}
    assert [c["name"] for c in obj["checks"]] == [
        "psi_homomorphism",
        "theta_anti_homomorphism",
        "diagonal_agreement",
        "strict_sum_recomposition",
        "strict_annihilation",
    ]
    assert all(c["pass"] for c in obj["checks"])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_near_sum_totality_on_random_seeds(seed):
    poset = TT if seed % 2 else diamond()
    ring = modular(9) if seed % 3 else RATIONALS
    phi = random_jordan_iso(poset, ring, seed)
    dec = decompose(phi)
    assert dec.report.passed
    rebuilt = near_sum_build(dec.psi, dec.theta)
    assert rebuilt.columns == phi.columns


@settings(max_examples=50, deadline=None)
@given(
    st.integers(0, 10 ** 6),
    st.sampled_from(SMALL_POSETS),
    st.sampled_from(TORSIONFREE_RINGS),
    st.integers(0, 10 ** 6),
)
def test_pair_law_forces_triple_law(seed, poset, ring, perturb_seed):
    # when its near-sum report fails, decompose() runs only the pair scan
    # over 2-torsion-free rings, on the strength of this: there the pair law
    # alone decides Jordan-ness
    phi = random_jordan_iso(poset, ring, seed)
    rng = random.Random(perturb_seed)
    cols = [list(c) for c in phi.columns]
    k, r = rng.randrange(len(cols)), rng.randrange(len(cols))
    cols[k][r] = ring.add(cols[k][r], ring.sample_unit(rng))
    perturbed = LinMap(phi.domain, phi.codomain, cols)
    assert check_jordan(phi).passed
    for m in (phi, perturbed):
        assert jordan_pair_check(m).passed == check_jordan(m).passed


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 10 ** 6),
    st.sampled_from(SMALL_POSETS),
    st.sampled_from(TORSIONFREE_RINGS + TORSION_RINGS),
)
def test_near_sum_is_jordan(seed, poset, ring):
    # decompose() takes a passing near-sum report as the Jordan verdict on
    # every ring, 2-torsion included
    if ring.is_two_torsionfree():
        dec = decompose(random_jordan_iso(poset, ring, seed))
    else:
        dec = decompose(order_jordan_map(poset, ring, seed), allow_torsion=True)
    assume(dec.report.passed)
    phi = near_sum_build(dec.psi, dec.theta)
    assert check_jordan(phi, allow_torsion=True).passed


def prepass_decompose(phi, allow_torsion=False):
    """decompose() in its earlier order, kept as the oracle: a full inverse,
    then the Jordan recognizer on every map, then the near-sum report."""
    ring = phi.ring
    if not ring.is_two_torsionfree() and not allow_torsion:
        raise TorsionRefusedError("2-torsion")
    phi.invert()
    jordan_report = (
        jordan_pair_check(phi)
        if ring.is_two_torsionfree()
        else check_jordan(phi, allow_torsion=True)
    )
    if not jordan_report.passed:
        raise NotJordanError("not Jordan", report=jordan_report)
    dom, cod = phi.domain, phi.codomain
    psi_cols, theta_cols = dense_near_sum_columns(phi)
    dec = Decomposition(
        phi,
        LinMap(dom, cod, psi_cols),
        LinMap(dom, cod, theta_cols),
        None,
    )
    return replace(dec, report=scan_near_sum(dec))


def scan_near_sum(dec):
    """verify_near_sum as a scan of every basis pair, kept as the oracle of
    the generator certificate."""
    phi, psi, theta = dec.phi, dec.psi, dec.theta
    ring, cod = phi.ring, phi.codomain
    diagonal = phi.domain.basis.diagonal_indices()
    strict = phi.domain.basis.strict_indices()
    zero = [ring.zero] * cod.dimension

    def agreement():
        for k in diagonal:
            if psi.columns[k] != phi.columns[k]:
                yield (k,), psi.columns[k], phi.columns[k], "psi vs phi"
            if theta.columns[k] != phi.columns[k]:
                yield (k,), theta.columns[k], phi.columns[k], "theta vs phi"

    def recomposition():
        for k in strict:
            s = [ring.add(a, b) for a, b in zip(psi.columns[k], theta.columns[k])]
            if tuple(s) != tuple(phi.columns[k]):
                yield (k,), s, phi.columns[k]

    def annihilation():
        for i in strict:
            for j in strict:
                p = dense_multiply(cod, psi.columns[i], theta.columns[j])
                if p != zero:
                    yield (i, j), p, zero, "psi(b_i) * theta(b_j)"
                q = dense_multiply(cod, theta.columns[i], psi.columns[j])
                if q != zero:
                    yield (i, j), q, zero, "theta(b_i) * psi(b_j)"

    return VerificationReport(
        (
            replace(check_homomorphism(psi).checks[0], name="psi_homomorphism"),
            replace(
                check_homomorphism(theta, anti=True).checks[0],
                name="theta_anti_homomorphism",
            ),
            run_check("diagonal_agreement", agreement()),
            run_check("strict_sum_recomposition", recomposition()),
            run_check("strict_annihilation", annihilation()),
        )
    )


def decompose_outcome(fn, phi, allow_torsion):
    try:
        dec = fn(phi, allow_torsion=allow_torsion)
    except NotJordanError as exc:
        return "NotJordanError", exc.report.to_json(phi.ring.format)
    except FialgError as exc:
        return type(exc).__name__, None
    return "Decomposition", dec.to_json()


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 10 ** 6),
    st.sampled_from(SMALL_POSETS + (antichain(2),)),
    st.sampled_from(TORSIONFREE_RINGS + TORSION_RINGS),
    st.sampled_from(["jordan", "perturbed", "sheared", "singular"]),
    st.booleans(),
)
def test_decompose_agrees_with_prepass_oracle(seed, poset, ring, kind, allow_torsion):
    phi = jordan_map(poset, ring, seed)
    allow_torsion = allow_torsion or not ring.is_two_torsionfree()
    rng = random.Random(seed)
    cols = [list(c) for c in phi.columns]
    k, r = rng.randrange(len(cols)), rng.randrange(len(cols))
    if kind == "perturbed":
        cols[k][r] = ring.add(cols[k][r], ring.sample_unit(rng))
    elif kind == "sheared":
        # the image of e_x gains h times that of e_y.  With h = 2 the pair law
        # fails at (e_x, e_x).  With h = n/2 mod an even n it fails at
        # (e_x, e_xy) when there is a strict e_xy; on an antichain the Jordan
        # laws hold, but psi(e_x) psi(e_y) = h phi(e_y) fails the report
        h = 2 if ring.is_two_torsionfree() else ring.modulus // 2
        x, y = rng.sample(range(poset.size), 2)
        cols[x] = [ring.add(a, ring.mul(h, b)) for a, b in zip(cols[x], cols[y])]
    elif kind == "singular":
        cols[k] = list(cols[(k + 1) % len(cols)])
    m = LinMap(phi.domain, phi.codomain, cols)
    assert decompose_outcome(decompose, m, allow_torsion) == decompose_outcome(
        prepass_decompose, m, allow_torsion
    )


def test_quadratic_check_refuses_a_polarized_jordan_map_over_z4():
    # e_x -> 3 e_x keeps the polarized laws over Z/4, since 2 * (9 - 3) = 0
    # there, but phi(e_x)^2 = 9 e_x = e_x is not phi(e_x) = phi(e_x^2)
    ring = modular(4)
    A = incidence_algebra(antichain(2), ring)
    phi = LinMap(A, A, [[3, 0], [0, 1]])
    report = check_jordan(phi, allow_torsion=True)
    assert [c.name for c in report.checks if not c.passed] == ["jordan_quadratic"]
    quadratic = report.check("jordan_quadratic")
    assert [(w.indices, w.left, w.right) for w in quadratic.witnesses] == [
        ((0, 0), (3, 0), (1, 0))
    ]
    with pytest.raises(NotJordanError) as info:
        decompose(phi, allow_torsion=True)
    assert info.value.report == report


def swap_shear(ring):
    """On the 2-element antichain, phi(e_a) = e_b and phi(e_b) = e_a + e_b.
    phi(e_b e_a e_b) = 0, but phi(e_b)phi(e_a)phi(e_b) = e_b; the polarized
    instances with a repeated index are twice that, which is 0 over Z/2."""
    A = incidence_algebra(antichain(2), ring)
    return LinMap(A, A, [[0, 1], [1, 1]])


@pytest.mark.parametrize("modulus", [2, 4, 6])
def test_quadratic_check_refuses_the_swap_shear_on_every_torsion_ring(modulus):
    phi = swap_shear(modular(modulus))
    report = check_jordan(phi, allow_torsion=True)
    polarized = [c.passed for c in report.checks[:2]]
    assert polarized == [modulus == 2] * 2
    quadratic = report.check("jordan_quadratic")
    assert [(w.indices, w.left, w.right) for w in quadratic.witnesses] == [
        ((0, 1, 0), (0, 0), (0, 1)),
        ((1, 0, 1), (0, 0), (0, 1)),
    ]
    with pytest.raises(NotJordanError) as info:
        decompose(phi, allow_torsion=True)
    assert info.value.report == report


@pytest.mark.parametrize("ring", TORSIONFREE_RINGS, ids=repr)
def test_torsionfree_jordan_reports_keep_two_checks(ring):
    for phi in (swap_shear(ring), random_jordan_iso(TT, ring, seed=2)):
        names = [c.name for c in check_jordan(phi).checks]
        assert names == ["jordan_pairs", "jordan_triples"]


def test_passing_certificate_needs_no_inverse_or_recognizer(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("decompose ran a check the certificate makes moot")

    maps = [random_jordan_iso(TT, ring, seed=5) for ring in TORSIONFREE_RINGS]
    maps.append(LinMap.identity(incidence_algebra(P3, modular(6))))
    monkeypatch.setattr(LinMap, "invert", refuse)
    monkeypatch.setattr("fialg.jordan.jordan_pair_check", refuse)
    monkeypatch.setattr("fialg.jordan.check_jordan", refuse)
    for phi in maps:
        assert decompose(phi, allow_torsion=True).report.passed


def test_certificate_builds_no_dense_list(monkeypatch):
    # decompose runs on the nonzeros: the sandwiches that build psi and
    # theta and the certificate multiply {index: nonzero} dicts, and a
    # passing map builds no dense coordinate list
    phi = random_jordan_iso(chain(11), RATIONALS, seed=3)

    def refuse(*args, **kwargs):
        raise AssertionError("decompose built a dense list")

    monkeypatch.setattr(StructAlgebra, "dense", refuse)
    dec = decompose(phi)
    assert dec.report.passed
    assert _near_sum_holds(dec)
    assert verify_near_sum(dec).passed


def test_decompose_certifies_generated_determinants_without_fractions(monkeypatch):
    # the generator's maps, plain and twisted, over Q, Z and Z/9: every unit
    # determinant is decided in integers or residues, Q's on its integer lift
    eliminate, rings = matrices._eliminate, []

    def no_fractions(ring, rows, reduce_above):
        if ring == RATIONALS:
            raise AssertionError("decompose eliminated in Fractions")
        rings.append(ring)
        return eliminate(ring, rows, reduce_above)

    maps = [
        phi
        for ring in TORSIONFREE_RINGS
        for poset in (chain(11), boolean_lattice(3), disjoint_union(chain(3), diamond()))
        for twist in (False, True)
        for phi in jordan_corpus(poset, ring, seeds=range(2), twist=twist)
    ]
    monkeypatch.setattr(matrices, "_eliminate", no_fractions)
    for phi in maps:
        rings.clear()
        assert decompose(phi).report.passed
        assert rings == [phi.ring.screen or phi.ring]


ORACLE_POSETS = st.sampled_from(all_posets_up_to(4)) | st.sampled_from(
    [chain(7), disjoint_union(chain(5), chain(5)), boolean_lattice(3)]
)


def damaged_map(phi, kind, rng):
    """phi itself, or phi with one entry shifted by a unit, twice one
    diagonal image added to another, or one column replaced by random ring
    elements."""
    ring = phi.ring
    cols = [list(c) for c in phi.columns]
    d, n = len(cols), phi.domain.basis.poset.size
    k, r = rng.randrange(d), rng.randrange(d)
    if kind == "perturbed":
        cols[k][r] = ring.add(cols[k][r], ring.sample_unit(rng))
    elif kind == "sheared" and n > 1:
        x, y = rng.sample(range(n), 2)
        cols[x] = [ring.add(a, ring.add(b, b)) for a, b in zip(cols[x], cols[y])]
    elif kind == "random-column":
        cols[k] = [ring.sample(rng) for _ in range(d)]
    return LinMap(phi.domain, phi.codomain, cols)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(all_posets_up_to(4) + [chain(6)]),
    st.sampled_from(TORSIONFREE_RINGS + TORSION_RINGS),
    st.sampled_from(["jordan", "perturbed", "random-column"]),
    st.booleans(),
    st.integers(0, 10 ** 6),
)
def test_sparse_sandwich_columns_match_dense_products(poset, ring, kind, twist, seed):
    rng = random.Random(seed)
    phi = damaged_map(jordan_map(poset, ring, seed), kind, rng)
    if twist:
        phi = rebase_codomain(phi, random_basis_change(phi.codomain, seed))
    dense = dense_near_sum_columns(phi)
    for sparse, columns in zip(_near_sum_columns(phi), dense):
        assert [phi.codomain.dense(col) for col in sparse] == [
            list(col) for col in columns
        ]


def sheared(phi, x, y):
    """phi with the image of e_x raised by twice the image of e_y."""
    add = phi.ring.add
    cols = [list(c) for c in phi.columns]
    cols[x] = [add(a, add(b, b)) for a, b in zip(cols[x], cols[y])]
    return LinMap(phi.domain, phi.codomain, cols)


@pytest.mark.parametrize(
    "poset", [chain(7), disjoint_union(chain(7), chain(7))], ids=["7", "2x7"]
)
def test_decompose_stops_at_the_first_pair_law_failure(poset, monkeypatch):
    # The shear phi(e_x) += 2 phi(e_y) fails the pair law at (e_x, e_x), and
    # at no square before it.  The pair scan, squares first, is over after
    # x + 1 pairs, where jordan_pair_check evaluates all d(d+1)/2, and the
    # exception's report is that full check, built when it is first read.
    ring = RATIONALS
    phi = random_jordan_iso(poset, ring, seed=1)
    d, n = phi.domain.dimension, poset.size
    products = [0]
    multiply = StructAlgebra.multiply

    def counting(self, u, v):
        products[0] += 1
        return multiply(self, u, v)

    scans = []
    verdict = linmaps._jordan_pair_verdict

    def counted_verdict(m):
        before = products[0]
        result = verdict(m)
        scans.append(products[0] - before)
        return result

    built = []

    def recorded_pair_check(m):
        built.append(m)
        return jordan_pair_check(m)

    monkeypatch.setattr(StructAlgebra, "multiply", counting)
    monkeypatch.setattr("fialg.jordan._jordan_pair_verdict", counted_verdict)
    monkeypatch.setattr("fialg.jordan.jordan_pair_check", recorded_pair_check)
    for x, y in [(0, n - 1), (n // 2, 1), (n - 1, 0)]:
        bad = sheared(phi, x, y)
        products[0] = 0
        with pytest.raises(NotJordanError) as exc:
            decompose(bad)
        assert scans.pop() == 2 * (x + 1)
        assert products[0] < d * (d + 1) // 2
        assert built == []
        report = exc.value.report
        assert exc.value.report is report
        assert built == [bad]  # built on the first read, and only then
        built.clear()
        fmt = ring.format
        assert report.to_json(fmt) == jordan_pair_check(bad).to_json(fmt)
        assert not report.passed


def damaged_decomposition(phi, corrupt, rng):
    """The near-sum candidate decompose() builds from phi, with at most one
    diagonal, cover or other strict column of psi or theta replaced by u *
    column + r * e_t for a random unit u and scalar r.  A strict column is
    corrupted with phi's column recomposed as psi + theta, so
    strict_sum_recomposition still holds; a "shared" diagonal column is
    corrupted in phi, psi and theta alike, so diagonal_agreement still
    holds.  "psi-moved" and "theta-moved" are moved_within_peirce_space."""
    ring = phi.ring
    dom = phi.domain
    basis = dom.basis
    cols = {"phi": [list(c) for c in phi.columns]}
    cols["psi"], cols["theta"] = map(list, dense_near_sum_columns(phi))
    poset = basis.poset
    covers = [
        basis.index_of[(poset.index(x), poset.index(y))] for x, y in poset.covers()
    ]
    if corrupt in ("psi-moved", "theta-moved"):
        moved_within_peirce_space(cols, basis, ring, corrupt == "theta-moved", rng)
    elif corrupt is not None:
        target, block = corrupt.split("-")
        pool = {
            "cover": covers,
            "strict": [k for k in basis.strict_indices() if k not in covers],
            "diagonal": list(basis.diagonal_indices()),
        }[block]
        if pool:
            k = rng.choice(pool)
            u, r = ring.sample_unit(rng), ring.sample(rng)
            t = rng.randrange(len(cols["phi"]))
            names = ("phi", "psi", "theta") if target == "shared" else (target,)
            for name in names:
                col = [ring.mul(u, v) for v in cols[name][k]]
                col[t] = ring.add(col[t], r)
                cols[name][k] = col
            if block != "diagonal":
                cols["phi"][k] = [
                    ring.add(a, b) for a, b in zip(cols["psi"][k], cols["theta"][k])
                ]
    maps = {name: LinMap(dom, phi.codomain, c) for name, c in cols.items()}
    return Decomposition(maps["phi"], maps["psi"], maps["theta"], None)


def moved_within_peirce_space(cols, basis, ring, mirrored, rng):
    """Move psi(e_vw) into theta(g), for a random cover g = e_uv and w > v,
    in the dense columns cols of phi, psi and theta.  phi(e_w) is merged
    into phi(e_u) (P_u + P_w, and 0 for e_w, in all three maps), psi and
    theta keep only g, and phi is recomposed.  psi(e_vw) lies in P_v A P_w,
    inside theta(g)'s Peirce space P_v A (P_u + P_w).  When the diagonal
    images are orthogonal idempotents, every check of the full scan then
    holds but annihilation in the one order psi(g) theta(g) = psi(e_uw),
    which is not zero where psi is live.  Mirrored, theta(e_wu) moves into
    psi(g) for w < u, phi(e_w) is merged into phi(e_v), and only theta(g)
    psi(g) = theta(e_wv) can fail.  Nothing changes without such a triple."""
    poset, at = basis.poset, basis.index_of
    rel, n = poset.relation, poset.size
    triples = [
        (u, v, w)
        for u, v in ((poset.index(a), poset.index(b)) for a, b in poset.covers())
        for w in range(n)
        if w not in (u, v) and (rel[w][u] if mirrored else rel[v][w])
    ]
    if not triples:
        return
    u, v, w = rng.choice(triples)
    g = at[u, v]
    source, other = ("theta", "psi") if mirrored else ("psi", "theta")
    moved = cols[source][at[w, u] if mirrored else at[v, w]]
    kept = {source: cols[source][g], other: moved}
    merged, dropped = at[(v, v) if mirrored else (u, u)], at[w, w]
    zero = [ring.zero] * len(moved)
    for c in cols.values():
        c[merged] = [ring.add(a, b) for a, b in zip(c[merged], c[dropped])]
        c[dropped] = zero
    for k in basis.strict_indices():
        for name in ("psi", "theta"):
            cols[name][k] = kept[name] if k == g else zero
        cols["phi"][k] = [
            ring.add(a, b) for a, b in zip(cols["psi"][k], cols["theta"][k])
        ]


@settings(max_examples=400, deadline=None)
@given(
    ORACLE_POSETS,
    st.sampled_from(TORSIONFREE_RINGS + TORSION_RINGS + tuple(SPLIT_IDEMPOTENTS)),
    st.sampled_from(["jordan", "perturbed", "sheared", "random-column"]),
    st.sampled_from(
        [None, "psi-cover", "theta-cover", "psi-strict", "theta-strict",
         "psi-diagonal", "theta-diagonal", "shared-diagonal", "psi-moved",
         "theta-moved"]
    ),
    st.booleans(),
    st.integers(0, 10 ** 6),
)
def test_generator_certificate_agrees_with_full_scan(
    poset, ring, kind, corrupt, twist, seed
):
    rng = random.Random(seed)
    phi = damaged_map(jordan_map(poset, ring, seed), kind, rng)
    if twist:
        phi = rebase_codomain(phi, random_basis_change(phi.codomain, seed))
    dec = damaged_decomposition(phi, corrupt, rng)
    expected = scan_near_sum(dec)
    assert _near_sum_holds(dec) == expected.passed
    fmt = ring.format
    assert verify_near_sum(dec).to_json(fmt) == expected.to_json(fmt)


def certificate_families(dec):
    """The pair families of the near-sum certificate that fail on dec, in
    the order the certificate lists them."""
    basis = dec.phi.domain.basis
    diagonal = basis.diagonal_indices()
    placements, rows, left, right = _cover_pairs(basis)
    hom = linmaps._homomorphism_failures

    def both(pairs):
        return itertools.chain(
            hom(dec.psi, pairs, anti=False), hom(dec.theta, pairs, anti=True)
        )

    runs = {
        "idempotent pairs": hom(
            dec.psi, [(i, j) for i in diagonal for j in diagonal], anti=False
        ),
        "cover placements": both(placements),
        "cover rows": both(rows),
        "psi(g) theta(e_yv)": _annihilation_failures(dec, left),
        "theta(g) psi(e_uz)": _annihilation_failures(dec, right),
    }
    return [name for name, failures in runs.items() if next(failures, None)]


def test_generator_certificate_sees_each_clause_alone():
    # Each decomposition breaks one clause of the full scan and keeps the
    # other four, so a certificate that skips that clause's pairs, or one of
    # its orders, would pass it.  Each pair family of the certificate is
    # also the only one to fail on some case, so a certificate without that
    # family would pass the case.
    ring = RATIONALS
    c2, c3 = chain(2), chain(3)

    def decomposition(poset, codomain_poset, diag, psi_strict, theta_strict):
        dom = incidence_algebra(poset, ring)
        cod = incidence_algebra(codomain_poset, ring)

        def vec(entries):
            out = [ring.zero] * cod.dimension
            for pair, value in entries.items():
                out[cod.basis.index_of[pair]] = Fraction(value)
            return out

        psi_cols, theta_cols = [], []
        for (i, j) in dom.basis.pairs:
            if i == j:
                psi_cols.append(vec(diag[i]))
                theta_cols.append(vec(diag[i]))
            else:
                psi_cols.append(vec(psi_strict.get((i, j), {})))
                theta_cols.append(vec(theta_strict.get((i, j), {})))
        psi = LinMap(dom, cod, psi_cols)
        theta = LinMap(dom, cod, theta_cols)
        phi = LinMap(
            dom,
            cod,
            [
                p if i == j else [ring.add(a, b) for a, b in zip(p, t)]
                for (i, j), p, t in zip(dom.basis.pairs, psi.columns, theta.columns)
            ],
        )
        return Decomposition(phi, psi, theta, None)

    units = {0: {(0, 0): 1}, 1: {(1, 1): 1}, 2: {(2, 2): 1}}
    cases = {
        # psi(e_12) doubled: only the cover row (e_12, e_23) breaks
        "psi_homomorphism": decomposition(
            c3, c3, units, {(0, 1): {(0, 1): 2}, (1, 2): {(1, 2): 1},
                            (0, 2): {(0, 2): 1}}, {}
        ),
        # the mirror image, in theta
        "theta_anti_homomorphism": decomposition(
            c3, c3, units, {}, {(0, 1): {(1, 2): 2}, (1, 2): {(0, 1): 1},
                                (0, 2): {(0, 2): 1}}
        ),
        # phi(e_1) doubled in phi, psi and theta: only rows of the
        # idempotent e_1 break, (e_1, e_1) in both maps and (e_1, e_12) in psi
        "idempotent": decomposition(
            c2, c2, {0: {(0, 0): 2}, 1: {(1, 1): 1}}, {(0, 1): {(0, 1): 1}}, {}
        ),
        # e_1 -> e_a, e_2 -> e_a + e_b and e_12 -> 0: idempotents whose
        # product e_a is not zero, with nothing for a cover pair to see
        "idempotent pairs": decomposition(
            c2, c2, {0: {(0, 0): 1}, 1: {(0, 0): 1, (1, 1): 1}}, {}, {}
        ),
        # psi(e_12) = e_ab + e_b is not e_a psi(e_12) = e_ab; chain-2 has no
        # cover row
        "cover placements": decomposition(
            c2, c2, {0: {(0, 0): 1}, 1: {(1, 1): 1}},
            {(0, 1): {(0, 1): 1, (1, 1): 1}}, {}
        ),
        # into chain-3 with e_1 -> e_a + e_c, e_2 -> e_b, psi(e_12) = e_ab and
        # theta(e_12) = e_bc: psi(e_12) theta(e_12) = e_ac, the other order 0
        "psi(b_i) * theta(b_j)": decomposition(
            c2, c3, {0: {(0, 0): 1, (2, 2): 1}, 1: {(1, 1): 1}},
            {(0, 1): {(0, 1): 1}}, {(0, 1): {(1, 2): 1}}
        ),
        # e_1 -> e_b, e_2 -> e_a + e_c, psi(e_12) = e_bc, theta(e_12) = e_ab
        "theta(b_i) * psi(b_j)": decomposition(
            c2, c3, {0: {(1, 1): 1}, 1: {(0, 0): 1, (2, 2): 1}},
            {(0, 1): {(1, 2): 1}}, {(0, 1): {(0, 1): 1}}
        ),
    }
    failing = {
        "psi_homomorphism": ["psi_homomorphism"],
        "theta_anti_homomorphism": ["theta_anti_homomorphism"],
        "idempotent": ["psi_homomorphism", "theta_anti_homomorphism"],
        "idempotent pairs": ["psi_homomorphism", "theta_anti_homomorphism"],
        "cover placements": ["psi_homomorphism"],
        "psi(b_i) * theta(b_j)": ["strict_annihilation"],
        "theta(b_i) * psi(b_j)": ["strict_annihilation"],
    }
    families = {
        "psi_homomorphism": ["cover rows"],
        "theta_anti_homomorphism": ["cover placements", "cover rows"],
        "idempotent": ["idempotent pairs", "cover placements"],
        "idempotent pairs": ["idempotent pairs"],
        "cover placements": ["cover placements"],
        "psi(b_i) * theta(b_j)": ["psi(g) theta(e_yv)"],
        "theta(b_i) * psi(b_j)": ["theta(g) psi(e_uz)"],
    }
    for case, dec in cases.items():
        expected = scan_near_sum(dec)
        bad = [c for c in expected.checks if not c.passed]
        assert [c.name for c in bad] == failing[case], case
        if failing[case] == ["strict_annihilation"]:
            assert {w.note for w in bad[0].witnesses} == {case}
        assert certificate_families(dec) == families[case], case
        assert not _near_sum_holds(dec), case
        assert verify_near_sum(dec) == expected
    alone = {names[0] for names in families.values() if len(names) == 1}
    assert alone == {
        "idempotent pairs", "cover placements", "cover rows",
        "psi(g) theta(e_yv)", "theta(g) psi(e_uz)",
    }


@pytest.mark.parametrize("ring", (RATIONALS, modular(9), modular(15)), ids=repr)
def test_moved_corruption_fails_one_annihilation_order_alone(ring):
    # Each corruption breaks only strict_annihilation, in its one order, and
    # only the certificate family of that order sees it, so a certificate
    # that drops the family passes it.
    orders = {
        "psi-moved": ("psi(b_i) * theta(b_j)", "psi(g) theta(e_yv)"),
        "theta-moved": ("theta(b_i) * psi(b_j)", "theta(g) psi(e_uz)"),
    }
    seen = collections.Counter()
    for poset in (chain(3), diamond(), boolean_lattice(3)):
        for seed in range(4):
            for corrupt, (note, family) in orders.items():
                phi = jordan_map(poset, ring, seed)
                dec = damaged_decomposition(phi, corrupt, random.Random(seed))
                bad = [c for c in scan_near_sum(dec).checks if not c.passed]
                if not bad:  # the moved half is not live on this map
                    assert _near_sum_holds(dec)
                    continue
                assert [c.name for c in bad] == ["strict_annihilation"]
                assert {w.note for w in bad[0].witnesses} == {note}
                assert certificate_families(dec) == [family]
                assert not _near_sum_holds(dec)
                seen[corrupt] += 1
    assert set(seen) == set(orders)


def test_twisted_codomain_certificate_agrees_with_full_scan():
    for ring in TORSIONFREE_RINGS:
        for phi in jordan_corpus(diamond(), ring, seeds=range(2), twist=True):
            dec = decompose(phi)
            assert _near_sum_holds(dec)
            assert dec.report == scan_near_sum(dec)


@pytest.mark.parametrize(
    "poset, ring, products",
    [
        (chain(13), RATIONALS, 349),
        (disjoint_union(chain(7), chain(7)), INTEGERS, 206),
        (chain(13), modular(9), 505),
    ],
    ids=["13", "2x7", "13-mod9"],
)
def test_certificate_makes_one_product_per_listed_pair(poset, ring, products,
                                                        monkeypatch):
    # n squares in characteristic 0 and n^2 idempotent pairs over Z/n; per
    # cover e_uv, for psi and for theta, two placements and one row per
    # z > v; one annihilation pair per y < v and one per z > u.  Chain-13
    # over Q: 13 + 2 * (24 + 66) + 12 * 13 = 349, and 169 in place of 13 over
    # Z/9, 505.  Two 7-chains over Z: 14 + 2 * (24 + 30) + 12 * 7 = 206, where
    # the 196 pairs made 388.  The generator rows made (n + c) * d products
    # per map and 2 c s for annihilation: 6,422 and 3,920.
    dec = decompose(random_jordan_iso(poset, ring, seed=3))
    calls = counted_products(monkeypatch)
    assert _near_sum_holds(dec)
    assert calls[0] == products


@pytest.mark.parametrize(
    "poset", [chain(7), disjoint_union(chain(7), chain(7))], ids=["7", "2x7"]
)
def test_decompose_rejects_a_shear_before_building_psi_and_theta(poset,
                                                                 monkeypatch):
    # phi(e_x) += 2 phi(e_y) breaks an idempotent pair, so decompose goes to
    # the pair scan without the sandwiches: at most n^2 products before it
    # and 2n in it (63 and 224), where building psi and theta first made up
    # to 245 and 882
    def refuse(*args, **kwargs):
        raise AssertionError("decompose built psi and theta for a shear")

    n = poset.size
    maps = [random_jordan_iso(poset, ring, seed=1) for ring in TORSIONFREE_RINGS]
    monkeypatch.setattr("fialg.jordan._near_sum_columns", refuse)
    calls = counted_products(monkeypatch)
    worst = 0
    for phi in maps:
        for x, y in itertools.permutations(range(n), 2):
            bad = sheared(phi, x, y)
            calls[0] = 0
            with pytest.raises(NotJordanError):
                decompose(bad)
            worst = max(worst, calls[0])
    assert 0 < worst <= n * n + 2 * n


def scan_idempotents_hold(m):
    """The n^2 idempotent pairs m(e_x) m(e_y) = delta_xy m(e_x), every one:
    the oracle of the characteristic-0 shortcut in _idempotents_hold."""
    pairs = itertools.product(m.domain.basis.diagonal_indices(), repeat=2)
    return next(linmaps._homomorphism_failures(m, pairs, anti=False), None) is None


def z3_antichain_map():
    """Over Z/3 on the 4-element antichain: images (1,1,0,0), (1,0,1,0),
    (1,0,0,1) and (1,0,0,0), idempotents that sum to (4,1,1,1) = 1, with
    determinant -1, but (1,1,0,0)(1,0,1,0) = (1,0,0,0) is not 0."""
    algebra = incidence_algebra(antichain(4), modular(3))
    columns = [[1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1], [1, 0, 0, 0]]
    return LinMap(algebra, algebra, columns)


def test_orthogonality_shortcut_is_gated_on_characteristic_zero(monkeypatch):
    phi = z3_antichain_map()
    assert not _idempotents_hold(phi) and not scan_idempotents_hold(phi)
    with pytest.raises(NotJordanError):
        decompose(phi)
    # Read as torsion-free, the squares and the sum pass it, and so does
    # the certificate: the antichain has no cover to check.
    monkeypatch.setattr(phi.ring, "is_torsion_free", True)
    assert _idempotents_hold(phi)
    assert decompose(phi).report.passed


class IntegersWithTorsionFlag(IntegerRing):
    """Z's arithmetic, so characteristic 0, reporting torsion as a ring such
    as Z x Z/3 does."""

    is_torsion_free = False


def test_a_characteristic_zero_ring_with_torsion_scans_every_idempotent_pair(
    monkeypatch,
):
    # Cochran's shortcut makes the n squares; a ring that reports torsion
    # makes all n^2 pairs, whatever its characteristic
    n = 4
    calls = counted_products(monkeypatch)
    for ring, products in ((INTEGERS, n), (IntegersWithTorsionFlag(), n * n)):
        phi = random_jordan_iso(antichain(n), ring, seed=1)
        calls[0] = 0
        assert _idempotents_hold(phi)
        assert calls[0] == products, ring
        assert scan_idempotents_hold(phi)


@pytest.mark.parametrize("ring", [RATIONALS, INTEGERS], ids=repr)
def test_orthogonality_shortcut_scans_when_the_squares_miss_one(ring, monkeypatch):
    # Every image is an idempotent, but they sum to 2 e_1 + e_2 or to e_1,
    # not to 1: the pair scan decides, orthogonal or not, and runs its n^2
    # pairs after the n squares.
    algebra = incidence_algebra(antichain(3), ring)
    zero, one = ring.zero, ring.one
    e1, e2 = [one, zero, zero], [zero, one, zero]
    calls = counted_products(monkeypatch)
    for columns, orthogonal, products in (
        ([e1, e1, e2], False, 3 + 2),  # the scan stops at (e_1, e_2)
        ([e1, [zero] * 3, e2], True, 3 + 9),
    ):
        phi = LinMap(algebra, algebra, columns)
        calls[0] = 0
        assert _idempotents_hold(phi) is orthogonal
        assert calls[0] == products
        assert scan_idempotents_hold(phi) is orthogonal


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(all_posets_up_to(4)),
    st.sampled_from([RATIONALS, INTEGERS]),
    st.sampled_from(["jordan", "perturbed", "sheared", "random-column"]),
    st.booleans(),
    st.integers(0, 10 ** 6),
)
def test_orthogonality_shortcut_matches_the_pair_scan(poset, ring, kind, twist, seed):
    phi = identity_corpus_map(poset, ring, kind, twist, seed)
    assert _idempotents_hold(phi) == scan_idempotents_hold(phi)


def test_decompose_reports_the_full_scan_when_the_recognizer_passes(monkeypatch):
    # No invertible map reaches this return: a map that fails the
    # certificate fails the recognizer too, as
    # test_the_certificate_decides_jordan_on_invertible_maps checks on the
    # identity corpus.  With a recognizer that passes, decompose
    # must return the full scan's report on the sandwich psi and theta, built
    # late when the idempotent pairs failed (the shears) and early when only
    # a cover pair did (the strict perturbation).
    passing = run_check("jordan_pairs", [])
    monkeypatch.setattr("fialg.jordan._jordan_pair_verdict", lambda m: passing)
    monkeypatch.setattr(
        "fialg.jordan.check_jordan",
        lambda m, allow_torsion: VerificationReport((passing,)),
    )
    phi = random_jordan_iso(chain(4), INTEGERS, seed=3)
    cols = [list(c) for c in phi.columns]
    k = phi.domain.basis.strict_indices()[-1]
    cols[k][0] += 1
    torsion = order_jordan_map(chain(3), modular(4), seed=3)
    maps = [
        sheared(phi, 0, 1),
        LinMap(phi.domain, phi.codomain, cols),
        sheared(torsion, 0, 1),
    ]
    for bad in maps:
        dec = decompose(bad, allow_torsion=True)
        cod = bad.codomain
        for m, sparse in zip((dec.psi, dec.theta), _near_sum_columns(bad)):
            assert m.sparse_columns == tuple(sparse)
            assert m.columns == tuple(tuple(cod.dense(c)) for c in sparse)
        assert dec.report == scan_near_sum(dec)
        assert not dec.report.passed


@pytest.mark.parametrize("ring", tuple(SPLIT_IDEMPOTENTS), ids=repr)
def test_proper_near_sums_split_both_halves(ring):
    for poset in (chain(3), diamond(), boolean_lattice(2), two_two_chains()):
        phi = proper_near_sum(poset, ring, seed=4)
        assert not check_homomorphism(phi).passed
        assert not check_homomorphism(phi, anti=True).passed
        dec = decompose(phi)
        assert dec.report == scan_near_sum(dec)
        assert dec.report.passed
        for k in phi.domain.basis.strict_indices():
            assert dec.psi.sparse_columns[k] and dec.theta.sparse_columns[k]


def test_decompose_runs_the_full_scan_only_for_jordan_maps(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("decompose ran the full near-sum scan")

    maps = [random_jordan_iso(TT, ring, seed=5) for ring in TORSIONFREE_RINGS]
    maps.append(LinMap.identity(incidence_algebra(P3, modular(6))))
    phi = random_jordan_iso(chain(4), INTEGERS, seed=3)
    cols = [list(c) for c in phi.columns]
    cols[0] = [a + 2 * b for a, b in zip(cols[0], cols[1])]
    bad = LinMap(phi.domain, phi.codomain, cols)
    oracle = decompose_outcome(prepass_decompose, bad, False)
    assert oracle[0] == "NotJordanError"

    monkeypatch.setattr("fialg.jordan._near_sum_scan", refuse)
    monkeypatch.setattr("fialg.jordan.run_check", refuse)
    for m in maps:
        assert decompose(m, allow_torsion=True).report.passed
    assert decompose_outcome(decompose, bad, False) == oracle


def test_decompose_refuses_singular_maps_on_every_ring():
    # scale the first diagonal column by a non-unit: the determinant is then
    # that non-unit
    for ring, non_unit in [
        (RATIONALS, Fraction(0)),
        (INTEGERS, 2),
        (modular(9), 3),
        (modular(15), 5),
    ]:
        A = incidence_algebra(P3, ring)
        cols = [list(c) for c in LinMap.identity(A).columns]
        cols[0] = [ring.mul(non_unit, v) for v in cols[0]]
        with pytest.raises(NotInvertibleError):
            decompose(LinMap(A, A, cols))


def test_decompose_refuses_a_map_onto_an_algebra_of_another_dimension():
    # {index: nonzero} columns carry no height; the square check reads the
    # codomain's dimension
    A = incidence_algebra(P3, RATIONALS)
    B = incidence_algebra(diamond(), RATIONALS)
    with pytest.raises(NotInvertibleError, match="^matrix is not square$"):
        decompose(zero_map(A, B))


def test_verify_near_sum_flags_tampering():
    # an order-reversing map has all of its strict part in theta; claiming
    # psi := phi then breaks both the homomorphism law and the strict sums
    rev = order_isomorphisms(P3, P3, reversing=True)[0]
    phi = from_order_map(rev, RATIONALS)
    dec = decompose(phi)
    tampered = Decomposition(phi, phi, dec.theta, None)
    rep = verify_near_sum(tampered)
    assert not rep.passed
    bad_names = {c.name for c in rep.checks if not c.passed}
    assert "strict_sum_recomposition" in bad_names
    assert "psi_homomorphism" in bad_names


# -- the oracle ----------------------------------------------------------------


def test_extension_agrees_with_inverse_oracle():
    rng = random.Random(42)
    for poset in (P3, diamond(), TT):
        for ring in (RATIONALS, modular(9)):
            for phi in jordan_corpus(poset, ring, seeds=range(2), twist=True):
                dec = decompose(phi)
                for _ in range(5):
                    f = random_series(poset, ring, rng, density=0.6)
                    coords = phi.domain.element_from_series(f)
                    psi_lin = dec.psi.apply_coords(coords)
                    psi_ora = extend_via_inverse(phi, f)
                    assert list(psi_ora) == list(psi_lin)
                    th_lin = dec.theta.apply_coords(coords)
                    th_ora = extend_via_inverse(phi, f, anti=True)
                    assert list(th_ora) == list(th_lin)


def dense_extend_via_inverse(phi, f, anti, phi_inverse):
    """extend_via_inverse on dense coordinate lists, each sandwich and image
    multiplied with dense_multiply and dense_mat_vec: the oracle of
    the sparse construction."""
    dom, cod, ring = phi.domain, phi.codomain, phi.ring
    basis = dom.basis
    f_diag, f_strict = f.split_diag()
    z_coords = dom.element_from_series(f_strict)
    phi_z = dense_mat_vec(ring, phi.columns, z_coords)
    g_coeffs = {}
    for (i, j) in basis.poset.strict_index_pairs():
        ex = phi.columns[basis.index_of[(i, i)]]
        ey = phi.columns[basis.index_of[(j, j)]]
        if anti:
            a = dense_multiply(cod, dense_multiply(cod, ey, phi_z), ex)
        else:
            a = dense_multiply(cod, dense_multiply(cod, ex, phi_z), ey)
        v = dense_mat_vec(ring, phi_inverse.columns, a)[basis.index_of[(i, j)]]
        if v != ring.zero:
            g_coeffs[(i, j)] = v
    g = FinSeries(basis.poset, ring, g_coeffs)
    total = dom.element_from_series(f_diag + g)
    return tuple(dense_mat_vec(ring, phi.columns, total))


@pytest.mark.parametrize("ring", TORSIONFREE_RINGS, ids=repr)
@pytest.mark.parametrize("twist", [False, True], ids=["incidence", "twisted"])
def test_extension_matches_the_dense_oracle_on_small_posets(ring, twist):
    # Every labeled poset of at most 4 elements: the generator's map and a
    # perturbed copy (when invertible), which the construction does not need
    # to be Jordan, against two sample series, for psi and for theta.
    rng = random.Random(5)
    for seed, poset in enumerate(all_posets_up_to(4)):
        phi = identity_corpus_map(poset, ring, "jordan", twist, seed)
        perturbed = identity_corpus_map(poset, ring, "perturbed", twist, seed)
        for m in (phi, perturbed):
            try:
                inv = m.invert()
            except NotInvertibleError:
                continue
            for _, anti in itertools.product(range(2), (False, True)):
                f = random_series(poset, ring, rng, density=0.6)
                got = extend_via_inverse(m, f, anti=anti)
                assert got == dense_extend_via_inverse(m, f, anti, inv)


def test_extension_builds_one_dense_list(monkeypatch):
    # the construction runs on the nonzeros; its one dense list is the
    # coordinates of the element it returns
    phi = rebase_codomain(
        random_jordan_iso(diamond(), modular(9), seed=2),
        random_basis_change(incidence_algebra(diamond(), modular(9)), seed=3),
    )
    f = random_series(diamond(), modular(9), random.Random(1), density=0.6)
    dense_lists, dense = [], StructAlgebra.dense

    def counted(self, vec):
        dense_lists.append(vec)
        return dense(self, vec)

    monkeypatch.setattr(StructAlgebra, "dense", counted)
    for anti in (False, True):
        extend_via_inverse(phi, f, anti=anti)
    assert len(dense_lists) == 2
    assert "columns" not in vars(phi)


# -- identity suite ------------------------------------------------------------


def test_identity_suite_passes_on_corpus():
    for poset in (P3, TT):
        for ring in (RATIONALS, modular(9)):
            for phi in jordan_corpus(poset, ring, seeds=range(2)):
                rep = verify_paper_identities(phi, seed=1)
                assert rep.passed, rep.summary()


def test_identity_suite_check_names():
    phi = random_jordan_iso(P2, RATIONALS, seed=0)
    rep = verify_paper_identities(phi)
    names = [c.name for c in rep.checks]
    assert names == [
        "unit_sandwich_strict",
        "unit_sandwich_diagonal",
        "coefficient_sandwich",
        "polarized_triple",
        "five_factor",
        "commuting_idempotent",
        "annihilating_idempotent",
        "diagonal_restriction_homomorphism",
        "psi_sandwich",
        "theta_sandwich",
        "psi_window_annihilation",
        "theta_window_annihilation",
        "sandwich_equality_criterion",
    ]


def test_identity_suite_rejects_corrupted_map():
    phi = random_jordan_iso(P3, modular(9), seed=6)
    cols = [list(c) for c in phi.columns]
    cols[5][2] = (cols[5][2] + 1) % 9
    bad = LinMap(phi.domain, phi.codomain, cols)
    rep = verify_paper_identities(bad, seed=1)
    assert not rep.passed
    failing = [c for c in rep.checks if not c.passed]
    assert all(c.witnesses for c in failing)


def test_identity_suite_rejects_non_jordan_bijection():
    # a random invertible matrix is (essentially) never Jordan; the sandwich
    # families must fail with explicit witnesses rather than raise
    ring = RATIONALS
    A = incidence_algebra(P3, ring)
    rng = random.Random(10)
    from fialg import NotInvertibleError

    while True:
        cols = [
            [Fraction(rng.randint(-3, 3)) for _ in range(A.dimension)]
            for _ in range(A.dimension)
        ]
        cand = LinMap(A, A, cols)
        try:
            cand.invert()
        except NotInvertibleError:
            continue
        if not check_jordan(cand).passed:
            break
    rep = verify_paper_identities(cand, seed=3)
    assert not rep.passed
    assert not rep.check("unit_sandwich_strict").passed or not rep.check(
        "coefficient_sandwich"
    ).passed


def test_identity_suite_torsion_gate():
    A = incidence_algebra(P2, modular(6))
    ident = LinMap.identity(A)
    with pytest.raises(TorsionRefusedError):
        verify_paper_identities(ident)
    assert verify_paper_identities(ident, allow_torsion=True).passed


def scan_window_failures(phi, phi_inverse, columns, strict_samples, rng, mirror):
    """The window annihilation families as a direct dense scan: phi(e_W)
    summed afresh for every window, the five factors multiplied left to
    right with dense_multiply, and each interval rebuilt per pair.
    Same instances and rng draws as fialg.jordan._window_failures, which it
    checks; columns are dense lists."""
    dom, cod, ring = phi.domain, phi.codomain, phi.ring
    basis = dom.basis
    poset = basis.poset
    n, labels = poset.size, poset.elements
    add = ring.add
    zero_vec = [ring.zero] * cod.dimension

    def vec(f):
        return dom.element_from_series(f)

    def diag_img(i):
        return phi.columns[basis.index_of[(i, i)]]

    def mulc(*vectors):
        out = vectors[0]
        for v in vectors[1:]:
            out = dense_multiply(cod, out, v)
        return out

    name = "theta" if mirror else "psi"
    pulled = []
    for z in strict_samples:
        image = dense_mat_vec(ring, columns, vec(z))
        coords = dense_mat_vec(ring, phi_inverse.columns, image)
        series = series_of(dom, coords)
        pulled.append((image, series))
    for (s1, (img1, f1)) in enumerate(pulled):
        if not f1.is_strict():
            yield (s1,), vec(f1.split_diag()[0]), [ring.zero] * dom.dimension, (
                f"phi-inverse of {name}(f) has a diagonal part"
            )
            continue
        for (s2, (img2, f2)) in enumerate(pulled):
            if not f2.is_strict():
                continue
            for (i, j) in poset.comparable_index_pairs():
                interval = [
                    z
                    for z in range(n)
                    if poset.relation[i][z] and poset.relation[z][j]
                ]
                if mirror:
                    excluded = {
                        z
                        for z in interval
                        if (z, j) in f1.coeffs and (i, z) in f2.coeffs
                    }
                else:
                    excluded = {
                        z
                        for z in interval
                        if (i, z) in f1.coeffs and (z, j) in f2.coeffs
                    }
                pool = [z for z in range(n) if z not in excluded]
                windows = [
                    (),
                    tuple(pool),
                    tuple(z for z in pool if z not in interval),
                    tuple(z for z in pool if rng.random() < 0.5),
                ]
                for w in windows:
                    ew = [ring.zero] * cod.dimension
                    for z in w:
                        ew = [add(a, b) for a, b in zip(ew, diag_img(z))]
                    fwd = mulc(diag_img(i), img1, ew, img2, diag_img(j))
                    if fwd != zero_vec:
                        yield (s1, s2, labels[i], labels[j], w), fwd, zero_vec
                    bwd = mulc(diag_img(j), img1, ew, img2, diag_img(i))
                    if bwd != zero_vec:
                        yield (s1, s2, labels[j], labels[i], w), bwd, zero_vec


def densified_scan_window_failures(phi, phi_inverse, columns, *rest):
    """scan_window_failures in _window_failures' place: the {index: nonzero}
    columns _window_failures takes are made dense for the scan."""
    dense = [phi.codomain.dense(col) for col in columns]
    return scan_window_failures(phi, phi_inverse, dense, *rest)


def unmemoized_window_failures(phi, phi_inverse, columns, strict_samples, rng,
                               mirror, left_factors=None):
    """_window_failures as it was before its left factors were kept: on the
    nonzeros, with the halves and window sums built once, but both products
    phi(e_x) s(f) phi(e_W) and (...) s(g) phi(e_y) made afresh for every
    instance.  Same instances, rng draws and witnesses; the oracle of the
    memoized fast path.  left_factors, when given, is a set that gathers the
    (s1, x, W) of every left factor multiplied."""
    dom, cod, ring = phi.domain, phi.codomain, phi.ring
    basis = dom.basis
    poset, at, pairs = basis.poset, basis.index_of, basis.pairs
    n, labels = poset.size, poset.elements
    multiply = cod.multiply
    zero_vec = [ring.zero] * cod.dimension
    diag = [phi.sparse_columns[at[(i, i)]] for i in range(n)]
    name = "theta" if mirror else "psi"
    pulled = []
    for z in strict_samples:
        image = _series_image(phi, columns, z)
        pullback = mat_vec(ring, phi_inverse.sparse_columns, image.items())
        f = FinSeries(poset, ring, {pairs[k]: v for k, v in pullback.items()})
        pulled.append((image, f))
    halves = [
        ([multiply(e, image) for e in diag], [multiply(image, e) for e in diag])
        if f.is_strict()
        else None
        for image, f in pulled
    ]
    intervals = [
        ((i, j), [z for z in range(n) if poset.relation[i][z] and poset.relation[z][j]])
        for (i, j) in poset.comparable_index_pairs()
    ]
    window_images = {}

    def window_image(w):
        if w not in window_images:
            ew = {}
            for z in w:
                ew = _sparse_add(ring, ew, diag[z])
            window_images[w] = ew
        return window_images[w]

    for s1, (_, f1) in enumerate(pulled):
        if halves[s1] is None:
            diagonal = dom.element_from_series(f1.split_diag()[0])
            yield (s1,), diagonal, [ring.zero] * dom.dimension, (
                f"phi-inverse of {name}(f) has a diagonal part"
            )
            continue
        left = halves[s1][0]
        for s2, (_, f2) in enumerate(pulled):
            if halves[s2] is None:
                continue
            right = halves[s2][1]
            fc, gc = (f2.coeffs, f1.coeffs) if mirror else (f1.coeffs, f2.coeffs)
            for (i, j), interval in intervals:
                excluded = {z for z in interval if (i, z) in fc and (z, j) in gc}
                pool = [z for z in range(n) if z not in excluded]
                windows = [
                    (),
                    tuple(pool),
                    tuple(z for z in pool if z not in interval),
                    tuple(z for z in pool if rng.random() < 0.5),
                ]
                for w, (x, y) in itertools.product(windows, ((i, j), (j, i))):
                    if left_factors is not None:
                        left_factors.add((s1, x, w))
                    p = multiply(multiply(left[x], window_image(w)), right[y])
                    if p:
                        yield (s1, s2, labels[x], labels[y], w), cod.dense(p), zero_vec


IDENTITY_POSETS = st.sampled_from(all_posets_up_to(4)) | st.sampled_from([
    chain(5),
    boolean_lattice(3),
    disjoint_union(chain(3), chain(3)),
    disjoint_union(chain(4), diamond()),
    validate_poset([], []),
])
IDENTITY_KINDS = st.sampled_from(
    ["jordan", "perturbed", "sheared", "random-column", "proper-near-sum"]
)


def identity_corpus_map(poset, ring, kind, twist, seed):
    """A Jordan map, damaged by kind, with its codomain rebased when twist.
    The kind "proper-near-sum" is proper_near_sum's undamaged map over Z/15
    or Z/45 (by the parity of seed) in place of ring: the only maps whose
    psi and theta are both live on one component."""
    if kind == "proper-near-sum":
        phi = proper_near_sum(poset, tuple(SPLIT_IDEMPOTENTS)[seed % 2], seed)
    else:
        phi = jordan_map(poset, ring, seed)
        if phi.domain.dimension:
            phi = damaged_map(phi, kind, random.Random(seed))
    if twist:
        phi = rebase_codomain(phi, random_basis_change(phi.codomain, seed + 1000))
    return phi


@settings(max_examples=60, deadline=None)
@given(
    IDENTITY_POSETS,
    st.sampled_from(TORSIONFREE_RINGS + TORSION_RINGS),
    IDENTITY_KINDS,
    st.booleans(),
    st.integers(0, 10 ** 6),
)
@example(chain(5), RATIONALS, "sheared", False, 3)  # fails 53 theta windows
def test_window_families_agree_with_scan_oracle(poset, ring, kind, twist, seed):
    phi = identity_corpus_map(poset, ring, kind, twist, seed)
    try:
        report = verify_paper_identities(phi, seed, allow_torsion=True)
    except NotInvertibleError:
        assume(False)
    with mock.patch("fialg.jordan._window_failures", densified_scan_window_failures):
        expected = verify_paper_identities(phi, seed, allow_torsion=True)
    fmt = phi.ring.format
    assert report.to_json(fmt) == expected.to_json(fmt)


# Two perturbed Jordan maps over Z/9 (relations on the elements 1-4, with
# the identity seed) that pass all 13 families and are not Jordan: one
# strict column moves only inside its own Peirce space, and the word
# families' sampled coefficients are zero divisors.
FALSE_PASSES = (
    ([["2", "1"], ["3", "2"], ["4", "1"]], 0),
    ([["2", "4"], ["3", "1"], ["3", "2"]], 7),
)


def false_pass_map(relations):
    poset = validate_poset(["1", "2", "3", "4"], relations)
    return identity_corpus_map(poset, modular(9), "perturbed", False, 0)


@pytest.mark.parametrize("relations, seed", FALSE_PASSES)
def test_identity_report_fails_a_non_jordan_map_the_families_pass(relations, seed):
    phi = false_pass_map(relations)
    assert not check_jordan(phi).passed
    report = verify_paper_identities(phi, seed)
    assert len(report.checks) == 14
    assert all(c.passed for c in report.checks[:13])
    jordan = report.checks[13]
    assert (jordan.name, jordan.passed, len(jordan.witnesses)) == ("jordan_pairs", False, 1)


@settings(max_examples=60, deadline=None)
@given(
    IDENTITY_POSETS,
    st.sampled_from((RATIONALS, INTEGERS, modular(9), modular(27), modular(15))),
    IDENTITY_KINDS,
    st.booleans(),
    st.integers(0, 10 ** 6),
    st.integers(0, 10 ** 6),
)
@example(validate_poset(["1", "2", "3", "4"], FALSE_PASSES[0][0]), modular(9),
         "perturbed", False, 0, FALSE_PASSES[0][1])
@example(validate_poset(["1", "2", "3", "4"], FALSE_PASSES[1][0]), modular(9),
         "perturbed", False, 0, FALSE_PASSES[1][1])
def test_a_passing_identity_report_means_the_map_is_jordan(poset, ring, kind, twist,
                                                           seed, identity_seed):
    phi = identity_corpus_map(poset, ring, kind, twist, seed)
    try:
        report = verify_paper_identities(phi, identity_seed)
    except NotInvertibleError:
        assume(False)
    assert not report.passed or check_jordan(phi).passed


def test_identity_guard_runs_check_jordan_over_a_ring_with_2_torsion(monkeypatch):
    # Over Z/4 a failing certificate sends the guard to check_jordan, with
    # its jordan_quadratic check; a Jordan map's certificate passes, so it
    # is made to fail here.  The recognizer passes and adds no check.
    phi = jordan_map(diamond(), modular(4), 3)
    expected = verify_paper_identities(phi, allow_torsion=True)
    calls = []

    def recorded_check_jordan(m, allow_torsion=False):
        calls.append((m, allow_torsion))
        return check_jordan(m, allow_torsion)

    monkeypatch.setattr("fialg.jordan._near_sum_holds", lambda dec: False)
    monkeypatch.setattr("fialg.jordan.check_jordan", recorded_check_jordan)
    report = verify_paper_identities(phi, allow_torsion=True)
    assert calls == [(phi, True)]
    assert report == expected and len(report.checks) == 13 and report.passed


ORACLE_RINGS = (RATIONALS, INTEGERS, modular(9), modular(15))
ORACLE_KINDS = ("jordan", "perturbed", "sheared", "random-column")


@settings(max_examples=400, deadline=None)
@given(
    IDENTITY_POSETS,
    st.sampled_from(ORACLE_RINGS),
    IDENTITY_KINDS,
    st.booleans(),
    st.integers(0, 10 ** 6),
)
@example(validate_poset(["1", "2", "3", "4"], FALSE_PASSES[0][0]), modular(9),
         "perturbed", False, 0)
@example(chain(5), RATIONALS, "sheared", False, 3)
@example(disjoint_union(chain(4), diamond()), modular(15), "jordan", True, 2)
def test_the_certificate_decides_jordan_on_invertible_maps(poset, ring, kind, twist,
                                                           seed):
    # On a map with a unit determinant, decompose's certificate (the
    # idempotent pairs of phi, then the cover pairs of the sandwich psi and
    # theta) passes exactly when the pair law does: the theorem, and the
    # certificate's soundness.  So a map that fails the certificate fails
    # the recognizer too, and decompose raises NotJordanError for it.
    phi = identity_corpus_map(poset, ring, kind, twist, seed)
    try:
        require_unit_determinant(phi.ring, phi.sparse_columns, phi.codomain.dimension)
    except NotInvertibleError:
        assume(False)
    sandwiches = (LinMap._of_sparse(phi.domain, phi.codomain, c)
                  for c in _near_sum_columns(phi))
    certificate = _idempotents_hold(phi) and _covers_hold(
        Decomposition(phi, *sandwiches, None)
    )
    assert certificate == jordan_pair_check(phi).passed


@settings(max_examples=80, deadline=None)
@given(
    IDENTITY_POSETS,
    st.sampled_from(ORACLE_RINGS),
    st.sampled_from(ORACLE_KINDS),
    st.booleans(),
    st.integers(0, 10 ** 6),
)
@example(chain(5), RATIONALS, "sheared", False, 3)
@example(disjoint_union(chain(4), diamond()), modular(15), "jordan", True, 2)
def test_window_memo_matches_the_unmemoized_windows(poset, ring, kind, twist, seed):
    # The same failures in the same order, and the same rng state after,
    # for psi and theta alike.  Each side is read as a tuple: run_check
    # takes any sequence, and the oracle yields the diagonal witness's left
    # side as a tuple where _mismatches yields a list.
    phi = identity_corpus_map(poset, ring, kind, twist, seed)
    try:
        phi_inverse = phi.invert()
    except NotInvertibleError:
        assume(False)
    rng = random.Random(seed)
    strict_samples = [
        random_series(poset, phi.ring, rng, density=0.7, strict_only=True)
        for _ in range(_IDENTITY_SAMPLES)
    ]
    for mirror, columns in enumerate(_near_sum_columns(phi)):
        fast, slow = random.Random(seed + 1), random.Random(seed + 1)
        args = (phi, phi_inverse, columns, strict_samples)
        memoized = _window_failures(*args, fast, bool(mirror))
        unmemoized = unmemoized_window_failures(*args, slow, bool(mirror))
        assert as_tuples(memoized) == as_tuples(unmemoized)
        assert fast.getstate() == slow.getstate()


def as_tuples(failures):
    """Every failure, in order, with both sides as tuples."""
    return [(key, tuple(lhs), tuple(rhs), *note) for key, lhs, rhs, *note in failures]


def test_window_memo_keeps_the_traced_peak_near_the_unmemoized_suite():
    # The left factors are dropped with each first sample, so the suite's
    # traced peak stays within 1.2x of the suite without them (3xchain-5
    # over Z, seed 1).
    phi = random_jordan_iso(disjoint_union(chain(5), chain(5), chain(5)), INTEGERS, 1)

    def traced_peak():
        # collect first, so that neither peak holds garbage left uncollected
        # by whatever ran before
        gc.collect()
        tracemalloc.start()
        try:
            assert verify_paper_identities(phi, seed=1).passed
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    verify_paper_identities(phi, seed=1)  # fill the caches both runs share
    memoized = traced_peak()
    with mock.patch("fialg.jordan._window_failures", unmemoized_window_failures):
        unmemoized = traced_peak()
    assert memoized <= 1.2 * unmemoized


def scan_equal_by_sandwiches(phi, a, b):
    """The sandwich equality criterion pair by pair: every sandwich
    multiplied afresh, left to right, stopping at the first difference.
    Same answer as fialg.jordan.equal_by_sandwiches, which it checks."""
    basis = phi.domain.basis
    cod = phi.codomain
    add = phi.ring.add

    def diag_img(i):
        return phi.columns[basis.index_of[(i, i)]]

    for i in range(basis.poset.size):
        e = diag_img(i)
        side_a = dense_multiply(cod, dense_multiply(cod, e, a), e)
        if side_a != dense_multiply(cod, dense_multiply(cod, e, b), e):
            return False
    for (i, j) in basis.poset.strict_index_pairs():
        ex, ey = diag_img(i), diag_img(j)
        left_a = dense_multiply(cod, dense_multiply(cod, ex, a), ey)
        right_a = dense_multiply(cod, dense_multiply(cod, ey, a), ex)
        sum_a = [add(u, v) for u, v in zip(left_a, right_a)]
        left_b = dense_multiply(cod, dense_multiply(cod, ex, b), ey)
        right_b = dense_multiply(cod, dense_multiply(cod, ey, b), ex)
        sum_b = [add(u, v) for u, v in zip(left_b, right_b)]
        if sum_a != sum_b:
            return False
    return True


def scan_sandwich_checks(phi, seed):
    """The five sandwich families of verify_paper_identities as per-pair
    scans: each sandwich phi(e_x) v phi(e_y) multiplied afresh, left to
    right, for every instance that reads it.  The samples are the suite's
    first draws from Random(seed); returns the checks by name."""
    dom, cod, ring = phi.domain, phi.codomain, phi.ring
    basis = dom.basis
    poset = basis.poset
    n, labels = poset.size, poset.elements
    add, mul = ring.add, ring.mul
    zero_vec = [ring.zero] * cod.dimension
    samples = _IDENTITY_SAMPLES
    rng = random.Random(seed)
    general = [FinSeries.delta(poset, ring), FinSeries.zeta(poset, ring)] + [
        random_series(poset, ring, rng, density=0.6) for _ in range(samples)
    ]
    strict_samples = [
        random_series(poset, ring, rng, density=0.7, strict_only=True)
        for _ in range(samples)
    ]
    psi_cols, theta_cols = dense_near_sum_columns(phi)

    def vec(f):
        return dom.element_from_series(f)

    def phi_of(f):
        return dense_mat_vec(ring, phi.columns, vec(f))

    def scaled(r, column):
        return [mul(r, v) for v in column]

    def diag_img(i):
        return phi.columns[basis.index_of[(i, i)]]

    def mulc(*vectors):
        out = vectors[0]
        for v in vectors[1:]:
            out = dense_multiply(cod, out, v)
        return out

    def unit_sandwich_strict():
        for s, f in enumerate(general):
            pf = phi_of(f)
            for (i, j) in poset.strict_index_pairs():
                lhs = scaled(
                    f.coeffs.get((i, j), ring.zero),
                    phi.columns[basis.index_of[(i, j)]],
                )
                r1 = mulc(diag_img(i), pf, diag_img(j))
                r2 = mulc(diag_img(j), pf, diag_img(i))
                rhs = [add(a, b) for a, b in zip(r1, r2)]
                if lhs != rhs:
                    yield (s, labels[i], labels[j]), lhs, rhs

    def unit_sandwich_diagonal():
        for s, f in enumerate(general):
            pf = phi_of(f)
            for i in range(n):
                lhs = scaled(f.coeffs.get((i, i), ring.zero), diag_img(i))
                rhs = mulc(diag_img(i), pf, diag_img(i))
                if lhs != rhs:
                    yield (s, labels[i]), lhs, rhs

    def coefficient_sandwich():
        for s, f in enumerate(general):
            pf = phi_of(f)
            for (i, j) in poset.comparable_index_pairs():
                lhs = mulc(diag_img(i), pf, diag_img(j))
                rhs = scaled(
                    f.coeffs.get((i, j), ring.zero),
                    psi_cols[basis.index_of[(i, j)]],
                )
                if lhs != rhs:
                    yield (s, labels[i], labels[j]), lhs, rhs

    def sandwich_failures(columns, mirror):
        away = "forward is zero" if mirror else "reversed is zero"
        for s, z in enumerate(strict_samples):
            image = dense_mat_vec(ring, columns, vec(z))
            fz = phi_of(z)
            for (i, j) in poset.strict_index_pairs():
                u, v = (j, i) if mirror else (i, j)
                lhs = mulc(diag_img(u), image, diag_img(v))
                rhs = mulc(diag_img(u), fz, diag_img(v))
                if lhs != rhs:
                    yield (s, labels[i], labels[j]), lhs, rhs, "matches phi sandwich"
                back = mulc(diag_img(v), image, diag_img(u))
                if back != zero_vec:
                    yield (s, labels[i], labels[j]), back, zero_vec, away
            for i in range(n):
                mid = mulc(diag_img(i), image, diag_img(i))
                if mid != zero_vec:
                    yield (s, labels[i]), mid, zero_vec, "diagonal is zero"

    families = {
        "unit_sandwich_strict": unit_sandwich_strict(),
        "unit_sandwich_diagonal": unit_sandwich_diagonal(),
        "coefficient_sandwich": coefficient_sandwich(),
        "psi_sandwich": sandwich_failures(psi_cols, False),
        "theta_sandwich": sandwich_failures(theta_cols, True),
    }
    return {name: run_check(name, failures) for name, failures in families.items()}


@settings(max_examples=60, deadline=None)
@given(
    IDENTITY_POSETS,
    st.sampled_from(TORSIONFREE_RINGS + TORSION_RINGS),
    IDENTITY_KINDS,
    st.booleans(),
    st.integers(0, 10 ** 6),
)
@example(chain(5), RATIONALS, "sheared", False, 3)
def test_sandwich_families_agree_with_scan_oracle(poset, ring, kind, twist, seed):
    phi = identity_corpus_map(poset, ring, kind, twist, seed)
    try:
        report = verify_paper_identities(phi, seed, allow_torsion=True)
    except NotInvertibleError:
        assume(False)
    with mock.patch("fialg.jordan.equal_by_sandwiches", scan_equal_by_sandwiches):
        criterion_scanned = verify_paper_identities(phi, seed, allow_torsion=True)
    scanned = scan_sandwich_checks(phi, seed)
    assert set(scanned) <= {c.name for c in report.checks}
    expected = VerificationReport(
        tuple(scanned.get(c.name, c) for c in criterion_scanned.checks)
    )
    fmt = phi.ring.format
    assert report.to_json(fmt) == expected.to_json(fmt)


def dense_word_and_idempotent_checks(phi, seed):
    """The word, idempotent and diagonal families of verify_paper_identities
    on dense coordinate lists, every image through dense_mat_vec and every
    product through dense_multiply: the oracle of the families on the
    nonzeros.  The samples are the suite's draws from Random(seed), in its
    order; returns the checks by name."""
    dom, cod, ring = phi.domain, phi.codomain, phi.ring
    poset = dom.basis.poset
    n, labels = poset.size, poset.elements
    zero_vec = [ring.zero] * cod.dimension
    samples = _IDENTITY_SAMPLES
    rng = random.Random(seed)
    general = [FinSeries.delta(poset, ring), FinSeries.zeta(poset, ring)] + [
        random_series(poset, ring, rng, density=0.6) for _ in range(samples)
    ]
    for _ in range(samples):  # the strict samples, drawn before the subsets
        random_series(poset, ring, rng, density=0.7, strict_only=True)
    subset_pool = [tuple(range(n))] + [
        tuple(i for i in range(n) if rng.random() < 0.5) for _ in range(3)
    ]

    def phi_of(f):
        return dense_mat_vec(ring, phi.columns, dom.element_from_series(f))

    def mulc(*vectors):
        return functools.reduce(functools.partial(dense_multiply, cod), vectors)

    def addc(*vectors):
        return functools.reduce(lambda u, v: list(map(ring.add, u, v)), vectors)

    def word_failures(rounds, density, words):
        for t in range(rounds):
            series = [
                random_series(poset, ring, rng, density=density)
                for _ in range(max(map(max, words)) + 1)
            ]
            products = (functools.reduce(operator.mul, map(series.__getitem__, w))
                        for w in words)
            lhs = phi_of(functools.reduce(operator.add, products))
            images = [phi_of(f) for f in series]
            rhs = addc(*(mulc(*map(images.__getitem__, w)) for w in words))
            if lhs != rhs:
                yield (t,), lhs, rhs

    def idempotent_grid(keep):
        for yi, ys in enumerate(subset_pool):
            y_set = set(ys)
            e = FinSeries.subset_idempotent(poset, ring, [labels[i] for i in ys])
            pe = phi_of(e)
            for s, f in enumerate(general):
                kept = {k: v for k, v in f.coeffs.items()
                        if keep(k[0] in y_set, k[1] in y_set)}
                a = FinSeries(poset, ring, kept)
                yield (yi, s), e, pe, a, phi_of(a)

    def both_orders(key, u, v, target, notes):
        for side, note in zip(((u, v), (v, u)), notes):
            product = mulc(*side)
            if product != target:
                yield key, product, target, note

    def commuting_idempotent():
        notes = ("phi(a)phi(e) vs phi(ae)", "phi(e)phi(a) vs phi(ae)")
        for key, e, pe, a, pa in idempotent_grid(operator.eq):
            yield from both_orders(key, pa, pe, phi_of(a * e), notes)

    def annihilating_idempotent():
        notes = ("phi(e)phi(a)", "phi(a)phi(e)")
        for key, _, pe, _, pa in idempotent_grid(lambda x, y: not (x or y)):
            yield from both_orders(key, pe, pa, zero_vec, notes)

    def diagonal_restriction():
        parts = [f.split_diag()[0] for f in general]
        images = [phi_of(fd) for fd in parts]
        notes = ("homomorphism direction", "anti direction")
        for (s, fd), (t, gd) in itertools.product(enumerate(parts), repeat=2):
            yield from both_orders((s, t), images[s], images[t], phi_of(fd * gd), notes)

    five = ((0, 1, 2, 3, 4), (4, 3, 0, 1, 2), (2, 1, 0, 3, 4), (4, 3, 2, 1, 0))
    families = {  # run in this order: the word families draw from rng
        "polarized_triple": lambda: word_failures(
            samples + 1, 0.5, ((0, 1, 2), (2, 1, 0))
        ),
        "five_factor": lambda: word_failures(samples, 0.4, five),
        "commuting_idempotent": commuting_idempotent,
        "annihilating_idempotent": annihilating_idempotent,
        "diagonal_restriction_homomorphism": diagonal_restriction,
    }
    assert tuple(families) == PORTED_FAMILIES
    return {name: run_check(name, failures()) for name, failures in families.items()}


PORTED_FAMILIES = (
    "polarized_triple",
    "five_factor",
    "commuting_idempotent",
    "annihilating_idempotent",
    "diagonal_restriction_homomorphism",
)


def word_and_idempotent_reports(phi, seed):
    """verify_paper_identities's report, and the same report with the dense
    oracle's word, idempotent and diagonal checks in place; None when phi is
    not invertible."""
    try:
        report = verify_paper_identities(phi, seed, allow_torsion=True)
    except NotInvertibleError:
        return None
    dense = dense_word_and_idempotent_checks(phi, seed)
    assert set(dense) <= {c.name for c in report.checks}
    return report, VerificationReport(tuple(dense.get(c.name, c) for c in report.checks))


@pytest.mark.parametrize("ring", ORACLE_RINGS, ids=repr)
@pytest.mark.parametrize("twist", [False, True], ids=["incidence", "twisted"])
def test_word_and_idempotent_families_match_the_dense_oracle(ring, twist):
    # Every damage kind on three small posets, plain and twisted; the damaged
    # maps fail some of the five families, so witnesses are compared too.
    fmt, failing = ring.format, 0
    for poset, kind in itertools.product(
        (chain(3), diamond(), two_two_chains()), ORACLE_KINDS
    ):
        phi = identity_corpus_map(poset, ring, kind, twist, 1)
        if (reports := word_and_idempotent_reports(phi, 1)) is not None:
            report, expected = reports
            assert report.to_json(fmt) == expected.to_json(fmt)
            failing += sum(
                not c.passed for c in expected.checks if c.name in PORTED_FAMILIES
            )
    assert failing > 0


@settings(max_examples=60, deadline=None)
@given(
    IDENTITY_POSETS,
    st.sampled_from(ORACLE_RINGS),
    st.sampled_from(ORACLE_KINDS),
    st.booleans(),
    st.integers(0, 10 ** 6),
)
def test_word_and_idempotent_families_agree_with_dense_oracle(poset, ring, kind,
                                                              twist, seed):
    reports = word_and_idempotent_reports(
        identity_corpus_map(poset, ring, kind, twist, seed), seed
    )
    assume(reports is not None)
    report, expected = reports
    assert report.to_json(ring.format) == expected.to_json(ring.format)


def calls_per_family(phi, seed):
    """StructAlgebra.multiply and mat_vec calls of verify_paper_identities,
    counted by the family whose check was running; the Jordan guard's
    certificate counts as near_sum_certificate.  mat_vec is counted in
    jordan.py and in linmaps.py, where the law scan maps each left side."""
    family = [None]
    products, images = collections.Counter(), collections.Counter()
    multiply = StructAlgebra.multiply

    def counted_multiply(self, u, v):
        products[family[0]] += 1
        return multiply(self, u, v)

    def counted_mat_vec(ring, columns, pairs):
        images[family[0]] += 1
        return mat_vec(ring, columns, pairs)

    def named(name, instances):
        family[0] = name
        return run_check(name, instances)

    def certificate(dec):
        family[0] = "near_sum_certificate"
        return _near_sum_holds(dec)

    with mock.patch.object(
        StructAlgebra, "multiply", counted_multiply
    ), mock.patch("fialg.jordan.mat_vec", counted_mat_vec), mock.patch(
        "fialg.linmaps.mat_vec", counted_mat_vec
    ), mock.patch(
        "fialg.jordan.run_check", named
    ), mock.patch("fialg.jordan._near_sum_holds", certificate):
        assert verify_paper_identities(phi, seed=seed).passed
    return products, images


def test_window_families_build_each_factor_once():
    # chain-5 has 15 comparable pairs and each of the 3 strict samples pulls
    # back strict, so each family runs 3 * 3 * 15 * 4 = 540 windows in two
    # directions.  Each direction makes one product, (L phi(e_W)) R, against
    # the kept left factor; each left factor L phi(e_W) is built once per
    # first sample s1 and (x, W): the distinct (s1, x, W) that the unmemoized
    # oracle multiplies afresh, 256 for psi and 237 for theta.  Add the halves
    # phi(e_x) s(f) and s(f) phi(e_x) for 3 samples and 5 elements:
    # 30 + 1080 + 256 = 1366 and 30 + 1080 + 237 = 1347, where the unmemoized
    # windows took 30 + 4 * 540 = 2190 and the left-to-right scan 8 per window.
    # Every product runs on the nonzeros.
    phi = random_jordan_iso(chain(5), RATIONALS, seed=1)
    products, _ = calls_per_family(phi, 1)
    left_factors = {False: set(), True: set()}

    def recount(*args):
        return unmemoized_window_failures(*args, left_factors=left_factors[args[-1]])

    with mock.patch("fialg.jordan._window_failures", recount):
        assert verify_paper_identities(phi, seed=1).passed
    assert {m: len(keys) for m, keys in left_factors.items()} == {False: 256, True: 237}
    for family, mirror in (("psi_window_annihilation", False),
                           ("theta_window_annihilation", True)):
        assert products[family] == 2 * 3 * 5 + 2 * 540 + len(left_factors[mirror])
    assert products["psi_window_annihilation"] == 1366
    assert products["theta_window_annihilation"] == 1347


SANDWICH_FAMILIES = (
    "unit_sandwich_strict",
    "unit_sandwich_diagonal",
    "coefficient_sandwich",
    "psi_sandwich",
    "theta_sandwich",
    "sandwich_equality_criterion",
)


def test_sandwich_families_build_one_table_per_sample_image():
    # On chain-5 (5 elements, 15 comparable pairs) a Peirce table costs 5 left
    # products and 5 + 2 * 10 entries, all on the nonzeros.  The suite builds
    # one table for each of the 5 general samples, three (phi, psi and theta)
    # for each of the 3 strict samples, and one, of a - b, for each of the 2
    # criterion rounds of 5 whose b differs from a (the odd rounds; the equal
    # rounds build none): 16 tables, 480 products.  Two tables a round, one
    # per side, made 24 tables and 720 products; the per-pair scans took 1,176.
    products, _ = calls_per_family(random_jordan_iso(chain(5), RATIONALS, seed=1), 1)
    assert sum(products[name] for name in SANDWICH_FAMILIES) == 16 * 30
    assert products["unit_sandwich_strict"] == 5 * 30
    assert products["unit_sandwich_diagonal"] == products["coefficient_sandwich"] == 0
    assert products["psi_sandwich"] == 2 * 3 * 30
    assert products["theta_sandwich"] == 3 * 30
    assert products["sandwich_equality_criterion"] == 2 * 30


def test_diagonal_restriction_maps_each_diagonal_part_once():
    # 5 general samples: one image per diagonal part and one per product of
    # two parts, 5 + 25, where mapping both factors for every pair took 125.
    _, images = calls_per_family(random_jordan_iso(chain(5), RATIONALS, seed=1), 1)
    assert images["diagonal_restriction_homomorphism"] == 5 + 5 * 5


def test_identity_families_keep_their_product_counts():
    # Every family's products on chain-5 over Q, seed 1, one kernel for all:
    # as many as the dense and the sparse kernel made between them.  The 40
    # products outside any family build psi and theta: two per strict unit,
    # and chain-5 has 10 strict units.  The word families make 2 products
    # per word of 3 and 4 per word of 5 (4 rounds of 2 words, 3 rounds of
    # 4), the idempotent grid 2 per subset and sample (4 subsets, 5
    # samples), and the diagonal restriction 2 per ordered pair of the 5
    # samples.  The window and criterion counts are derived in the two tests
    # above.  The Jordan guard's certificate, run once the families pass,
    # makes 53: the 5 squares of the idempotent images, and on chain-5's 4
    # covers 14 placement and row pairs each for psi and theta and 20
    # annihilation pairs.
    products, _ = calls_per_family(random_jordan_iso(chain(5), RATIONALS, seed=1), 1)
    assert dict(products) == {
        None: 40,
        "unit_sandwich_strict": 150,
        "polarized_triple": 16,
        "five_factor": 48,
        "commuting_idempotent": 40,
        "annihilating_idempotent": 40,
        "diagonal_restriction_homomorphism": 50,
        "psi_sandwich": 180,
        "theta_sandwich": 90,
        "psi_window_annihilation": 1366,
        "theta_window_annihilation": 1347,
        "sandwich_equality_criterion": 60,
        "near_sum_certificate": 53,
    }


def test_word_identities_map_each_drawn_series_once():
    # one image of the summed word products, and one per drawn series:
    # 4 rounds of 3 series, and 3 rounds of 5
    _, images = calls_per_family(random_jordan_iso(chain(5), RATIONALS, seed=1), 1)
    assert images["polarized_triple"] == 4 * (1 + 3)
    assert images["five_factor"] == 3 * (1 + 5)


IDENTITY_REPORTS_SHA256 = (
    "39e10eb27fae8e7548c26a3bcf185d7e498ec2029d12fdd8af3451a663a91d63"
)


def test_identity_reports_keep_their_bytes():
    # 48 reports: Jordan and perturbed maps, plain and twisted, over Q, Z,
    # Z/9 and Z/4 (2-torsion, by the override) on three small posets; 22 of
    # them fail.  A refactor of the suite must leave every byte in place.
    digest, failing = hashlib.sha256(), 0
    for poset in (chain(3), diamond(), two_two_chains()):
        for ring in (RATIONALS, INTEGERS, modular(9), modular(4)):
            for kind, twist in itertools.product(("jordan", "perturbed"), (False, True)):
                phi = identity_corpus_map(poset, ring, kind, twist, 1)
                try:
                    report = verify_paper_identities(phi, 1, allow_torsion=True)
                except NotInvertibleError:
                    out = "NotInvertibleError"
                else:
                    out = report.to_json(ring.format)
                    failing += not report.passed
                digest.update(json.dumps(out, sort_keys=True).encode())
    assert failing == 22
    assert digest.hexdigest() == IDENTITY_REPORTS_SHA256


def test_equal_by_sandwiches_matches_equality():
    phi = random_jordan_iso(diamond(), modular(9), seed=4)
    rng = random.Random(8)
    d = phi.codomain.dimension
    for t in range(12):
        a = [rng.randrange(9) for _ in range(d)]
        b = list(a)
        if t % 3 == 0:
            b[rng.randrange(d)] = (b[0] + 1 + rng.randrange(8)) % 9
        assert equal_by_sandwiches(phi, a, b) == (a == b)


@pytest.mark.parametrize(
    "ring, seed", [(RATIONALS, 2), (INTEGERS, 0), (modular(9), 3)], ids=repr
)
def test_the_equality_criterion_check_reports_its_disagreements(ring, seed):
    # a < c, b incomparable to both; phi swaps e_a and e_b and fixes e_c and
    # e_ac: invertible, not Jordan, and every Peirce component the criterion
    # reads vanishes on e_ac, so it calls a pair differing there equal
    poset = validate_poset(["a", "b", "c"], [("a", "c")])
    A = incidence_algebra(poset, ring)
    at = A.basis.index_of
    swap = {at[0, 0]: at[1, 1], at[1, 1]: at[0, 0]}
    phi = LinMap(A, A, [unit_vector(A, swap.get(k, k)) for k in range(A.dimension)])
    assert not check_jordan(phi).passed
    check = verify_paper_identities(phi, seed).check("sandwich_equality_criterion")
    assert not check.passed and check.witnesses
    for w in check.witnesses:
        (t,) = w.indices
        assert t % 2 == 1  # the odd samples are the unequal pairs
        assert (w.left, w.right) == ((ring.one,), (ring.zero,))
        assert w.note == "sandwich criterion disagrees with equality"


@pytest.mark.parametrize("ring", TORSIONFREE_RINGS, ids=repr)
def test_equal_by_sandwiches_refuses_float_and_bool_coordinates(ring):
    # 0.5 read as unequal to zero and True as equal to 1 before the lists
    # went through ring.normalize
    phi = random_jordan_iso(P2, ring, seed=1)
    zeros = [ring.zero] * 3
    for a, b in (([0.5, 0, 0], zeros), ([True, 0, 0], [1, 0, 0]), (zeros, [0, 0.0, 0])):
        with pytest.raises(FialgError):
            equal_by_sandwiches(phi, a, b)
    assert equal_by_sandwiches(phi, [ring.normalize(10), 0, 0], [10, 0, 0])


@settings(max_examples=100, deadline=None)
@given(
    IDENTITY_POSETS,
    st.sampled_from(TORSIONFREE_RINGS + TORSION_RINGS),
    IDENTITY_KINDS,
    st.booleans(),
    st.integers(0, 10 ** 6),
)
def test_equal_by_sandwiches_agrees_with_per_pair_oracle(poset, ring, kind, twist, seed):
    # On a damaged map the criterion can call distinct elements equal; the
    # table version must give the per-pair scan's answer either way.
    phi = identity_corpus_map(poset, ring, kind, twist, seed)
    cod, ring = phi.codomain, phi.ring
    rng = random.Random(seed)
    for t in range(6):
        a = [ring.sample(rng) for _ in range(cod.dimension)]
        if t % 3 == 0:
            b = list(a)
        elif t % 3 == 1 and cod.dimension:
            b = list(a)
            k = rng.randrange(cod.dimension)
            b[k] = ring.add(b[k], ring.sample_unit(rng))
        else:
            b = [ring.sample(rng) for _ in range(cod.dimension)]
        if t % 2:
            a, b = tuple(a), tuple(b)
        assert equal_by_sandwiches(phi, a, b) == scan_equal_by_sandwiches(phi, a, b)


def dense_peirce_table(phi, v):
    """The Peirce table on dense coordinate lists, each component multiplied
    with dense_multiply as (phi(e_x) v) phi(e_y): the oracle of the
    sparse _peirce_table."""
    basis = phi.domain.basis
    poset = basis.poset
    cod = phi.codomain
    diag = [phi.columns[basis.index_of[(i, i)]] for i in range(poset.size)]
    left = [dense_multiply(cod, e, v) for e in diag]
    table = {}
    for (i, j) in poset.comparable_index_pairs():
        table[(i, j)] = dense_multiply(cod, left[i], diag[j])
        if i != j:
            table[(j, i)] = dense_multiply(cod, left[j], diag[i])
    return table


@settings(max_examples=80, deadline=None)
@given(
    IDENTITY_POSETS,
    st.sampled_from(TORSIONFREE_RINGS + (modular(4),)),
    IDENTITY_KINDS,
    st.booleans(),
    st.integers(0, 10 ** 6),
)
def test_sparse_peirce_table_matches_the_dense_table(poset, ring, kind, twist, seed):
    # The zero vector, one vector per coordinate with a single nonzero (a
    # zero divisor over Z/9 and Z/4 when drawn), and random vectors, on
    # Jordan and damaged maps.
    phi = identity_corpus_map(poset, ring, kind, twist, seed)
    cod, ring = phi.codomain, phi.ring
    rng = random.Random(seed)
    d = cod.dimension
    vectors = [[ring.zero] * d]
    for k in range(d):
        v = [ring.zero] * d
        v[k] = ring.sample(rng) or ring.one
        vectors.append(v)
    vectors += [[ring.sample(rng) for _ in range(d)] for _ in range(3)]
    for v in vectors:
        table = _peirce_table(phi, sparse_vector(v))
        assert {key: cod.dense(w) for key, w in table.items()} == dense_peirce_table(
            phi, v
        )
        assert all(all(w.values()) for w in table.values())  # zeros are dropped


@pytest.mark.parametrize(
    "poset", [chain(5), diamond(), boolean_lattice(3)], ids=["chain5", "diamond", "B3"]
)
@pytest.mark.parametrize("twist", [False, True], ids=["incidence", "twisted"])
def test_equal_by_sandwiches_builds_one_sparse_table_of_the_difference(
    poset, twist, monkeypatch
):
    # Equal sides build no table.  Distinct sides build one Peirce table of
    # their difference a - b, on its nonzeros: n left products and one right
    # product for each of the n + 2 * (strict pairs) entries, all sparse,
    # where one table per side took twice that for every pair.  A vector of
    # the wrong length raises before any product, also when both sides are
    # the same list.
    phi = identity_corpus_map(poset, modular(9), "jordan", twist, 1)
    cod, ring = phi.codomain, phi.ring
    n, strict = poset.size, len(poset.strict_index_pairs())
    rng = random.Random(2)

    def refuse(*args):
        raise AssertionError("the criterion built a dense list")

    monkeypatch.setattr(StructAlgebra, "dense", refuse)
    calls = counted_products(monkeypatch)
    table = n + n + 2 * strict
    for k in range(cod.dimension):
        a = [ring.sample(rng) for _ in range(cod.dimension)]
        assert equal_by_sandwiches(phi, tuple(a), list(a))
        assert calls == [0]
        b = list(a)
        b[k] = ring.add(b[k], ring.sample(rng) or ring.one)
        assert not equal_by_sandwiches(phi, a, b)
        assert calls == [table]
        calls[0] = 0
    with pytest.raises(ContextMismatchError):
        equal_by_sandwiches(phi, a + [ring.one], a + [ring.one])
    with pytest.raises(ContextMismatchError):
        equal_by_sandwiches(phi, a, a[:-1])
    assert calls == [0]


def two_table_equal_by_sandwiches(phi, a, b):
    """equal_by_sandwiches as it was before it took the difference: one
    sparse Peirce table per side, the components compared.  The oracle of
    the a - b criterion, which it must answer alike on any map."""
    poset = phi.domain.basis.poset
    ring = phi.ring

    def components(v):
        table = _peirce_table(phi, sparse_vector(v))
        return [table[(i, i)] for i in range(poset.size)] + [
            _sparse_add(ring, table[(i, j)], table[(j, i)])
            for (i, j) in poset.strict_index_pairs()
        ]

    return components(a) == components(b)


@settings(max_examples=100, deadline=None)
@given(
    IDENTITY_POSETS,
    st.sampled_from(ORACLE_RINGS),
    st.sampled_from(ORACLE_KINDS),
    st.booleans(),
    st.integers(0, 10 ** 6),
)
def test_difference_criterion_matches_the_two_table_criterion(
    poset, ring, kind, twist, seed
):
    # Equal pairs, pairs one coordinate apart (by a unit and by a zero
    # divisor over Z/9 and Z/15), every unit vector against zero, and random
    # pairs: on damaged maps some distinct pairs pass, and both criteria must
    # say so together.
    phi = identity_corpus_map(poset, ring, kind, twist, seed)
    cod, ring = phi.codomain, phi.ring
    d, rng = cod.dimension, random.Random(seed)
    zero = [ring.zero] * d
    pairs = [(zero, zero)] + [(zero, unit_vector(cod, k)) for k in range(d)]
    for t in range(8):
        a = [ring.sample(rng) for _ in range(d)]
        b = list(a)
        if t == 4:
            b = [ring.sample(rng) for _ in range(d)]
        elif t % 4 and d:
            k = rng.randrange(d)
            shift = ring.sample_unit(rng) if t % 4 == 1 else ring.sample(rng)
            b[k] = ring.add(b[k], shift)
        pairs.append((a, b) if t % 2 else (tuple(a), b))
    for a, b in pairs:
        expected = two_table_equal_by_sandwiches(phi, a, b)
        assert equal_by_sandwiches(phi, a, b) == expected
