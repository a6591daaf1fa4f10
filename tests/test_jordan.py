"""The near-sum decomposition engine and its verifiers."""

import functools
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from fialg import (
    AlgElem,
    Decomposition,
    FinSeries,
    INTEGERS,
    LinMap,
    NearSumSplit,
    NotInvertibleError,
    NotJordanError,
    PreconditionFailedError,
    RATIONALS,
    TorsionRefusedError,
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
    random_series,
    random_unit_series,
    verify_near_sum,
    verify_paper_identities,
)
from fialg.errors import FialgError

from conftest import (
    antichain,
    boolean_lattice,
    chain,
    diamond,
    disjoint_union,
    jordan_corpus,
    singleton,
    two_two_chains,
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
            col = algebra.unit_vector(basis.index_of[(swap[i], swap[i])])
            psi_cols.append(col)
            theta_cols.append(col)
        elif i <= 1:  # first chain: the straight block lives in psi
            psi_cols.append(algebra.unit_vector(basis.index_of[(i, j)]))
            theta_cols.append(strict_zero(algebra))
        else:  # second chain: the reversed block lives in theta
            psi_cols.append(strict_zero(algebra))
            theta_cols.append(
                algebra.unit_vector(basis.index_of[(swap[j], swap[i])])
            )
    split = NearSumSplit.for_incidence(algebra)
    return (
        LinMap(algebra, algebra, psi_cols),
        LinMap(algebra, algebra, theta_cols),
        split,
    )


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
        return A.series_from_element(
            AlgElem(A, tuple(conj.columns[k]))
        )

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


def test_near_sum_build_mixed_example():
    psi, theta, split = mixed_pair(RATIONALS)
    phi = near_sum_build(psi, theta, split)
    assert check_jordan(phi).passed
    # genuinely mixed: neither law holds globally
    assert not check_homomorphism(phi).passed
    assert not check_homomorphism(phi, anti=True).passed


def test_near_sum_build_reports_every_violated_clause():
    # psi = theta = identity on the 3-chain: the identity is not an
    # anti-homomorphism there, and psi * theta never annihilates
    A = incidence_algebra(P3, RATIONALS)
    ident = LinMap.identity(A)
    split = NearSumSplit.for_incidence(A)
    with pytest.raises(PreconditionFailedError) as exc:
        near_sum_build(ident, ident, split)
    names = {c.name for c in exc.value.clauses}
    assert names == {"theta_anti_homomorphism", "strict_annihilation"}
    ann = next(c for c in exc.value.clauses if c.name == "strict_annihilation")
    assert ann.witnesses  # e.g. psi(e_12) * theta(e_23) = e_13 != 0


def test_split_validation_rejects_bad_partitions():
    A = incidence_algebra(P3, RATIONALS)
    good = NearSumSplit.for_incidence(A)
    with pytest.raises(FialgError):
        # swapping the roles makes the "ideal" block leak: e_x b = b for
        # strict b, which lands outside the diagonal span
        NearSumSplit(A, good.strict, good.diagonal)
    with pytest.raises(FialgError):
        NearSumSplit(A, good.diagonal, good.strict[:-1])  # not a partition


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
    # The pruned search must hand rng.choice the same list, in the same order,
    # as the permutation scan it replaced, so seeded outputs stay byte-identical.
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
    monkeypatch.setattr("fialg.jordan.order_isomorphisms", brute)
    monkeypatch.setattr(
        "fialg.jordan._iter_order_isomorphisms",
        lambda p, q, reversing=False: iter(brute(p, q, reversing)),
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
    for k in dec.split.strict:
        assert dec.theta.columns[k] == tuple(strict_zero(A)) or list(
            dec.theta.columns[k]
        ) == strict_zero(A)


def test_decompose_anti_map_puts_strict_part_in_theta():
    rev = order_isomorphisms(P3, P3, reversing=True)[0]
    phi = from_order_map(rev, modular(9))
    dec = decompose(phi)
    assert dec.report.passed
    for k in dec.split.strict:
        assert list(dec.psi.columns[k]) == strict_zero(phi.codomain)
        assert dec.theta.columns[k] == phi.columns[k]


def test_decompose_recovers_mixed_blocks():
    psi, theta, split = mixed_pair(modular(9))
    phi = near_sum_build(psi, theta, split)
    dec = decompose(phi)
    assert dec.report.passed
    for k in split.strict:
        assert dec.psi.columns[k] == psi.columns[k]
        assert dec.theta.columns[k] == theta.columns[k]


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


def test_decompose_degenerate_posets():
    for poset in (singleton(), antichain(3)):
        phi = random_jordan_iso(poset, RATIONALS, seed=1)
        dec = decompose(phi)
        assert dec.report.passed
        assert dec.split.strict == ()
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
    rebuilt = near_sum_build(dec.psi, dec.theta, dec.split)
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
    phi = near_sum_build(dec.psi, dec.theta, dec.split)
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
    basis = dom.basis
    psi_cols, theta_cols = [], []
    for k, (i, j) in enumerate(basis.pairs):
        ex = phi.columns[basis.index_of[(i, i)]]
        ey = phi.columns[basis.index_of[(j, j)]]
        exy = phi.columns[k]
        if i == j:
            psi_cols.append(exy)
            theta_cols.append(exy)
        else:
            psi_cols.append(cod.multiply(cod.multiply(ex, exy), ey))
            theta_cols.append(cod.multiply(cod.multiply(ey, exy), ex))
    dec = Decomposition(
        phi,
        LinMap(dom, cod, psi_cols),
        LinMap(dom, cod, theta_cols),
        NearSumSplit.for_incidence(dom),
        None,
    )
    return replace(dec, report=verify_near_sum(dec))


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
    if ring.is_two_torsionfree():
        phi = random_jordan_iso(poset, ring, seed)
    else:
        phi = order_jordan_map(poset, ring, seed)
        allow_torsion = True
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


def test_decompose_returns_failing_report_for_jordan_map_over_z4():
    # e_x -> 3 e_x keeps the Jordan laws over Z/4, since 2 * (9 - 3) = 0 there,
    # but psi(e_x)^2 = 9 e_x = e_x is not psi(e_x)
    ring = modular(4)
    A = incidence_algebra(antichain(2), ring)
    phi = LinMap(A, A, [[3, 0], [0, 1]])
    assert check_jordan(phi, allow_torsion=True).passed
    dec = decompose(phi, allow_torsion=True)
    assert [c.name for c in dec.report.checks if not c.passed] == [
        "psi_homomorphism",
        "theta_anti_homomorphism",
    ]


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


def test_verify_near_sum_flags_tampering():
    # an order-reversing map has all of its strict part in theta; claiming
    # psi := phi then breaks both the homomorphism law and the strict sums
    rev = order_isomorphisms(P3, P3, reversing=True)[0]
    phi = from_order_map(rev, RATIONALS)
    dec = decompose(phi)
    tampered = Decomposition(phi, phi, dec.theta, dec.split, None)
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
                inv = phi.invert()
                for _ in range(5):
                    f = random_series(poset, ring, rng, density=0.6)
                    coords = phi.domain.element_from_series(f).coords
                    psi_lin = dec.psi.apply_coords(coords)
                    psi_ora = extend_via_inverse(phi, f, phi_inverse=inv)
                    assert list(psi_ora.coords) == list(psi_lin)
                    th_lin = dec.theta.apply_coords(coords)
                    th_ora = extend_via_inverse(phi, f, anti=True, phi_inverse=inv)
                    assert list(th_ora.coords) == list(th_lin)


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
