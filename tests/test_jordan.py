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
    VerificationReport,
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
    run_check,
    verify_near_sum,
    verify_paper_identities,
)
from fialg.errors import FialgError
from fialg.jordan import _near_sum_columns, _near_sum_holds

from conftest import (
    all_posets_up_to,
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


def jordan_map(poset, ring, seed):
    """The generator's map over a 2-torsion-free ring, else an order map."""
    if ring.is_two_torsionfree():
        return random_jordan_iso(poset, ring, seed)
    return order_jordan_map(poset, ring, seed)


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
    return replace(dec, report=scan_near_sum(dec))


def scan_near_sum(dec):
    """verify_near_sum as a scan of every basis pair, kept as the oracle of
    the generator certificate."""
    phi, psi, theta, split = dec.phi, dec.psi, dec.theta, dec.split
    ring, cod = phi.ring, phi.codomain
    zero = [ring.zero] * cod.dimension

    def agreement():
        for k in split.diagonal:
            if psi.columns[k] != phi.columns[k]:
                yield (k,), psi.columns[k], phi.columns[k], "psi vs phi"
            if theta.columns[k] != phi.columns[k]:
                yield (k,), theta.columns[k], phi.columns[k], "theta vs phi"

    def recomposition():
        for k in split.strict:
            s = [ring.add(a, b) for a, b in zip(psi.columns[k], theta.columns[k])]
            if tuple(s) != tuple(phi.columns[k]):
                yield (k,), s, phi.columns[k]

    def annihilation():
        for i in split.strict:
            for j in split.strict:
                p = cod.multiply(psi.columns[i], theta.columns[j])
                if p != zero:
                    yield (i, j), p, zero, "psi(b_i) * theta(b_j)"
                q = cod.multiply(theta.columns[i], psi.columns[j])
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


def damaged_decomposition(phi, corrupt, rng):
    """The near-sum candidate decompose() builds from phi, with at most one
    generator column of psi or theta replaced by u * column + r * e_t for a
    random unit u and scalar r.  A cover column is corrupted with phi's
    column recomposed as psi + theta, so strict_sum_recomposition still
    holds; a "shared" diagonal column is corrupted in phi, psi and theta
    alike, so diagonal_agreement still holds."""
    ring = phi.ring
    dom = phi.domain
    basis = dom.basis
    cols = {"phi": [list(c) for c in phi.columns]}
    cols["psi"], cols["theta"] = map(list, _near_sum_columns(phi))
    poset = basis.poset
    covers = [
        basis.index_of[(poset.index(x), poset.index(y))] for x, y in poset.covers()
    ]
    if corrupt is not None:
        target, block = corrupt.split("-")
        pool = covers if block == "cover" else list(basis.diagonal_indices())
        if pool:
            k = rng.choice(pool)
            u, r = ring.sample_unit(rng), ring.sample(rng)
            t = rng.randrange(len(cols["phi"]))
            names = ("phi", "psi", "theta") if target == "shared" else (target,)
            for name in names:
                col = [ring.mul(u, v) for v in cols[name][k]]
                col[t] = ring.add(col[t], r)
                cols[name][k] = col
            if block == "cover":
                cols["phi"][k] = [
                    ring.add(a, b) for a, b in zip(cols["psi"][k], cols["theta"][k])
                ]
    maps = {name: LinMap(dom, phi.codomain, c) for name, c in cols.items()}
    return Decomposition(
        maps["phi"], maps["psi"], maps["theta"], NearSumSplit.for_incidence(dom), None
    )


@settings(max_examples=300, deadline=None)
@given(
    ORACLE_POSETS,
    st.sampled_from(TORSIONFREE_RINGS + TORSION_RINGS),
    st.sampled_from(["jordan", "perturbed", "sheared", "random-column"]),
    st.sampled_from(
        [None, "psi-cover", "theta-cover", "psi-diagonal", "theta-diagonal",
         "shared-diagonal"]
    ),
    st.integers(0, 10 ** 6),
)
def test_generator_certificate_agrees_with_full_scan(poset, ring, kind, corrupt, seed):
    rng = random.Random(seed)
    phi = damaged_map(jordan_map(poset, ring, seed), kind, rng)
    dec = damaged_decomposition(phi, corrupt, rng)
    expected = scan_near_sum(dec)
    assert _near_sum_holds(dec) == expected.passed
    fmt = ring.format
    assert verify_near_sum(dec).to_json(fmt) == expected.to_json(fmt)


def test_generator_certificate_sees_each_clause_alone():
    # Each decomposition breaks one clause of the full scan and keeps the
    # other four, so a certificate that skips that clause's generators, or
    # one of its orders, would pass it.
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
        return Decomposition(phi, psi, theta, NearSumSplit.for_incidence(dom), None)

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
        "psi(b_i) * theta(b_j)": ["strict_annihilation"],
        "theta(b_i) * psi(b_j)": ["strict_annihilation"],
    }
    for case, dec in cases.items():
        expected = scan_near_sum(dec)
        bad = [c for c in expected.checks if not c.passed]
        assert [c.name for c in bad] == failing[case], case
        if failing[case] == ["strict_annihilation"]:
            assert {w.note for w in bad[0].witnesses} == {case}
        assert not _near_sum_holds(dec), case
        assert verify_near_sum(dec) == expected


def test_full_scan_decides_other_splits():
    # a split that is not the incidence split gets the full scan's verdict
    A = incidence_algebra(P3, RATIONALS)
    ident = LinMap.identity(A)
    whole = NearSumSplit(A, tuple(range(A.dimension)), ())
    dec = Decomposition(ident, ident, ident, whole, None)
    assert not _near_sum_holds(dec)
    assert verify_near_sum(dec) == scan_near_sum(dec)
    assert not verify_near_sum(dec).passed  # the identity is not anti here


def test_twisted_codomain_certificate_agrees_with_full_scan():
    for ring in TORSIONFREE_RINGS:
        for phi in jordan_corpus(diamond(), ring, seeds=range(2), twist=True):
            dec = decompose(phi)
            assert _near_sum_holds(dec)
            assert dec.report == scan_near_sum(dec)


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

    monkeypatch.setattr("fialg.jordan.check_homomorphism", refuse)
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
