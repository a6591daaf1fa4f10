"""Acceptance criteria.

Eight independent criteria, one test each, zero-tolerance arithmetic
throughout.  Every test finishes by printing a single PASS line (visible
with `pytest -s`; under plain pytest the one-line-per-criterion view is the
verbose PASSED/FAILED listing).
"""

import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fialg import (
    FinSeries,
    INTEGERS,
    LinMap,
    NotInvertibleError,
    RATIONALS,
    TorsionRefusedError,
    check_homomorphism,
    check_jordan,
    conjugate_by_unit,
    decompose,
    extend_via_inverse,
    from_order_map,
    incidence_algebra,
    modular,
    near_sum_build,
    order_isomorphisms,
    random_jordan_iso,
    random_poset,
    random_series,
    random_basis_change,
    rebase_codomain,
    random_unit_series,
    verify_near_sum,
    verify_paper_identities,
)

from conftest import (
    NAMED_POSETS,
    all_posets_up_to,
    chain,
    diamond,
    two_two_chains,
)

FIXTURES = Path(__file__).parent / "fixtures"
RINGS = [RATIONALS, modular(9), INTEGERS]


def passed(n: int, label: str):
    print(f"CRITERION {n} ({label}): PASS")


# -----------------------------------------------------------------------------


def test_criterion_1_near_sum_suite():
    """Generated Jordan isomorphism -> decompose -> all five checks, over the
    named poset menagerie plus 25 random 6-element posets, for each ring."""
    posets = [build() for build in NAMED_POSETS.values()]
    for poset in posets:
        for ring in RINGS:
            for seed in range(3):
                phi = random_jordan_iso(poset, ring, seed)
                dec = decompose(phi)
                assert dec.report.passed, (
                    poset.elements,
                    repr(ring),
                    seed,
                    dec.report.summary(),
                )
    for seed in range(25):
        poset = random_poset(6, 0.4, seed=1000 + seed)
        for ring in RINGS:
            phi = random_jordan_iso(poset, ring, seed)
            dec = decompose(phi)
            assert dec.report.passed, (poset.to_json(), repr(ring), seed)
            # the report is verify_near_sum's output, all five checks present
            assert [c.name for c in dec.report.checks] == [
                "psi_homomorphism",
                "theta_anti_homomorphism",
                "diagonal_agreement",
                "strict_sum_recomposition",
                "strict_annihilation",
            ]
    passed(1, "near-sum suite")


def test_criterion_2_oracle_equivalence():
    """extend_via_inverse agrees exactly with the linear extensions on >= 100
    random series per (poset, ring) pair, posets up to 5 elements."""
    posets = [
        chain(2),
        chain(3),
        diamond(),
        two_two_chains(),
        random_poset(5, 0.5, seed=77),
    ]
    for poset in posets:
        for ring in RINGS:
            count = 0
            for seed in (0, 1):
                phi = random_jordan_iso(poset, ring, seed)
                if seed == 1:  # half the corpus gets a genuinely opaque codomain
                    phi = rebase_codomain(
                        phi, random_basis_change(phi.codomain, seed + 500)
                    )
                dec = decompose(phi)
                rng = random.Random(seed * 31 + 7)
                for _ in range(50):
                    f = random_series(poset, ring, rng, density=0.6)
                    coords = phi.domain.element_from_series(f)
                    straight = extend_via_inverse(phi, f)
                    assert list(straight) == list(dec.psi.apply_coords(coords))
                    mirrored = extend_via_inverse(phi, f, anti=True)
                    assert list(mirrored) == list(dec.theta.apply_coords(coords))
                    count += 1
            assert count >= 100
    passed(2, "oracle equivalence")


def test_criterion_3_identity_suite():
    """The full identity families pass for every corpus map; a corrupted map
    fails with at least one explicit witness."""
    corpus = []
    for build in NAMED_POSETS.values():
        poset = build()
        for ring in RINGS:
            phi = random_jordan_iso(poset, ring, seed=2)
            corpus.append(phi)
            twisted = rebase_codomain(phi, random_basis_change(phi.codomain, 3))
            corpus.append(twisted)
    for phi in corpus:
        rep = verify_paper_identities(phi, seed=5)
        assert rep.passed, rep.summary()

    phi = random_jordan_iso(chain(3), modular(9), seed=4)
    cols = [list(c) for c in phi.columns]
    cols[4][2] = (cols[4][2] + 5) % 9
    corrupted = LinMap(phi.domain, phi.codomain, cols)
    rep = verify_paper_identities(corrupted, seed=5)
    assert not rep.passed
    assert any(c.witnesses for c in rep.checks if not c.passed)
    passed(3, "identity suite")


def test_criterion_4_algebra_kernel():
    """Unit products, convolution associativity, the identity element, and
    subset idempotents — exhaustive on every poset with at most 4 elements,
    randomized at size 8."""
    ring = modular(9)
    posets = all_posets_up_to(4)
    assert len(posets) > 200  # 1 + 3 + 19 + 219 labeled orders
    for poset in posets:
        pairs = poset.comparable_index_pairs()
        units = {
            p: FinSeries(poset, ring, {p: ring.one}) for p in pairs
        }
        # e_xy e_uv = e_xv when y = u and x <= v, else 0
        for (x, y) in pairs:
            for (u, v) in pairs:
                prod = units[(x, y)] * units[(u, v)]
                if y == u and poset.relation[x][v]:
                    assert prod == units[(x, v)]
                else:
                    assert not prod.coeffs
        # delta is a two-sided identity on the basis
        one = FinSeries.delta(poset, ring)
        for e in units.values():
            assert one * e == e and e * one == e
        # associativity, exhaustively on basis triples
        for a in units.values():
            for b in units.values():
                for c in units.values():
                    assert (a * b) * c == a * (b * c)
        # subset idempotents multiply by intersection
        n = poset.size
        subsets = list(
            itertools.chain.from_iterable(
                itertools.combinations(range(n), k) for k in range(n + 1)
            )
        )
        for ys in subsets:
            for zs in subsets:
                ey = FinSeries(poset, ring, {(i, i): ring.one for i in ys})
                ez = FinSeries(poset, ring, {(i, i): ring.one for i in zs})
                inter = set(ys) & set(zs)
                assert ey * ez == FinSeries(
                    poset, ring, {(i, i): ring.one for i in inter}
                )

    big = random_poset(8, 0.5, seed=13)
    rng = random.Random(99)
    for _ in range(1000):
        f = random_series(big, ring, rng, density=0.5)
        g = random_series(big, ring, rng, density=0.5)
        h = random_series(big, ring, rng, density=0.5)
        assert (f * g) * h == f * (g * h)
    passed(4, "algebra kernel")


def test_criterion_5_recognizer_soundness():
    """Recognizers accept every generator-built map under its own flag and
    reject a 20-case corpus of single-entry perturbations, each with at
    least one witness."""
    poset = diamond()
    accepted = 0
    for ring in RINGS:
        iso = order_isomorphisms(poset, poset)[1]
        rev = order_isomorphisms(poset, poset, reversing=True)[0]
        straight = from_order_map(iso, ring)
        assert check_homomorphism(straight, unital=True).passed
        flipped = from_order_map(rev, ring)
        assert check_homomorphism(flipped, anti=True).passed
        conj = conjugate_by_unit(
            random_unit_series(poset, ring, random.Random(5))
        )
        assert check_homomorphism(conj, unital=True).passed
        for seed in range(3):
            phi = random_jordan_iso(poset, ring, seed)
            assert check_jordan(phi).passed
            accepted += 1
    assert accepted == 9

    # mutation corpus: bump one entry of an accepted map, spread over the
    # three recognizers; every mutant must be rejected with a witness
    rng = random.Random(2024)
    cases = []
    ring = modular(9)
    base_jordan = random_jordan_iso(poset, ring, seed=1)
    base_homo = from_order_map(order_isomorphisms(poset, poset)[0], ring)
    base_anti = from_order_map(
        order_isomorphisms(poset, poset, reversing=True)[0], ring
    )
    recognizers = [
        (base_jordan, lambda m: check_jordan(m)),
        (base_homo, lambda m: check_homomorphism(m)),
        (base_anti, lambda m: check_homomorphism(m, anti=True)),
    ]
    attempts = 0
    while len(cases) < 20 and attempts < 400:
        attempts += 1
        base, recognize = recognizers[attempts % 3]
        cols = [list(c) for c in base.columns]
        k = rng.randrange(len(cols))
        t = rng.randrange(len(cols[k]))
        bump = rng.randrange(1, 9)
        cols[k][t] = (cols[k][t] + bump) % 9
        mutant = LinMap(base.domain, base.codomain, cols)
        report = recognize(mutant)
        if report.passed:
            continue  # the rare perturbation that lands on another valid map
        cases.append(report)
    assert len(cases) == 20, f"only {len(cases)} rejecting mutants in {attempts}"
    for report in cases:
        failing = [c for c in report.checks if not c.passed]
        assert failing and all(c.witnesses for c in failing)
    passed(5, "recognizer soundness")


def test_criterion_6_ring_gate():
    """2-torsion-freeness matches the exhaustive residue scan for every
    modulus up to 50, and decompose refuses modular(6) without override."""
    for n in range(2, 51):
        ring = modular(n)
        scan = all((2 * a) % n != 0 or a % n == 0 for a in range(n))
        assert ring.is_two_torsionfree() == scan == (n % 2 == 1)
    assert INTEGERS.is_two_torsionfree() and RATIONALS.is_two_torsionfree()

    A6 = incidence_algebra(chain(3), modular(6))
    with pytest.raises(TorsionRefusedError):
        decompose(LinMap.identity(A6))
    assert decompose(LinMap.identity(A6), allow_torsion=True).report.passed
    passed(6, "ring gate")


def test_criterion_7_recomposition():
    """near_sum_build(psi, theta) reproduces phi column-for-column on
    every corpus decomposition, twisted codomains included."""
    for build in NAMED_POSETS.values():
        poset = build()
        for ring in RINGS:
            for seed in range(2):
                phi = random_jordan_iso(poset, ring, seed)
                if seed == 1:
                    phi = rebase_codomain(
                        phi, random_basis_change(phi.codomain, seed + 90)
                    )
                dec = decompose(phi)
                rebuilt = near_sum_build(dec.psi, dec.theta)
                assert rebuilt.columns == phi.columns
    passed(7, "recomposition")


CLI_RUNS = [
    (["validate-poset", "poset_diamond.json"], 0),
    (["validate-poset", "poset_cycle.json"], 2),
    (["gen-poset", "--n", "5", "--p", "0.4", "--seed", "3"], 0),
    (
        [
            "gen-jordan",
            "--poset", "poset_two_2chains.json",
            "--ring", "ring_rationals.json",
            "--seed", "8",
        ],
        0,
    ),
    (
        [
            "check-map", "--jordan",
            "--poset", "poset_diamond.json",
            "--ring", "ring_mod9.json",
            "--map", "map_jordan_diamond_mod9.json",
        ],
        0,
    ),
    (
        [
            "check-map", "--jordan",
            "--poset", "poset_3chain.json",
            "--ring", "ring_rationals.json",
            "--map", "map_perturbed_3chain_rationals.json",
        ],
        1,
    ),
    (
        [
            "decompose",
            "--poset", "poset_3chain.json",
            "--ring", "ring_rationals.json",
            "--map", "map_identity_3chain_rationals.json",
        ],
        0,
    ),
    (
        [
            "decompose",
            "--poset", "poset_diamond.json",
            "--ring", "ring_mod9.json",
            "--map", "map_jordan_diamond_mod9.json",
        ],
        0,
    ),
    (
        [
            "verify",
            "--poset", "poset_two_2chains.json",
            "--ring", "ring_rationals.json",
            "--map", "map_jordan_two_2chains_rationals.json",
        ],
        0,
    ),
    (
        [
            "verify", "--identities",
            "--poset", "poset_two_2chains.json",
            "--ring", "ring_rationals.json",
            "--map", "map_jordan_two_2chains_rationals.json",
        ],
        0,
    ),
    (
        [
            "verify", "--identities",
            "--poset", "poset_3chain.json",
            "--ring", "ring_mod6.json",
            "--map", "map_identity_3chain_rationals.json",
        ],
        2,
    ),
]


def test_criterion_8_cli_determinism():
    """Every bundled fixture command returns its documented exit code and
    produces byte-identical stdout on repeated runs."""
    def invoke(args):
        resolved = [
            str(FIXTURES / a) if a.endswith(".json") else a for a in args
        ]
        return subprocess.run(
            [sys.executable, "-m", "fialg", *resolved],
            capture_output=True,
        )

    for args, want_code in CLI_RUNS:
        first = invoke(args)
        second = invoke(args)
        assert first.returncode == want_code, (args, first.returncode, first.stderr)
        assert second.returncode == want_code
        assert first.stdout == second.stdout, args
    passed(8, "CLI determinism")
