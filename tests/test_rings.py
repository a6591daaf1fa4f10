"""Exact coefficient rings: axioms, units, torsion, serialization, and the
integer protocol of the product kernel (lift, lift_table, reduce)."""

import math
import random
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from fialg import (
    INTEGERS,
    RATIONALS,
    FinSeries,
    LinMap,
    NotAUnitError,
    change_basis,
    incidence_algebra,
    modular,
    random_basis_change,
    random_jordan_iso,
    ring_from_json,
    validate_poset,
)
from fialg.errors import FialgError
from fialg.rings import Ring

from conftest import chain

RINGS = [INTEGERS, RATIONALS, modular(2), modular(9), modular(12), modular(97)]


def elements(ring):
    """A hypothesis strategy producing normalized elements of the ring."""
    if ring is INTEGERS:
        return st.integers(-50, 50)
    if ring is RATIONALS:
        return st.fractions(max_denominator=12)
    return st.integers(0, ring.modulus - 1)


@pytest.mark.parametrize("ring", RINGS, ids=repr)
class TestAxioms:
    def test_identities(self, ring):
        for a in [ring.zero, ring.one, ring.sample(__import__("random").Random(1))]:
            assert ring.add(a, ring.zero) == a
            assert ring.mul(a, ring.one) == a
            assert ring.mul(ring.one, a) == a

    def test_add_mul_laws(self, ring):
        @given(elements(ring), elements(ring), elements(ring))
        def laws(a, b, c):
            a, b, c = map(ring.normalize, (a, b, c))
            assert ring.add(a, b) == ring.add(b, a)
            assert ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))
            assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
            assert ring.mul(a, ring.add(b, c)) == ring.add(
                ring.mul(a, b), ring.mul(a, c)
            )
            assert ring.add(a, ring.neg(a)) == ring.zero
            assert ring.sub(a, b) == ring.add(a, ring.neg(b))

        laws()

    def test_format_parse_round_trip(self, ring):
        @given(elements(ring))
        def round_trip(a):
            a = ring.normalize(a)
            assert ring.parse(ring.format(a)) == a

        round_trip()


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_lift_then_reduce_gives_the_vector_back(ring):
    @given(st.lists(elements(ring), max_size=8))
    def round_trip(values):
        # keys in decreasing order, so that a reduce that sorted would show
        vec = {k: a for k, a in reversed(list(enumerate(map(ring.normalize, values)))) if a}
        numerators, den = ring.lift(vec)
        assert type(den) is int and den > 0
        assert list(numerators) == list(vec)
        assert all(type(w) is int for w in numerators.values())
        back = ring.reduce(dict(numerators), den)
        assert list(back.items()) == list(vec.items())
        assert all(type(a) is type(ring.one) for a in back.values())

    round_trip()


@pytest.mark.parametrize("ring", RINGS, ids=repr)
@pytest.mark.parametrize("twist", [False, True], ids=["incidence", "twisted"])
def test_a_lifted_table_reduces_to_its_cells(ring, twist):
    algebra = incidence_algebra(chain(3), ring)
    if twist:
        algebra = change_basis(algebra, random_basis_change(algebra, 5))
    lifted, den = ring.lift_table(algebra.cells)
    assert len(lifted) == len(algebra.cells)
    for row, lifted_row in zip(algebra.cells, lifted):
        assert len(lifted_row) == len(row)
        for cell, lifted_cell in zip(row, lifted_row):
            assert [k for k, _ in lifted_cell] == [k for k, _ in cell]
            assert all(type(w) is int for _, w in lifted_cell)
            assert ring.reduce(dict(lifted_cell), den) == dict(cell)


def test_a_rational_vector_lifts_over_the_lcm_of_its_denominators():
    assert RATIONALS.lift({0: Fraction(1, 6), 1: Fraction(1, 4)}) == ({0: 2, 1: 3}, 12)
    assert RATIONALS.lift({3: Fraction(-5, 2), 1: Fraction(7)}) == ({3: -5, 1: 14}, 2)
    assert RATIONALS.lift({}) == ({}, 1)
    table = (
        ((), ((0, Fraction(1, 6)),)),
        (((1, Fraction(1, 4)), (0, Fraction(2))), ()),
    )
    assert RATIONALS.lift_table(table) == (
        (((), ((0, 2),)), (((1, 3), (0, 24)), ())), 12
    )
    assert RATIONALS.reduce({0: 2, 1: 0, 2: 12}, 12) == {0: Fraction(1, 6), 2: Fraction(1)}
    assert type(RATIONALS.reduce({0: 12}, 12)[0]) is Fraction


@pytest.mark.parametrize("ring", [INTEGERS, modular(9), modular(12)], ids=repr)
@pytest.mark.parametrize("twist", [False, True], ids=["incidence", "twisted"])
def test_an_integer_ring_lifts_to_its_own_payloads(ring, twist):
    """Over Z and Z/n a payload is its own numerator over 1: a lift is its
    argument itself, so an algebra over those rings holds no second
    table."""
    algebra = incidence_algebra(chain(3), ring)
    if twist:
        algebra = change_basis(algebra, random_basis_change(algebra, 5))
    lifted, den = ring.lift_table(algebra.cells)
    assert lifted is algebra.cells and den == 1
    assert algebra._lifted_cells[0] is algebra.cells
    vec = {2: ring.one, 0: ring.normalize(7)}
    numerators, den = ring.lift(vec)
    assert numerators is vec and den == 1


def test_reduce_drops_zeros_and_reduces_residues():
    assert INTEGERS.reduce({4: 3, 1: 0, 0: -2}, 1) == {4: 3, 0: -2}
    assert list(modular(9).reduce({4: 30, 1: 18, 0: -2}, 1).items()) == [(4, 3), (0, 7)]


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_try_invert_is_exact(ring):
    @given(elements(ring))
    def inverse_law(a):
        a = ring.normalize(a)
        inv = ring.try_invert(a)
        if inv is None:
            assert not ring.is_unit(a)
        else:
            assert ring.mul(a, inv) == ring.one
            assert ring.mul(inv, a) == ring.one

    inverse_law()


def test_integer_units_are_signs():
    assert INTEGERS.try_invert(1) == 1
    assert INTEGERS.try_invert(-1) == -1
    assert INTEGERS.try_invert(2) is None
    with pytest.raises(NotAUnitError):
        INTEGERS.invert(0)


def test_rational_units_are_nonzero():
    assert RATIONALS.invert(Fraction(3, 4)) == Fraction(4, 3)
    assert RATIONALS.try_invert(Fraction(0)) is None


def test_modular_units_by_gcd():
    ring = modular(12)
    units = {a for a in range(12) if ring.is_unit(a)}
    from math import gcd

    assert units == {a for a in range(12) if gcd(a, 12) == 1}


@given(st.integers(2, 60), st.integers(-200, 200))
def test_modular_inverse_matches_brute_force(n, a):
    brute = [b for b in range(n) if (a * b) % n == 1 % n]
    assert modular(n).try_invert(a) == (brute[0] if brute else None)


@given(st.integers(2, 2**16), st.integers(0, 2**32))
@example(2, 0)
@example(9, 0)
@example(15, 1)
@example(45, 2)
@example(105, 3)
@example(2 * 3 * 5 * 7 * 11 * 13, 4)
@example(2**16, 5)
def test_sample_unit_draws_from_the_listed_units(n, seed):
    # up to the bound a seed draws what rng.choice draws from the units in
    # increasing order, so the pinned Z/9 outputs keep their units
    ring, rng = modular(n), random.Random(seed)
    oracle = random.Random(seed)
    listed = tuple(r for r in range(1, n) if math.gcd(r, n) == 1)
    assert [ring.sample_unit(rng) for _ in range(4)] == [
        oracle.choice(listed) for _ in range(4)
    ]


@pytest.mark.parametrize("n", [3 * 5 * 7 * 11 * 13 * 17, 2**63 + 1])
def test_sample_unit_above_the_bound_draws_only_units(n):
    ring, rng = modular(n), random.Random(1)
    draws = [ring.sample_unit(rng) for _ in range(1000)]
    assert all(0 < u < n and math.gcd(u, n) == 1 for u in draws)
    assert len(set(draws)) > 900


def test_gen_jordan_over_a_large_prime_modulus_starts_at_once():
    ring = modular(1000000007)
    chain3 = validate_poset(["1", "2", "3"], [("1", "2"), ("2", "3")])
    start = time.perf_counter()
    phi = random_jordan_iso(chain3, ring, seed=1)
    assert time.perf_counter() - start < 1.0
    assert LinMap.from_json(phi.domain, phi.codomain, phi.to_json()) == phi


def test_two_torsionfree_iff_odd_modulus():
    assert INTEGERS.is_two_torsionfree()
    assert RATIONALS.is_two_torsionfree()
    for n in range(2, 51):
        # brute scan: does 2a = 0 have a nonzero solution?
        has_torsion = any(
            (2 * a) % n == 0 and a % n != 0 for a in range(n)
        )
        assert modular(n).is_two_torsionfree() == (not has_torsion)
        assert modular(n).is_two_torsionfree() == (n % 2 == 1)



def test_only_z_and_q_are_torsion_free():
    # the flag gates Cochran's shortcut, so a ring that does not set it is
    # taken to have torsion and gets the full idempotent pair scan
    assert INTEGERS.is_torsion_free and RATIONALS.is_torsion_free
    assert not any(modular(n).is_torsion_free for n in range(2, 51))

    class Unflagged(Ring):
        pass

    assert Unflagged().is_torsion_free is False

def test_normalize_guards():
    with pytest.raises(FialgError):
        INTEGERS.normalize(True)  # bools are not ring elements
    with pytest.raises(FialgError):
        RATIONALS.normalize(0.5)
    assert modular(7).normalize(-1) == 6
    assert RATIONALS.normalize(3) == Fraction(3)


@pytest.mark.parametrize("ring", [RATIONALS, INTEGERS, modular(9)], ids=repr)
def test_normalize_takes_only_exact_payloads(ring):
    # int() and Fraction() also take bools, strings and Decimals; a payload
    # is a non-bool int on every ring, or a Fraction over the rationals
    for bad in (True, False, " 3 ", "1e3", "3", Decimal("0.1"), 0.5, None):
        with pytest.raises(FialgError):
            ring.normalize(bad)
    assert RATIONALS.normalize(Fraction(2, 4)) == Fraction(1, 2)


def test_library_constructors_refuse_non_exact_payloads_over_q():
    poset = validate_poset(["a", "b"], [("a", "b")])
    algebra = incidence_algebra(poset, RATIONALS)
    cols = [[Fraction(1), 0, 0], [0, 1, 0], [0, 0, True]]
    with pytest.raises(FialgError):
        LinMap(algebra, algebra, cols)
    with pytest.raises(FialgError):
        FinSeries.from_entries(poset, RATIONALS, {("a", "b"): "1e3"})


def test_modular_requires_sensible_modulus():
    with pytest.raises(FialgError):
        modular(1)
    with pytest.raises(FialgError):
        modular(0)


def test_ring_from_json_reads_the_documented_spellings():
    assert ring_from_json({"ring": "integers"}) == INTEGERS
    assert ring_from_json({"ring": "rationals"}) == RATIONALS
    for n in (2, 9, 12, 97):
        assert ring_from_json({"ring": {"modular": n}}) == modular(n)
    with pytest.raises(FialgError):
        ring_from_json({"ring": "octonions"})
    with pytest.raises(FialgError):
        ring_from_json({"rng": "rationals"})


@pytest.mark.parametrize("ring", [RATIONALS, INTEGERS, modular(9)], ids=repr)
def test_parse_accepts_only_strings_and_integers(ring):
    # a float is never exact ring data (0.1 would become a dyadic fraction)
    # and a bool is not a number on the wire
    for bad in (0.1, 2.7, 2.0, True, False, None, [1], {"value": "1"}):
        with pytest.raises(FialgError):
            ring.parse(bad)
    assert ring.parse("3") == ring.parse(3) == ring.normalize(3)
    assert ring.parse(-1) == ring.normalize(-1)


@pytest.mark.parametrize("ring", [RATIONALS, INTEGERS, modular(9)], ids=repr)
def test_parse_accepts_only_canonical_strings(ring):
    # int() and Fraction() also take exponents, underscores, surrounding
    # whitespace, a plus sign and non-ASCII digits; the wire format does not
    for bad in ("1e3", "1_0", " 1 ", "1\n", "\u0663", "+1", "", "-", "1.5",
                "0x1", "1/-2", "1 /2", "1" * 5000):
        with pytest.raises(FialgError):
            ring.parse(bad)
    assert ring.parse("-12") == ring.normalize(-12)
    assert ring.parse("007") == ring.normalize(7)


def test_rational_strings_take_one_denominator():
    assert RATIONALS.parse("-2/4") == Fraction(-1, 2)
    for bad in ("1/0", "1/2/3", "/2", "1/"):
        with pytest.raises(FialgError):
            RATIONALS.parse(bad)
    for ring in (INTEGERS, modular(9)):
        with pytest.raises(FialgError):
            ring.parse("1/2")
