"""Exact coefficient rings: axioms, units, torsion, serialization."""

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
    incidence_algebra,
    modular,
    random_jordan_iso,
    ring_from_json,
    validate_poset,
)
from fialg.errors import FialgError

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


def test_ring_json_round_trip():
    for ring in RINGS:
        assert ring_from_json(ring.to_json()) == ring
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
