"""Exact scalar arithmetic: integers, rationals, residues mod n.

A Ring object owns the arithmetic and works on plain canonical payloads
(int for integers, fractions.Fraction in lowest terms for rationals, int in
[0, n) for residues).  Nothing here ever touches a float.
"""

from __future__ import annotations

import bisect
import operator
import re
from fractions import Fraction

from .errors import FialgError, NotAUnitError


class Ring:
    """Common surface of the three concrete rings."""

    kind = "?"

    # concrete subclasses bind: zero, one, add, sub, neg, mul

    def is_zero(self, a) -> bool:
        return a == self.zero

    def normalize(self, a):
        raise NotImplementedError

    def try_invert(self, a):
        """Exact multiplicative inverse of a, or None when a is not a unit."""
        raise NotImplementedError

    def invert(self, a):
        inv = self.try_invert(a)
        if inv is None:
            raise NotAUnitError(f"{self.format(a)} is not a unit of {self}")
        return inv

    def is_unit(self, a) -> bool:
        return self.try_invert(a) is not None

    def is_two_torsionfree(self) -> bool:
        """True when 2a = 0 forces a = 0."""
        raise NotImplementedError

    def format(self, a) -> str:
        return str(a)

    def parse(self, text):
        """Read a scalar from the wire: a canonical string (ASCII digits with
        an optional leading minus, plus "/denominator" over the rationals) or
        a JSON integer.  Floats and bools are refused, since neither is exact
        ring data, and so is any other spelling int() or Fraction() would
        take ("1e3", "1_0", " 1 ", non-ASCII digits)."""
        raise NotImplementedError

    def sample(self, rng):
        raise NotImplementedError

    def sample_unit(self, rng):
        raise NotImplementedError

    def to_json(self):
        return {"ring": self.kind}

    def __repr__(self):
        return self.kind

    def __eq__(self, other):
        return type(self) is type(other)

    def __hash__(self):
        return hash(type(self))


class IntegerRing(Ring):
    kind = "integers"
    zero = 0
    one = 1
    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    neg = staticmethod(operator.neg)
    mul = staticmethod(operator.mul)

    def normalize(self, a):
        if isinstance(a, bool) or not isinstance(a, int):
            raise FialgError(f"not an integer payload: {a!r}")
        return a

    def try_invert(self, a):
        return a if a in (1, -1) else None

    def is_two_torsionfree(self):
        return True

    def parse(self, text):
        _check_wire_scalar(text, _INTEGER_TEXT, "integer")
        try:
            return int(text)
        except ValueError as exc:  # more digits than int() converts
            raise FialgError(f"bad integer scalar {text!r}") from exc

    def sample(self, rng):
        return rng.randint(-6, 6)

    def sample_unit(self, rng):
        return rng.choice((1, -1))


class RationalRing(Ring):
    kind = "rationals"
    zero = Fraction(0)
    one = Fraction(1)
    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    neg = staticmethod(operator.neg)
    mul = staticmethod(operator.mul)

    def normalize(self, a):
        if isinstance(a, bool) or not isinstance(a, (int, Fraction)):
            raise FialgError(f"not a rational payload (int or Fraction): {a!r}")
        return Fraction(a)

    def try_invert(self, a):
        return None if a == 0 else 1 / Fraction(a)

    def is_two_torsionfree(self):
        return True

    def parse(self, text):
        _check_wire_scalar(text, _RATIONAL_TEXT, "rational")
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise FialgError(f"bad rational scalar {text!r}") from exc

    def sample(self, rng):
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    def sample_unit(self, rng):
        num = rng.choice([n for n in range(-5, 6) if n])
        return Fraction(num, rng.randint(1, 4))


class ModularRing(Ring):
    """Residues mod n with canonical representatives in [0, n)."""

    kind = "modular"

    def __init__(self, modulus: int):
        if not isinstance(modulus, int) or modulus < 2:
            raise FialgError(f"modulus must be an integer >= 2, got {modulus!r}")
        self.modulus = modulus
        n = modulus
        self.zero = 0
        self.one = 1 % n
        self.add = lambda a, b: (a + b) % n
        self.sub = lambda a, b: (a - b) % n
        self.neg = lambda a: (-a) % n
        self.mul = lambda a, b: (a * b) % n
        self._units = None

    def normalize(self, a):
        if isinstance(a, bool) or not isinstance(a, int):
            raise FialgError(f"not a residue payload: {a!r}")
        return a % self.modulus

    def try_invert(self, a):
        a %= self.modulus
        g, s, _ = _gcdex(a, self.modulus)
        if g != 1:
            return None
        return s % self.modulus

    def is_two_torsionfree(self):
        # 2a = 0 mod n has the nonzero solution a = n/2 exactly when n is even.
        return self.modulus % 2 == 1

    def parse(self, text):
        _check_wire_scalar(text, _INTEGER_TEXT, "residue")
        try:
            return int(text) % self.modulus
        except ValueError as exc:
            raise FialgError(f"bad residue scalar {text!r}") from exc

    def sample(self, rng):
        return rng.randrange(self.modulus)

    def sample_unit(self, rng):
        if self._units is None:
            self._units = _UnitResidues(self.modulus)
        return rng.choice(self._units)

    def to_json(self):
        return {"ring": {"modular": self.modulus}}

    def __repr__(self):
        return f"modular({self.modulus})"

    def __eq__(self, other):
        return isinstance(other, ModularRing) and other.modulus == self.modulus

    def __hash__(self):
        return hash(("modular", self.modulus))


class _UnitResidues:
    """The units of Z/n in increasing order, as a sequence that rng.choice
    draws from without listing them: the length is Euler's phi(n), and entry
    k is the least x with k + 1 units in [1, x], found by binary search on
    that count, an inclusion-exclusion over n's prime factors (found once,
    by trial division)."""

    def __init__(self, n: int):
        self.n = n
        self._divisors = [(1, 1)]  # the squarefree divisors, with Moebius signs
        rest, p = n, 2
        while p * p <= rest:
            if rest % p == 0:
                self._divisors += [(d * p, -sign) for d, sign in self._divisors]
                while rest % p == 0:
                    rest //= p
            p += 1 if p == 2 else 2
        if rest > 1:  # the one prime factor above sqrt(n)
            self._divisors += [(d * rest, -sign) for d, sign in self._divisors]
        self._length = self._count(n)

    def _count(self, x: int) -> int:
        """The number of units in [1, x]."""
        return sum(sign * (x // d) for d, sign in self._divisors)

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, k: int) -> int:
        if not 0 <= k < self._length:
            raise IndexError(k)
        return 1 + bisect.bisect_left(range(1, self.n), k + 1, key=self._count)


_INTEGER_TEXT = re.compile(r"-?[0-9]+")
_RATIONAL_TEXT = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _check_wire_scalar(text, spelling: re.Pattern, what: str) -> None:
    if isinstance(text, bool) or not isinstance(text, (str, int)):
        raise FialgError(f"scalar must be a string or an integer, got {text!r}")
    if isinstance(text, str) and not spelling.fullmatch(text):
        raise FialgError(f"bad {what} scalar {text!r}")


def _gcdex(a: int, b: int):
    """Extended gcd: returns (g, s, t) with g = gcd(a, b) = s*a + t*b."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


INTEGERS = IntegerRing()
RATIONALS = RationalRing()


def modular(n: int) -> ModularRing:
    return ModularRing(n)


def ring_from_json(obj) -> Ring:
    """Parse the {"ring": ...} wire fragment."""
    if not isinstance(obj, dict) or "ring" not in obj:
        raise FialgError(f"not a ring description: {obj!r}")
    desc = obj["ring"]
    if desc == "integers":
        return INTEGERS
    if desc == "rationals":
        return RATIONALS
    if isinstance(desc, dict) and set(desc) == {"modular"}:
        return ModularRing(desc["modular"])
    raise FialgError(f"unknown ring description: {desc!r}")
