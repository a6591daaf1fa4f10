"""Exact scalar arithmetic: integers, rationals, residues mod n.

A Ring object owns the arithmetic and works on plain canonical payloads
(int for integers, fractions.Fraction in lowest terms for rationals, int in
[0, n) for residues).  Nothing here ever touches a float.

The product kernel, StructAlgebra.multiply, sums plain Python ints: lift
and lift_table give a vector or a cell table as integer numerators over
one denominator, and reduce turns each summed coordinate back into a
canonical payload, once per output coordinate.  Over
Z and Z/n the payloads are their own numerators over 1, so lifting returns
its argument and costs nothing; reduce drops the zeros over Z and applies
one % n over Z/n.  Over Q a vector lifts over the lcm of its denominators,
and reduce builds one Fraction per nonzero sum, so the gcd is paid once per
coordinate and not once per term.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction

from .errors import FialgError, NotAUnitError


class Ring:
    """Common surface of the three concrete rings."""

    kind = "?"

    # True when n a = 0 for an integer n > 0 forces a = 0.  A ring that does
    # not say so is taken to have torsion, so it gets no shortcut that needs
    # torsion-freeness.
    is_torsion_free = False

    # concrete subclasses bind: zero, one, add, sub, neg, mul

    def normalize(self, a):
        raise NotImplementedError

    def lift(self, vec: dict):
        """vec, an {index: nonzero payload} dict, as (its integer numerators
        in the same order, their common denominator)."""
        return vec, 1

    def lift_table(self, cells):
        """A structure-constant table, cells[i][j] a tuple of (k, payload),
        as (the same shape of integer numerators, their common
        denominator)."""
        return cells, 1

    def reduce(self, acc: dict, den: int) -> dict:
        """The payloads acc[k] / den, as {index: nonzero payload} in acc's
        key order: the integer sums of the product kernel made canonical."""
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

    def __repr__(self):
        return self.kind

    def __eq__(self, other):
        return type(self) is type(other)

    def __hash__(self):
        return hash(type(self))


class IntegerRing(Ring):
    kind = "integers"
    is_torsion_free = True
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

    def reduce(self, acc, den):
        return {k: w for k, w in acc.items() if w}

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
    is_torsion_free = True
    zero = Fraction(0)
    one = Fraction(1)
    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    neg = staticmethod(operator.neg)
    mul = staticmethod(operator.mul)

    def normalize(self, a):
        if type(a) is Fraction:  # exact and in lowest terms already
            return a
        if isinstance(a, bool) or not isinstance(a, (int, Fraction)):
            raise FialgError(f"not a rational payload (int or Fraction): {a!r}")
        return Fraction(a)

    def lift(self, vec):
        den = math.lcm(*[a.denominator for a in vec.values()])
        return {k: a.numerator * (den // a.denominator) for k, a in vec.items()}, den

    def lift_table(self, cells):
        den = math.lcm(*{c.denominator for row in cells for cell in row for _, c in cell})

        def lifted(cell):  # an empty cell, most of a table, is kept as it is
            return tuple([(k, c.numerator * (den // c.denominator)) for k, c in cell])

        return tuple(
            tuple([lifted(cell) if cell else cell for cell in row]) for row in cells
        ), den

    def reduce(self, acc, den):
        return {k: Fraction(w, den) for k, w in acc.items() if w}

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

    def reduce(self, acc, den):
        n = self.modulus
        return {k: r for k, w in acc.items() if (r := w % n)}

    def try_invert(self, a):
        try:
            return pow(a, -1, self.modulus)
        except ValueError:  # a shares a factor with the modulus
            return None

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
        """A uniform unit of Z/n.  Up to n = 2**16 it is rng.choice from the
        units in increasing order, listed once per ring, so a seed draws the
        same unit as ever; those draws are pinned by tests and digests.  Above
        the bound it is rng.randrange(1, n), drawn again until it is coprime
        to n: n/phi(n) tries on average, no factoring, and no draw pinned."""
        n = self.modulus
        if n <= _LISTED_UNITS_UP_TO:
            if self._units is None:
                self._units = tuple(r for r in range(1, n) if math.gcd(r, n) == 1)
            return rng.choice(self._units)
        while True:
            r = rng.randrange(1, n)
            if math.gcd(r, n) == 1:
                return r

    def __repr__(self):
        return f"modular({self.modulus})"

    def __eq__(self, other):
        return isinstance(other, ModularRing) and other.modulus == self.modulus

    def __hash__(self):
        return hash(("modular", self.modulus))


_LISTED_UNITS_UP_TO = 2**16
_INTEGER_TEXT = re.compile(r"-?[0-9]+")
_RATIONAL_TEXT = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _check_wire_scalar(text, spelling: re.Pattern, what: str) -> None:
    if isinstance(text, bool) or not isinstance(text, (str, int)):
        raise FialgError(f"scalar must be a string or an integer, got {text!r}")
    if isinstance(text, str) and not spelling.fullmatch(text):
        raise FialgError(f"bad {what} scalar {text!r}")


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
