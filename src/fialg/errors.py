"""Exception hierarchy shared by the whole package.

Every error raised by fialg derives from FialgError, so callers (notably the
command-line front end) can map any library failure to a single diagnostic
path.  Recognizer *failures* are not errors: checks that merely find a
violated identity return structured reports instead of raising.
"""


class FialgError(Exception):
    """Base class for all fialg errors."""


class DuplicateElementError(FialgError):
    """A poset was given the same element label twice."""


class UnknownElementError(FialgError):
    """An element label does not belong to the poset under consideration."""


class AntisymmetryViolationError(FialgError):
    """The reflexive-transitive closure of the given relations contains a
    two-way strict comparison x <= y <= x with x != y."""


class SizeMismatchError(FialgError):
    """Two posets that were expected to have the same number of elements
    do not."""


class NotAUnitError(FialgError):
    """A ring element that must be invertible is not."""


class NotComparableError(FialgError):
    """A matrix unit e_xy was requested for an incomparable pair x, y."""


class ContextMismatchError(FialgError):
    """Operands live over different posets, rings, or algebras."""


class NotInvertibleError(FialgError):
    """A linear map has no exact inverse (its determinant is not a unit)."""


class NotJordanError(FialgError):
    """A map required to be a Jordan homomorphism fails the defining
    identities; the offending witnesses are attached.  ``report`` is the
    report or a function of no arguments that builds it on the first read
    of ``.report``, so a caller that never reads it never pays for it."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self._report = report

    @property
    def report(self):
        if callable(self._report):
            self._report = self._report()
        return self._report


class TorsionRefusedError(FialgError):
    """The requested computation is only meaningful over 2-torsion-free
    rings and the override flag was not set."""


class PreconditionFailedError(FialgError):
    """A constructive operation (e.g. assembling a near-sum) was handed
    inputs violating its stated preconditions.

    ``clauses`` holds one CheckResult per violated clause, each with
    witness index tuples and both evaluated sides.
    """

    def __init__(self, message, clauses=()):
        super().__init__(message)
        self.clauses = tuple(clauses)
