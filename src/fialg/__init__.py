"""fialg: exact incidence-algebra computations on finite posets.

Sparse series with convolution, exact coefficient rings (integers, rationals,
modular residues), linear maps between finite-dimensional presentations, and
the near-sum decomposition of Jordan isomorphisms into a homomorphism plus an
anti-homomorphism — every check with zero-tolerance arithmetic and witness
reporting.
"""

from .algebra import (
    AlgBasis,
    FinSeries,
    StructAlgebra,
    change_basis,
    incidence_algebra,
    random_series,
)
from .errors import (
    AntisymmetryViolationError,
    ContextMismatchError,
    DuplicateElementError,
    FialgError,
    NotAUnitError,
    NotComparableError,
    NotInvertibleError,
    NotJordanError,
    PreconditionFailedError,
    SizeMismatchError,
    TorsionRefusedError,
    UnknownElementError,
)
from .jordan import (
    Decomposition,
    conjugate_by_unit,
    decompose,
    equal_by_sandwiches,
    extend_via_inverse,
    from_order_map,
    near_sum_build,
    random_basis_change,
    random_jordan_iso,
    random_unit_series,
    verify_near_sum,
    verify_paper_identities,
)
from .linmaps import (
    LinMap,
    check_homomorphism,
    check_jordan,
    jordan_pair_check,
    rebase_codomain,
)
from .posets import (
    OrderMap,
    Poset,
    order_isomorphisms,
    random_poset,
    validate_poset,
)
from .reports import CheckResult, VerificationReport, Witness, run_check
from .rings import (
    INTEGERS,
    RATIONALS,
    IntegerRing,
    ModularRing,
    RationalRing,
    Ring,
    modular,
    ring_from_json,
)

__version__ = "0.1.0"

__all__ = [
    "AlgBasis",
    "AntisymmetryViolationError",
    "CheckResult",
    "ContextMismatchError",
    "Decomposition",
    "DuplicateElementError",
    "FialgError",
    "FinSeries",
    "INTEGERS",
    "IntegerRing",
    "LinMap",
    "ModularRing",
    "NotAUnitError",
    "NotComparableError",
    "NotInvertibleError",
    "NotJordanError",
    "OrderMap",
    "Poset",
    "PreconditionFailedError",
    "RATIONALS",
    "RationalRing",
    "Ring",
    "SizeMismatchError",
    "StructAlgebra",
    "TorsionRefusedError",
    "UnknownElementError",
    "VerificationReport",
    "Witness",
    "change_basis",
    "check_homomorphism",
    "check_jordan",
    "conjugate_by_unit",
    "decompose",
    "equal_by_sandwiches",
    "extend_via_inverse",
    "from_order_map",
    "incidence_algebra",
    "jordan_pair_check",
    "modular",
    "near_sum_build",
    "order_isomorphisms",
    "random_basis_change",
    "random_jordan_iso",
    "random_poset",
    "random_series",
    "random_unit_series",
    "rebase_codomain",
    "ring_from_json",
    "run_check",
    "validate_poset",
    "verify_near_sum",
    "verify_paper_identities",
]
