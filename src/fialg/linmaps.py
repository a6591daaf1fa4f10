"""R-linear maps between structure-constant algebras, and the recognizers
that ask whether a map is multiplicative, anti-multiplicative, or Jordan.

A map is stored as its matrix over the ordered bases (columns = images of
domain basis vectors).  All recognizers quantify over basis tuples — enough,
by bilinearity, to decide the corresponding law for arbitrary elements —
and report witnesses instead of bare booleans.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgElem, StructAlgebra, change_basis
from .errors import (
    ContextMismatchError,
    FialgError,
    TorsionRefusedError,
)
from .matrices import identity_columns, invert_columns, mat_vec
from .reports import VerificationReport, run_check


@dataclass(frozen=True)
class LinMap:
    """A linear map domain -> codomain over their (shared) scalar ring."""

    domain: StructAlgebra
    codomain: StructAlgebra
    columns: tuple

    def __post_init__(self):
        if self.domain.ring != self.codomain.ring:
            raise ContextMismatchError("domain and codomain rings differ")
        ring = self.domain.ring
        if len(self.columns) != self.domain.dimension:
            raise FialgError("column count does not match domain dimension")
        cols = []
        for col in self.columns:
            if len(col) != self.codomain.dimension:
                raise FialgError("column height does not match codomain dimension")
            cols.append(tuple(ring.normalize(v) for v in col))
        object.__setattr__(self, "columns", tuple(cols))

    @property
    def ring(self):
        return self.domain.ring

    # -- constructors ----------------------------------------------------------

    @classmethod
    def identity(cls, algebra: StructAlgebra) -> "LinMap":
        return cls(algebra, algebra, identity_columns(algebra.ring, algebra.dimension))

    @classmethod
    def zero(cls, domain: StructAlgebra, codomain: StructAlgebra) -> "LinMap":
        col = [domain.ring.zero] * codomain.dimension
        return cls(domain, codomain, [list(col) for _ in range(domain.dimension)])

    # -- action ----------------------------------------------------------------

    def apply_coords(self, vec):
        return mat_vec(self.ring, self.columns, vec)

    def apply(self, a: AlgElem) -> AlgElem:
        if a.algebra is not self.domain and a.algebra != self.domain:
            raise ContextMismatchError("element does not live in the map's domain")
        return AlgElem(self.codomain, tuple(self.apply_coords(a.coords)))

    def compose(self, inner: "LinMap") -> "LinMap":
        """self after inner: (self.compose(inner))(a) = self(inner(a))."""
        if inner.codomain is not self.domain and inner.codomain != self.domain:
            raise ContextMismatchError("inner codomain does not match outer domain")
        return LinMap(
            inner.domain,
            self.codomain,
            [self.apply_coords(col) for col in inner.columns],
        )

    def invert(self) -> "LinMap":
        """Exact inverse; NotInvertibleError unless det is a unit."""
        inv = invert_columns(self.ring, [list(c) for c in self.columns])
        return LinMap(self.codomain, self.domain, inv)

    def add(self, other: "LinMap") -> "LinMap":
        if other.domain != self.domain or other.codomain != self.codomain:
            raise ContextMismatchError("maps have different domains or codomains")
        ring = self.ring
        return LinMap(
            self.domain,
            self.codomain,
            [
                [ring.add(a, b) for a, b in zip(ca, cb)]
                for ca, cb in zip(self.columns, other.columns)
            ],
        )

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        fmt = self.ring.format
        return {
            "domain_dim": self.domain.dimension,
            "codomain_dim": self.codomain.dimension,
            "columns": [[fmt(v) for v in col] for col in self.columns],
        }

    @classmethod
    def from_json(cls, domain: StructAlgebra, codomain: StructAlgebra, obj) -> "LinMap":
        for field in ("domain_dim", "codomain_dim", "columns"):
            if not isinstance(obj, dict) or field not in obj:
                raise FialgError(f"linear-map description lacks {field!r}")
        for field, algebra in (("domain_dim", domain), ("codomain_dim", codomain)):
            dim = obj[field]
            if isinstance(dim, bool) or not isinstance(dim, int):
                raise FialgError(f"{field} must be an integer, got {dim!r}")
            if dim != algebra.dimension:
                raise ContextMismatchError(
                    f"{field} {dim} != algebra dimension {algebra.dimension}"
                )
        columns = obj["columns"]
        if not isinstance(columns, list) or not all(
            isinstance(col, list) for col in columns
        ):
            raise FialgError("linear-map columns must be a list of lists")
        parse = domain.ring.parse
        cols = [[parse(v) for v in col] for col in columns]
        return cls(domain, codomain, cols)


def rebase_codomain(m: LinMap, new_basis_columns) -> LinMap:
    """Rewrite m over a new codomain basis (columns = old coordinates of the
    new basis vectors).  The rewritten map acts identically; its codomain is
    a generic StructAlgebra with transported structure constants."""
    target = change_basis(m.codomain, new_basis_columns)
    inv = invert_columns(m.ring, [list(c) for c in new_basis_columns])
    return LinMap(m.domain, target, [mat_vec(m.ring, inv, col) for col in m.columns])


def check_homomorphism(
    m: LinMap, anti: bool = False, unital: bool = False
) -> VerificationReport:
    """Does m send every basis product to the (anti-)product of images?

    m(b_i b_j) is compared with m(b_i) m(b_j) (anti=False) or with
    m(b_j) m(b_i) (anti=True) for every domain basis pair; bilinearity
    extends the verdict to all elements.  With unital=True, m(1) = 1 is
    checked as a separate clause.
    """
    dom, cod = m.domain, m.codomain
    d = dom.dimension
    images = m.columns

    def failures():
        for i in range(d):
            for j in range(d):
                lhs = m.apply_coords(dom.basis_product(i, j))
                rhs = (
                    cod.multiply(images[j], images[i])
                    if anti
                    else cod.multiply(images[i], images[j])
                )
                if lhs != rhs:
                    yield (i, j), lhs, rhs

    name = "anti_homomorphism" if anti else "homomorphism"
    checks = [run_check(name, failures())]
    if unital:
        lhs = m.apply_coords(dom.identity)
        rhs = list(cod.identity)
        checks.append(
            run_check("unital", [] if lhs == rhs else [((), lhs, rhs)])
        )
    return VerificationReport(tuple(checks))


def jordan_pair_check(m: LinMap) -> VerificationReport:
    """The polarized square law on basis pairs:
    m(ab + ba) = m(a)m(b) + m(b)m(a)."""
    dom, cod = m.domain, m.codomain
    d = dom.dimension
    ring = m.ring
    images = m.columns
    add = ring.add

    def failures():
        for i in range(d):
            for j in range(i, d):
                sym = [
                    add(a, b)
                    for a, b in zip(dom.basis_product(i, j), dom.basis_product(j, i))
                ]
                lhs = m.apply_coords(sym)
                p = cod.multiply(images[i], images[j])
                q = cod.multiply(images[j], images[i])
                rhs = [add(a, b) for a, b in zip(p, q)]
                if lhs != rhs:
                    yield (i, j), lhs, rhs

    return VerificationReport((run_check("jordan_pairs", failures()),))


def check_jordan(m: LinMap, allow_torsion: bool = False) -> VerificationReport:
    """Is m a Jordan homomorphism?

    Verifies the polarized square law m(ab+ba) = m(a)m(b) + m(b)m(a) on all
    basis pairs and the polarized triple law
    m(abc + cba) = m(a)m(b)m(c) + m(c)m(b)m(a) on all basis triples; over a
    2-torsion-free ring the two families pin down Jordan-ness for arbitrary
    elements.  Refuses rings with 2-torsion unless allow_torsion is set.
    """
    ring = m.ring
    if not ring.is_two_torsionfree() and not allow_torsion:
        raise TorsionRefusedError(
            f"{ring!r} has 2-torsion; pass allow_torsion=True to check anyway"
        )
    dom, cod = m.domain, m.codomain
    d = dom.dimension
    images = m.columns
    add = ring.add

    report = jordan_pair_check(m)

    pair_products = [
        [cod.multiply(images[i], images[j]) for j in range(d)] for i in range(d)
    ]

    def triple_failures():
        # (i, j, k) and (k, j, i) state the same identity; scan i <= k.
        for j in range(d):
            for i in range(d):
                left_ij = dom.basis_product(i, j)
                for k in range(i, d):
                    t1 = dom.multiply(left_ij, dom.unit_vector(k))
                    t2 = dom.multiply(dom.basis_product(k, j), dom.unit_vector(i))
                    lhs = m.apply_coords([add(a, b) for a, b in zip(t1, t2)])
                    r1 = cod.multiply(pair_products[i][j], images[k])
                    r2 = cod.multiply(pair_products[k][j], images[i])
                    rhs = [add(a, b) for a, b in zip(r1, r2)]
                    if lhs != rhs:
                        yield (i, j, k), lhs, rhs

    return report.extend(
        VerificationReport((run_check("jordan_triples", triple_failures()),))
    )
