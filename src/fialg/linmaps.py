"""R-linear maps between structure-constant algebras, and the recognizers
that ask whether a map is multiplicative, anti-multiplicative, or Jordan.

A map is stored once, as its matrix over the ordered bases: the columns
(images of domain basis vectors) as {index: nonzero} dicts,
LinMap.sparse_columns.  The dense coordinate lists, LinMap.columns, are a
view built only when read.  All recognizers quantify over basis tuples —
enough, by bilinearity, to decide the corresponding law for arbitrary
elements — and report witnesses instead of bare booleans.

The scans run on the nonzeros: each recognizer multiplies the map's sparse
columns with StructAlgebra.multiply_sparse.  The left side, m(b_i b_j +
b_j b_i) or m(b_i b_j), is the combination of the columns the domain's
cells touch, so it costs nothing where a basis product is zero, as most are
in an incidence algebra.  Sides are compared as dicts, and dense coordinate lists
are built only for witnesses, so a report is the one a dense scan gives.
For a domain of dimension d, check_homomorphism takes one image product on
each of d^2 pairs, the pair law two on each of d(d+1)/2 pairs, and the
triple law two on each of d^2(d+1)/2 triples (b_i b_j b_k and b_k b_j b_i
are one instance), plus the d^2 products images[i] images[j] it reuses;
over a ring with 2-torsion the unpolarized laws add d + 2 d^2 products.
The near-sum certificate behind decompose is check_homomorphism's scan,
_homomorphism_failures, run on basis pairs read off an incidence domain.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import ne

from .algebra import AlgElem, StructAlgebra, _change_basis, sparse_vector
from .errors import ContextMismatchError, FialgError, TorsionRefusedError
from .matrices import _sparse_image, invert_columns, mat_vec
from .reports import CheckResult, VerificationReport, run_check


@dataclass(frozen=True, init=False)
class LinMap:
    """A linear map domain -> codomain over their (shared) scalar ring.
    LinMap(domain, codomain, columns) takes dense columns: it checks their
    shape, normalizes each entry once and keeps the nonzeros."""

    domain: StructAlgebra
    codomain: StructAlgebra
    sparse_columns: tuple

    def __init__(self, domain, codomain, columns):
        _check_shape(domain, codomain, columns)
        normalize = domain.ring.normalize
        cols = tuple(sparse_vector(map(normalize, col)) for col in columns)
        self.__dict__.update(domain=domain, codomain=codomain, sparse_columns=cols)

    @classmethod
    def _of_sparse(cls, domain, codomain, sparse_columns) -> "LinMap":
        """The map with these {index: nonzero} columns of canonical payloads,
        as ring.parse and the kernels make them; not checked or normalized
        again."""
        m = cls.__new__(cls)
        cols = tuple(sparse_columns)
        m.__dict__.update(domain=domain, codomain=codomain, sparse_columns=cols)
        return m

    @functools.cached_property
    def columns(self) -> tuple:
        """The columns as coordinate tuples, built on first read."""
        dense = self.codomain.dense
        return tuple(tuple(dense(col)) for col in self.sparse_columns)

    @property
    def ring(self):
        return self.domain.ring

    # -- constructors ----------------------------------------------------------

    @classmethod
    def identity(cls, algebra: StructAlgebra) -> "LinMap":
        units = ({k: algebra.ring.one} for k in range(algebra.dimension))
        return cls._of_sparse(algebra, algebra, units)

    @classmethod
    def zero(cls, domain: StructAlgebra, codomain: StructAlgebra) -> "LinMap":
        if domain.ring != codomain.ring:
            raise ContextMismatchError("domain and codomain rings differ")
        return cls._of_sparse(domain, codomain, ({} for _ in range(domain.dimension)))

    # -- action ----------------------------------------------------------------

    def apply_coords(self, vec):
        if len(vec) != self.domain.dimension:
            raise ContextMismatchError("vector length does not match the map's domain")
        if not self.columns:  # no column to read the codomain's dimension from
            return [self.ring.zero] * self.codomain.dimension
        return mat_vec(self.ring, self.columns, vec)

    def apply(self, a: AlgElem) -> AlgElem:
        if a.algebra is not self.domain and a.algebra != self.domain:
            raise ContextMismatchError("element does not live in the map's domain")
        return AlgElem(self.codomain, tuple(self.apply_coords(a.coords)))

    def compose(self, inner: "LinMap") -> "LinMap":
        """self after inner: (self.compose(inner))(a) = self(inner(a))."""
        if inner.codomain is not self.domain and inner.codomain != self.domain:
            raise ContextMismatchError("inner codomain does not match outer domain")
        ring, images = self.ring, self.sparse_columns
        cols = (_sparse_image(ring, images, c.items()) for c in inner.sparse_columns)
        return LinMap._of_sparse(inner.domain, self.codomain, cols)

    def invert(self) -> "LinMap":
        """Exact inverse; NotInvertibleError unless det is a unit."""
        inv = invert_columns(self.ring, self.sparse_columns, self.codomain.dimension)
        return LinMap._of_sparse(self.codomain, self.domain, inv)

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        fmt = self.ring.format
        zero = fmt(self.ring.zero)  # formatted once; fmt runs on the nonzeros only
        columns = [[zero] * self.codomain.dimension for _ in self.sparse_columns]
        for out, col in zip(columns, self.sparse_columns):
            for k, v in col.items():
                out[k] = fmt(v)
        return {
            "domain_dim": self.domain.dimension,
            "codomain_dim": self.codomain.dimension,
            "columns": columns,
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
                msg = f"{field} {dim} != algebra dimension {algebra.dimension}"
                raise ContextMismatchError(msg)
        columns = obj["columns"]
        lists = isinstance(columns, list) and all(isinstance(c, list) for c in columns)
        if not lists:
            raise FialgError("linear-map columns must be a list of lists")
        parse, memo, zeros = domain.ring.parse, {}, itertools.repeat("0")

        def scalar(v):  # each string spelling is parsed once per load
            if isinstance(v, str):
                return memo[v] if v in memo else memo.setdefault(v, parse(v))
            return parse(v)

        cols = []
        for col in columns:
            # one C-level pass skips the entries spelled "0", parsed once too
            kept = list(itertools.compress(range(len(col)), map(ne, col, zeros)))
            if len(kept) < len(col):
                scalar("0")
            values = map(scalar, map(col.__getitem__, kept))
            cols.append({i: x for i, x in zip(kept, values) if x})
        _check_shape(domain, codomain, columns)
        return cls._of_sparse(domain, codomain, cols)


def _check_shape(domain: StructAlgebra, codomain: StructAlgebra, columns) -> None:
    """Raise unless the rings agree and the dense columns number the domain's
    dimension, each as high as the codomain's."""
    if domain.ring != codomain.ring:
        raise ContextMismatchError("domain and codomain rings differ")
    if len(columns) != domain.dimension:
        raise FialgError("column count does not match domain dimension")
    if any(len(col) != codomain.dimension for col in columns):
        raise FialgError("column height does not match codomain dimension")


def rebase_codomain(m: LinMap, new_basis_columns) -> LinMap:
    """Rewrite m over a new codomain basis (columns = old coordinates of the
    new basis vectors).  The rewritten map acts identically; its codomain is
    a generic StructAlgebra with transported structure constants.  The basis
    change is inverted once, for change_basis's cells and for the columns,
    which are the inverse's images of m's sparse columns."""
    target, inverse = _change_basis(m.codomain, new_basis_columns)
    cols = [_sparse_image(m.ring, inverse, c.items()) for c in m.sparse_columns]
    return LinMap._of_sparse(m.domain, target, cols)


def _sparse_add(ring, u: dict, v: dict) -> dict:
    """u + v for vectors held as {index: nonzero payload}, with the zeros of
    the sum dropped."""
    add = ring.add
    out = dict(u)
    for k, b in v.items():
        out[k] = add(out[k], b) if k in out else b
    return {k: w for k, w in out.items() if w}


def _homomorphism_failures(m: LinMap, pairs, anti: bool):
    """m(b_i b_j) against m(b_i) m(b_j), or m(b_j) m(b_i) with anti, for the
    basis pairs (i, j) given, in their order, on m's sparse columns; the
    witnesses are dense, as run_check takes them."""
    cod, ring = m.codomain, m.ring
    images = m.sparse_columns
    multiply = cod.multiply_sparse
    cells = m.domain.cells
    for i, j in pairs:
        cell = cells[i][j]
        lhs = _sparse_image(ring, images, cell) if cell else {}
        rhs = multiply(images[j], images[i]) if anti else multiply(images[i], images[j])
        if lhs != rhs:
            yield (i, j), cod.dense(lhs), cod.dense(rhs)


def check_homomorphism(
    m: LinMap, anti: bool = False, unital: bool = False
) -> VerificationReport:
    """Does m send every basis product to the (anti-)product of images?

    m(b_i b_j) is compared with m(b_i) m(b_j) (anti=False) or with
    m(b_j) m(b_i) (anti=True) for every domain basis pair; bilinearity
    extends the verdict to all elements.  With unital=True, m(1) = 1 is
    checked as a separate clause.
    """
    name = "anti_homomorphism" if anti else "homomorphism"
    pairs = itertools.product(range(m.domain.dimension), repeat=2)
    checks = [run_check(name, _homomorphism_failures(m, pairs, anti))]
    if unital:
        cod, one = m.codomain, sparse_vector(m.domain.identity)
        lhs = _sparse_image(m.ring, m.sparse_columns, one.items())
        rhs = list(cod.identity)
        failures = [] if lhs == sparse_vector(rhs) else [((), cod.dense(lhs), rhs)]
        checks.append(run_check("unital", failures))
    return VerificationReport(tuple(checks))


def _jordan_pair_failures(m: LinMap, pairs):
    """The failures of the polarized square law
    m(b_i b_j + b_j b_i) = m(b_i)m(b_j) + m(b_j)m(b_i) on the basis pairs
    (i, j) given, in their order, as run_check takes them."""
    cod, ring = m.codomain, m.ring
    images = m.sparse_columns
    multiply = cod.multiply_sparse
    cells = m.domain.cells
    for i, j in pairs:
        sym = _sparse_add(ring, dict(cells[i][j]), dict(cells[j][i]))
        lhs = _sparse_image(ring, images, sym.items())
        rhs = _sparse_add(
            ring,
            multiply(images[i], images[j]),
            multiply(images[j], images[i]),
        )
        if lhs != rhs:
            yield (i, j), cod.dense(lhs), cod.dense(rhs)


def jordan_pair_check(m: LinMap) -> VerificationReport:
    """The polarized square law on basis pairs:
    m(ab + ba) = m(a)m(b) + m(b)m(a)."""
    d = m.domain.dimension
    pairs = ((i, j) for i in range(d) for j in range(i, d))
    return VerificationReport(
        (run_check("jordan_pairs", _jordan_pair_failures(m, pairs)),)
    )


def _jordan_pair_verdict(m: LinMap) -> CheckResult:
    """The pair law's verdict from a scan that stops at the first failing
    pair, squares b_i b_i first (a shear of one diagonal image by another
    fails on a square); a failure carries that one witness."""
    d = m.domain.dimension
    squares = ((i, i) for i in range(d))
    others = ((i, j) for i in range(d) for j in range(i + 1, d))
    failures = _jordan_pair_failures(m, itertools.chain(squares, others))
    return run_check("jordan_pairs", itertools.islice(failures, 1))


def check_jordan(m: LinMap, allow_torsion: bool = False) -> VerificationReport:
    """Is m a Jordan homomorphism?

    Verifies the polarized square law m(ab+ba) = m(a)m(b) + m(b)m(a) on all
    basis pairs and the polarized triple law
    m(abc + cba) = m(a)m(b)m(c) + m(c)m(b)m(a) on all basis triples; over a
    2-torsion-free ring the two families pin down Jordan-ness for arbitrary
    elements.  Refuses rings with 2-torsion unless allow_torsion is set; on
    such a ring a third check, jordan_quadratic, adds the unpolarized basis
    laws m(b_i^2) = m(b_i)^2 and m(b_i b_j b_i) = m(b_i)m(b_j)m(b_i), which
    with the two families give m(a^2) = m(a)^2 and m(aba) = m(a)m(b)m(a).
    """
    ring = m.ring
    if not ring.is_two_torsionfree() and not allow_torsion:
        raise TorsionRefusedError(
            f"{ring!r} has 2-torsion; pass allow_torsion=True to check anyway"
        )
    dom, cod = m.domain, m.codomain
    d = dom.dimension
    images = m.sparse_columns
    multiply = cod.multiply_sparse
    dom_multiply = dom.multiply_sparse
    units = [{k: ring.one} for k in range(d)]

    report = jordan_pair_check(m)

    def triple_failures():
        # (i, j, k) and (k, j, i) state the same identity; scan i <= k.  Only
        # column j of the products images[i] images[j] is alive: d, not d^2.
        for j in range(d):
            column = [multiply(images[i], images[j]) for i in range(d)]
            left = [dict(dom.cells[i][j]) for i in range(d)]
            for i in range(d):
                for k in range(i, d):
                    lhs = _sparse_image(
                        ring,
                        images,
                        _sparse_add(
                            ring,
                            dom_multiply(left[i], units[k]),
                            dom_multiply(left[k], units[i]),
                        ).items(),
                    )
                    rhs = _sparse_add(
                        ring,
                        multiply(column[i], images[k]),
                        multiply(column[k], images[i]),
                    )
                    if lhs != rhs:
                        yield (i, j, k), cod.dense(lhs), cod.dense(rhs)

    checks = [run_check("jordan_triples", triple_failures())]
    if not ring.is_two_torsionfree():
        checks.append(run_check("jordan_quadratic", _quadratic_failures(m)))
    return report.extend(VerificationReport(tuple(checks)))


def _quadratic_failures(m: LinMap):
    """The failures of the unpolarized basis laws m(b_i b_i) = m(b_i)m(b_i),
    at (i, i), and m(b_i b_j b_i) = m(b_i)m(b_j)m(b_i), at (i, j, i).  The
    polarized instances with a repeated index are twice these, so over a ring
    with 2-torsion they can pass where these fail."""
    dom, cod, ring = m.domain, m.codomain, m.ring
    images = m.sparse_columns
    multiply = cod.multiply_sparse
    d = dom.dimension
    yield from _homomorphism_failures(m, ((i, i) for i in range(d)), anti=False)
    for i in range(d):
        unit = {i: ring.one}
        for j in range(d):
            inner = dom.multiply_sparse(dict(dom.cells[i][j]), unit)
            lhs = _sparse_image(ring, images, inner.items())
            rhs = multiply(multiply(images[i], images[j]), images[i])
            if lhs != rhs:
                yield (i, j, i), cod.dense(lhs), cod.dense(rhs)
