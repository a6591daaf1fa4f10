"""Near-sum decomposition of Jordan isomorphisms of incidence algebras.

A Jordan isomorphism phi out of the incidence algebra of a finite poset
splits along the diagonal/strict decomposition f = f_D + f_Z: phi restricted
to the diagonal subalgebra is simultaneously a homomorphism and an
anti-homomorphism, and on the strict ideal phi is the sum of

    psi(e_xy)   = phi(e_x) phi(e_xy) phi(e_y)      (a homomorphism)
    theta(e_xy) = phi(e_y) phi(e_xy) phi(e_x)      (an anti-homomorphism)

which annihilate each other on the ideal.  decompose() builds the pair by
linear extension over the unit basis; extend_via_inverse() rebuilds the same
maps pointwise through phi^-1 and serves as the independent oracle.

verify_near_sum() decides the five defining properties of the output.  Over
the incidence split it certifies them on the generators of the algebra, the
idempotents e_x and the cover units e_xy with x covered by y: (n + c) * d
image products for n elements, c covers and dimension d, where a scan of
every basis pair takes d^2.  The full scan runs only when the certificate
fails, to count the failing instances and collect witnesses; decompose()
runs the Jordan recognizer before it, so that only a Jordan map pays for the
failing report.  verify_paper_identities() exercises the full family of
sandwich, idempotent, and annihilation identities that make the construction
work.

Everything here is exact: a check passes only on literal equality of
coordinates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .algebra import (
    AlgElem,
    FinSeries,
    StructAlgebra,
    incidence_algebra,
    random_series,
)
from .errors import (
    ContextMismatchError,
    FialgError,
    NotJordanError,
    PreconditionFailedError,
    TorsionRefusedError,
)
from .linmaps import LinMap, check_homomorphism, check_jordan, jordan_pair_check
from .matrices import mat_vec, require_unit_determinant
from .posets import OrderMap, Poset, _iter_order_isomorphisms, order_isomorphisms
from .reports import CheckResult, VerificationReport, run_check
from .rings import Ring


@dataclass(frozen=True)
class NearSumSplit:
    """A basis split A = A_0 (+) A_1 with A_0 a subalgebra and A_1 an ideal,
    recorded as index sets into the algebra's basis and checked against the
    structure constants on construction."""

    algebra: StructAlgebra
    diagonal: tuple[int, ...]
    strict: tuple[int, ...]

    def __post_init__(self):
        d = self.algebra.dimension
        if sorted(self.diagonal + self.strict) != list(range(d)):
            raise FialgError("split index sets do not partition the basis")
        diag = set(self.diagonal)
        strict = set(self.strict)
        cells = self.algebra.cells
        for i in self.diagonal:
            for j in self.diagonal:
                for k, _ in cells[i][j]:
                    if k not in diag:
                        raise FialgError(
                            f"diagonal block is not a subalgebra: "
                            f"b_{i} b_{j} leaves it at coordinate {k}"
                        )
        for i in self.strict:
            for j in range(d):
                for k, _ in cells[i][j]:
                    if k not in strict:
                        raise FialgError(
                            f"strict block is not a right ideal: "
                            f"b_{i} b_{j} leaves it at coordinate {k}"
                        )
                for k, _ in cells[j][i]:
                    if k not in strict:
                        raise FialgError(
                            f"strict block is not a left ideal: "
                            f"b_{j} b_{i} leaves it at coordinate {k}"
                        )

    @classmethod
    def for_incidence(cls, algebra: StructAlgebra) -> "NearSumSplit":
        if algebra.basis is None:
            raise ContextMismatchError("algebra carries no incidence basis")
        return cls(
            algebra,
            algebra.basis.diagonal_indices(),
            algebra.basis.strict_indices(),
        )


@dataclass(frozen=True)
class Decomposition:
    """The output of decompose(): phi = psi + theta on the strict ideal,
    phi = psi = theta on the diagonal, plus the verification report."""

    phi: LinMap
    psi: LinMap
    theta: LinMap
    split: NearSumSplit
    report: VerificationReport | None

    def to_json(self) -> dict:
        fmt = self.phi.ring.format
        report = self.report or VerificationReport()
        return {
            "checks": [c.to_json(fmt) for c in report.checks],
            "psi": self.psi.to_json(),
            "theta": self.theta.to_json(),
        }


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def from_order_map(m: OrderMap, ring: Ring) -> LinMap:
    """The algebra (anti-)isomorphism induced by an order bijection:
    e_xy -> e_{m(x)m(y)}, or e_xy -> e_{m(y)m(x)} when m reverses order."""
    domain = incidence_algebra(m.source, ring)
    codomain = incidence_algebra(m.target, ring)
    cols = []
    for (i, j) in domain.basis.pairs:
        ti, tj = m.images[i], m.images[j]
        pair = (tj, ti) if m.reversing else (ti, tj)
        cols.append(codomain.unit_vector(codomain.basis.index_of[pair]))
    return LinMap(domain, codomain, cols)


def conjugate_by_unit(u: FinSeries) -> LinMap:
    """The inner automorphism f -> u f u^-1 of the incidence algebra of u's
    poset; u must have unit diagonal entries."""
    algebra = incidence_algebra(u.poset, u.ring)
    u_inv = u.inverse()
    cols = []
    for pair in algebra.basis.pairs:
        b = FinSeries(u.poset, u.ring, {pair: u.ring.one})
        cols.append(algebra.element_from_series(u * b * u_inv).coords)
    return LinMap(algebra, algebra, cols)


def near_sum_build(psi: LinMap, theta: LinMap, split: NearSumSplit) -> LinMap:
    """Assemble the near-sum of a homomorphism and an anti-homomorphism:
    psi on the diagonal block, psi + theta on the strict block.

    The assembled map must pass verify_near_sum: psi is a homomorphism,
    theta is an anti-homomorphism that agrees with psi on the diagonal
    block, and their images of the strict block annihilate each other in
    both orders.  Each violated clause is reported with witnesses inside
    PreconditionFailedError.
    """
    if psi.domain != theta.domain or psi.codomain != theta.codomain:
        raise ContextMismatchError("psi and theta must share domain and codomain")
    if split.algebra != psi.domain:
        raise ContextMismatchError("split does not describe the maps' domain")
    add = psi.ring.add
    cols = list(psi.columns)
    for k in split.strict:
        cols[k] = [add(a, b) for a, b in zip(psi.columns[k], theta.columns[k])]
    phi = LinMap(psi.domain, psi.codomain, cols)

    report = verify_near_sum(Decomposition(phi, psi, theta, split, None))
    violated = [c for c in report.checks if not c.passed]
    if violated:
        names = ", ".join(c.name for c in violated)
        raise PreconditionFailedError(
            f"near-sum preconditions violated: {names}", clauses=violated
        )
    return phi


def random_unit_series(poset: Poset, ring: Ring, rng: random.Random,
                       density: float = 0.4) -> FinSeries:
    """A random convolution unit: unit diagonal entries, sparse strict part."""
    coeffs = {}
    for i in range(poset.size):
        coeffs[(i, i)] = ring.sample_unit(rng)
    for (i, j) in poset.strict_index_pairs():
        if rng.random() < density:
            v = ring.sample(rng)
            if not ring.is_zero(v):
                coeffs[(i, j)] = v
    return FinSeries(poset, ring, coeffs)


def random_basis_change(algebra: StructAlgebra, seed: int):
    """A seeded sparse invertible column matrix over the algebra's ring:
    a permutation of unit-scaled basis vectors followed by a few elementary
    column shears.  Suitable for change_basis / rebase_codomain."""
    ring = algebra.ring
    d = algebra.dimension
    rng = random.Random(seed)
    perm = list(range(d))
    rng.shuffle(perm)
    cols = []
    for j in range(d):
        col = [ring.zero] * d
        col[perm[j]] = ring.sample_unit(rng)
        cols.append(col)
    for _ in range(d // 2 + 1):
        i, j = rng.randrange(d), rng.randrange(d)
        if i == j:
            continue
        r = ring.sample(rng)
        source = list(cols[i])
        cols[j] = [ring.add(a, ring.mul(r, b)) for a, b in zip(cols[j], source)]
    return cols


def random_jordan_iso(poset: Poset, ring: Ring, seed: int) -> LinMap:
    """A seeded Jordan automorphism of the incidence algebra: per connected
    component an order isomorphism or (when available) anti-isomorphism onto
    a component of the same shape, assembled as a near-sum, then composed
    with a random unit conjugation.  Always invertible and Jordan."""
    if not ring.is_two_torsionfree():
        raise TorsionRefusedError(
            f"{ring!r} has 2-torsion; Jordan generation is not meaningful there"
        )
    rng = random.Random(seed)
    algebra = incidence_algebra(poset, ring)
    basis = algebra.basis

    comps = poset.components()
    subs = [poset.restrict(c) for c in comps]

    # Group components by order-isomorphism type, then permute within groups.
    groups: list[list[int]] = []
    for ci, sub in enumerate(subs):
        for members in groups:
            rep = subs[members[0]]
            if (
                rep.size == sub.size
                and next(_iter_order_isomorphisms(sub, rep), None) is not None
            ):
                members.append(ci)
                break
        else:
            groups.append([ci])
    target_of = {}
    for members in groups:
        shuffled = list(members)
        rng.shuffle(shuffled)
        for src, tgt in zip(members, shuffled):
            target_of[src] = tgt

    images = [0] * poset.size
    anti_comp = [False] * len(comps)
    for ci, comp in enumerate(comps):
        tgt = target_of[ci]
        straight = order_isomorphisms(subs[ci], subs[tgt])
        reversed_maps = order_isomorphisms(subs[ci], subs[tgt], reversing=True)
        use_anti = bool(reversed_maps) and rng.random() < 0.5
        chosen = rng.choice(reversed_maps if use_anti else straight)
        anti_comp[ci] = use_anti
        for local, global_i in enumerate(comp):
            images[global_i] = comps[tgt][chosen.images[local]]

    # Each basis unit goes to one unit: e_xy -> e_{m(x)m(y)}, or
    # e_{m(y)m(x)} for a strict pair on an anti component.
    comp_of = {i: ci for ci, comp in enumerate(comps) for i in comp}
    cols = []
    for (i, j) in basis.pairs:
        pair = (images[i], images[j])
        if i != j and anti_comp[comp_of[i]]:
            pair = pair[::-1]
        cols.append(algebra.unit_vector(basis.index_of[pair]))
    base = LinMap(algebra, algebra, cols)
    conj = conjugate_by_unit(random_unit_series(poset, ring, rng))
    return conj.compose(base)


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


def _incidence_domain(phi: LinMap) -> StructAlgebra:
    if phi.domain.basis is None:
        raise ContextMismatchError(
            "decomposition needs a domain with an incidence basis"
        )
    return phi.domain


def _near_sum_columns(phi: LinMap):
    """The defining sandwich products, one column per basis unit."""
    dom = _incidence_domain(phi)
    basis = dom.basis
    cod = phi.codomain
    psi_cols, theta_cols = [], []
    for k, (i, j) in enumerate(basis.pairs):
        if i == j:
            psi_cols.append(phi.columns[k])
            theta_cols.append(phi.columns[k])
        else:
            ex = phi.columns[basis.index_of[(i, i)]]
            ey = phi.columns[basis.index_of[(j, j)]]
            exy = phi.columns[k]
            psi_cols.append(cod.multiply(cod.multiply(ex, exy), ey))
            theta_cols.append(cod.multiply(cod.multiply(ey, exy), ex))
    return psi_cols, theta_cols


def decompose(phi: LinMap, allow_torsion: bool = False) -> Decomposition:
    """Split a Jordan isomorphism into its near-sum components.

    Requires phi out of an incidence-algebra presentation with a unit
    determinant, over a 2-torsion-free ring (override with allow_torsion).
    Returns psi, theta, the split and the verify_near_sum report, whose five
    checks are the Jordan verdict.  When the generator certificate fails, the
    Jordan recognizer runs first: a map that fails it raises NotJordanError
    with its witnesses, and only a Jordan map pays for the full scan and
    comes back with the failing report.
    """
    dom = _incidence_domain(phi)
    ring = phi.ring
    if not ring.is_two_torsionfree() and not allow_torsion:
        raise TorsionRefusedError(
            f"{ring!r} has 2-torsion; pass allow_torsion=True to proceed"
        )
    require_unit_determinant(ring, phi.columns)

    psi_cols, theta_cols = _near_sum_columns(phi)
    psi = LinMap(dom, phi.codomain, psi_cols)
    theta = LinMap(dom, phi.codomain, theta_cols)
    dec = Decomposition(phi, psi, theta, NearSumSplit.for_incidence(dom), None)
    # A passing report makes phi Jordan on every ring.  Write d = psi(a_D),
    # p = psi(a_Z), t = theta(a_Z), so that phi(a) = d + p + t.  Any product
    # holding both a p and a t vanishes by strict_annihilation, because a d
    # next to a p or t folds into it.  So phi(a)phi(b)phi(c) = psi(abc) +
    # theta(cba) - psi(a_D b_D c_D), and the pair and triple laws follow with
    # no division by 2.  The recognizer is needed only on failure, for the
    # witnesses of NotJordanError; over a 2-torsion-free ring the pair law
    # forces the triple law, so the pair scan is enough there.
    if _near_sum_holds(dec):
        return replace(dec, report=_NEAR_SUM_PASS)
    jordan_report = (
        jordan_pair_check(phi)
        if ring.is_two_torsionfree()
        else check_jordan(phi, allow_torsion=True)
    )
    if not jordan_report.passed:
        raise NotJordanError(
            "map fails the Jordan identities; see attached report",
            report=jordan_report,
        )
    return replace(dec, report=_near_sum_scan(dec))


def extend_via_inverse(
    phi: LinMap,
    f: FinSeries,
    anti: bool = False,
    phi_inverse: LinMap | None = None,
) -> AlgElem:
    """Oracle construction of psi(f) (or theta(f) with anti=True) through
    phi^-1: recover the strict series g with g(x, y) =
    phi^-1(phi(e_x) phi(f_Z) phi(e_y))(x, y) pointwise over strict pairs and
    return phi(f_D) + phi(g).  Independent of the linear-extension route."""
    dom = _incidence_domain(phi)
    basis = dom.basis
    if f.poset != basis.poset or f.ring != phi.ring:
        raise ContextMismatchError("series does not match the map's domain")
    cod = phi.codomain
    ring = phi.ring
    if phi_inverse is None:
        phi_inverse = phi.invert()
    f_diag, f_strict = f.split_diag()
    z_coords = dom.element_from_series(f_strict).coords
    phi_z = phi.apply_coords(z_coords)

    g_coeffs = {}
    for (i, j) in basis.poset.strict_index_pairs():
        ex = phi.columns[basis.index_of[(i, i)]]
        ey = phi.columns[basis.index_of[(j, j)]]
        if anti:
            a = cod.multiply(cod.multiply(ey, phi_z), ex)
        else:
            a = cod.multiply(cod.multiply(ex, phi_z), ey)
        back = phi_inverse.apply_coords(a)
        v = back[basis.index_of[(i, j)]]
        if not ring.is_zero(v):
            g_coeffs[(i, j)] = v
    g = FinSeries(basis.poset, ring, g_coeffs)

    total = dom.element_from_series(f_diag + g).coords
    return AlgElem(cod, tuple(phi.apply_coords(total)))


_NEAR_SUM_CHECKS = (
    "psi_homomorphism",
    "theta_anti_homomorphism",
    "diagonal_agreement",
    "strict_sum_recomposition",
    "strict_annihilation",
)

# What the full scan reports on a pass: no failing instance, no witness.
_NEAR_SUM_PASS = VerificationReport(
    tuple(CheckResult(name, True) for name in _NEAR_SUM_CHECKS)
)


def verify_near_sum(dec: Decomposition) -> VerificationReport:
    """Decide the five properties that make (psi, theta) a near-sum
    presentation of phi; exact, basis-level, witness-reporting.

    Over the incidence split the verdict comes from the generator
    certificate, which checks the products of the idempotents and cover
    units with every basis unit, (n + c) * d of them, where a scan of every
    basis pair takes d^2.  A pass is reported as five passing checks with no
    witnesses, which is what the full scan reports.  On failure, and for any
    other split, the full scan runs and the report carries each check's
    failure count and witnesses.
    """
    if _near_sum_holds(dec):
        return _NEAR_SUM_PASS
    return _near_sum_scan(dec)


def _near_sum_holds(dec: Decomposition) -> bool:
    """The verdict of the full scan, from the generators of the domain.

    Exact when psi and theta map the incidence algebra of the split into
    phi's codomain; for any other shape this answers False, so that
    verify_near_sum falls back to the full scan.
    """
    phi, psi, theta, split = dec.phi, dec.psi, dec.theta, dec.split
    dom, cod = split.algebra, phi.codomain
    basis = dom.basis
    if (
        basis is None
        or split.diagonal != basis.diagonal_indices()
        or split.strict != basis.strict_indices()
        or psi.domain != dom
        or theta.domain != dom
        or psi.codomain != cod
        or theta.codomain != cod
    ):
        return False
    # The idempotents e_x and the cover units generate the algebra: a strict
    # unit e_xy is the product g_1 ... g_k of the cover units along a maximal
    # chain from x to y.  Write e_xy = g a' with g = g_1; by induction on k,
    # psi(e_xy b) = psi(g (a'b)) = psi(g) psi(a') psi(b) = psi(e_xy) psi(b),
    # and theta(e_xy b) = theta(a'b) theta(g) = theta(b) theta(e_xy).  For
    # annihilation, e_xy = a'' g_k gives psi(e_xy) theta(b) =
    # psi(a'') psi(g_k) theta(b) = 0, and e_xy = g_1 a' gives theta(e_xy)
    # psi(b) = theta(a') theta(g_1) psi(b) = 0, for every strict unit b.  So
    # the generator rows of the full scan settle all of it; the argument
    # needs only the codomain's associativity.
    poset = basis.poset
    covers = [
        basis.index_of[(poset.index(x), poset.index(y))] for x, y in poset.covers()
    ]
    generators = list(split.diagonal) + covers
    return all(
        next(failures, None) is None
        for failures in (
            _agreement_failures(dec),
            _recomposition_failures(dec),
            _generator_failures(psi, generators, anti=False),
            _generator_failures(theta, generators, anti=True),
            _annihilation_failures(dec, covers),
        )
    )


def _near_sum_scan(dec: Decomposition) -> VerificationReport:
    """The five near-sum checks over every basis pair."""
    psi_hom, theta_anti, agreement, recomposition, annihilation = _NEAR_SUM_CHECKS
    return VerificationReport(
        (
            replace(check_homomorphism(dec.psi).checks[0], name=psi_hom),
            replace(
                check_homomorphism(dec.theta, anti=True).checks[0], name=theta_anti
            ),
            run_check(agreement, _agreement_failures(dec)),
            run_check(recomposition, _recomposition_failures(dec)),
            run_check(annihilation, _annihilation_failures(dec, dec.split.strict)),
        )
    )


def _generator_failures(m: LinMap, generators, anti: bool):
    """m(g b) against m(g) m(b), or m(b) m(g) with anti, for every generator
    g and basis unit b of an incidence domain.  There g b is zero or one
    basis unit, so the left side is the zero vector or one column of m."""
    basis = m.domain.basis
    cod = m.codomain
    zero = [m.ring.zero] * cod.dimension
    cols = [list(c) for c in m.columns]
    for g in generators:
        x, y = basis.pairs[g]
        for b, (u, v) in enumerate(basis.pairs):
            lhs = cols[basis.index_of[(x, v)]] if u == y else zero
            rhs = (
                cod.multiply(cols[b], cols[g])
                if anti
                else cod.multiply(cols[g], cols[b])
            )
            if lhs != rhs:
                yield (g, b), lhs, rhs


def _agreement_failures(dec: Decomposition):
    phi, psi, theta = dec.phi, dec.psi, dec.theta
    for k in dec.split.diagonal:
        if psi.columns[k] != phi.columns[k]:
            yield (k,), psi.columns[k], phi.columns[k], "psi vs phi"
        if theta.columns[k] != phi.columns[k]:
            yield (k,), theta.columns[k], phi.columns[k], "theta vs phi"


def _recomposition_failures(dec: Decomposition):
    phi, psi, theta = dec.phi, dec.psi, dec.theta
    add = phi.ring.add
    for k in dec.split.strict:
        s = [add(a, b) for a, b in zip(psi.columns[k], theta.columns[k])]
        if tuple(s) != tuple(phi.columns[k]):
            yield (k,), s, phi.columns[k]


def _annihilation_failures(dec: Decomposition, rows):
    """psi(b_i) theta(b_j) and theta(b_i) psi(b_j) against zero, for i in
    rows and every strict j."""
    psi, theta, cod = dec.psi, dec.theta, dec.phi.codomain
    zero_vec = [dec.phi.ring.zero] * cod.dimension
    for i in rows:
        for j in dec.split.strict:
            p = cod.multiply(psi.columns[i], theta.columns[j])
            if p != zero_vec:
                yield (i, j), p, zero_vec, "psi(b_i) * theta(b_j)"
            q = cod.multiply(theta.columns[i], psi.columns[j])
            if q != zero_vec:
                yield (i, j), q, zero_vec, "theta(b_i) * psi(b_j)"


# ---------------------------------------------------------------------------
# the identity suite
# ---------------------------------------------------------------------------


def equal_by_sandwiches(phi: LinMap, a, b) -> bool:
    """The sandwich equality criterion: two codomain elements are equal as
    soon as phi(e_x) a phi(e_x) = phi(e_x) b phi(e_x) for every x and
    phi(e_x) a phi(e_y) + phi(e_y) a phi(e_x) agrees for every x < y."""
    dom = _incidence_domain(phi)
    basis = dom.basis
    cod = phi.codomain
    ring = phi.ring
    add = ring.add
    if isinstance(a, AlgElem):
        a = a.coords
    if isinstance(b, AlgElem):
        b = b.coords

    def diag_img(i):
        return phi.columns[basis.index_of[(i, i)]]

    for i in range(basis.poset.size):
        e = diag_img(i)
        if cod.multiply(cod.multiply(e, a), e) != cod.multiply(
            cod.multiply(e, b), e
        ):
            return False
    for (i, j) in basis.poset.strict_index_pairs():
        ex, ey = diag_img(i), diag_img(j)
        left_a = cod.multiply(cod.multiply(ex, a), ey)
        right_a = cod.multiply(cod.multiply(ey, a), ex)
        sum_a = [add(u, v) for u, v in zip(left_a, right_a)]
        left_b = cod.multiply(cod.multiply(ex, b), ey)
        right_b = cod.multiply(cod.multiply(ey, b), ex)
        sum_b = [add(u, v) for u, v in zip(left_b, right_b)]
        if sum_a != sum_b:
            return False
    return True


def verify_paper_identities(
    phi: LinMap,
    seed: int = 7,
    samples: int = 3,
    allow_torsion: bool = False,
) -> VerificationReport:
    """Exercise every identity the decomposition rests on, against seeded
    sample series, and report each family as a named check.

    Needs invertibility and (absent the override) a 2-torsion-free ring;
    Jordan-ness itself is NOT assumed — it is what the families measure, so
    a corrupted map comes back as a failing report, not an exception.
    """
    dom = _incidence_domain(phi)
    ring = phi.ring
    if not ring.is_two_torsionfree() and not allow_torsion:
        raise TorsionRefusedError(
            f"{ring!r} has 2-torsion; pass allow_torsion=True to proceed"
        )
    phi_inverse = phi.invert()
    basis = dom.basis
    poset = basis.poset
    cod = phi.codomain
    n = poset.size
    add, mul, neg = ring.add, ring.mul, ring.neg
    zero_vec = [ring.zero] * cod.dimension

    rng = random.Random(seed)
    general = [
        FinSeries.delta(poset, ring),
        FinSeries.zeta(poset, ring),
    ] + [random_series(poset, ring, rng, density=0.6) for _ in range(samples)]
    strict_samples = [
        random_series(poset, ring, rng, density=0.7, strict_only=True)
        for _ in range(samples)
    ]
    subset_pool = [tuple(range(n))] + [
        tuple(i for i in range(n) if rng.random() < 0.5) for _ in range(3)
    ]

    def vec(f: FinSeries):
        return dom.element_from_series(f).coords

    def phi_of(f: FinSeries):
        return phi.apply_coords(vec(f))

    def scaled(r, column):
        return [mul(r, v) for v in column]

    def diag_img(i):
        return phi.columns[basis.index_of[(i, i)]]

    def mulc(*vectors):
        out = vectors[0]
        for v in vectors[1:]:
            out = cod.multiply(out, v)
        return out

    psi_cols, theta_cols = _near_sum_columns(phi)
    labels = poset.elements

    checks = []

    # f(x,y) phi(e_xy) = phi(e_x) phi(f) phi(e_y) + phi(e_y) phi(f) phi(e_x)
    def unit_sandwich_strict():
        for s, f in enumerate(general):
            pf = phi_of(f)
            for (i, j) in poset.strict_index_pairs():
                lhs = scaled(
                    f.coeffs.get((i, j), ring.zero),
                    phi.columns[basis.index_of[(i, j)]],
                )
                r1 = mulc(diag_img(i), pf, diag_img(j))
                r2 = mulc(diag_img(j), pf, diag_img(i))
                rhs = [add(a, b) for a, b in zip(r1, r2)]
                if lhs != rhs:
                    yield (s, labels[i], labels[j]), lhs, rhs

    checks.append(run_check("unit_sandwich_strict", unit_sandwich_strict()))

    # f(x,x) phi(e_x) = phi(e_x) phi(f) phi(e_x)
    def unit_sandwich_diagonal():
        for s, f in enumerate(general):
            pf = phi_of(f)
            for i in range(n):
                lhs = scaled(f.coeffs.get((i, i), ring.zero), diag_img(i))
                rhs = mulc(diag_img(i), pf, diag_img(i))
                if lhs != rhs:
                    yield (s, labels[i]), lhs, rhs

    checks.append(run_check("unit_sandwich_diagonal", unit_sandwich_diagonal()))

    # phi(e_x) phi(f) phi(e_y) = f(x,y) psi(e_xy) over all comparable pairs
    def coefficient_sandwich():
        for s, f in enumerate(general):
            pf = phi_of(f)
            for (i, j) in poset.comparable_index_pairs():
                lhs = mulc(diag_img(i), pf, diag_img(j))
                rhs = scaled(
                    f.coeffs.get((i, j), ring.zero),
                    psi_cols[basis.index_of[(i, j)]],
                )
                if lhs != rhs:
                    yield (s, labels[i], labels[j]), lhs, rhs

    checks.append(run_check("coefficient_sandwich", coefficient_sandwich()))

    # phi(abc + cba) = phi(a)phi(b)phi(c) + phi(c)phi(b)phi(a)
    def polarized_triple():
        for t in range(samples + 1):
            a, b, c = (
                random_series(poset, ring, rng, density=0.5) for _ in range(3)
            )
            lhs = phi.apply_coords(vec(a * b * c + c * b * a))
            r1 = mulc(phi_of(a), phi_of(b), phi_of(c))
            r2 = mulc(phi_of(c), phi_of(b), phi_of(a))
            rhs = [add(u, v) for u, v in zip(r1, r2)]
            if lhs != rhs:
                yield (t,), lhs, rhs

    checks.append(run_check("polarized_triple", polarized_triple()))

    # phi(abcde + edabc + cbade + edcba) = the four matching image products
    def five_factor():
        for t in range(samples):
            a, b, c, d, e = (
                random_series(poset, ring, rng, density=0.4) for _ in range(5)
            )
            lhs_series = (
                a * b * c * d * e
                + e * d * (a * b * c)
                + c * b * a * d * e
                + e * d * c * b * a
            )
            lhs = phi.apply_coords(vec(lhs_series))
            pa, pb, pc, pd, pe = map(phi_of, (a, b, c, d, e))
            terms = [
                mulc(pa, pb, pc, pd, pe),
                mulc(pe, pd, pa, pb, pc),
                mulc(pc, pb, pa, pd, pe),
                mulc(pe, pd, pc, pb, pa),
            ]
            rhs = [ring.zero] * cod.dimension
            for term in terms:
                rhs = [add(u, v) for u, v in zip(rhs, term)]
            if lhs != rhs:
                yield (t,), lhs, rhs

    checks.append(run_check("five_factor", five_factor()))

    # phi(a)phi(e) = phi(e)phi(a) = phi(ae) for idempotents e_Y commuting with a
    def commuting_idempotent():
        for yi, ys in enumerate(subset_pool):
            y_set = set(ys)
            e = FinSeries.subset_idempotent(poset, ring, [labels[i] for i in ys])
            pe = phi_of(e)
            for s, f in enumerate(general):
                # keep only entries with both ends inside Y or both outside:
                # exactly the part of f commuting with e_Y.
                kept = {
                    k: v
                    for k, v in f.coeffs.items()
                    if (k[0] in y_set) == (k[1] in y_set)
                }
                a = FinSeries(poset, ring, kept)
                pa = phi_of(a)
                left = mulc(pa, pe)
                right = mulc(pe, pa)
                target = phi_of(a * e)
                if left != target:
                    yield (yi, s), left, target, "phi(a)phi(e) vs phi(ae)"
                if right != target:
                    yield (yi, s), right, target, "phi(e)phi(a) vs phi(ae)"

    checks.append(run_check("commuting_idempotent", commuting_idempotent()))

    # e a = a e = 0 forces phi(e) phi(a) = phi(a) phi(e) = 0
    def annihilating_idempotent():
        for yi, ys in enumerate(subset_pool):
            y_set = set(ys)
            e = FinSeries.subset_idempotent(poset, ring, [labels[i] for i in ys])
            pe = phi_of(e)
            for s, f in enumerate(general):
                kept = {
                    k: v
                    for k, v in f.coeffs.items()
                    if k[0] not in y_set and k[1] not in y_set
                }
                a = FinSeries(poset, ring, kept)
                pa = phi_of(a)
                left = mulc(pe, pa)
                if left != zero_vec:
                    yield (yi, s), left, zero_vec, "phi(e)phi(a)"
                right = mulc(pa, pe)
                if right != zero_vec:
                    yield (yi, s), right, zero_vec, "phi(a)phi(e)"

    checks.append(run_check("annihilating_idempotent", annihilating_idempotent()))

    # phi restricted to the diagonal is a homomorphism and an anti-homomorphism
    def diagonal_restriction():
        for s, f in enumerate(general):
            for t, g in enumerate(general):
                fd = f.split_diag()[0]
                gd = g.split_diag()[0]
                target = phi.apply_coords(vec(fd * gd))
                fwd = mulc(phi_of(fd), phi_of(gd))
                if fwd != target:
                    yield (s, t), fwd, target, "homomorphism direction"
                bwd = mulc(phi_of(gd), phi_of(fd))
                if bwd != target:
                    yield (s, t), bwd, target, "anti direction"

    checks.append(
        run_check("diagonal_restriction_homomorphism", diagonal_restriction())
    )

    # sandwich identities pinning down psi (and, mirrored, theta) on the
    # strict ideal: with s = psi and (u, v) = (x, y), or s = theta and
    # (u, v) = (y, x), phi(e_u) s(z) phi(e_v) matches the phi sandwich, while
    # phi(e_v) s(z) phi(e_u) and phi(e_x) s(z) phi(e_x) are zero
    def sandwich_failures(columns, mirror: bool):
        away = "forward is zero" if mirror else "reversed is zero"
        for s, z in enumerate(strict_samples):
            image = mat_vec(ring, columns, vec(z))
            fz = phi_of(z)
            for (i, j) in poset.strict_index_pairs():
                u, v = (j, i) if mirror else (i, j)
                lhs = mulc(diag_img(u), image, diag_img(v))
                rhs = mulc(diag_img(u), fz, diag_img(v))
                if lhs != rhs:
                    yield (s, labels[i], labels[j]), lhs, rhs, "matches phi sandwich"
                back = mulc(diag_img(v), image, diag_img(u))
                if back != zero_vec:
                    yield (s, labels[i], labels[j]), back, zero_vec, away
            for i in range(n):
                mid = mulc(diag_img(i), image, diag_img(i))
                if mid != zero_vec:
                    yield (s, labels[i]), mid, zero_vec, "diagonal is zero"

    checks.append(run_check("psi_sandwich", sandwich_failures(psi_cols, False)))
    checks.append(run_check("theta_sandwich", sandwich_failures(theta_cols, True)))

    # window annihilation: phi(e_x) psi(f) phi(e_W) psi(g) phi(e_y) = 0 for
    # every window W avoiding the interval points z with f'(x,z) != 0 != g'(z,y)
    def window_failures(columns, mirror: bool):
        name = "theta" if mirror else "psi"
        pulled = []
        for z in strict_samples:
            image = mat_vec(ring, columns, vec(z))
            coords = phi_inverse.apply_coords(image)
            series = dom.series_from_element(AlgElem(dom, tuple(coords)))
            pulled.append((image, series))
        for (s1, (img1, f1)) in enumerate(pulled):
            if not f1.is_strict():
                yield (s1,), vec(f1.split_diag()[0]), [ring.zero] * dom.dimension, (
                    f"phi-inverse of {name}(f) has a diagonal part"
                )
                continue
            for (s2, (img2, f2)) in enumerate(pulled):
                if not f2.is_strict():
                    continue
                for (i, j) in poset.comparable_index_pairs():
                    interval = [
                        z
                        for z in range(n)
                        if poset.relation[i][z] and poset.relation[z][j]
                    ]
                    if mirror:
                        excluded = {
                            z
                            for z in interval
                            if (z, j) in f1.coeffs and (i, z) in f2.coeffs
                        }
                    else:
                        excluded = {
                            z
                            for z in interval
                            if (i, z) in f1.coeffs and (z, j) in f2.coeffs
                        }
                    pool = [z for z in range(n) if z not in excluded]
                    windows = [
                        (),
                        tuple(pool),
                        tuple(z for z in pool if z not in interval),
                        tuple(z for z in pool if rng.random() < 0.5),
                    ]
                    for w in windows:
                        ew = [ring.zero] * cod.dimension
                        for z in w:
                            ew = [add(a, b) for a, b in zip(ew, diag_img(z))]
                        fwd = mulc(diag_img(i), img1, ew, img2, diag_img(j))
                        if fwd != zero_vec:
                            yield (s1, s2, labels[i], labels[j], w), fwd, zero_vec
                        bwd = mulc(diag_img(j), img1, ew, img2, diag_img(i))
                        if bwd != zero_vec:
                            yield (s1, s2, labels[j], labels[i], w), bwd, zero_vec

    checks.append(run_check("psi_window_annihilation", window_failures(psi_cols, False)))
    checks.append(
        run_check("theta_window_annihilation", window_failures(theta_cols, True))
    )

    # the sandwich equality criterion agrees with literal equality
    def equality_criterion():
        for t in range(samples + 2):
            a = [ring.sample(rng) for _ in range(cod.dimension)]
            if t % 2 == 0:
                b = list(a)
            else:
                b = list(a)
                k = rng.randrange(cod.dimension)
                b[k] = add(b[k], ring.one)
            predicate = equal_by_sandwiches(phi, a, b)
            actual = a == b
            if predicate != actual:
                flag = lambda v: [ring.one if v else ring.zero]
                yield (t,), flag(predicate), flag(actual), (
                    "sandwich criterion disagrees with equality"
                )

    checks.append(run_check("sandwich_equality_criterion", equality_criterion()))

    return VerificationReport(tuple(checks))
