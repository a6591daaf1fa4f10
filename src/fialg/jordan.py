"""Near-sum decomposition of Jordan isomorphisms of incidence algebras.

A Jordan isomorphism phi out of the incidence algebra of a finite poset
splits along the diagonal/strict decomposition f = f_D + f_Z: phi restricted
to the diagonal subalgebra is simultaneously a homomorphism and an
anti-homomorphism, and on the strict ideal phi is the sum of

    psi(e_xy)   = phi(e_x) phi(e_xy) phi(e_y)      (a homomorphism)
    theta(e_xy) = phi(e_y) phi(e_xy) phi(e_x)      (an anti-homomorphism)

which annihilate each other on the ideal.  decompose() builds the pair by
linear extension over the unit basis; extend_via_inverse() rebuilds the same
maps pointwise through phi^-1, on the nonzeros, as the independent oracle.

verify_near_sum() decides the five defining properties of the output on
pairs read off the incidence basis: the idempotent pairs (e_x, e_y), and
each cover unit g = e_uv with e_u, e_v, the units e_vz that continue it and,
for annihilation, the units e_yv and e_uz that meet it.  That is
n + O(c n) image products for n elements and c covers over Q and Z, where
the n squares and phi(1) = 1 stand in for the n^2 idempotent pairs
(Cochran's theorem, in _idempotents_hold), and n^2 + O(c n) over Z/n: 349
on chain-13 over Q and 505 over Z/9, where a scan of every basis pair takes
2 d^2.  Its homomorphism clauses are check_homomorphism's own instances on
linmaps' one law scan, and its m(1) = 1 premise is check_homomorphism's
unital clause.
decompose() multiplies the maps' columns as {index: nonzero} dicts
(LinMap.sparse_columns) with StructAlgebra.multiply, from the sandwiches to
the verdict.  The full scan runs only when the certificate fails, to collect
witnesses; decompose() runs the Jordan recognizer before it, so that only a
Jordan map pays for the failing report, and the recognizer's own report is
built only when NotJordanError.report is read; _jordan_recognizer picks the
recognizer for decompose() and for the identity suite's guard alike.
verify_paper_identities() exercises the full family of sandwich, idempotent,
and annihilation identities that make the construction work.  Each sample
image is mat_vec of the series on phi's {index: nonzero} columns, and every
family multiplies the images on their nonzeros with StructAlgebra.multiply.
Like the near-sum clauses, every family but the equality criterion hands
its two sides, as dicts, to linmaps._mismatches, the one comparison, which
builds a dense list only for a witness.  The sandwich families read one
table of Peirce components phi(e_x) v phi(e_y) per sample image v and report
what a per-pair scan does; the equality criterion reads one table of a - b.
The window families build each left factor phi(e_x) s(f) phi(e_W) once per
first sample f.  The polarized triple and five-factor families are
one word identity, phi(sum of word products of the drawn series) = sum of
the same products of their images, on the recognizers' law scan, and the
two idempotent families walk one grid of subset idempotents e_Y against the
general samples.

Everything here is exact: a check passes only on literal equality of
coordinates.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass, replace

from .algebra import (
    FinSeries,
    StructAlgebra,
    _sparse_add,
    incidence_algebra,
    random_series,
    sparse_vector,
)
from .errors import ContextMismatchError, NotJordanError, PreconditionFailedError
from .linmaps import (
    LinMap,
    _homomorphism_failures,
    _jordan_pair_verdict,
    _law_failures,
    _mismatches,
    _require_two_torsionfree,
    _unital_failures,
    check_jordan,
    jordan_pair_check,
)
from .matrices import _add_multiple, mat_vec, require_unit_determinant
from .posets import OrderMap, Poset, _iter_order_isomorphisms
from .reports import CheckResult, VerificationReport, run_check
from .rings import Ring


@dataclass(frozen=True)
class Decomposition:
    """The output of decompose(): phi = psi + theta on the strict ideal,
    phi = psi = theta on the diagonal, plus the verification report."""

    phi: LinMap
    psi: LinMap
    theta: LinMap
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
        cols.append({codomain.basis.index_of[pair]: ring.one})
    return LinMap._of_sparse(domain, codomain, cols)


def conjugate_by_unit(u: FinSeries) -> LinMap:
    """The inner automorphism f -> u f u^-1 of the incidence algebra of u's
    poset; u must have unit diagonal entries.  The column of e_xy is the
    outer product of column x of u and row y of u^-1,
    (u e_xy u^-1)(a, b) = u(a, x) u^-1(y, b): one product per entry."""
    algebra = incidence_algebra(u.poset, u.ring)
    index_of, mul = algebra.basis.index_of, u.ring.mul
    left, right = {}, {}  # column x of u, row y of u^-1
    for (a, x), c in u.coeffs.items():
        left.setdefault(x, []).append((a, c))
    for (y, b), e in u.inverse().coeffs.items():
        right.setdefault(y, []).append((b, e))
    cols = []
    for x, y in algebra.basis.pairs:
        terms = ((index_of[a, b], mul(c, e)) for a, c in left[x] for b, e in right[y])
        cols.append({k: w for k, w in terms if w})
    return LinMap._of_sparse(algebra, algebra, cols)


def near_sum_build(psi: LinMap, theta: LinMap) -> LinMap:
    """Assemble the near-sum of a homomorphism and an anti-homomorphism out
    of an incidence algebra: psi on the diagonal units, psi + theta on the
    strict units.

    The assembled map must pass verify_near_sum: psi is a homomorphism,
    theta is an anti-homomorphism that agrees with psi on the diagonal
    units, and their images of the strict units annihilate each other in
    both orders.  Each violated clause is reported with witnesses inside
    PreconditionFailedError.
    """
    _require_one_context(psi, theta)
    cols = list(psi.sparse_columns)
    for k in _incidence_domain(psi).basis.strict_indices():
        cols[k] = _sparse_add(psi.ring, cols[k], theta.sparse_columns[k])
    phi = LinMap._of_sparse(psi.domain, psi.codomain, cols)

    report = verify_near_sum(Decomposition(phi, psi, theta, None))
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
    coeffs = {(i, i): ring.sample_unit(rng) for i in range(poset.size)}
    coeffs.update(random_series(poset, ring, rng, density, strict_only=True).coeffs)
    return FinSeries._of(poset, ring, coeffs)


def random_basis_change(algebra: StructAlgebra, seed: int):
    """A seeded sparse invertible column matrix over the algebra's ring:
    a permutation of unit-scaled basis vectors followed by a few elementary
    column shears.  Suitable for change_basis / rebase_codomain."""
    ring = algebra.ring
    d = algebra.dimension
    if d == 0:
        return []
    rng = random.Random(seed)
    perm = list(range(d))
    rng.shuffle(perm)
    cols = [{perm[j]: ring.sample_unit(rng)} for j in range(d)]
    for _ in range(d // 2 + 1):
        i, j = rng.randrange(d), rng.randrange(d)
        if i == j:
            continue
        # column j += r * column i, r a ring sample, on column i's nonzeros
        _add_multiple(ring, cols[j], cols[i], ring.sample(rng))
    dense = [[ring.zero] * d for _ in range(d)]
    for out, col in zip(dense, cols):
        for k, a in col.items():
            out[k] = a
    return dense


def random_jordan_iso(poset: Poset, ring: Ring, seed: int) -> LinMap:
    """A seeded Jordan automorphism of the incidence algebra: per connected
    component an order isomorphism or (when available) anti-isomorphism onto
    a component of the same shape, assembled as a near-sum, then composed
    with a random unit conjugation.  Always invertible and Jordan."""
    _require_two_torsionfree(ring, False, "Jordan generation is not meaningful there")
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
        straight = list(_iter_order_isomorphisms(subs[ci], subs[tgt]))
        reversed_maps = list(_iter_order_isomorphisms(subs[ci], subs[tgt], True))
        use_anti = bool(reversed_maps) and rng.random() < 0.5
        chosen = rng.choice(reversed_maps if use_anti else straight)
        anti_comp[ci] = use_anti
        for local, global_i in enumerate(comp):
            images[global_i] = comps[tgt][chosen[local]]

    # Each basis unit goes to one unit: e_xy -> e_{m(x)m(y)}, or
    # e_{m(y)m(x)} for a strict pair on an anti component.  The conjugation
    # after it sends e_xy to the conjugation's column of that unit.
    conj = conjugate_by_unit(random_unit_series(poset, ring, rng))
    comp_of = {i: ci for ci, comp in enumerate(comps) for i in comp}
    cols = []
    for (i, j) in basis.pairs:
        pair = (images[i], images[j])
        if i != j and anti_comp[comp_of[i]]:
            pair = pair[::-1]
        cols.append(conj.sparse_columns[basis.index_of[pair]])
    return LinMap._of_sparse(algebra, algebra, cols)


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


def _incidence_domain(phi: LinMap) -> StructAlgebra:
    if phi.domain.basis is None:
        raise ContextMismatchError(
            "decomposition needs a domain with an incidence basis"
        )
    return phi.domain


def _require_one_context(phi: LinMap, *maps) -> None:
    """Refuse psi or theta unless each of maps runs between phi's algebras."""
    if any(m.domain != phi.domain or m.codomain != phi.codomain for m in maps):
        raise ContextMismatchError("psi and theta must share domain and codomain")


def _near_sum_columns(phi: LinMap):
    """The defining sandwich products, one {index: nonzero} column per basis
    unit, multiplied from phi's sparse columns."""
    basis = _incidence_domain(phi).basis
    multiply = phi.codomain.multiply
    cols = phi.sparse_columns
    psi_cols, theta_cols = [], []
    for k, (i, j) in enumerate(basis.pairs):
        if i == j:
            psi_cols.append(cols[k])
            theta_cols.append(cols[k])
        else:
            ex = cols[basis.index_of[(i, i)]]
            ey = cols[basis.index_of[(j, j)]]
            psi_cols.append(multiply(multiply(ex, cols[k]), ey))
            theta_cols.append(multiply(multiply(ey, cols[k]), ex))
    return psi_cols, theta_cols


def decompose(phi: LinMap, allow_torsion: bool = False) -> Decomposition:
    """Split a Jordan isomorphism into its near-sum components.

    Requires phi out of an incidence-algebra presentation with a unit
    determinant, over a 2-torsion-free ring (override with allow_torsion),
    decided by require_unit_determinant in the ring's own arithmetic.
    Returns psi, theta and the verify_near_sum report, whose five
    checks are the Jordan verdict.  The certificate's idempotent pairs read
    only phi's diagonal columns, which psi and theta share, so they run
    before psi and theta are built.  When the certificate fails, the Jordan
    recognizer runs first: a map that fails it raises NotJordanError, and
    only a Jordan map pays for the full scan.  Over a 2-torsion-free ring the
    pair scan stops at the first failure, and the exception's report,
    jordan_pair_check's, is built when first read.  With 2-torsion the report
    is check_jordan's, whose jordan_quadratic check catches the maps that
    pass the polarized laws but not m(aba) = m(a)m(b)m(a).
    """
    dom = _incidence_domain(phi)
    ring = phi.ring
    _require_two_torsionfree(ring, allow_torsion, "pass allow_torsion=True to proceed")
    require_unit_determinant(ring, phi.sparse_columns, phi.codomain.dimension)

    def sandwiches():
        maps = (LinMap._of_sparse(dom, phi.codomain, c) for c in _near_sum_columns(phi))
        return Decomposition(phi, *maps, None)

    # A passing report makes phi Jordan on every ring.  Write d = psi(a_D),
    # p = psi(a_Z), t = theta(a_Z), so that phi(a) = d + p + t.  Any product
    # holding both a p and a t vanishes by strict_annihilation, because a d
    # next to a p or t folds into it.  So phi(a)phi(b)phi(c) = psi(abc) +
    # theta(cba) - psi(a_D b_D c_D), and the pair and triple laws follow with
    # no division by 2.  The recognizer is needed only on failure, for the
    # witnesses of NotJordanError; over a 2-torsion-free ring the pair law
    # forces the triple law, so the pair scan is enough there.
    dec = sandwiches() if _idempotents_hold(phi) else None
    if dec is not None and _covers_hold(dec):
        return replace(dec, report=_NEAR_SUM_PASS)
    verdict, report = _jordan_recognizer(phi)
    if not all(c.passed for c in verdict):
        raise NotJordanError(
            "map fails the Jordan identities; see attached report", report=report
        )
    dec = dec or sandwiches()
    return replace(dec, report=_near_sum_scan(dec))


def _jordan_recognizer(phi: LinMap):
    """The recognizer behind a failed certificate: its checks, and the report
    NotJordanError carries.  Over a 2-torsion-free ring the pair law decides,
    stopping at the first failure, and jordan_pair_check's report is built
    when first read; with 2-torsion both are check_jordan's."""
    if phi.ring.is_two_torsionfree():
        return (_jordan_pair_verdict(phi),), functools.partial(jordan_pair_check, phi)
    report = check_jordan(phi, allow_torsion=True)
    return report.checks, report


def extend_via_inverse(phi: LinMap, f: FinSeries, anti: bool = False) -> tuple:
    """Oracle construction of psi(f) (or theta(f) with anti=True) through
    phi^-1: recover the strict series g with g(x, y) =
    phi^-1(phi(e_x) phi(f_Z) phi(e_y))(x, y) pointwise over strict pairs,
    read off the Peirce table of phi(f_Z), and return the coordinate tuple
    of phi(f_D) + phi(g).  phi^-1 is phi.invert(), computed on every call.
    Independent of the linear-extension route."""
    basis = _incidence_domain(phi).basis
    if f.poset != basis.poset or f.ring != phi.ring:
        raise ContextMismatchError("series does not match the map's domain")
    cod, ring, phi_inverse = phi.codomain, phi.ring, phi.invert()
    f_diag, f_strict = f.split_diag()
    at, cols = basis.index_of, phi.sparse_columns
    table = _peirce_table(phi, _series_image(phi, cols, f_strict))
    g_coeffs = {}
    for (i, j) in basis.poset.strict_index_pairs():
        a = table[(j, i) if anti else (i, j)]
        back = mat_vec(ring, phi_inverse.sparse_columns, a.items())
        if v := back.get(at[(i, j)]):
            g_coeffs[(i, j)] = v
    g = FinSeries._of(basis.poset, ring, g_coeffs)
    return tuple(cod.dense(_series_image(phi, cols, f_diag + g)))


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

    The verdict comes from the certificate, which runs the instances of the
    full scan that are not zero on both sides once phi's idempotent images
    are orthogonal: the idempotent pairs, and the pairs of each cover unit
    that _cover_pairs lists; for psi and theta it is check_homomorphism's
    scan on those pairs.  A pass is reported as five passing checks with no
    witnesses, which is what the full scan reports.  Only on failure does
    the full scan run, and its report carries each check's failure count and
    witnesses.  phi's domain must carry an incidence basis, and psi and
    theta must map it into phi's codomain, or ContextMismatchError is raised.
    """
    _require_one_context(dec.phi, dec.psi, dec.theta)
    if _near_sum_holds(dec):
        return _NEAR_SUM_PASS
    return _near_sum_scan(dec)


def _near_sum_holds(dec: Decomposition) -> bool:
    """The verdict of the full scan, from pairs read off phi's incidence
    domain: those of the cover units, then the idempotent pairs."""
    return _covers_hold(dec) and _idempotents_hold(dec.psi)


def _idempotents_hold(m: LinMap) -> bool:
    """The idempotent pairs: does m(e_x) m(e_y) = delta_xy m(e_x) hold?  Over
    a torsion-free ring, the n squares and m(1) = 1 decide it; the scan of
    all n^2 pairs runs when m(1) is not 1, and over a ring with torsion, such
    as Z/n.  The shortcut presumes an associative codomain with a two-sided
    identity: incidence_algebra and change_basis build one, and
    StructAlgebra(...) refuses any other table."""
    diagonal = m.domain.basis.diagonal_indices()
    if m.ring.is_torsion_free:
        # Cochran's theorem.  With P_x = m(e_x), P_x^2 = P_x and sum P_x = 1,
        # left multiplication L_x by P_x is an idempotent operator on the
        # codomain tensored with Q, and sum L_x = L_1 = I.  Over Q the trace
        # of an idempotent is its rank, so the ranks of the L_x add up to
        # the dimension, and the images, which span, form a direct sum.  So
        # L_x L_y = 0 for x != y, and P_x P_y = L_x L_y (1) = 0.  Tensoring
        # with Q loses nothing only when the ring is torsion-free; a ring of
        # characteristic 0 with torsion, such as Z x Z/3, does not qualify.
        # Only associativity and a two-sided identity are used.  Over Z/3
        # the antichain images (1,1,0,0), (1,0,1,0), (1,0,0,1), (1,0,0,0)
        # are idempotents summing to 1 with (1,1,0,0)(1,0,1,0) != 0.
        squares = ((x, x) for x in diagonal)
        if next(_homomorphism_failures(m, squares, anti=False), None) is not None:
            return False
        if next(_unital_failures(m), None) is None:
            return True
    pairs = itertools.product(diagonal, repeat=2)
    return next(_homomorphism_failures(m, pairs, anti=False), None) is None


def _cover_pairs(basis):
    """The certificate's pairs of each cover g = e_uv, by family: placements
    (e_u, g) and (g, e_v), rows (g, e_vz) for z > v, and annihilation pairs
    (g, e_yv, False) for y < v and (g, e_uz, True) for z > u."""
    poset, index_of = basis.poset, basis.index_of
    rel, n = poset.relation, poset.size
    placements, rows, left, right = [], [], [], []
    for a, b in poset.covers():
        u, v = poset.index(a), poset.index(b)
        g = index_of[u, v]
        placements += [(index_of[u, u], g), (g, index_of[v, v])]
        rows += [(g, index_of[v, z]) for z in range(n) if z != v and rel[v][z]]
        left += [(g, index_of[y, v], False) for y in range(n) if y != v and rel[y][v]]
        right += [(g, index_of[u, z], True) for z in range(n) if z != u and rel[u][z]]
    return placements, rows, left, right


def _covers_hold(dec: Decomposition) -> bool:
    """The certificate but for the idempotent pairs, which it presumes, on a
    decomposition whose three maps share one domain and codomain."""
    # With P_x = psi(e_x) = theta(e_x) and P_x P_y = delta_xy P_x, a cover
    # g = e_uv's placements psi(g) = P_u psi(g) = psi(g) P_v and rows psi(e_uz)
    # = psi(g) psi(e_vz) give, by induction along a maximal chain, psi(e_yz) =
    # P_y psi(e_yz) = psi(e_yz) P_z and psi(e_yw) psi(e_wz) = psi(e_yz) for all
    # strict units.  So psi is a homomorphism: a product of units that do not
    # meet holds some P_a P_b with a != b, zero on both sides; theta mirrors
    # it.  psi(e_ab) theta(e_cd) = psi(e_ab) P_b P_d theta(e_cd) is zero unless
    # b = d, and then it is psi(a'') psi(g) theta(e_cb) for a cover g = e_wb, a
    # listed pair; theta(e_ab) psi(e_ad) mirrors it.  Only associativity is
    # used, and every pair is an instance of the full scan.
    placements, rows, left, right = _cover_pairs(_incidence_domain(dec.psi).basis)
    hom, anti, *free, annihilation = _near_sum_clauses(dec, placements + rows, left + right)
    # agreement and recomposition multiply nothing, so they run first
    return all(next(f, None) is None for f in (*free, hom, anti, annihilation))


def _near_sum_scan(dec: Decomposition) -> VerificationReport:
    """The five near-sum checks over every basis pair."""
    pairs = list(itertools.product(range(dec.phi.domain.dimension), repeat=2))
    strict = dec.phi.domain.basis.strict_indices()
    strict_pairs = ((i, j, t) for i in strict for j in strict for t in (False, True))
    clauses = _near_sum_clauses(dec, pairs, strict_pairs)
    return VerificationReport(tuple(map(run_check, _NEAR_SUM_CHECKS, clauses)))


def _near_sum_clauses(dec: Decomposition, pairs, strict_pairs) -> tuple:
    """The failures of the five near-sum clauses, in _NEAR_SUM_CHECKS order:
    the homomorphism law of psi and the anti-homomorphism law of theta on
    the basis pairs (i, j) of the list pairs, agreement, recomposition, and
    annihilation on strict_pairs.  Each scan is lazy."""
    return (
        _homomorphism_failures(dec.psi, pairs, anti=False),
        _homomorphism_failures(dec.theta, pairs, anti=True),
        _agreement_failures(dec),
        _recomposition_failures(dec),
        _annihilation_failures(dec, strict_pairs),
    )


def _agreement_failures(dec: Decomposition):
    """psi and theta against phi on the diagonal units."""
    phi, maps = dec.phi, (("psi vs phi", dec.psi), ("theta vs phi", dec.theta))
    return _mismatches(phi.codomain, (
        ((k,), m.sparse_columns[k], phi.sparse_columns[k], note)
        for k in phi.domain.basis.diagonal_indices()
        for note, m in maps
    ))


def _recomposition_failures(dec: Decomposition):
    """psi + theta against phi on the strict units, summed on the nonzeros."""
    phi, psi, theta = dec.phi, dec.psi.sparse_columns, dec.theta.sparse_columns
    return _mismatches(phi.codomain, (
        ((k,), _sparse_add(phi.ring, psi[k], theta[k]), phi.sparse_columns[k])
        for k in phi.domain.basis.strict_indices()
    ))


def _annihilation_failures(dec: Decomposition, pairs):
    """psi(b_i) theta(b_j), or theta(b_i) psi(b_j) when mirrored, against
    zero for (i, j, mirrored) in pairs, on the sparse columns."""
    cod, psi, theta = dec.phi.codomain, dec.psi.sparse_columns, dec.theta.sparse_columns
    multiply, notes = cod.multiply, ("psi(b_i) * theta(b_j)", "theta(b_i) * psi(b_j)")
    return _mismatches(cod, (
        ((i, j), multiply(theta[i], psi[j]) if mirrored else multiply(psi[i], theta[j]),
         {}, notes[mirrored])
        for i, j, mirrored in pairs
    ))


# ---------------------------------------------------------------------------
# the identity suite
# ---------------------------------------------------------------------------


def _series_image(phi: LinMap, columns, f: FinSeries) -> dict:
    """f's image under the {index: nonzero} columns of a map out of phi's domain."""
    at = phi.domain.basis.index_of
    return mat_vec(phi.ring, columns, ((at[k], v) for k, v in f.coeffs.items()))


def _peirce_table(phi: LinMap, v: dict) -> dict:
    """The Peirce components phi(e_x) v phi(e_y) of a codomain vector v,
    keyed (x, y), for every pair of poset indices comparable in either order,
    all {index: nonzero} dicts.  Each is built as (phi(e_x) v) phi(e_y) on
    phi's sparse columns: one left product per element and one right product
    per entry; incomparable pairs are never built."""
    basis = phi.domain.basis
    poset = basis.poset
    multiply = phi.codomain.multiply
    diag = [phi.sparse_columns[basis.index_of[(i, i)]] for i in range(poset.size)]
    left = [multiply(e, v) for e in diag]
    table = {}
    for (i, j) in poset.comparable_index_pairs():
        table[(i, j)] = multiply(left[i], diag[j])
        if i != j:
            table[(j, i)] = multiply(left[j], diag[i])
    return table


def equal_by_sandwiches(phi: LinMap, a, b) -> bool:
    """The sandwich equality criterion: two codomain elements are equal as
    soon as phi(e_x) a phi(e_x) = phi(e_x) b phi(e_x) for every x and
    phi(e_x) a phi(e_y) + phi(e_y) a phi(e_x) agrees for every x < y.
    Decided on one Peirce table of a - b's nonzeros; equal sides need none.
    a and b are coordinate sequences of phi's codomain; each goes through
    ring.normalize, which refuses a float or bool entry, zero-valued ones
    included."""
    poset, cod, ring = _incidence_domain(phi).basis.poset, phi.codomain, phi.ring
    if len(a) != cod.dimension or len(b) != cod.dimension:
        raise ContextMismatchError("vector length does not match the codomain")
    a, b = map(ring.normalize, a), map(ring.normalize, b)
    # Each component phi(e_x) v phi(e_y), and so each strict-pair sum, is
    # linear in v, since the product is bilinear: a's components equal b's
    # exactly when a - b's are all zero.  No Jordan property of phi is used.
    if not (difference := sparse_vector(map(ring.sub, a, b))):
        return True
    table = _peirce_table(phi, difference)
    return not any(table[(i, i)] for i in range(poset.size)) and not any(
        _sparse_add(ring, table[(i, j)], table[(j, i)])
        for (i, j) in poset.strict_index_pairs()
    )


def _window_failures(phi: LinMap, phi_inverse: LinMap, columns, strict_samples,
                     rng, mirror: bool):
    """Window annihilation: phi(e_x) s(f) phi(e_W) s(g) phi(e_y) = 0 for s =
    psi (theta when mirror), strict samples f and g, and every window W
    avoiding the interval points z with f'(x,z) != 0 != g'(z,y), where f' and
    g' are the phi-pullbacks of s(f) and s(g) (f'(z,y) and g'(x,z) when
    mirrored).  The random window of each instance draws from rng.  columns
    are s's {index: nonzero} columns, as _near_sum_columns returns them; the
    images, pullbacks, window sums and products stay on their nonzeros, so a
    product is zero exactly when its dict is empty.  Each left factor
    phi(e_x) s(f) phi(e_W) is built once per f and (x, W), and each instance
    adds one product.  A pullback's diagonal part fails against zero: phi is
    invertible, so its domain vectors are as long as its codomain's."""
    dom, cod, ring = phi.domain, phi.codomain, phi.ring
    basis = dom.basis
    poset, at = basis.poset, basis.index_of
    n, labels = poset.size, poset.elements
    multiply = cod.multiply
    diag = [phi.sparse_columns[at[(i, i)]] for i in range(n)]
    note = f"phi-inverse of {'theta' if mirror else 'psi'}(f) has a diagonal part"
    images = [_series_image(phi, columns, z) for z in strict_samples]
    pulled = [(v, mat_vec(ring, phi_inverse.sparse_columns, v.items())) for v in images]
    # Every codomain is associative (incidence tables, their change_basis
    # transports, and the tables StructAlgebra(...) checks), so the
    # five-factor product is exactly (L phi(e_W)) R with
    # L = phi(e_x) s(f) and R = s(g) phi(e_y) built once per sample and element.
    halves = [
        ([multiply(e, image) for e in diag], [multiply(image, e) for e in diag])
        if all(k >= n for k in f)  # strict: AlgBasis lists the n diagonal units first
        else None
        for image, f in pulled
    ]
    intervals = [
        ((i, j), [z for z in range(n) if poset.relation[i][z] and poset.relation[z][j]])
        for (i, j) in poset.comparable_index_pairs()
    ]

    @functools.cache
    def window_image(w):
        """phi(e_W), summed once per distinct window."""
        return _sparse_add(ring, {}, *map(diag.__getitem__, w))

    def instances():
        for s1, (_, f1) in enumerate(pulled):
            if halves[s1] is None:
                yield (s1,), {k: v for k, v in f1.items() if k < n}, {}, note
                continue
            left, factors = halves[s1][0], {}  # L phi(e_W) by (x, W), for this s1
            for s2, (_, f2) in enumerate(pulled):
                if halves[s2] is None:
                    continue
                right = halves[s2][1]
                fc, gc = (f2, f1) if mirror else (f1, f2)
                for (i, j), interval in intervals:
                    excluded = {z for z in interval if at[i, z] in fc and at[z, j] in gc}
                    pool = [z for z in range(n) if z not in excluded]
                    windows = [
                        (),
                        tuple(pool),
                        tuple(z for z in pool if z not in interval),
                        tuple(z for z in pool if rng.random() < 0.5),
                    ]
                    for w, (x, y) in itertools.product(windows, ((i, j), (j, i))):
                        if (x, w) not in factors:
                            factors[x, w] = multiply(left[x], window_image(w))
                        key = (s1, s2, labels[x], labels[y], w)
                        yield key, multiply(factors[x, w], right[y]), {}

    yield from _mismatches(cod, instances())


# How many seeded general and strict sample series the identity suite draws.
_IDENTITY_SAMPLES = 3


def verify_paper_identities(
    phi: LinMap,
    seed: int = 7,
    allow_torsion: bool = False,
) -> VerificationReport:
    """Exercise every identity the decomposition rests on, against seeded
    sample series, and report each family as a named check.

    Needs invertibility and (absent the override) a 2-torsion-free ring;
    Jordan-ness itself is NOT assumed — it is what the families measure, so
    a corrupted map comes back as a failing report, not an exception.  When
    the 13 families pass, decompose's near-sum certificate runs on the psi
    and theta built here, and on its failure the Jordan recognizer's failing
    checks are appended, so a passing report means phi is Jordan.
    """
    dom = _incidence_domain(phi)
    ring = phi.ring
    _require_two_torsionfree(ring, allow_torsion, "pass allow_torsion=True to proceed")
    phi_inverse = phi.invert()
    basis = dom.basis
    poset = basis.poset
    cod = phi.codomain
    n = poset.size
    add, mul = ring.add, ring.mul
    samples = _IDENTITY_SAMPLES

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

    def phi_of(f: FinSeries) -> dict:
        return _series_image(phi, phi.sparse_columns, f)

    def scaled(f: FinSeries, pair, m: LinMap) -> dict:
        """f(x, y) times m(e_xy), on the nonzeros."""
        r = f.coeffs.get(pair)
        col = m.sparse_columns[basis.index_of[pair]] if r else {}
        return {k: w for k, v in col.items() if (w := mul(r, v))}

    def mulc(*vectors):
        return functools.reduce(cod.multiply, vectors)

    psi, theta = (LinMap._of_sparse(dom, cod, c) for c in _near_sum_columns(phi))
    labels = poset.elements

    # Images, products and sides are {index: nonzero} dicts: each vector
    # family yields its instances (key, lhs, rhs[, note]) to check, which
    # compares the sides with _mismatches.  The sandwich families read the
    # Peirce components phi(e_x) v phi(e_y) of each sample image v from one
    # table, built on first use.
    @functools.cache
    def phi_table(s, strict=False):
        return _peirce_table(phi, phi_of((strict_samples if strict else general)[s]))

    checks = []

    def check(name, instances):
        checks.append(run_check(name, _mismatches(cod, instances)))

    # f(x,y) phi(e_xy) = phi(e_x) phi(f) phi(e_y) + phi(e_y) phi(f) phi(e_x)
    def unit_sandwich_strict():
        for s, f in enumerate(general):
            table = phi_table(s)
            for (i, j) in poset.strict_index_pairs():
                rhs = _sparse_add(ring, table[(i, j)], table[(j, i)])
                yield (s, labels[i], labels[j]), scaled(f, (i, j), phi), rhs

    check("unit_sandwich_strict", unit_sandwich_strict())

    # f(x,x) phi(e_x) = phi(e_x) phi(f) phi(e_x)
    def unit_sandwich_diagonal():
        for s, f in enumerate(general):
            table = phi_table(s)
            for i in range(n):
                yield (s, labels[i]), scaled(f, (i, i), phi), table[(i, i)]

    check("unit_sandwich_diagonal", unit_sandwich_diagonal())

    # phi(e_x) phi(f) phi(e_y) = f(x,y) psi(e_xy) over all comparable pairs
    def coefficient_sandwich():
        for s, f in enumerate(general):
            table = phi_table(s)
            for (i, j) in poset.comparable_index_pairs():
                yield (s, labels[i], labels[j]), table[(i, j)], scaled(f, (i, j), psi)

    check("coefficient_sandwich", coefficient_sandwich())

    # phi(sum of the words' products of drawn series) = the sum of the same
    # products of their images; a word lists the positions of the series it
    # multiplies, in order, and each round draws and maps each series once.
    # A round is one instance of the law scan, which makes each word's last
    # product; the summed product goes in as a generator, mapped even if zero.
    def word_instances(rounds, density, words):
        for t in range(rounds):
            series = [
                random_series(poset, ring, rng, density=density)
                for _ in range(max(map(max, words)) + 1)
            ]
            products = (functools.reduce(operator.mul, map(series.__getitem__, w))
                        for w in words)
            total = functools.reduce(operator.add, products)
            images = [phi_of(f) for f in series]
            x = ((basis.index_of[k], v) for k, v in total.coeffs.items())
            yield (t,), x, [(mulc(*map(images.__getitem__, w[:-1])), images[w[-1]])
                            for w in words]

    # phi(abc + cba) = phi(a)phi(b)phi(c) + phi(c)phi(b)phi(a)
    triple = word_instances(samples + 1, 0.5, ((0, 1, 2), (2, 1, 0)))
    checks.append(run_check("polarized_triple", _law_failures(phi, triple)))

    # phi(abcde + edabc + cbade + edcba) = the four matching image products
    five = ((0, 1, 2, 3, 4), (4, 3, 0, 1, 2), (2, 1, 0, 3, 4), (4, 3, 2, 1, 0))
    five_words = word_instances(samples, 0.4, five)
    checks.append(run_check("five_factor", _law_failures(phi, five_words)))

    # The idempotent families walk one grid: each subset Y of subset_pool,
    # with e = e_Y, against each general sample f, cut down to the part a of
    # f whose entries (x, y) satisfy keep(x in Y, y in Y).
    def idempotent_grid(keep):
        for yi, ys in enumerate(subset_pool):
            y_set = set(ys)
            e = FinSeries.subset_idempotent(poset, ring, [labels[i] for i in ys])
            pe = phi_of(e)
            for s, f in enumerate(general):
                kept = {k: v for k, v in f.coeffs.items()
                        if keep(k[0] in y_set, k[1] in y_set)}
                a = FinSeries._of(poset, ring, kept)
                yield (yi, s), e, pe, a, phi_of(a)

    def both_orders(key, u, v, target, notes):
        """u v, then v u, against target, each with its note."""
        yield key, mulc(u, v), target, notes[0]
        yield key, mulc(v, u), target, notes[1]

    # phi(a)phi(e) = phi(e)phi(a) = phi(ae) for idempotents e_Y commuting
    # with a: a keeps the entries with both ends inside Y or both outside
    def commuting_idempotent():
        notes = ("phi(a)phi(e) vs phi(ae)", "phi(e)phi(a) vs phi(ae)")
        for key, e, pe, a, pa in idempotent_grid(operator.eq):
            yield from both_orders(key, pa, pe, phi_of(a * e), notes)

    check("commuting_idempotent", commuting_idempotent())

    # e a = a e = 0 forces phi(e) phi(a) = phi(a) phi(e) = 0
    def annihilating_idempotent():
        notes = ("phi(e)phi(a)", "phi(a)phi(e)")
        for key, _, pe, _, pa in idempotent_grid(lambda x, y: not (x or y)):
            yield from both_orders(key, pe, pa, {}, notes)

    check("annihilating_idempotent", annihilating_idempotent())

    # phi restricted to the diagonal is a homomorphism and an anti-homomorphism
    def diagonal_restriction():
        parts = [f.split_diag()[0] for f in general]
        images = [phi_of(fd) for fd in parts]
        notes = ("homomorphism direction", "anti direction")
        for (s, fd), (t, gd) in itertools.product(enumerate(parts), repeat=2):
            yield from both_orders((s, t), images[s], images[t], phi_of(fd * gd), notes)

    check("diagonal_restriction_homomorphism", diagonal_restriction())

    # sandwich identities pinning down psi (and, mirrored, theta) on the
    # strict ideal: with s = psi and (u, v) = (x, y), or s = theta and
    # (u, v) = (y, x), phi(e_u) s(z) phi(e_v) matches the phi sandwich, while
    # phi(e_v) s(z) phi(e_u) and phi(e_x) s(z) phi(e_x) are zero
    def sandwich_instances(m: LinMap, mirror: bool):
        away = "forward is zero" if mirror else "reversed is zero"
        for s, z in enumerate(strict_samples):
            table = _peirce_table(phi, _series_image(phi, m.sparse_columns, z))
            target = phi_table(s, strict=True)
            for (i, j) in poset.strict_index_pairs():
                u, v = (j, i) if mirror else (i, j)
                key = (s, labels[i], labels[j])
                yield key, table[(u, v)], target[(u, v)], "matches phi sandwich"
                yield key, table[(v, u)], {}, away
            for i in range(n):
                yield (s, labels[i]), table[(i, i)], {}, "diagonal is zero"

    check("psi_sandwich", sandwich_instances(psi, False))
    check("theta_sandwich", sandwich_instances(theta, True))

    for name, s, mirror in (("psi", psi, False), ("theta", theta, True)):
        cols = s.sparse_columns
        failures = _window_failures(phi, phi_inverse, cols, strict_samples, rng, mirror)
        checks.append(run_check(f"{name}_window_annihilation", failures))

    # the sandwich equality criterion agrees with literal equality
    def equality_criterion():
        for t in range(samples + 2):
            a = [ring.sample(rng) for _ in range(cod.dimension)]
            b = list(a)
            if t % 2 and cod.dimension:
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

    # The families can pass a non-Jordan map where sampled coefficients are
    # zero divisors, as over Z/9.  A passing certificate makes phi Jordan on
    # every ring (see decompose); only when it fails does the recognizer run,
    # and its failing checks join the report.
    if all(c.passed for c in checks) and not _near_sum_holds(
        Decomposition(phi, psi, theta, None)
    ):
        checks += [c for c in _jordan_recognizer(phi)[0] if not c.passed]
    return VerificationReport(tuple(checks))
