"""Two independent construction routes, and the identity families that
certify a decomposition.

The production path extends psi and theta linearly from their values on the
unit basis.  The oracle path reconstructs the same values pointwise through
phi^-1.  Both are exposed; this demo shows them agreeing exactly, then runs
the full identity verifier — including the windowed annihilation family,
where sandwiches through a diagonal idempotent phi(e_W) vanish whenever W
avoids a small excluded set of interval points.
"""

import random

from fialg import (
    decompose,
    extend_via_inverse,
    modular,
    random_basis_change,
    random_jordan_iso,
    random_series,
    rebase_codomain,
    validate_poset,
    verify_paper_identities,
)
from fialg import LinMap

diamond = validate_poset(
    ["bot", "l", "r", "top"],
    [("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top")],
)
ring = modular(9)

# Twist the codomain by a random invertible change of basis, so nothing
# downstream can cheat by reading incidence coordinates off the target.
phi = random_jordan_iso(diamond, ring, seed=6)
phi = rebase_codomain(phi, random_basis_change(phi.codomain, seed=41))
dec = decompose(phi)
print("decomposition over an opaque codomain:", dec.report.passed)

rng = random.Random(0)
f = random_series(diamond, ring, rng, density=0.7)
coords = phi.domain.element_from_series(f)
linear = dec.psi.apply_coords(coords)
oracle = extend_via_inverse(phi, f)
print("oracle == linear extension:", list(oracle) == list(linear))

# The identity suite re-derives every family the construction rests on.
report = verify_paper_identities(phi, seed=3)
print("\nidentity families:")
print(report.summary())

# Corrupt one matrix entry and the families produce concrete witnesses
# instead of a bare failure.
cols = [list(c) for c in phi.columns]
cols[2][0] = (cols[2][0] + 1) % 9
bad = LinMap(phi.domain, phi.codomain, cols)
bad_report = verify_paper_identities(bad, seed=3)
first_failing = next(c for c in bad_report.checks if not c.passed)
witness = first_failing.witnesses[0]
print(f"\ncorrupted map: {first_failing.name} fails at {witness.indices}")
print(f"  left  = {witness.left}")
print(f"  right = {witness.right}")
