"""The headline act: splitting a Jordan isomorphism into a homomorphism and
an anti-homomorphism that almost sum to it.

A Jordan isomorphism phi preserves the symmetrized product ab + ba but may
be neither a homomorphism nor an anti-homomorphism.  On an incidence
algebra, sandwiching with the diagonal idempotent images splits phi:

    psi(e_xy)   = phi(e_x) phi(e_xy) phi(e_y)
    theta(e_xy) = phi(e_y) phi(e_xy) phi(e_x)

psi multiplies covariantly, theta contravariantly, the two agree with phi
on the diagonal, sum to it on the strict part, and annihilate each other's
strict images.  This demo builds a map that genuinely mixes both behaviors
and pulls it back apart.
"""

from fialg import (
    RATIONALS,
    check_homomorphism,
    decompose,
    random_jordan_iso,
    validate_poset,
)

# Two disjoint 2-chains: the order has room for a map that acts straight on
# one component and order-reversed on the other.
poset = validate_poset(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])

# Seed 1 generates such a mixed map (the generator permutes components,
# flips orientation where the component is self-dual, and conjugates by a
# random unit).
phi = random_jordan_iso(poset, RATIONALS, seed=1)
print("phi is a homomorphism:      ", check_homomorphism(phi).passed)
print("phi is an anti-homomorphism:", check_homomorphism(phi, anti=True).passed)

dec = decompose(phi)
print("\nnear-sum checks:")
print(dec.report.summary())

# The pieces individually satisfy the laws phi itself fails.
print("\npsi is a homomorphism:       ", check_homomorphism(dec.psi).passed)
print("theta is an anti-homomorphism:",
      check_homomorphism(dec.theta, anti=True).passed)

# On the strict basis columns, phi literally equals psi + theta.
ring = RATIONALS
for k in phi.domain.basis.strict_indices():
    mixed = [
        ring.add(a, b)
        for a, b in zip(dec.psi.columns[k], dec.theta.columns[k])
    ]
    assert list(phi.columns[k]) == mixed
print("\nstrict columns recompose exactly: phi = psi + theta on the ideal")
