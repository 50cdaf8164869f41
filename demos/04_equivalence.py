"""Testing GL_d(Z) equivalence of forms with canonical certificates.

Two forms describe the same lattice up to base change iff some unimodular U
carries one Gram matrix to the other.  The library decides this through the
complete edge-colored graph on the characteristic vector set (the smallest
ball of lattice vectors spanning Z^d): canonical labelings give a hash, a
reconstructible witness U, and the full automorphism group.
"""

import random

from lcone.exact import Mat, SymMat, det
from lcone.lattice import characteristic_set
from lcone.equiv import (
    automorphism_group,
    form_certificate,
    form_equivalence,
)

A2 = SymMat([[2, 1], [1, 2]])
mirror = SymMat([[2, -1], [-1, 2]])

print("characteristic set of the hexagonal form:", characteristic_set(A2).vectors)

ca = form_certificate(A2)
cm = form_certificate(mirror)
print("\ncertificate hashes:")
print("  A2      ", ca.hash[:16], "...")
print("  mirror  ", cm.hash[:16], "...")
print("  equal?  ", ca.hash == cm.hash)

u = form_equivalence(A2, mirror)
print("\nwitness U with U^T A2 U = mirror:", u.matrix.entries)
print("verification:", A2.congruence(u.matrix) == mirror)

print("\ninequivalent forms get different certificates:")
print("  identity vs A2:", form_equivalence(SymMat.identity(2), A2))

# Automorphism groups: all unimodular U fixing the form.  The orders feed
# the Euler-Poincare mass formula of the classification.
for name, q in [("identity(2)", SymMat.identity(2)),
                ("hexagonal", A2),
                ("identity(4)", SymMat.identity(4)),
                ("D4 root form", SymMat([[2, -1, 0, 0], [-1, 2, -1, -1],
                                         [0, -1, 2, 0], [0, -1, 0, 2]]))]:
    gens, order = automorphism_group(q)
    print(f"\n|Aut({name})| = {order}, {len(gens)} generators, e.g.",
          gens[0].matrix.entries if gens else "-")

# Certificates are invariant under random base changes.
rng = random.Random(1)
for _ in range(5):
    while True:
        m = Mat([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
        if det(m) in (1, -1):
            break
    if form_certificate(A2.congruence(m)).hash != ca.hash:
        raise AssertionError("a base change moved the certificate")
print("\ncertificates stable under 5 random unimodular base changes: ok")
