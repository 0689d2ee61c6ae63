"""The coassociator M of the operator KZ equation.

M is the connection matrix of the equation's two solutions normalized
at x = 0 and x = 1, each a power series in the Koebe variable
z = (1 - sqrt(1-x))/(1 + sqrt(1-x)) that converges at x = 1/2
(z ~ 0.172) in 20-25 terms.  So M is exact in closed form: no endpoint
regularization and no integrator.  P and A both conserve the sl(N)
weight e_a + e_b + occ of a basis vector (a, b, occ) of
C^N x C^N x Fock, so both are block operators on the weight partition
(``fock.BlockOperator``, one block per weight).  Relabelling the modes
maps one weight block onto another and commutes with P and A, so both
series are summed only on the blocks of sorted weight
(W_1 >= ... >= W_N), one per orbit of the mode permutations (the blocks
of each size stacked, each series in the eigenbasis of its P or A
blocks, for several h at once), and every other block of M is copied
from its orbit's block with its members relabelled.
M comes back as a block operator of the same layout; its norms are
``verify.projected_norms``, the largest block norm.  M is
1 + zeta(2) eta^2 [P, A] + O(h^3), acts trivially on the
doubly-contravariant tensor a^i a^j, commutes with the coproduct image
(M Delta - Delta M on the stack of the Delta(X)), and conjugates the
numeric relation matrices into the ones the dressed generators satisfy
-- the operator-level confirmation that the dressing ansatz fulfills the
deformed exchange relations.
"""

import math

import numpy as np

from qheis import fock, kz, verify
from qheis.fock import CLIFFORD, WEYL, Statistics

space = fock.build_space(2, Statistics.BOSE, cutoff=5)
system = kz.build_operator_system(space)
weights = system.p.partition
dim = weights.of.size
print(f"operator system on C^2 x C^2 x Fock: total dimension {dim}")
sizes = {height: b1 - b0 for b0, b1, height, _ in system.p.layout.groups}
print(f"{weights.size.size} weight blocks, count by size {sizes}:",
      f"{system.p.size} stored entries of M instead of {dim * dim}")
summed = sum(ser.p_vals.shape[0] for ser in system.series)
print(f"the series are summed on {summed} of them, one per mode-permutation orbit")


def hbar2_of(h):
    return h / (math.pi * 1j)


def norm(x):
    """The spectral norm of a block operator: its largest block norm."""
    return verify.projected_norms(space, x, 0)


h = 0.1
# M(h) and M(h/2) from one batched series per block size
m, m_half = kz.coassociator_matrices(system, (hbar2_of(h), hbar2_of(h / 2)))
n1 = norm(m - system.eye)
print(f"\nM at h = {h}:  ||M - 1|| = {n1:.4e}")

# M - 1 is second order in h: halving h divides the norm by about four.
m_half = m_half - system.eye
n2 = norm(m_half)
print(f"h^2 scaling: ||M(h)-1|| / ||M(h/2)-1|| = {n1 / n2:.2f}")
# ... and its h^2 coefficient is zeta(2) times the commutator of the residues
pa = system.p @ system.a - system.a @ system.p
h2_term = math.pi**2 / 6 * hbar2_of(h / 2)**2 * pa
print("relative deviation of M(h/2) - 1 from zeta(2) eta^2 [P, A]:",
      f"{norm(m_half - h2_term) / norm(h2_term):.3f}")

# M is stored as its weight blocks; off them the full matrix is exactly zero.
print(f"nonzero entries of M: {np.count_nonzero(m.data)} of {dim * dim}, all on its weight blocks")

print("\nM acts trivially on a^i a^j:",
      f"{kz.acts_trivially_residual(system, m):.1e}")
print("M commutes with the coproduct image:",
      f"{kz.invariance_residual(system, m):.1e}")

# The decisive check: the dressed generators satisfy the exchange
# relations with matrices conjugated by M.
# One call at one q checks both signs on the same M: cond(M), M^-1 and
# M^-1 P M are computed once for both.  The system is bosonic, so WEYL is
# its sign and CLIFFORD the wrong-statistics control.
weyl, wrong = kz.coassociator_relation_check(system, math.e**h, (WEYL, CLIFFORD), m)
print(f"\ndressed exchange relations at q = e^{h} (tolerance 1e-12):")
for row in weyl:
    print(f"  {row.name:26s} {row.residual:.3e}")

# Controls: at q = 1 everything reduces to the canonical relations
# exactly, while the wrong statistics sign fails at order one.
m0 = kz.coassociator_matrices(system, (0.0,))[0]
rows0 = kz.coassociator_relation_check(system, 1.0, (WEYL,), m0)[0]
print("q = 1 control:", f"{max(r.residual for r in rows0):.1e}")
print("wrong-sign control (must be large):",
      f"{max(r.residual for r in wrong):.2f}")
