"""The coassociator matrix M from the operator path-ordered integral.

M is the fundamental solution of the operator KZ equation with
power-law endpoint prefactors.  P and A both conserve the sl(N) weight
e_a + e_b + occ of a basis vector (a, b, occ) of C^N x C^N x Fock, so
the equation is integrated on the weight blocks of M only (one ODE over
all of them, the blocks of each size stacked), and the endpoint
prefactors are closed forms per block: an eigenbasis of the symmetric A
block, and cosh/sinh of P since P^2 = 1.  M comes back as its weight
blocks; its norms are the largest block norm.  M is
1 + zeta(2) eta^2 [P, A] + O(h^3), acts trivially on the
doubly-contravariant tensor a^i a^j, and conjugates the numeric
relation matrices into the ones the dressed generators satisfy --
the operator-level confirmation that the dressing ansatz fulfills the
deformed exchange relations.
"""

import math

import numpy as np

from qheis import fock, kz, liealg
from qheis.fock import Statistics
from qheis.qspecial import WEYL, CLIFFORD, DeformParams

space = fock.build_space(2, Statistics.BOSE, cutoff=5)
system = kz.build_operator_system(space)
blocks = system.blocks
dim = blocks.dim
print(f"operator system on C^2 x C^2 x Fock: total dimension {dim}")
sizes = {shape[1]: shape[0] for _, shape in blocks.stacks}
print(f"{sum(sizes.values())} weight blocks, count by size {sizes}:",
      f"{blocks.rows.size} ODE state entries instead of {dim * dim}")


def hbar2_of(h):
    return h / (math.pi * 1j)


h = 0.1
m, err = kz.coassociator_with_error(system, hbar2_of(h), 2e-6)
print(f"\nM at h = {h}:  ||M - 1|| = {blocks.norm(m - blocks.eye):.4e}")
print(f"stability under halving the endpoint cutoff: {err:.1e}")

# M - 1 is second order in h: halving h divides the norm by about four.
n1 = blocks.norm(kz.coassociator_matrix(system, hbar2_of(h), 1e-5) - blocks.eye)
m_half = kz.coassociator_matrix(system, hbar2_of(h / 2), 1e-5) - blocks.eye
n2 = blocks.norm(m_half)
print(f"h^2 scaling: ||M(h)-1|| / ||M(h/2)-1|| = {n1 / n2:.2f}")
# ... and its h^2 coefficient is zeta(2) times the commutator of the residues
pa = blocks.matmul(system.p, system.a) - blocks.matmul(system.a, system.p)
h2_term = math.pi**2 / 6 * hbar2_of(h / 2)**2 * pa
print("relative deviation of M(h/2) - 1 from zeta(2) eta^2 [P, A]:",
      f"{blocks.norm(m_half - h2_term) / blocks.norm(h2_term):.3f}")

# M is stored as its weight blocks; off them the full matrix is exactly zero.
print(f"stored entries of M: {blocks.to_sparse(m).nnz} of {dim * dim}")

print("\nM acts trivially on a^i a^j:",
      f"{kz.acts_trivially_residual(system, m):.1e}")
print("M commutes with the coproduct image:",
      f"{kz.invariance_residual(system, m, liealg.LieData('sl', 2)):.1e}")

# The decisive check: the dressed generators satisfy the exchange
# relations with matrices conjugated by M.
params = DeformParams(math.e**h, WEYL)
print(f"\ndressed exchange relations at q = e^{h} (tolerance 1e-6):")
for row in kz.coassociator_relation_check(system, params, m):
    print(f"  {row.name:26s} {row.residual:.3e}")

# Controls: at q = 1 everything reduces to the canonical relations
# exactly, while the wrong statistics sign fails at order one.
m0 = kz.coassociator_matrix(system, 0.0, 1e-6)
rows0 = kz.coassociator_relation_check(system, DeformParams(1.0, WEYL), m0)
print("q = 1 control:", f"{max(r.residual for r in rows0):.1e}")
wrong = kz.coassociator_relation_check(system, DeformParams(math.e**h, CLIFFORD), m)
print("wrong-sign control (must be large):",
      f"{max(r.residual for r in wrong):.2f}")
