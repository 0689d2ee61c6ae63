"""Truncated Fock spaces and the truncation contract.

Builds bosonic and fermionic spaces, constructs mode operators, and
shows where the commutation relations hold exactly versus where the
cutoff bites.
"""

import numpy as np

from qheis import fock
from qheis.fock import Statistics

# A 2-mode bosonic space keeping every state with total occupation <= 3.
sp = fock.build_space(2, Statistics.BOSE, cutoff=3)
print(f"bosonic space: {sp.modes} modes, cutoff {sp.cutoff}, dim {sp.dim}")
print("first basis states:", sp.basis[:5])

a1, ap1 = fock.annihilator(sp, 1), fock.creator(sp, 1)
comm = fock.commutator(a1, ap1).toarray() - np.eye(sp.dim)

# On the full truncated space the canonical commutator has a defect --
# but only on the top shell, where a+ has nowhere to go.
print("\n||[a, a+] - 1|| on the full space:   ",
      f"{np.linalg.norm(comm, 2):.3e}   (top-shell artifact)")
safe = fock.safe_projector(sp, 1).matrix.toarray()
print("same after degree-1 safe projection: ",
      f"{np.linalg.norm(safe @ comm @ safe, 2):.3e}")

# Fermions carry Jordan-Wigner strings, so anticommutators are exact
# everywhere; no truncation is involved.
spf = fock.build_space(3, Statistics.FERMI)
worst = max(
    np.linalg.norm(fock.anticommutator(fock.annihilator(spf, i),
                                       fock.creator(spf, j)).toarray()
                   - (np.eye(spf.dim) if i == j else 0.0), 2)
    for i in range(1, 4) for j in range(1, 4))
print(f"\nfermionic space dim {spf.dim}; worst CAR residual: {worst:.3e}")

# Diagonal functional calculus: any function of the mode numbers is an
# exact diagonal operator.  Every invariant dressing in the package is
# built this way.
q = 1.3
dress = fock.diag_fn(sp, lambda t: q ** t[1])
print("\nq^(n_2) diagonal on state (0, 3):",
      dress.matrix[sp.state_index((0, 3)), sp.state_index((0, 3))].real)

# Grade bookkeeping: [n_tot, X] = g X identifies creators (+1),
# annihilators (-1), and invariants (0).
print("grade defect of a+_1:", f"{fock.grade_defect(ap1):.2e}")
