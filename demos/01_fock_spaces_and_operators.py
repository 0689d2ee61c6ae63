"""Truncated Fock spaces and the truncation contract.

Builds bosonic and fermionic spaces, reads the mode ladders each space
stores as ladder tables (``space.an``, ``space.ap``: row s of the mode
i + 1 operator holds ``vals[i, s]`` in column ``cols[i, s]``), writes
them as sparse arrays where a product needs them (``fock.column``: the
N D x D stack of the N operators), and shows where the commutation
relations hold exactly versus where the cutoff bites.
"""

import numpy as np

from qheis import fock
from qheis.fock import Statistics

# A 2-mode bosonic space keeping every state with total occupation <= 3.
sp = fock.build_space(2, Statistics.BOSE, cutoff=3)
print(f"bosonic space: {sp.modes} modes, cutoff {sp.cutoff}, dim {sp.dim}")
print("first basis states:", sp.occ[:5].tolist())
s = sp.state_index((0, 1))
print(f"a^1 on state (0, 1): the table holds {sp.an.vals[0, s].real:.4f} in column",
      sp.an.cols[0, s], "=", tuple(sp.occ[sp.an.cols[0, s]].tolist()))

d = sp.dim
a1, ap1 = fock.column(sp.an)[:d], fock.column(sp.ap)[:d]
comm = (a1 @ ap1 - ap1 @ a1).toarray() - np.eye(sp.dim)

# On the full truncated space the canonical commutator has a defect --
# but only on the top shell, where a+ has nowhere to go.
print("\n||[a, a+] - 1|| on the full space:   ",
      f"{np.linalg.norm(comm, 2):.3e}   (top-shell artifact)")
safe = sp.safe_mask(1)
print("same on the degree-1 safe subspace:  ",
      f"{np.linalg.norm(comm[np.ix_(safe, safe)], 2):.3e}")

# Fermions carry Jordan-Wigner strings, so anticommutators are exact
# everywhere; no truncation is involved.
spf = fock.build_space(3, Statistics.FERMI)
an, ap = (fock.column(t).toarray().reshape(3, spf.dim, spf.dim) for t in (spf.an, spf.ap))
worst = max(
    np.linalg.norm(an[i] @ ap[j] + ap[j] @ an[i] - (np.eye(spf.dim) if i == j else 0.0), 2)
    for i in range(3) for j in range(3))
print(f"\nfermionic space dim {spf.dim}; worst CAR residual: {worst:.3e}")

# Diagonal functional calculus: any function of the mode numbers is an
# exact diagonal operator.  Every invariant dressing in the package is
# built this way: tabulate the function on the occupations 0..cutoff,
# index the table by a column of the occupation table, and hand the
# values to fock.diag.
q = 1.3
occ = sp.occ
dress = fock.diag((q ** np.arange(sp.cutoff + 1))[occ[:, 1]])
print("\nq^(n_2) diagonal on state (0, 3):",
      dress[sp.state_index((0, 3)), sp.state_index((0, 3))].real)

# Grade bookkeeping: [n_tot, X] = g X identifies creators (+1),
# annihilators (-1), and invariants (0).
print("grade defect of the creators:", f"{fock.grade_defect(sp, sp.ap, +1):.2e}")
