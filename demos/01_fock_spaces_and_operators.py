"""Truncated Fock spaces and the truncation contract.

Builds bosonic and fermionic spaces, reads the mode ladders each space
stores as ladder tables (``space.an``, ``space.ap``: row s of the mode
i + 1 operator holds ``vals[i, s]`` in column ``cols[i, s]``), writes
them out as dense matrices to show where the commutation relations hold
exactly versus where the cutoff bites, and multiplies the ladders and
their products as dense blocks on the (shell, parity) sectors of a space
(``space.ladder_blocks``, ``fock.BlockOperator``).
"""

import numpy as np

from qheis import fock, verify
from qheis.fock import Statistics


def dense(table, i):
    """Operator i of a ladder table as a dense D x D matrix."""
    d = table.cols.shape[1] - 1
    m = np.zeros((d, d), dtype=complex)
    rows = np.flatnonzero(table.cols[i, :d] < d)
    m[rows, table.cols[i, rows]] = table.vals[i, rows]
    return m


# A 2-mode bosonic space keeping every state with total occupation <= 3.
sp = fock.build_space(2, Statistics.BOSE, cutoff=3)
print(f"bosonic space: {sp.modes} modes, cutoff {sp.cutoff}, dim {sp.dim}")
print("first basis states:", sp.occ[:5].tolist())
s = sp.state_index((0, 1))
print(f"a^1 on state (0, 1): the table holds {sp.an.vals[0, s].real:.4f} in column",
      sp.an.cols[0, s], "=", tuple(sp.occ[sp.an.cols[0, s]].tolist()))

a1, ap1 = dense(sp.an, 0), dense(sp.ap, 0)
comm = a1 @ ap1 - ap1 @ a1 - np.eye(sp.dim)

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
an = [dense(spf.an, i) for i in range(3)]
ap = [dense(spf.ap, i) for i in range(3)]
worst = max(
    np.linalg.norm(an[i] @ ap[j] + ap[j] @ an[i] - (np.eye(spf.dim) if i == j else 0.0), 2)
    for i in range(3) for j in range(3))
print(f"\nfermionic space dim {spf.dim}; worst CAR residual: {worst:.3e}")

# The ladders in block form live on the (shell, parity of each mode)
# sectors: a^i moves (n, p) to (n - 1, p xor e_i), and a.a moves (n, p)
# to (n - 2, p), so it is one dense block per sector.  Every product of
# block operators is one batched product per block shape, and
# verify.projected_norms reads the norm block by block.
sp3 = fock.build_space(3, Statistics.BOSE, cutoff=6)
sectors = sp3.sectors
an3, ap3 = sp3.ladder_blocks
aa = (an3 @ an3).sum_labels()
apap = (ap3 @ ap3).sum_labels()
defect = aa @ apap - apap @ aa - fock.diagonal(sectors, 4.0 * sp3.shell + 2 * sp3.modes)
print(f"\n3-mode space dim {sp3.dim}: {sectors.size.size} sectors, the largest "
      f"{sectors.size.max()} states")
print("||[a.a, a+.a+] - (4n + 2N)|| on the degree-2 safe subspace:",
      f"{verify.projected_norms(sp3, defect, 2):.3e}")

# Diagonal functional calculus: any function of the mode numbers is an
# exact diagonal operator.  Every invariant dressing in the package is
# built this way: tabulate the function on the occupations 0..cutoff and
# index the table by a column of the occupation table.
q = 1.3
dress = (q ** np.arange(sp.cutoff + 1))[sp.occ[:, 1]]
print("\nq^(n_2) on state (0, 3):", dress[sp.state_index((0, 3))])
print("its norm as a block operator:",
      f"{verify.projected_norms(sp, fock.diagonal(sp.sectors, dress), 0):.4f} = q^3")

# Grade bookkeeping: [n_tot, X] = g X identifies creators (+1),
# annihilators (-1), and invariants (0).
print("grade defect of the creators:", f"{fock.grade_defect(sp, sp.ap, +1):.2e}")
