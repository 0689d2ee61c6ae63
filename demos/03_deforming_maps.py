"""Explicit q-deforming maps and the deformed-relation oracle.

The bosonic and fermionic sl(2) maps are realized as dressed mode
operators, stored as the ladder tables of the space with scaled values
(``gens.a``, ``gens.ap``); the residual engine then verifies the
deformed exchange relations and empirically selects the cross-relation
candidate.
"""

import numpy as np

from qheis import braid, deform, fock, verify
from qheis.fock import Statistics
from qheis.qspecial import CLIFFORD, WEYL, DeformParams, qnum

q = 1.3
sp = fock.build_space(2, Statistics.BOSE, cutoff=8)
params = DeformParams(q, WEYL)

gens = deform.sl2_bose_map(sp, params)
rel = braid.build_relations("sl", 2, q, WEYL)

print("deformed-relation residuals (bosonic sl(2) map, cutoff 8):")
rows = verify.dcr_residuals(gens, rel)
for row in rows:
    print(f"  {row.name:24s} {row.residual:.3e}")
oracle = verify.cross_oracle(rows)
print(f"-> the {oracle['winner']!r} candidate wins "
      f"({oracle['winner_residual']:.1e} vs {oracle['loser_residual']:.1e}); "
      f"exactly one passes: {oracle['unique']}\n")

# The deformed number operator is diagonal with q-integer entries.
nh = gens.number_diagonal()
print("N_h eigenvalue on the n = 3 shell:",
      f"{nh[sp.state_index((2, 1))].real:.6f}",
      " vs (3)_{q^2} =", f"{qnum(3, q * q).real:.6f}")

# Hermiticity: the sqrt(y) dressing makes (A^i)+ = A+_i at real q.
print("hermiticity residual:", f"{deform.hermiticity_residual(gens):.2e}")

# All deforming maps are related by inner automorphisms.  The diagonal
# intertwiner alpha turns the symmetric dressing into the one-sided one.
alpha = deform.sl2_alpha_intertwiner(sp, params)
conj, cond = deform.inner_automorphism(gens, alpha)
oneside = deform.sl2_bose_onesided_map(sp, params)
dev = np.abs(conj.ap.vals - oneside.ap.vals).max()  # the same columns
print(f"\nalpha-conjugation reproduces the one-sided map: {dev:.2e} "
      f"(cond alpha = {cond:.1f})")
print("one-sided map is not *-compatible:",
      f"{deform.hermiticity_residual(oneside):.2f}")

# Fermions: the map is exact on the full 4-dimensional space.
spf = fock.build_space(2, Statistics.FERMI)
gf = deform.sl2_fermi_map(spf, DeformParams(q, CLIFFORD))
relf = braid.build_relations("sl", 2, q, CLIFFORD)
worst = verify.cross_oracle(verify.dcr_residuals(gf, relf))["winner_residual"]
print(f"\nfermionic sl(2) map, winning cross residual: {worst:.2e}")

# sl(3): the per-mode candidate map is accepted or rejected only by the
# oracle; one mode ordering works, the other fails at order one.
sp3 = fock.build_space(3, Statistics.BOSE, cutoff=5)
rel3 = braid.build_relations("sl", 3, q, WEYL)
for ordering in ("above", "below"):
    g3 = deform.sln_candidate_map(sp3, DeformParams(q, WEYL), ordering)
    res = verify.cross_oracle(verify.dcr_residuals(g3, rel3))["winner_residual"]
    print(f"sl(3) candidate, ordering {ordering!r}: {res:.2e}")
