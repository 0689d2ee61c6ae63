"""Deforming maps derived from the braid matrix.

Each cross-relation candidate of the relation matrices determines a
map by one recursion (``deform.derive_map``): the eigenvalue x_i(n) of
A+_i A^i follows the diagonal of the (i, i) cross relation, and
A+_i = sqrt(x_i/n_i) a+_i.  The maps are dressed mode operators, stored
as the ladder tables of the space with scaled values (``gens.a``,
``gens.ap``); the residual engine then checks each map against its own
candidate, and exactly one of them holds.
"""

import dataclasses

import numpy as np

from qheis import braid, deform, fock, verify
from qheis.fock import Statistics
from qheis.qspecial import CLIFFORD, WEYL, qnum


def derive_both(space, rel):
    """{candidate: (generator set, worst DCR residual against that candidate)}"""
    out = {}
    for name, x in rel.cross_candidates.items():
        gens = deform.derive_map(space, rel, name)
        own = dataclasses.replace(rel, cross_candidates={name: x})
        out[name] = gens, max(r.residual for r in verify.dcr_residuals(gens, own))
    return out


q = 1.3
sp = fock.build_space(2, Statistics.BOSE, cutoff=8)
rel = braid.build_relations("sl", 2, q, WEYL)

print("bosonic sl(2), cutoff 8: the map of each candidate, checked against it:")
maps = derive_both(sp, rel)
for name, (_, worst) in maps.items():
    print(f"  {name:8s} worst DCR residual {worst:.3e}")
winner = min(maps, key=lambda name: maps[name][1])
gens = maps[winner][0]
print(f"-> the {winner!r} map holds its relations\n")

# The deformed number operator is diagonal with q-integer entries.
nh = gens.number_diagonal()
print("N_h eigenvalue on the n = 3 shell:",
      f"{nh[sp.state_index((2, 1))].real:.6f}",
      " vs (3)_{q^2} =", f"{qnum(3, q * q).real:.6f}")

# Hermiticity: the sqrt(x/n) dressing makes (A^i)+ = A+_i at real q.
print("hermiticity residual:", f"{deform.hermiticity_residual(gens):.2e}")

# All deforming maps are related by inner automorphisms.  The diagonal
# intertwiner alpha turns the symmetric dressing into the one-sided one.
alpha = deform.sl2_alpha_intertwiner(sp, gens.params)
conj, cond = deform.inner_automorphism(gens, alpha)
oneside = deform.sl2_bose_onesided_map(sp, gens.params)
dev = np.abs(conj.ap.vals - oneside.ap.vals).max()  # the same columns
print(f"\nalpha-conjugation reproduces the one-sided map: {dev:.2e} "
      f"(cond alpha = {cond:.1f})")
print("one-sided map is not *-compatible:",
      f"{deform.hermiticity_residual(oneside):.2f}")

# Fermions: the same derivation gives A+_1 = q^{-n_2} a+_1, exact on the
# full 4-dimensional space; and sl(3), Weyl and Clifford.
for label, space, sign in (
        ("fermionic sl(2)", fock.build_space(2, Statistics.FERMI), CLIFFORD),
        ("bosonic sl(3), cutoff 5", fock.build_space(3, Statistics.BOSE, cutoff=5), WEYL),
        ("fermionic sl(3)", fock.build_space(3, Statistics.FERMI), CLIFFORD)):
    maps = derive_both(space, braid.build_relations("sl", space.modes, q, sign))
    print(f"\n{label}: " + ", ".join(f"{name} {worst:.2e}"
                                     for name, (_, worst) in maps.items()))
