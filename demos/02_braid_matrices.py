"""Braid matrices, their spectra, and the deformed metric.

The matrices governing the deformed exchange relations are validated by
their own algebra -- Yang-Baxter, characteristic polynomial, projector
decomposition -- rather than trusted as transcriptions.
"""

import numpy as np

from qheis import braid, liealg
from qheis.qspecial import WEYL

q = 1.3

print("sl(2) braid matrix (entries q, 1, q - 1/q):")
print(np.round(braid.sl_rhat(2, q).real, 4), "\n")

for family, n in (("sl", 2), ("sl", 3), ("so", 3), ("so", 4)):
    rel = braid.build_relations(family, n, q, WEYL)
    d = rel.diagnostics
    print(f"{family}({n}):  Yang-Baxter {d['yang_baxter']:.1e}   "
          f"characteristic {d['characteristic']:.1e}   "
          f"projector ranks {d['projector_ranks']}")

# The classical limit: every braid matrix becomes the flip.
rel1 = braid.build_relations("so", 3, 1 + 1e-8, WEYL)
dev = np.abs(rel1.rhat - liealg.permutation_matrix(3)).max()
print(f"\nso(3) at q = 1 + 1e-8: max deviation from the permutation {dev:.1e}")

# so(N) carries a deformed metric; in the Cartesian basis used here it
# tends to the identity classically, and its rank-one tensor square is
# exactly the trace projector of the braid matrix.
rel = braid.build_relations("so", 3, q, WEYL)
c_lo, c_up = rel.metric_lower, rel.metric_upper
print("\nso(3) deformed metric (lower), q = 1.3:")
print(np.round(c_lo, 4))
print("C_lower @ C_upper - 1:", f"{np.linalg.norm(c_lo @ c_up - np.eye(3)):.1e}")
print("trace projector vs metric tensor square:",
      f"{rel.diagnostics['trace_projector_vs_metric']:.1e}")

# Two cross-relation candidates are always carried; the residual engine
# decides which one the explicit maps satisfy (see demo 03).
print("\ncross candidates carried:", sorted(rel.cross_candidates))
