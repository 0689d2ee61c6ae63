"""so(N) orbital machinery: the generator l, shift operators, and the
functional equations of the so(N) dressing.  l^2, l, a.a and a+.a+ are
block operators on the (shell, parity) sectors of the space
(``fock.BlockOperator``): l is one eigh-built block per sector."""

from qheis import fock, soshift
from qheis.fock import Statistics
from qheis.qspecial import WEYL, DeformParams

sp = fock.build_space(3, Statistics.BOSE, cutoff=6)
orb = soshift.build_orbital(sp)
# the ladder tables, and their products with a.a and a+.a+, that the
# structure checks share
ops = soshift.StructureOperands(orb)
print(f"l: {orb.l.layout.label.size} sector blocks, {orb.l.size} stored entries "
      f"on a space of dimension {sp.dim}")

print("joint (n, l) spectrum of the 3-mode space (n, l, multiplicity):")
for n, l, m in orb.spectral_grid[:8]:
    print(f"  n = {n:g}   l = {l:.1f}   x{m}")
print("  ...")

# l^2 commutes with the quadratic scalars; the mixed commutators close
# on the printed first-order formulas.
for row in soshift.l2_commutator_residuals(ops):
    print(f"{row.name:28s} {row.residual:.2e}")

# The shift operators move l by one unit; both printed orderings of
# their definition agree as matrices.
for sign in (+1, -1):
    for row in soshift.shift_operator_residuals(ops, sign):
        print(f"{row.name:28s} {row.residual:.2e}")

# The four functional equations determining the so(N) dressing ratio,
# checked pointwise on the realized grid with telescoped y-ratios.
for q in (0.7, 1.3):
    rows = soshift.verify_y_son(orb, DeformParams(q, WEYL))
    worst = max(r.residual for r in rows)
    pts = sum(r.metadata["points"] for r in rows)
    print(f"q = {q}: four functional equations, {pts} grid points, "
          f"max residual {worst:.2e}")
