"""qheis: group-covariant q-deformed Heisenberg algebras on truncated
Fock spaces, verified numerically.

The package constructs Weyl/Clifford algebras covariant under sl(N) or
so(N), derives the sl(N) q-deforming maps inside them from the braid
matrix, and turns every
implementable algebraic identity (deformed exchange relations,
invariants, *-structures, braid-matrix properties, the reduced
Knizhnik-Zamolodchikov machinery behind the coassociator) into residual
checks with explicit tolerances.
"""

__version__ = "0.1.0"
