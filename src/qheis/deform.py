"""Explicit q-deforming maps on truncated Fock spaces.

A deforming map realizes generators of the q-deformed algebra as
dressed versions of the undeformed creators/annihilators:

  sl(2), Weyl:      A+_1 = sqrt((n_1)_{q^2}/n_1) q^{n_2} a+_1,
                    A+_2 = sqrt((n_2)_{q^2}/n_2) a+_2,
                    A^i  = the mirror-ordered counterparts
                    (hermitean for real q).
  sl(2), Clifford:  A+_1 = q^{-n_2} a+_1,  A+_2 = a+_2.
  sl(N), Weyl:      the per-mode candidate
                    A+_i = sqrt((n_i)_{q^2}/n_i) q^{sum_{j in S(i)} n_j} a+_i
                    with S(i) the modes above or below i; which mode
                    ordering actually satisfies the deformed relations is
                    decided by the residual oracle, not assumed here.

All maps reduce to the identity at q = 1, preserve the grading, and fix
the vacuum and the one-particle states.  Because the dressings are
diagonal functions of the mode numbers, the removable singularity of
(n)_{q^2}/n at n = 0 never reaches a nonzero matrix entry; the value 1
is used there by convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .fock import FockSpace, LinOp, Statistics, annihilator, creator, diag_fn
from .qspecial import CLIFFORD, DeformParams, qnum, y_sln


@dataclass
class DeformedGenerators:
    """A set of N deformed annihilators/creators plus its provenance."""

    space: FockSpace
    params: DeformParams
    a_ops: list[LinOp]       # grade -1
    aplus_ops: list[LinOp]   # grade +1
    dressing: str

    @property
    def n(self) -> int:
        return self.space.modes

    def number_operator(self) -> LinOp:
        """N_h = sum_i A+_i A^i (grade 0)."""
        m = sum(ap.matrix @ a.matrix for ap, a in zip(self.aplus_ops, self.a_ops))
        return LinOp(self.space, m, grade=0)


def _sqrt_ratio(n_i: float, q: float, at_zero: float = 1.0) -> float:
    """sqrt((n)_{q^2}/n) with a conventional value at the removable n = 0."""
    if n_i == 0:
        return float(np.sqrt(at_zero))
    val = qnum(n_i, q * q).real / n_i
    if val < 0:
        raise ValueError(f"negative dressing ratio at n={n_i}, q={q}")
    return float(np.sqrt(val))


def sln_candidate_map(
    space: FockSpace,
    params: DeformParams,
    ordering: str = "above",
    at_zero: float = 1.0,
) -> DeformedGenerators:
    """Per-mode candidate deforming map for the Weyl sl(N) algebra.

    ordering selects which modes enter the exponential tail q^{n_j}:
    "above" uses j > i, "below" uses j < i.  The operation guarantees
    only the classical limit, grading and vacuum behaviour; acceptance
    is decided by the deformed-relation residuals.
    """
    if space.statistics is not Statistics.BOSE:
        raise ValueError("the sl(N) candidate map needs a bosonic space")
    if ordering not in ("above", "below"):
        raise ValueError("ordering must be 'above' or 'below'")
    q = params.q_real
    n = space.modes
    a_ops, aplus_ops = [], []
    for i in range(1, n + 1):
        tail = range(i, n) if ordering == "above" else range(0, i - 1)

        def dress(t, i=i, tail=tuple(tail)):
            return _sqrt_ratio(t[i - 1], q, at_zero) * q ** sum(t[j] for j in tail)

        d = diag_fn(space, dress)
        aplus_ops.append(LinOp(space, d.matrix @ creator(space, i).matrix, grade=+1))
        a_ops.append(LinOp(space, annihilator(space, i).matrix @ d.matrix, grade=-1))
    return DeformedGenerators(space, params, a_ops, aplus_ops,
                              dressing=f"sqrt-ratio, tail={ordering}")


def sl2_bose_map(space: FockSpace, params: DeformParams) -> DeformedGenerators:
    """The explicit symmetric-dressed Weyl sl(2) map (u = 1/v = sqrt(y))."""
    if space.modes != 2 or space.statistics is not Statistics.BOSE:
        raise ValueError("sl2_bose_map needs a 2-mode bosonic space")
    if space.cutoff < 3:
        raise ValueError("cutoff >= 3 required for meaningful degree-2 checks")
    gens = sln_candidate_map(space, params, ordering="above")
    gens.dressing = "sl(2) symmetric sqrt(y) dressing"
    return gens


def sl2_fermi_map(space: FockSpace, params: DeformParams) -> DeformedGenerators:
    """The explicit Clifford sl(2) map: A+_1 = q^{-n_2} a+_1, A+_2 = a+_2."""
    if space.modes != 2 or space.statistics is not Statistics.FERMI:
        raise ValueError("sl2_fermi_map needs a 2-mode fermionic space")
    if params.sign != CLIFFORD:
        raise ValueError("sl2_fermi_map needs the Clifford sign convention")
    q = params.q_real
    d1 = diag_fn(space, lambda t: q ** (-t[1]))
    one = diag_fn(space, lambda t: 1.0)
    a_ops = [
        LinOp(space, annihilator(space, 1).matrix @ d1.matrix, grade=-1),
        LinOp(space, annihilator(space, 2).matrix @ one.matrix, grade=-1),
    ]
    aplus_ops = [
        LinOp(space, d1.matrix @ creator(space, 1).matrix, grade=+1),
        LinOp(space, one.matrix @ creator(space, 2).matrix, grade=+1),
    ]
    return DeformedGenerators(space, params, a_ops, aplus_ops,
                              dressing="sl(2) fermionic exponential dressing")


def sl2_bose_onesided_map(space: FockSpace, params: DeformParams) -> DeformedGenerators:
    """The previously known one-sided map: all of y sits on the annihilators.

    A+_1 = q^{n_2} a+_1, A+_2 = a+_2,
    A^1  = a^1 ((n_1)_{q^2}/n_1) q^{n_2}, A^2 = a^2 ((n_2)_{q^2}/n_2).
    Not hermitean for real q; related to sl2_bose_map by the inner
    automorphism of sl2_alpha_intertwiner.
    """
    if space.modes != 2 or space.statistics is not Statistics.BOSE:
        raise ValueError("needs a 2-mode bosonic space")
    q = params.q_real
    q2 = q * q

    def ratio(m):
        return 1.0 if m == 0 else qnum(m, q2).real / m

    d_up = diag_fn(space, lambda t: q ** t[1])
    d1 = diag_fn(space, lambda t: ratio(t[0]) * q ** t[1])
    d2 = diag_fn(space, lambda t: ratio(t[1]))
    aplus_ops = [
        LinOp(space, d_up.matrix @ creator(space, 1).matrix, grade=+1),
        LinOp(space, creator(space, 2).matrix, grade=+1),
    ]
    a_ops = [
        LinOp(space, annihilator(space, 1).matrix @ d1.matrix, grade=-1),
        LinOp(space, annihilator(space, 2).matrix @ d2.matrix, grade=-1),
    ]
    return DeformedGenerators(space, params, a_ops, aplus_ops,
                              dressing="sl(2) one-sided dressing (u = y, v = 1)")


def sl2_alpha_intertwiner(space: FockSpace, params: DeformParams) -> LinOp:
    """Diagonal alpha with alpha . sl2_bose_map . alpha^-1 = one-sided map.

    alpha = sqrt(y(n_1) y(n_2)) with y(m) = Gamma(m+1)/Gamma_{q^2}(m+1),
    evaluated by integer recurrences.
    """
    if space.modes != 2 or space.statistics is not Statistics.BOSE:
        raise ValueError("needs a 2-mode bosonic space")
    q = params.q_real
    return diag_fn(space, lambda t: np.sqrt((y_sln(t[0], q) * y_sln(t[1], q)).real))


def inner_automorphism(gens: DeformedGenerators, alpha: LinOp) -> tuple[DeformedGenerators, float]:
    """Conjugate a generator set: A -> alpha A alpha^-1.

    Returns the new set together with the condition number of alpha
    (relations are preserved exactly in exact arithmetic; roundoff can be
    amplified by cond(alpha)).  The guard and the inverse work on a dense
    copy of alpha; the inverse is stored sparse again (a diagonal alpha
    has a diagonal inverse).
    """
    dense = alpha.matrix.toarray()
    cond = float(np.linalg.cond(dense))
    if not np.isfinite(cond) or cond > 1e14:
        raise ValueError(f"alpha numerically singular (cond = {cond:.3e})")
    am, inv = alpha.matrix, sparse.csr_array(np.linalg.inv(dense))
    a_ops = [LinOp(gens.space, am @ a.matrix @ inv, grade=-1) for a in gens.a_ops]
    aplus_ops = [LinOp(gens.space, am @ a.matrix @ inv, grade=+1) for a in gens.aplus_ops]
    out = DeformedGenerators(gens.space, gens.params, a_ops, aplus_ops,
                             dressing=gens.dressing + " (conjugated)")
    return out, cond


def hermiticity_residual(gens: DeformedGenerators, degree: int = 0) -> float:
    """max_i || (A^i)+ - A+_i || on the safe subspace (compact case, real q)."""
    from .verify import projected_norms

    return max(projected_norms(gens.space, a.matrix.conj().T - ap.matrix, degree)[0]
               for a, ap in zip(gens.a_ops, gens.aplus_ops))


def classical_generators(space: FockSpace, params: DeformParams) -> DeformedGenerators:
    """The undeformed generators packaged as a (trivially) deformed set."""
    a_ops = [annihilator(space, i) for i in range(1, space.modes + 1)]
    aplus_ops = [creator(space, i) for i in range(1, space.modes + 1)]
    return DeformedGenerators(space, params, a_ops, aplus_ops, dressing="classical")
