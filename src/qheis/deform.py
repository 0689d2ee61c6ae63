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
the vacuum and the one-particle states.  Each scalar factor of a
dressing is tabulated on n = 0..cutoff and indexed by the occupation
columns of the basis.  Because the dressings are diagonal functions of
the mode numbers, the removable singularity of (n)_{q^2}/n at n = 0
never reaches a nonzero matrix entry; the value 1 is used there by
convention.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .fock import FockSpace, LadderTable, Statistics, diag, ladder_table
from .qspecial import CLIFFORD, DeformParams, qnum, y_sln


@dataclass
class DeformedGenerators:
    """A set of N deformed annihilators/creators on a Fock space."""

    space: FockSpace
    params: DeformParams
    a_ops: list[sparse.csr_array]       # grade -1
    aplus_ops: list[sparse.csr_array]   # grade +1

    @property
    def n(self) -> int:
        return self.space.modes

    @functools.cached_property
    def ladders(self) -> tuple[LadderTable, LadderTable]:
        """The gather tables of the A^i and of the A+_i, read once from
        the CSR arrays (:func:`fock.ladder_table`).  Raises ValueError
        when a generator is not a dressed ladder."""
        return (ladder_table(self.space, self.a_ops, +1),
                ladder_table(self.space, self.aplus_ops, -1))

    def number_diagonal(self) -> np.ndarray:
        """The diagonal of N_h = sum_i A+_i A^i (grade 0), with the sink's 0
        appended (D + 1 entries).  Entry s adds A+_i[s] A^i[s - e_i] over
        increasing i, the terms and the order of the sparse product of the
        row of the A+_i and the column of the A^i."""
        a, ap = self.ladders
        nh = np.zeros(self.space.dim + 1, dtype=complex)
        for i in range(self.n):
            nh = nh + ap.vals[i] * a.vals[i, ap.cols[i]]
        return nh

    def number_operator(self) -> sparse.csr_array:
        """N_h as a diagonal operator."""
        return diag(self.number_diagonal()[:-1])


def _scaled(op: sparse.csr_array, left=None, right=None) -> sparse.csr_array:
    """diag(left) op diag(right), by scaling the stored entry (r, c) of op
    by left[r] and then by right[c].  Each row of a ladder or a generator
    holds one entry, so this gives the bits of the two products."""
    data = op.data
    if left is not None:
        data = np.repeat(left, np.diff(op.indptr)) * data
    if right is not None:
        data = data * right[op.indices]
    return sparse.csr_array((data.astype(complex), op.indices.copy(), op.indptr.copy()),
                            shape=op.shape)


def _tabulate(f, cutoff: int) -> np.ndarray:
    """f(0), ..., f(cutoff): a scalar factor of a dressing on every
    occupation a mode or a sum of modes can take."""
    return np.array([f(n) for n in range(cutoff + 1)])


def _ratio(q: float, cutoff: int) -> np.ndarray:
    """(n)_{q^2}/n on n = 0..cutoff, with the conventional value 1 at the
    removable n = 0."""
    return _tabulate(lambda n: qnum(n, q * q).real / n if n else 1.0, cutoff)


def _sqrt_ratio(q: float, cutoff: int) -> np.ndarray:
    """sqrt((n)_{q^2}/n) on n = 0..cutoff; raises on a negative ratio."""
    ratio = _ratio(q, cutoff)
    if (ratio < 0).any():
        raise ValueError(f"negative dressing ratio at n={np.argmax(ratio < 0)}, q={q}")
    return np.sqrt(ratio)


def sln_candidate_map(
    space: FockSpace,
    params: DeformParams,
    ordering: str = "above",
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
    q = params.q
    occ = space.occ
    root = _sqrt_ratio(q, space.cutoff)
    power = _tabulate(lambda n: q ** n, space.cutoff)
    a_ops, aplus_ops = [], []
    for k in range(space.modes):
        tail = occ[:, k + 1:] if ordering == "above" else occ[:, :k]
        d = root[occ[:, k]] * power[tail.sum(axis=1)]
        aplus_ops.append(_scaled(space.ap[k], left=d))
        a_ops.append(_scaled(space.an[k], right=d))
    return DeformedGenerators(space, params, a_ops, aplus_ops)


def sl2_bose_map(space: FockSpace, params: DeformParams) -> DeformedGenerators:
    """The explicit symmetric-dressed Weyl sl(2) map (u = 1/v = sqrt(y))."""
    if space.modes != 2 or space.statistics is not Statistics.BOSE:
        raise ValueError("sl2_bose_map needs a 2-mode bosonic space")
    if space.cutoff < 3:
        raise ValueError("cutoff >= 3 required for meaningful degree-2 checks")
    return sln_candidate_map(space, params, ordering="above")


def sl2_fermi_map(space: FockSpace, params: DeformParams) -> DeformedGenerators:
    """The explicit Clifford sl(2) map: A+_1 = q^{-n_2} a+_1, A+_2 = a+_2."""
    if space.modes != 2 or space.statistics is not Statistics.FERMI:
        raise ValueError("sl2_fermi_map needs a 2-mode fermionic space")
    if params.sign != CLIFFORD:
        raise ValueError("sl2_fermi_map needs the Clifford sign convention")
    q = params.q
    n2 = space.occ[:, 1]
    d1 = _tabulate(lambda n: q ** (-n), space.cutoff)[n2]
    a_ops = [_scaled(space.an[0], right=d1), space.an[1]]
    aplus_ops = [_scaled(space.ap[0], left=d1), space.ap[1]]
    return DeformedGenerators(space, params, a_ops, aplus_ops)


def sl2_bose_onesided_map(space: FockSpace, params: DeformParams) -> DeformedGenerators:
    """The previously known one-sided map: all of y sits on the annihilators.

    A+_1 = q^{n_2} a+_1, A+_2 = a+_2,
    A^1  = a^1 ((n_1)_{q^2}/n_1) q^{n_2}, A^2 = a^2 ((n_2)_{q^2}/n_2).
    Not hermitean for real q; related to sl2_bose_map by the inner
    automorphism of sl2_alpha_intertwiner.
    """
    if space.modes != 2 or space.statistics is not Statistics.BOSE:
        raise ValueError("needs a 2-mode bosonic space")
    q = params.q
    n1, n2 = space.occ.T
    ratio = _ratio(q, space.cutoff)
    up = _tabulate(lambda n: q ** n, space.cutoff)[n2]
    aplus_ops = [_scaled(space.ap[0], left=up), space.ap[1]]
    a_ops = [_scaled(space.an[0], right=ratio[n1] * up), _scaled(space.an[1], right=ratio[n2])]
    return DeformedGenerators(space, params, a_ops, aplus_ops)


def sl2_alpha_intertwiner(space: FockSpace, params: DeformParams) -> sparse.csr_array:
    """Diagonal alpha with alpha . sl2_bose_map . alpha^-1 = one-sided map.

    alpha = sqrt(y(n_1) y(n_2)) with y(m) = Gamma(m+1)/Gamma_{q^2}(m+1),
    evaluated by integer recurrences.
    """
    if space.modes != 2 or space.statistics is not Statistics.BOSE:
        raise ValueError("needs a 2-mode bosonic space")
    q = params.q
    n1, n2 = space.occ.T
    y = _tabulate(lambda n: y_sln(n, q).real, space.cutoff)
    return diag(np.sqrt(y[n1] * y[n2]))


def inner_automorphism(gens: DeformedGenerators,
                       alpha: sparse.csr_array) -> tuple[DeformedGenerators, float]:
    """Conjugate a generator set by a diagonal alpha = diag(d): A -> alpha A
    alpha^-1 scales entry (r, c) by d_r/d_c, exact to a few ulps whatever
    the spread of d.  Returns the new set and cond(alpha) = max|d|/min|d|;
    raises ValueError unless alpha is diagonal with finite nonzero d."""
    d = alpha.diagonal()
    if alpha.count_nonzero() > np.count_nonzero(d):
        raise ValueError("alpha must be diagonal")
    mag = np.abs(d)
    cond = float(mag.max() / mag.min()) if mag.min() > 0 else np.inf
    if not np.isfinite(cond):
        raise ValueError(f"alpha has a zero or non-finite diagonal entry "
                         f"(cond = {cond:.3e})")
    inv = 1.0 / d
    out = DeformedGenerators(gens.space, gens.params,
                             [_scaled(a, d, inv) for a in gens.a_ops],
                             [_scaled(ap, d, inv) for ap in gens.aplus_ops])
    return out, cond


def hermiticity_residual(gens: DeformedGenerators) -> float:
    """max_i || (A^i)+ - A+_i || on the whole space (compact case, real q):
    an identity of creator degree 0.  Row t of block i holds
    conj(A^i[t - e_i]) - A+_i[t] in the column of t - e_i, one shift per
    block (``verify.shift_norm``)."""
    from .verify import shift_norm

    a, ap = gens.ladders
    n, d = gens.n, gens.space.dim
    down = gens.space.shift_targets(-np.eye(n, dtype=int))
    return shift_norm(gens.space, np.conj(a.vals[np.arange(n)[:, None], down]) - ap.vals[:, :d],
                      down, 0)


def classical_generators(space: FockSpace, params: DeformParams) -> DeformedGenerators:
    """The undeformed generators packaged as a (trivially) deformed set."""
    return DeformedGenerators(space, params, list(space.an), list(space.ap))
