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

A generator set holds the A^i and the A+_i as two ladder tables
(``fock.LadderTable``) on the columns of the space's own ladders, and a
map only scales their values (:func:`_dressed`): every generator is a
dressed ladder by construction, and no map writes a sparse matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import FockSpace, LadderTable, Statistics
from .qspecial import CLIFFORD, DeformParams, qnum, y_sln


@dataclass
class DeformedGenerators:
    """A set of N deformed annihilators A^i (grade -1) and creators A+_i
    (grade +1) on a Fock space, as the ladder tables a and ap.  Raises
    ValueError unless the tables hold the columns of the space's own
    annihilators and creators (the arrays themselves), with values of
    their shape."""

    space: FockSpace
    params: DeformParams
    a: LadderTable
    ap: LadderTable

    def __post_init__(self):
        for table, ladder, name in ((self.a, self.space.an, "annihilator"),
                                    (self.ap, self.space.ap, "creator")):
            if table.cols is not ladder.cols or table.vals.shape != ladder.vals.shape:
                raise ValueError(f"the {name} table is not on the columns of the "
                                 f"space's {name}s")

    @property
    def n(self) -> int:
        return self.space.modes

    def number_diagonal(self) -> np.ndarray:
        """The diagonal of N_h = sum_i A+_i A^i (grade 0), with the sink's 0
        appended (D + 1 entries).  Entry s adds A+_i[s] A^i[s - e_i] over
        increasing i, the terms and the order of the sparse product of the
        row of the A+_i and the column of the A^i."""
        a, ap = self.a, self.ap
        nh = np.zeros(self.space.dim + 1, dtype=complex)
        for i in range(self.n):
            nh = nh + ap.vals[i] * a.vals[i, ap.cols[i]]
        return nh


def _dressed(table: LadderTable, left=None, right=None) -> LadderTable:
    """diag(left_i) X_i diag(right_i) for each operator X_i of the table:
    the entry of row s, in column c, is scaled by left[i, s] and then by
    right[i, c].  left and right are N x D, or one D-array for every i;
    a side that is None is not scaled."""
    n, d = table.cols.shape[0], table.cols.shape[1] - 1

    def padded(x):  # the sink column, whose entries are 0 anyway
        return np.column_stack([np.broadcast_to(x, (n, d)), np.zeros(n)])

    vals = table.vals
    if left is not None:
        vals = padded(left) * vals
    if right is not None:
        vals = vals * np.take_along_axis(padded(right), table.cols, axis=1)
    return LadderTable(table.cols, vals)


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
    d = []
    for k in range(space.modes):
        tail = occ[:, k + 1:] if ordering == "above" else occ[:, :k]
        d.append(root[occ[:, k]] * power[tail.sum(axis=1)])
    d = np.array(d)
    return DeformedGenerators(space, params, _dressed(space.an, right=d),
                              _dressed(space.ap, left=d))


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
    d = np.stack([d1, np.ones(space.dim)])
    return DeformedGenerators(space, params, _dressed(space.an, right=d),
                              _dressed(space.ap, left=d))


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
    return DeformedGenerators(space, params,
                              _dressed(space.an, right=np.stack([ratio[n1] * up, ratio[n2]])),
                              _dressed(space.ap, left=np.stack([up, np.ones(space.dim)])))


def sl2_alpha_intertwiner(space: FockSpace, params: DeformParams) -> np.ndarray:
    """The diagonal of the alpha with alpha . sl2_bose_map . alpha^-1 =
    one-sided map, one entry per basis state.

    alpha = sqrt(y(n_1) y(n_2)) with y(m) = Gamma(m+1)/Gamma_{q^2}(m+1),
    evaluated by integer recurrences.
    """
    if space.modes != 2 or space.statistics is not Statistics.BOSE:
        raise ValueError("needs a 2-mode bosonic space")
    q = params.q
    n1, n2 = space.occ.T
    y = _tabulate(lambda n: y_sln(n, q).real, space.cutoff)
    return np.sqrt(y[n1] * y[n2])


def inner_automorphism(gens: DeformedGenerators,
                       d: np.ndarray) -> tuple[DeformedGenerators, float]:
    """Conjugate a generator set by alpha = diag(d), d one entry per basis
    state: A -> alpha A alpha^-1 scales entry (r, c) by d_r/d_c, exact to a
    few ulps whatever the spread of d.  Returns the new set and
    cond(alpha) = max|d|/min|d|; raises ValueError unless every d is
    finite and nonzero."""
    mag = np.abs(d)
    cond = float(mag.max() / mag.min()) if mag.min() > 0 else np.inf
    if not np.isfinite(cond):
        raise ValueError(f"alpha has a zero or non-finite diagonal entry "
                         f"(cond = {cond:.3e})")
    inv = 1.0 / d
    out = DeformedGenerators(gens.space, gens.params, _dressed(gens.a, d, inv),
                             _dressed(gens.ap, d, inv))
    return out, cond


def hermiticity_residual(gens: DeformedGenerators) -> float:
    """max_i || (A^i)+ - A+_i || on the whole space (compact case, real q):
    an identity of creator degree 0.  Row t of block i holds
    conj(A^i[t - e_i]) - A+_i[t] in the column of t - e_i, one shift per
    block (``verify.shift_norm``)."""
    from .verify import shift_norm

    a, ap = gens.a, gens.ap
    n, d = gens.n, gens.space.dim
    down = gens.space.shift_targets(-np.eye(n, dtype=int))
    return shift_norm(gens.space, np.conj(a.vals[np.arange(n)[:, None], down]) - ap.vals[:, :d],
                      down, 0)


def classical_generators(space: FockSpace, params: DeformParams) -> DeformedGenerators:
    """The undeformed generators packaged as a (trivially) deformed set."""
    return DeformedGenerators(space, params, space.an, space.ap)
