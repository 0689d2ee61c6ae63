"""q-deforming maps on truncated Fock spaces, derived from the braid matrix.

A deforming map realizes generators of the q-deformed algebra as
dressed versions of the undeformed creators/annihilators,
A+_i = d_i(n) a+_i and A^i = a^i d_i(n).  Every sl(N) map, Weyl and
Clifford, comes from one derivation (:func:`derive_map`): the eigenvalue
x_i(n) of A+_i A^i follows the diagonal of the (i, i) cross relation,

  x_i(n) = 1 + s sum_h X^{ih}_{ih} x_h(n - e_i),   x_i = 0 where n_i = 0,

with s = +1 (Weyl) on a bosonic and -1 (Clifford) on a fermionic space
(``fock.Statistics.sign``) and X a cross candidate of the relation
matrices, and d_i = sqrt(x_i/n_i).  For the candidate q^s Rhat
this gives x_i = (n_i)_{q^{2s}} q^{2s sum_{j>i} n_j}: for sl(2), Weyl,
A+_1 = sqrt((n_1)_{q^2}/n_1) q^{n_2} a+_1 and A+_2 = sqrt((n_2)_{q^2}/n_2)
a+_2; for sl(2), Clifford, A+_1 = q^{-n_2} a+_1 and A+_2 = a+_2.  The
relation residuals decide which candidate holds; the derivation assumes
none.  Besides, the one-sided Weyl sl(N) map of the earlier literature
(:func:`onesided_map`) and the diagonal alpha that conjugates the
derived Weyl map into it (:func:`alpha_intertwiner`) are written out.

All maps reduce to the identity at q = 1, preserve the grading, and fix
the vacuum and the one-particle states.  The dressings are diagonal
functions of the mode numbers, so a dressing's value at n_i = 0 never
reaches a nonzero matrix entry.

A generator set holds its q, and the A^i and the A+_i as two ladder
tables (``fock.LadderTable``) on the columns of the space's own ladders;
its sign is its space's, so a set cannot disagree with its space.  A map
only scales the tables' values (:func:`_dressed`): every generator is a
dressed ladder by construction, and no map writes a sparse matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .braid import RelationMatrices
from .fock import FockSpace, LadderTable, Statistics
from .qspecial import checked_q, qnum, y_sln


@dataclass
class DeformedGenerators:
    """A set of N deformed annihilators A^i (grade -1) and creators A+_i
    (grade +1) at the deformation parameter q on a Fock space, as the
    ladder tables a and ap; the space's statistics fix the sign s
    (``fock.Statistics.sign``).  Raises ValueError unless q is a real
    number > 0 (stored as a float) and the tables hold the columns of the
    space's own annihilators and creators (the arrays themselves), with
    values of their shape."""

    space: FockSpace
    q: float
    a: LadderTable
    ap: LadderTable

    def __post_init__(self):
        self.q = checked_q(self.q)
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


def derive_map(space: FockSpace, rel: RelationMatrices,
               candidate: str) -> DeformedGenerators:
    """The sl(N) generator set that the cross candidate
    X = rel.cross_candidates(s)[candidate] determines, s = +1 on a bosonic
    and -1 on a fermionic space (module docstring): A+_i = sqrt(x_i/n_i)
    a+_i and A^i its mirror, with x_i(n) the eigenvalue of A+_i A^i from
    the diagonal of the (i, i) cross relation.

    x on shell t reads x on shell t - 1 alone, so one sweep per shell, in
    increasing order, fixes x on every shell; a sweep gathers x only for
    the pairs (i, h) whose X^{ih}_{ih} is not zero.  The root is taken in
    the complex plane: a candidate that the relations reject can give
    x < 0, and its map stays measurable, failing its relations by a
    finite amount.  Raises ValueError unless rel is an sl(N) relation of the
    space's N."""
    if rel.family != "sl" or rel.n != space.modes:
        raise ValueError(f"no sl({space.modes}) map from {rel.family}({rel.n}) relations")
    sign = space.statistics.sign
    n, d = space.modes, space.dim
    diag = sign * np.diag(rel.cross_candidates(sign)[candidate]).reshape(n, n)  # s X^{ih}_{ih}
    # the pairs (i, h) with X^{ih}_{ih} != 0, about half of them; coef[i, p]
    # is pair p's X where i is its row, else 0, and adds exact zeros
    i, h = np.nonzero(diag)
    coef = np.zeros((n, i.size), dtype=diag.dtype)
    coef[i, np.arange(i.size)] = diag[i, h]
    # the states by shell; down[p, s] is the flat index of x_h(s - e_i), the
    # sink's where s - e_i is none
    order = np.argsort(space.shell, kind="stable")
    ends = np.cumsum(np.bincount(space.shell)).tolist()
    down = (h * (d + 1))[:, None] + space.ap.cols[i][:, order]
    occupied = (space.occ.T > 0)[:, order]
    x = np.zeros((n, d + 1), dtype=complex)  # on the states and the sink, where it stays 0
    for first, last in zip(ends[:-1], ends[1:]):  # shells 1, 2, ...
        swept = np.einsum("ip,ps->is", coef, x.take(down[:, first:last]))
        swept += 1
        swept *= occupied[:, first:last]
        x[:, order[first:last]] = swept
    dress = np.sqrt(x[:, :d] / np.maximum(space.occ.T, 1))
    return DeformedGenerators(space, rel.q, _dressed(space.an, right=dress),
                              _dressed(space.ap, left=dress))


def onesided_map(space: FockSpace, q: float) -> DeformedGenerators:
    """The previously known one-sided map, all of y on the annihilators:
    A+_i = q^{m_i} a+_i and A^i = a^i ((n_i)_{q^2}/n_i) q^{m_i}, with
    m_i = sum_{j>i} n_j.  Not hermitean for real q; the derived map
    (candidate "qR", :func:`derive_map`) conjugated by
    :func:`alpha_intertwiner`.  Raises ValueError unless q is a real
    number > 0 and the space is bosonic."""
    q, occ = checked_q(q), _bose_occupations(space)
    above = np.cumsum(occ[::-1], axis=0)[::-1] - occ  # m_i
    up = _tabulate(lambda n: q ** n, space.cutoff)[above]
    return DeformedGenerators(space, q,
                              _dressed(space.an, right=_ratio(q, space.cutoff)[occ] * up),
                              _dressed(space.ap, left=up))


def alpha_intertwiner(space: FockSpace, q: float) -> np.ndarray:
    """The diagonal of the alpha with alpha . (derived map) . alpha^-1 =
    one-sided map, one entry per basis state: alpha = sqrt(prod_i y(n_i)),
    y(m) = Gamma(m+1)/Gamma_{q^2}(m+1) by integer recurrences, multiplied
    over the modes in order.  Raises ValueError unless q is a real number
    > 0 and the space is bosonic."""
    q, occ = checked_q(q), _bose_occupations(space)
    y = _tabulate(lambda n: y_sln(n, q).real, space.cutoff)
    return np.sqrt(np.multiply.reduce(y[occ], axis=0))  # row by row, mode 1 first


def _bose_occupations(space: FockSpace) -> np.ndarray:
    """The N x D occupations of a bosonic space; ValueError on another."""
    if space.statistics is not Statistics.BOSE:
        raise ValueError("needs a bosonic space")
    return space.occ.T


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
    out = DeformedGenerators(gens.space, gens.q, _dressed(gens.a, d, inv),
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
    down = gens.space.ap.cols[:, :d]  # t - e_i, the single steps of the creators
    return shift_norm(gens.space, np.conj(a.vals[np.arange(n)[:, None], down]) - ap.vals[:, :d],
                      down, 0)


def classical_generators(space: FockSpace) -> DeformedGenerators:
    """The undeformed generators: the set at q = 1."""
    return DeformedGenerators(space, 1.0, space.an, space.ap)
