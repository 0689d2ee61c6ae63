"""Truncated Fock spaces: the occupation basis and its stored ladders.

The carrier space for everything in this package is a Fock space over N
bosonic or fermionic modes, truncated at a maximum total occupation.
Basis states are occupation tuples (n_1, ..., n_N) in lexicographic
order, so reports are bit-for-bit reproducible.  Every Fock operator is
a complex ``scipy.sparse.csr_array``.  A :class:`FockSpace` is the one
way to reach its objects: the occupation table ``np.array(space.basis)``,
the shells (total occupations) :attr:`FockSpace.shell`, and the N
annihilators and N creators, built once, as the read-only
:attr:`FockSpace.an` and :attr:`FockSpace.ap` (0-based mode index).  A
dressing is an array indexed by occupation, made an operator by
:func:`diag`; a generator, a dressing times a ladder, stores at most one
entry per basis state, so products and sums of generators stay sparse.
The particle-number grade g of an operator X ([n_tot, X] = g X) is not
stored; :func:`grade_defect` measures it.

Direct construction: the ladders, :func:`diag`, 1_n (x) X
(:func:`eye_kron`) and R (x) 1_D (:func:`kron_eye`) are each written as
one ``csr_array`` from index arrays, with no Python loop over the basis
(the ladders find each neighbour state by its mixed-radix key) and
without ``sparse.kron`` or ``sparse.diags_array``, whose fixed cost per
call exceeds the arithmetic on operators of this size.  The checks stack
the N generators of a set as an N D x D column or a D x N D row and
act on the stack with these Kronecker forms, so the number of sparse
operations of a check does not grow with N.

Truncation contract: on a bosonic space an operator identity of
creator-degree d is exact only on the subspace with total occupation
<= cutoff - d; a fermionic space is not truncated, so every identity is
exact on all of it.  :meth:`FockSpace.safe_mask` marks the states of
that subspace; the verification modules measure every residual
restricted to it (``verify.projected_norms``), and each check states
only the creator degree of its identity.  Defects of the truncation are
confined to the discarded top bosonic shells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import product

import numpy as np
from scipy import sparse


class Statistics(Enum):
    BOSE = "bose"
    FERMI = "fermi"


def _bose_basis(modes: int, cutoff: int) -> tuple[tuple[int, ...], ...]:
    states = [t for t in product(range(cutoff + 1), repeat=modes) if sum(t) <= cutoff]
    return tuple(sorted(states))


def _fermi_basis(modes: int) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(product(range(2), repeat=modes)))


@dataclass(frozen=True)
class FockSpace:
    """Occupation-number basis for N modes with a total-occupation cutoff,
    with its mode ladders.

    For fermions the cutoff is forced to N (each mode holds 0 or 1).
    """

    modes: int
    statistics: Statistics
    cutoff: int
    basis: tuple[tuple[int, ...], ...]
    index: dict = field(repr=False, hash=False, compare=False)
    shell: np.ndarray = field(repr=False, hash=False, compare=False)  # n_tot per state
    an: tuple = field(repr=False, hash=False, compare=False)  # a^1 .. a^N
    ap: tuple = field(repr=False, hash=False, compare=False)  # a+_1 .. a+_N

    @property
    def dim(self) -> int:
        return len(self.basis)

    def state_index(self, occ: tuple[int, ...]) -> int:
        return self.index[tuple(occ)]

    def safe_mask(self, degree: int) -> np.ndarray:
        """Basis states on which an identity of creator-degree `degree` is
        exact: total occupation <= cutoff - degree on a bosonic space,
        every state on a fermionic one."""
        if self.statistics is Statistics.FERMI:
            return np.ones(self.dim, dtype=bool)
        return self.shell <= self.cutoff - degree


def build_space(modes: int, statistics: Statistics, cutoff: int | None = None) -> FockSpace:
    """Build a truncated Fock space and its N annihilators and N creators.

    Bose: all occupation tuples with sum <= cutoff, dim = C(N+cutoff, N).
    Fermi: the full hypercube {0,1}^N, dim = 2^N (cutoff ignored).
    """
    if modes < 1:
        raise ValueError("need at least one mode")
    fermi = statistics is Statistics.FERMI
    if fermi:
        basis = _fermi_basis(modes)
        cutoff = modes
    else:
        if cutoff is None or cutoff < 1:
            raise ValueError("bosonic space needs cutoff >= 1")
        basis = _bose_basis(modes, cutoff)
        assert len(basis) == math.comb(modes + cutoff, modes)
    index = {t: k for k, t in enumerate(basis)}
    occ = np.array(basis)
    shell = occ.sum(axis=1)
    shell.flags.writeable = False
    an = tuple(_ladder(occ, cutoff, fermi, k, +1) for k in range(modes))
    ap = tuple(_ladder(occ, cutoff, fermi, k, -1) for k in range(modes))
    return FockSpace(modes, statistics, cutoff, basis, index, shell, an, ap)


def _one_per_row(present: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                 shape: tuple[int, int]) -> sparse.csr_array:
    """The CSR array whose row r holds vals[r] in column cols[r] where
    present[r], and nothing elsewhere, written directly."""
    indptr = np.zeros(shape[0] + 1, dtype=np.int32)
    np.cumsum(present, out=indptr[1:])
    return sparse.csr_array((vals[present].astype(complex), cols[present].astype(np.int32),
                             indptr), shape=shape)


def diag(values: np.ndarray) -> sparse.csr_array:
    """Diagonal CSR array with the given entries, one per basis state; zero
    entries are not stored.  Raises ValueError on a non-finite entry."""
    values = np.asarray(values)
    if not np.isfinite(values).all():
        raise ValueError(f"entry not finite at state {np.argmin(np.isfinite(values))}")
    return _one_per_row(values != 0, np.arange(values.size), values, (values.size,) * 2)


def eye_kron(n: int, x) -> sparse.csr_array:
    """1_n (x) x: n copies of the sparse x down the diagonal, each row
    stored in the order x stores it."""
    x = sparse.csr_array(x)
    nnz, (rows, cols) = x.nnz, x.shape
    copies = np.arange(n)[:, None]
    indptr = np.concatenate([[0], (x.indptr[1:] + nnz * copies).ravel()])
    return sparse.csr_array((np.tile(x.data[:nnz], n), (x.indices[:nnz] + cols * copies).ravel(),
                             indptr), shape=(n * rows, n * cols))


def kron_eye(r: np.ndarray, d: int) -> sparse.csr_array:
    """R (x) 1_d for a numeric matrix R: row (i, s) holds R_ij in column
    (j, s) for each nonzero R_ij, in increasing j."""
    r = np.asarray(r)
    i, j = np.nonzero(r)
    s = np.arange(d)
    rows = (i[:, None] * d + s).ravel()
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(r.shape[0] * d + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=r.shape[0] * d), out=indptr[1:])
    return sparse.csr_array((np.repeat(r[i, j], d)[order].astype(complex),
                             (j[:, None] * d + s).ravel()[order], indptr),
                            shape=(r.shape[0] * d, r.shape[1] * d))


def _ladder(occ: np.ndarray, cutoff: int, fermi: bool, k: int, step: int) -> sparse.csr_array:
    """Read-only mode-(k+1) annihilator (step +1) or creator (step -1).
    Row t holds its one entry in the column of t + step e_k, when that
    state exists.  The basis is in lexicographic order, so the keys
    sum_k n_k (cutoff + 1)^(N-1-k) of its states increase, and
    searchsorted finds each neighbour.  Bose amplitude sqrt(max n_k);
    Fermi: the Jordan-Wigner sign (-1)**(n_1 + ... + n_k), which makes
    the anticommutation relations exact on the full space."""
    dim, modes = occ.shape
    keys = occ @ (cutoff + 1) ** np.arange(modes - 1, -1, -1)
    moved = occ[:, k] + step
    target = keys + step * (cutoff + 1) ** (modes - 1 - k)
    cols = np.minimum(np.searchsorted(keys, target), dim - 1)
    present = (moved >= 0) & (moved <= cutoff) & (keys[cols] == target)
    if fermi:
        vals = np.where(occ[:, :k].sum(axis=1) % 2, -1.0, 1.0)
    else:
        vals = np.sqrt(np.maximum(occ[:, k], moved).astype(float))
    m = _one_per_row(present, cols, vals, (dim, dim))
    for arr in (m.data, m.indices, m.indptr):
        arr.flags.writeable = False
    return m
def grade_defect(space: FockSpace, op, grade: int) -> float:
    """Relative Frobenius norm of [n_tot, X] - g X; zero for an X of grade
    g.  Entry (r, c) of [n_tot, X] is (shell_r - shell_c) X_rc."""
    m = sparse.coo_array(op)
    shell = space.shell
    num = np.linalg.norm((shell[m.row] - shell[m.col] - grade) * m.data)
    den = np.linalg.norm(m.data)
    return float(num / den) if den > 0 else 0.0
