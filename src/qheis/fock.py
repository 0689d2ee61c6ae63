"""Truncated Fock spaces: the occupation basis and its ladder tables.

The carrier space for everything in this package is a Fock space over N
bosonic or fermionic modes, truncated at a maximum total occupation.
Basis states are occupation tuples (n_1, ..., n_N) in lexicographic
order, so reports are bit-for-bit reproducible.  A :class:`FockSpace` is
the one way to reach its objects: the read-only occupation table
:attr:`FockSpace.occ` (D x N, one row per basis state), the shells
(total occupations) :attr:`FockSpace.shell`, the state s + v that a
shift v reaches from each s (:meth:`FockSpace.shift_targets`), and the N
annihilators and N creators, built once, as the read-only
:attr:`FockSpace.an` and :attr:`FockSpace.ap` (0-based mode index).

Stored form: a ladder, and a generator that dresses it (``deform``),
stores at most one entry per basis state, so it is stored as a
:class:`LadderTable`, the column and the value of each row's entry, on
which the checks of dressed generators gather and add (``verify``).
Where a check needs a sparse product, the N operators of a table are
written on demand as one complex ``scipy.sparse.csr_array``: the
N D x D column (:func:`column`) or the D x N D row (:func:`row`).  A
dressing is an array indexed by occupation, made an operator by
:func:`diag`.  The particle-number grade g of an operator X
([n_tot, X] = g X) is not stored; :func:`grade_defect` measures it.

Direct construction: the tables, :func:`column`, :func:`row`,
:func:`diag`, 1_n (x) X (:func:`eye_kron`) and R (x) 1_D
(:func:`kron_eye`) are written from index arrays, with no Python loop
over the basis (each neighbour state is found by its mixed-radix key,
and the bosonic basis is built only from the states that exist) and
without ``sparse.kron`` or ``sparse.diags_array``, whose fixed cost per
call exceeds the arithmetic on operators of this size.  The sparse
checks act on a stacked column or row with these Kronecker forms, so
their number of sparse operations does not grow with N.

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
from typing import NamedTuple

import numpy as np
from scipy import sparse


class Statistics(Enum):
    BOSE = "bose"
    FERMI = "fermi"


def _bose_basis(modes: int, cutoff: int) -> np.ndarray:
    """The occupation rows with sum <= cutoff in lexicographic order, one
    mode at a time: each prefix, in order, is followed by every value its
    remaining budget allows, in increasing order, so only the states that
    exist are ever built."""
    prefixes = np.zeros((1, 0), dtype=int)
    for _ in range(modes):
        room = cutoff - prefixes.sum(axis=1) + 1
        first = np.cumsum(room) - room
        values = np.arange(room.sum()) - np.repeat(first, room)
        prefixes = np.column_stack([np.repeat(prefixes, room, axis=0), values])
    return prefixes


def _fermi_basis(modes: int) -> np.ndarray:
    return np.array(list(product(range(2), repeat=modes)), dtype=int)


class LadderTable(NamedTuple):
    """N operators that store at most one entry per row, as gather tables:
    row s of operator i holds vals[i, s] in column cols[i, s].  Both have
    D + 1 columns.  A row with no entry, and the appended sink row D,
    hold column D and value 0, so a chain of gathers needs no mask: row s
    of the product of operators l and k holds vals[l, s] vals[k, c] in
    column cols[k, c], c = cols[l, s]."""

    cols: np.ndarray
    vals: np.ndarray


@dataclass(frozen=True)
class FockSpace:
    """Occupation-number basis for N modes with a total-occupation cutoff,
    with its mode ladders.  (modes, statistics, cutoff) fix the space, so
    they alone are compared.

    For fermions the cutoff is forced to N (each mode holds 0 or 1).
    """

    modes: int
    statistics: Statistics
    cutoff: int
    occ: np.ndarray = field(repr=False, compare=False)  # D x N occupations
    shell: np.ndarray = field(repr=False, compare=False)  # n_tot per state
    an: LadderTable = field(repr=False, compare=False)  # a^1 .. a^N
    ap: LadderTable = field(repr=False, compare=False)  # a+_1 .. a+_N

    @property
    def dim(self) -> int:
        return self.occ.shape[0]

    def state_index(self, occ) -> int:
        """The index of the basis state with occupations occ; KeyError when
        it is not a state of the space."""
        hit = np.flatnonzero((self.occ == np.asarray(occ)).all(axis=1))
        if hit.size == 0:
            raise KeyError(tuple(occ))
        return int(hit[0])

    def safe_mask(self, degree: int) -> np.ndarray:
        """Basis states on which an identity of creator-degree `degree` is
        exact: total occupation <= cutoff - degree on a bosonic space,
        every state on a fermionic one."""
        if self.statistics is Statistics.FERMI:
            return np.ones(self.dim, dtype=bool)
        return self.shell <= self.cutoff - degree

    def shift_targets(self, shifts) -> np.ndarray:
        """The state s + v for every basis state s and every row v of the
        integer S x N array shifts, as an S x D array of state indices that
        holds D where s + v is not a state of the space.

        Each target is reached by single steps s -> s -+ e_k, lowering
        first (the columns of the creators, then of the annihilators).
        Lowering first, every occupation moves monotonically from that of
        s to that of s + v, and the total never exceeds the larger of
        their totals, so every state on the way exists whenever s + v
        does: the target is there whether or not a product of dressed
        ladders reaches it."""
        shifts = np.asarray(shifts)
        targets = np.tile(np.arange(self.dim), (len(shifts), 1))
        for steps, count in ((self.ap.cols, -shifts), (self.an.cols, shifts)):
            for k in range(self.modes):
                for r in range(count[:, k].max(initial=0)):
                    move = count[:, k] > r
                    targets[move] = steps[k, targets[move]]
        return targets


def build_space(modes: int, statistics: Statistics, cutoff: int | None = None) -> FockSpace:
    """Build a truncated Fock space and its N annihilators and N creators.

    Bose: all occupation tuples with sum <= cutoff, dim = C(N+cutoff, N).
    Fermi: the full hypercube {0,1}^N, dim = 2^N (cutoff ignored).
    """
    if modes < 1:
        raise ValueError("need at least one mode")
    fermi = statistics is Statistics.FERMI
    if fermi:
        occ = _fermi_basis(modes)
        cutoff = modes
    else:
        if cutoff is None or cutoff < 1:
            raise ValueError("bosonic space needs cutoff >= 1")
        occ = _bose_basis(modes, cutoff)
        assert len(occ) == math.comb(modes + cutoff, modes)
    shell = occ.sum(axis=1)
    an, ap = _ladders(occ, _unit_steps(occ, cutoff), fermi)
    for arr in (occ, shell, *an, *ap):
        arr.flags.writeable = False
    return FockSpace(modes, statistics, cutoff, occ, shell, an, ap)


def _unit_steps(occ: np.ndarray, cutoff: int) -> np.ndarray:
    """The 2 x N x (D + 1) table of single steps: [0, k, s] is the state
    s - e_k and [1, k, s] the state s + e_k, D where that state does not
    exist, and the sink D maps to itself.  The basis is in lexicographic
    order, so the keys sum_k n_k (cutoff + 1)^(N-1-k) of its states
    increase and searchsorted finds each neighbour; a step is kept when
    the moved occupation lies in 0..cutoff (else its key could name
    another state) and its key is a state's."""
    dim, modes = occ.shape
    radix = (cutoff + 1) ** np.arange(modes - 1, -1, -1)
    keys = (occ * radix).sum(axis=1)
    target = keys + np.concatenate([-radix, radix])[:, None]
    moved = np.concatenate([occ.T - 1, occ.T + 1])
    cols = np.minimum(np.searchsorted(keys, target), dim - 1)
    steps = np.where((moved >= 0) & (moved <= cutoff) & (keys[cols] == target), cols, dim)
    return np.column_stack([steps, np.full(2 * modes, dim)]).reshape(2, modes, dim + 1)


def _ladders(occ: np.ndarray, steps: np.ndarray,
             fermi: bool) -> tuple[LadderTable, LadderTable]:
    """The tables of the N annihilators and of the N creators.  Row t of
    a^k holds its one entry in the column of t + e_k, and row t of a+_k in
    that of t - e_k (the steps of :func:`_unit_steps`), when that state
    exists.  Bose amplitudes sqrt(n_k + 1) and sqrt(n_k); Fermi: the
    Jordan-Wigner sign (-1)**(n_1 + ... + n_{k-1}) of the modes before k,
    which makes the anticommutation relations exact on the full space."""
    dim = occ.shape[0]
    sign = np.where((np.cumsum(occ, axis=1) - occ) % 2, -1.0, 1.0)
    tables = []
    for cols, step in ((steps[1], +1), (steps[0], -1)):
        amp = sign if fermi else np.sqrt(np.maximum(occ, occ + step).astype(float))
        vals = np.zeros(cols.shape, dtype=complex)
        vals[:, :dim] = np.where(cols[:, :dim] < dim, amp.T, 0.0)
        tables.append(LadderTable(cols, vals))
    return tables[0], tables[1]


def _stored(present: np.ndarray, cols: np.ndarray, vals: np.ndarray,
            shape: tuple[int, int]) -> sparse.csr_array:
    """The CSR array whose row r stores vals[r, e] in column cols[r, e] for
    each e with present[r, e], in increasing e (R x E arrays, R rows),
    written directly."""
    indptr = np.zeros(shape[0] + 1, dtype=np.int32)
    np.cumsum(present.sum(axis=1), out=indptr[1:])
    return sparse.csr_array((vals[present].astype(complex), cols[present].astype(np.int32),
                             indptr), shape=shape)


def column(table: LadderTable) -> sparse.csr_array:
    """The N D x D column whose block i is operator i of the table, with
    every entry of a row that has one stored, also one of value 0."""
    n, d = table.cols.shape[0], table.cols.shape[1] - 1
    cols = table.cols[:, :d].reshape(-1, 1)
    return _stored(cols < d, cols, table.vals[:, :d].reshape(-1, 1), (n * d, d))


def row(table: LadderTable) -> sparse.csr_array:
    """The D x N D row whose block i is operator i of the table: row s
    stores the entries of the N operators in increasing i."""
    n, d = table.cols.shape[0], table.cols.shape[1] - 1
    cols = table.cols[:, :d].T
    return _stored(cols < d, cols + d * np.arange(n), table.vals[:, :d].T, (d, n * d))


def diag(values: np.ndarray) -> sparse.csr_array:
    """Diagonal CSR array with the given entries, one per basis state; zero
    entries are not stored.  Raises ValueError on a non-finite entry."""
    values = np.asarray(values)
    if not np.isfinite(values).all():
        raise ValueError(f"entry not finite at state {np.argmin(np.isfinite(values))}")
    return _stored((values != 0)[:, None], np.arange(values.size)[:, None], values[:, None],
                   (values.size,) * 2)


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


def _sum_rows(rows: np.ndarray, terms: np.ndarray, size: int) -> np.ndarray:
    """out[r] = the sum of the terms[e] with rows[e] == r, added from 0 in
    the order of e (np.add.at on the flat index adds one at a time): the
    entries of a sum of products of ladder tables, in the order a sparse
    product adds them."""
    d = terms.shape[1]
    out = np.zeros(size * d, dtype=complex)
    np.add.at(out, (rows[:, None] * d + np.arange(d)).ravel(), terms.ravel())
    return out.reshape(size, d)


def grade_defect(space: FockSpace, table: LadderTable, grade: int) -> float:
    """The largest relative Frobenius norm of [n_tot, X] - g X over the
    operators X of the table; zero when each has grade g.  Entry (r, c) of
    [n_tot, X] is (shell_r - shell_c) X_rc, over the stored entries."""
    d = space.dim
    worst = 0.0
    for cols, vals in zip(table.cols[:, :d], table.vals[:, :d]):
        rows = np.flatnonzero(cols < d)
        data = vals[rows]
        num = np.linalg.norm((space.shell[rows] - space.shell[cols[rows]] - grade) * data)
        den = np.linalg.norm(data)
        worst = max(worst, float(num / den) if den > 0 else 0.0)
    return worst
