"""Truncated Fock spaces: the occupation basis and its stored ladders.

The carrier space for everything in this package is a Fock space over N
bosonic or fermionic modes, truncated at a maximum total occupation.
Basis states are occupation tuples (n_1, ..., n_N) in lexicographic
order, so reports are bit-for-bit reproducible.  Every Fock operator is
a complex ``scipy.sparse.csr_array``.  A :class:`FockSpace` is the one
way to reach its objects: the read-only occupation table
:attr:`FockSpace.occ` (D x N, one row per basis state), the shells
(total occupations) :attr:`FockSpace.shell`, the state s + v that a
shift v reaches from each s (:meth:`FockSpace.shift_targets`), and the N
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
(the ladders find each neighbour state by its mixed-radix key, and the
bosonic basis is built only from the states that exist) and
without ``sparse.kron`` or ``sparse.diags_array``, whose fixed cost per
call exceeds the arithmetic on operators of this size.  The checks stack
the N generators of a set as an N D x D column or a D x N D row and
act on the stack with these Kronecker forms, so the number of sparse
operations of a check does not grow with N; the checks of the dressed
sl(N) generators make none at all (``verify``).

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


def _bose_basis(modes: int, cutoff: int) -> tuple[tuple[int, ...], ...]:
    """The occupation tuples with sum <= cutoff in lexicographic order, one
    mode at a time: each prefix, in order, is followed by every value its
    remaining budget allows, in increasing order, so only the states that
    exist are ever built."""
    prefixes = np.zeros((1, 0), dtype=int)
    for _ in range(modes):
        room = cutoff - prefixes.sum(axis=1) + 1
        first = np.cumsum(room) - room
        values = np.arange(room.sum()) - np.repeat(first, room)
        prefixes = np.column_stack([np.repeat(prefixes, room, axis=0), values])
    return tuple(map(tuple, prefixes.tolist()))


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
    occ: np.ndarray = field(repr=False, hash=False, compare=False)  # D x N occupations
    shell: np.ndarray = field(repr=False, hash=False, compare=False)  # n_tot per state
    unit_steps: np.ndarray = field(repr=False, hash=False, compare=False)  # s -+ e_k per mode
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

    def shift_targets(self, shifts) -> np.ndarray:
        """The state s + v for every basis state s and every row v of the
        integer S x N array shifts, as an S x D array of state indices that
        holds D where s + v is not a state of the space.

        Each target is reached by single steps s -> s -+ e_k, lowering
        first (:attr:`unit_steps`, found by mixed-radix keys).  Lowering
        first, every occupation moves monotonically from that of s to that
        of s + v, and the total never exceeds the larger of their totals,
        so every state on the way exists whenever s + v does: the target
        is there whether or not a product of dressed ladders reaches it."""
        shifts = np.asarray(shifts)
        targets = np.tile(np.arange(self.dim), (len(shifts), 1))
        for steps, count in zip(self.unit_steps, (-shifts, shifts)):
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
    steps = _unit_steps(occ, cutoff)
    for arr in (occ, shell, steps):
        arr.flags.writeable = False
    an = tuple(_ladder(occ, steps[1, k], fermi, k, +1) for k in range(modes))
    ap = tuple(_ladder(occ, steps[0, k], fermi, k, -1) for k in range(modes))
    return FockSpace(modes, statistics, cutoff, basis, index, occ, shell, steps, an, ap)


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


def _ladder(occ: np.ndarray, cols: np.ndarray, fermi: bool, k: int,
            step: int) -> sparse.csr_array:
    """Read-only mode-(k+1) annihilator (step +1) or creator (step -1).
    Row t holds its one entry in the column of t + step e_k, cols[t] from
    :func:`_unit_steps`, when that state exists.  Bose amplitude
    sqrt(max n_k); Fermi: the Jordan-Wigner sign (-1)**(n_1 + ... + n_k),
    which makes the anticommutation relations exact on the full space."""
    dim = occ.shape[0]
    cols = cols[:dim]
    if fermi:
        vals = np.where(occ[:, :k].sum(axis=1) % 2, -1.0, 1.0)
    else:
        vals = np.sqrt(np.maximum(occ[:, k], occ[:, k] + step).astype(float))
    m = _one_per_row(cols < dim, cols, vals, (dim, dim))
    for arr in (m.data, m.indices, m.indptr):
        arr.flags.writeable = False
    return m


class LadderTable(NamedTuple):
    """N operators that store at most one entry per row, as gather tables:
    row s of operator i holds vals[i, s] in column cols[i, s].  Both have
    D + 1 columns.  A row with no entry, and the appended sink row D,
    hold column D and value 0, so a chain of gathers needs no mask: row s
    of the product of operators l and k holds vals[l, s] vals[k, c] in
    column cols[k, c], c = cols[l, s]."""

    cols: np.ndarray
    vals: np.ndarray


def ladder_table(space: FockSpace, ops, step: int) -> LadderTable:
    """The gather tables of the N dressed ladders ops, read once from
    their CSR arrays.  Raises ValueError unless each op stores at most one
    entry per row, and stores a nonzero entry of row s of op i only in the
    column of s + step e_i (step +1 for annihilators, -1 for creators)."""
    n, d = len(ops), space.dim
    ops = [op if op.format == "csr" else sparse.csr_array(op) for op in ops]
    stored = np.diff(np.array([op.indptr for op in ops]), axis=1)
    if stored.max(initial=0) > 1:
        i, r = np.unravel_index(np.argmax(stored), stored.shape)
        raise ValueError(f"operator {i + 1} stores {stored[i, r]} entries in row {r}; "
                         f"a dressed ladder stores at most one")
    # one entry per row at most, so the stored entries are in row order
    present = stored == 1
    cols = np.full((n, d + 1), d)
    vals = np.zeros((n, d + 1), dtype=complex)
    cols[:, :d][present] = np.concatenate([op.indices[:op.nnz] for op in ops])
    vals[:, :d][present] = np.concatenate([op.data[:op.nnz] for op in ops])
    expected = space.unit_steps[(step + 1) // 2, :, :d]
    off = present & (cols[:, :d] != expected) & (vals[:, :d] != 0)
    if off.any():
        i = np.argmax(off.any(axis=1)) + 1
        raise ValueError(f"operator {i} is not a dressed ladder: it stores an entry off "
                         f"the shift {step:+d} e_{i}")
    return LadderTable(cols, vals)


def grade_defect(space: FockSpace, op, grade: int) -> float:
    """Relative Frobenius norm of [n_tot, X] - g X; zero for an X of grade
    g.  Entry (r, c) of [n_tot, X] is (shell_r - shell_c) X_rc."""
    m = sparse.coo_array(op)
    shell = space.shell
    num = np.linalg.norm((shell[m.row] - shell[m.col] - grade) * m.data)
    den = np.linalg.norm(m.data)
    return float(num / den) if den > 0 else 0.0
