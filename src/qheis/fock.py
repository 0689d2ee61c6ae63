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
    shell = np.array([sum(t) for t in basis], dtype=int)
    shell.flags.writeable = False
    an = tuple(_ladder(basis, index, fermi, k, +1) for k in range(modes))
    ap = tuple(_ladder(basis, index, fermi, k, -1) for k in range(modes))
    return FockSpace(modes, statistics, cutoff, basis, index, shell, an, ap)


def diag(values: np.ndarray) -> sparse.csr_array:
    """Diagonal CSR array with the given entries, one per basis state; zero
    entries are not stored.  Raises ValueError on a non-finite entry."""
    if not np.isfinite(values).all():
        raise ValueError(f"entry not finite at state {np.argmin(np.isfinite(values))}")
    return sparse.diags_array(values, format="csr", dtype=complex)


def _ladder(basis, index: dict, fermi: bool, k: int, step: int) -> sparse.csr_array:
    """Read-only mode-(k+1) annihilator (step +1) or creator (step -1).
    Row t holds its one entry in the column of t + step e_k, when that
    state exists, so the CSR arrays are written directly.  Bose amplitude
    sqrt(max n_k); Fermi: the Jordan-Wigner sign (-1)**(n_1 + ... + n_k),
    which makes the anticommutation relations exact on the full space."""
    indptr, indices, vals = [0], [], []
    for t in basis:
        other = t[:k] + (t[k] + step,) + t[k + 1:]
        col = index.get(other)
        if col is not None:
            indices.append(col)
            vals.append((-1.0) ** sum(t[:k]) if fermi else math.sqrt(max(t[k], other[k])))
        indptr.append(len(indices))
    m = sparse.csr_array((np.array(vals, dtype=complex), indices, indptr),
                         shape=(len(basis), len(basis)))
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
