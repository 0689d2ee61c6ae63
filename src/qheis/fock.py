"""Truncated Fock spaces and elementary mode operators.

The carrier space for everything in this package is a Fock space over N
bosonic or fermionic modes, truncated at a maximum total occupation.
Basis states are occupation tuples (n_1, ..., n_N) in lexicographic
order, so reports are bit-for-bit reproducible.  Every operator is a
sparse complex CSR array (``scipy.sparse.csr_array``) wrapped in a
:class:`LinOp` which also carries its particle-number grade g (meaning
[n_tot, X] = g X).  Generators are diagonal dressings times ladder
operators, so they store at most one entry per basis state; products
and sums of them stay sparse.  Each state's shell (its total occupation)
is computed once, as :attr:`FockSpace.shell`.

Truncation contract: an operator identity of creator-degree d is exact
only on the subspace with total occupation <= cutoff - d
(:meth:`FockSpace.safe_mask`).  The projector onto that subspace is
:func:`safe_projector`; the verification modules measure every residual
restricted to it (``verify.projected_norms``).  Defects of the
truncation are confined to the discarded top shells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import product
from typing import Callable, Optional

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
    """Occupation-number basis for N modes with a total-occupation cutoff.

    For fermions the cutoff is forced to N (each mode holds 0 or 1).
    """

    modes: int
    statistics: Statistics
    cutoff: int
    basis: tuple[tuple[int, ...], ...]
    index: dict = field(repr=False, hash=False, compare=False)
    shell: np.ndarray = field(repr=False, hash=False, compare=False)  # n_tot per state

    @property
    def dim(self) -> int:
        return len(self.basis)

    def state_index(self, occ: tuple[int, ...]) -> int:
        return self.index[tuple(occ)]

    def occupations(self, i: int) -> np.ndarray:
        """Vector of n_i over the basis (i is 1-based)."""
        self._check_mode(i)
        return np.array([t[i - 1] for t in self.basis], dtype=float)

    def total_occupations(self) -> np.ndarray:
        return self.shell.astype(float)

    def safe_mask(self, degree: int) -> np.ndarray:
        """Basis states with total occupation <= cutoff - degree."""
        return self.shell <= self.cutoff - degree

    def _check_mode(self, i: int) -> None:
        if not 1 <= i <= self.modes:
            raise ValueError(f"mode index {i} out of range 1..{self.modes}")


@dataclass
class LinOp:
    """Sparse complex operator on a FockSpace, with optional grade.

    The matrix is always a complex ``scipy.sparse.csr_array``; any other
    input (dense or another sparse format) is converted on construction.
    grade g means [n_tot, X] = g X, i.e. X is block-off-diagonal between
    total-number eigenspaces with offset g.
    """

    space: FockSpace
    matrix: sparse.csr_array
    grade: Optional[int] = None

    def __post_init__(self):
        self.matrix = sparse.csr_array(self.matrix, dtype=complex)
        d = self.space.dim
        if self.matrix.shape != (d, d):
            raise ValueError(f"matrix shape {self.matrix.shape} != ({d}, {d})")

    @property
    def dag(self) -> "LinOp":
        g = None if self.grade is None else -self.grade
        return LinOp(self.space, self.matrix.conj().T, g)

    def __matmul__(self, other):
        o = other.matrix if isinstance(other, LinOp) else other
        g = None
        if isinstance(other, LinOp) and self.grade is not None and other.grade is not None:
            g = self.grade + other.grade
        return LinOp(self.space, self.matrix @ o, g)

    def __add__(self, other):
        o = other.matrix if isinstance(other, LinOp) else other
        g = self.grade if (isinstance(other, LinOp) and other.grade == self.grade) else None
        return LinOp(self.space, self.matrix + o, g)

    def __sub__(self, other):
        o = other.matrix if isinstance(other, LinOp) else other
        g = self.grade if (isinstance(other, LinOp) and other.grade == self.grade) else None
        return LinOp(self.space, self.matrix - o, g)

    def __rmul__(self, scalar):
        return LinOp(self.space, scalar * self.matrix, self.grade)


def build_space(modes: int, statistics: Statistics, cutoff: int | None = None) -> FockSpace:
    """Build a truncated Fock space.

    Bose: all occupation tuples with sum <= cutoff, dim = C(N+cutoff, N).
    Fermi: the full hypercube {0,1}^N, dim = 2^N (cutoff ignored).
    """
    if modes < 1:
        raise ValueError("need at least one mode")
    if statistics is Statistics.FERMI:
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
    return FockSpace(modes, statistics, cutoff, basis, index, shell)


def _diag(values: np.ndarray) -> sparse.csr_array:
    """Diagonal CSR array; zero diagonal entries are not stored."""
    return sparse.diags_array(values, format="csr", dtype=complex)


def _ladder(space: FockSpace, i: int, step: int, grade: int) -> LinOp:
    """Row t of the mode-i ladder operator holds its one entry in the
    column of t + step e_i (when that state exists), so the CSR arrays
    are written directly, one state at a time."""
    space._check_mode(i)
    k = i - 1
    fermi = space.statistics is Statistics.FERMI
    indptr, indices, vals = [0], [], []
    for t in space.basis:
        other = t[:k] + (t[k] + step,) + t[k + 1:]
        col = space.index.get(other)
        if col is not None:
            indices.append(col)
            vals.append((-1.0) ** sum(t[:k]) if fermi else math.sqrt(max(t[k], other[k])))
        indptr.append(len(indices))
    m = sparse.csr_array((np.array(vals, dtype=complex), indices, indptr),
                         shape=(space.dim, space.dim))
    return LinOp(space, m, grade=grade)


def annihilator(space: FockSpace, i: int) -> LinOp:
    """Mode-i annihilator (1-based i).

    Bose: lowers n_i with amplitude sqrt(n_i).  Fermi: Jordan-Wigner
    convention with sign (-1)**(n_1 + ... + n_{i-1}), which makes the
    anticommutation relations exact on the full space.
    """
    return _ladder(space, i, +1, grade=-1)


def creator(space: FockSpace, i: int) -> LinOp:
    """Mode-i creator: the conjugate transpose of the annihilator."""
    return _ladder(space, i, -1, grade=+1)


def number_op(space: FockSpace, i: int) -> LinOp:
    """Diagonal operator n_i."""
    return LinOp(space, _diag(space.occupations(i)), grade=0)


def total_number(space: FockSpace) -> LinOp:
    """Diagonal operator n = sum_i n_i."""
    return LinOp(space, _diag(space.shell), grade=0)


def safe_projector(space: FockSpace, degree: int) -> LinOp:
    """Orthogonal projector onto total occupation <= cutoff - degree.

    Identities of creator-degree `degree` are asserted only after
    conjugation by this projector.
    """
    if degree < 0 or degree > space.cutoff:
        raise ValueError(f"degree {degree} outside 0..{space.cutoff}")
    return LinOp(space, _diag(space.safe_mask(degree)), grade=0)


def diag_fn(space: FockSpace, f: Callable[[tuple[int, ...]], complex]) -> LinOp:
    """Diagonal operator with entries f(occupation tuple); exact.

    This is the functional calculus used for all invariant dressings.
    Raises if f is undefined or non-finite on any basis state.
    """
    vals = np.empty(space.dim, dtype=complex)
    for k, t in enumerate(space.basis):
        v = complex(f(t))
        if not np.isfinite(v):
            raise ValueError(f"diag_fn value not finite at state {t}")
        vals[k] = v
    return LinOp(space, _diag(vals), grade=0)


def commutator(x, y):
    a = x.matrix if isinstance(x, LinOp) else x
    b = y.matrix if isinstance(y, LinOp) else y
    return a @ b - b @ a


def anticommutator(x, y):
    a = x.matrix if isinstance(x, LinOp) else x
    b = y.matrix if isinstance(y, LinOp) else y
    return a @ b + b @ a


def grade_defect(op: LinOp) -> float:
    """Relative Frobenius norm of [n_tot, X] - g X; zero for a correctly
    graded X.  Entry (r, c) of [n_tot, X] is (shell_r - shell_c) X_rc."""
    if op.grade is None:
        raise ValueError("operator carries no grade")
    m = op.matrix.tocoo()
    shell = op.space.shell
    num = np.linalg.norm((shell[m.row] - shell[m.col] - op.grade) * m.data)
    den = np.linalg.norm(m.data)
    return float(num / den) if den > 0 else 0.0
