"""Truncated Fock spaces and elementary mode operators.

The carrier space for everything in this package is a Fock space over N
bosonic or fermionic modes, truncated at a maximum total occupation.
Basis states are occupation tuples (n_1, ..., n_N) in lexicographic
order, so reports are bit-for-bit reproducible.  Every operator is a
dense complex matrix wrapped in a :class:`LinOp` which also carries its
particle-number grade g (meaning [n_tot, X] = g X).

Truncation contract: an operator identity of creator-degree d is exact
only on the subspace with total occupation <= cutoff - d
(:meth:`FockSpace.safe_mask`).  The projector onto that subspace is
:func:`safe_projector`, and all residual
computations in the verification modules conjugate by it.  Defects of
the truncation are confined to the discarded top shells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import product
from typing import Callable, Optional

import numpy as np


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
        return np.array([sum(t) for t in self.basis], dtype=float)

    def safe_mask(self, degree: int) -> np.ndarray:
        """Basis states with total occupation <= cutoff - degree."""
        return self.total_occupations() <= self.cutoff - degree

    def _check_mode(self, i: int) -> None:
        if not 1 <= i <= self.modes:
            raise ValueError(f"mode index {i} out of range 1..{self.modes}")


@dataclass
class LinOp:
    """Dense complex operator on a FockSpace, with optional grade.

    grade g means [n_tot, X] = g X, i.e. X is block-off-diagonal between
    total-number eigenspaces with offset g.
    """

    space: FockSpace
    matrix: np.ndarray
    grade: Optional[int] = None

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        d = self.space.dim
        if self.matrix.shape != (d, d):
            raise ValueError(f"matrix shape {self.matrix.shape} != ({d}, {d})")

    @property
    def dag(self) -> "LinOp":
        g = None if self.grade is None else -self.grade
        return LinOp(self.space, self.matrix.conj().T, g)

    def __matmul__(self, other):
        o = other.matrix if isinstance(other, LinOp) else np.asarray(other)
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
    return FockSpace(modes, statistics, cutoff, basis, index)


def annihilator(space: FockSpace, i: int) -> LinOp:
    """Mode-i annihilator (1-based i).

    Bose: lowers n_i with amplitude sqrt(n_i).  Fermi: Jordan-Wigner
    convention with sign (-1)**(n_1 + ... + n_{i-1}), which makes the
    anticommutation relations exact on the full space.
    """
    space._check_mode(i)
    m = np.zeros((space.dim, space.dim), dtype=complex)
    k = i - 1
    for col, t in enumerate(space.basis):
        if t[k] == 0:
            continue
        target = t[:k] + (t[k] - 1,) + t[k + 1:]
        row = space.index[target]
        if space.statistics is Statistics.FERMI:
            m[row, col] = (-1.0) ** sum(t[:k])
        else:
            m[row, col] = math.sqrt(t[k])
    return LinOp(space, m, grade=-1)


def creator(space: FockSpace, i: int) -> LinOp:
    """Mode-i creator: the conjugate transpose of the annihilator."""
    return annihilator(space, i).dag


def number_op(space: FockSpace, i: int) -> LinOp:
    """Diagonal operator n_i."""
    return LinOp(space, np.diag(space.occupations(i)).astype(complex), grade=0)


def total_number(space: FockSpace) -> LinOp:
    """Diagonal operator n = sum_i n_i."""
    return LinOp(space, np.diag(space.total_occupations()).astype(complex), grade=0)


def safe_projector(space: FockSpace, degree: int) -> LinOp:
    """Orthogonal projector onto total occupation <= cutoff - degree.

    Identities of creator-degree `degree` are asserted only after
    conjugation by this projector.
    """
    if degree < 0 or degree > space.cutoff:
        raise ValueError(f"degree {degree} outside 0..{space.cutoff}")
    return LinOp(space, np.diag(space.safe_mask(degree).astype(complex)), grade=0)


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
    return LinOp(space, np.diag(vals), grade=0)


def commutator(x, y) -> np.ndarray:
    a = x.matrix if isinstance(x, LinOp) else x
    b = y.matrix if isinstance(y, LinOp) else y
    return a @ b - b @ a


def anticommutator(x, y) -> np.ndarray:
    a = x.matrix if isinstance(x, LinOp) else x
    b = y.matrix if isinstance(y, LinOp) else y
    return a @ b + b @ a


def grade_defect(op: LinOp) -> float:
    """Relative norm of [n_tot, X] - g X; zero for a correctly graded X."""
    if op.grade is None:
        raise ValueError("operator carries no grade")
    n = total_number(op.space).matrix
    num = np.linalg.norm(commutator(n, op.matrix) - op.grade * op.matrix)
    den = np.linalg.norm(op.matrix)
    return float(num / den) if den > 0 else 0.0
