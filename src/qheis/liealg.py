"""Classical sl(N) and so(N) structure data.

Defining representations, the bilinear oscillator (Jordan-Schwinger)
realization sigma, quadratic Casimirs, the invariant two-tensor t, and
the classical adjoint-type action of Lie elements on Fock operators.

Conventions:
  sl(N): basis E_ij (i, j = 1..N) with the traceless constraint
         sum_i E_ii = 0 built into rho(E_ij) = e_ij - delta_ij/N.
         [E_ij, E_hk] = E_ik d_jh - E_hj d_ik.
  so(N): basis L_ij = -L_ji with Cartesian metric c = identity,
         rho(L_ij) = e_ij - e_ji,
         [L_ij, L_hk] = L_ik c_jh + L_kj c_ih - L_hj c_ik - L_ih c_jk.

A Lie element is a basis label (i, j) or a dict {(i, j): coeff}.
Enveloping-algebra elements are handled only through products of
sigma-images; there is no abstract PBW machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy import sparse

from .fock import FockSpace, LinOp, Statistics, annihilator, creator, commutator


@dataclass(frozen=True)
class LieData:
    family: str  # "sl" or "so"
    n: int

    def __post_init__(self):
        if self.family not in ("sl", "so"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.n < 2:
            raise ValueError("need N >= 2")

    @property
    def basis_labels(self) -> list[tuple[int, int]]:
        if self.family == "sl":
            return [(i, j) for i in range(1, self.n + 1) for j in range(1, self.n + 1)]
        return [(i, j) for i in range(1, self.n + 1) for j in range(i + 1, self.n + 1)]


def _label_matrix(data: LieData, i: int, j: int) -> np.ndarray:
    n = data.n
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"label ({i},{j}) outside basis for {data.family}({n})")
    m = np.zeros((n, n), dtype=complex)
    if data.family == "sl":
        m[i - 1, j - 1] += 1.0
        if i == j:
            m -= np.eye(n) / n
    else:
        if i == j:
            raise ValueError("so(N) labels need i != j")
        m[i - 1, j - 1] += 1.0
        m[j - 1, i - 1] -= 1.0
    return m


def rho(data: LieData, x) -> np.ndarray:
    """Defining-representation matrix of a Lie element.

    x is a basis label (i, j) or a dict of labels to coefficients; the
    map is linear in x.
    """
    if isinstance(x, Mapping):
        m = np.zeros((data.n, data.n), dtype=complex)
        for (i, j), c in x.items():
            m += c * _label_matrix(data, i, j)
        return m
    i, j = x
    return _label_matrix(data, i, j)


def sigma(space: FockSpace, data: LieData, x) -> LinOp:
    """Bilinear oscillator realization sigma(x) = rho(x)^i_j a+_i a^j."""
    return LinOp(space, _sigma_basis(space, data, [x])[0], grade=0)


def _sigma_basis(space: FockSpace, data: LieData, elements) -> list[sparse.csr_array]:
    """sigma of each Lie element, building the mode ladders once."""
    if space.modes != data.n:
        raise ValueError(f"space has {space.modes} modes, algebra needs {data.n}")
    ap = [creator(space, i).matrix for i in range(1, data.n + 1)]
    an = [annihilator(space, j).matrix for j in range(1, data.n + 1)]
    out = []
    for x in elements:
        r = rho(data, x)
        m = sparse.csr_array((space.dim, space.dim), dtype=complex)
        for i in range(data.n):
            for j in range(data.n):
                if r[i, j] != 0:
                    m = m + r[i, j] * (ap[i] @ an[j])
        out.append(m)
    return out


def sigma_basis(space: FockSpace, data: LieData) -> dict[tuple[int, int], sparse.csr_array]:
    """sigma on every basis label, as raw sparse matrices (built afresh on
    every call)."""
    labels = data.basis_labels
    return dict(zip(labels, _sigma_basis(space, data, labels)))


def casimir_sigma(space: FockSpace, data: LieData) -> LinOp:
    """Image of the quadratic Casimir under sigma.

    sl(N):  sigma(E_ij E_ji) summed over all i, j; the result is checked
            against the closed diagonal form n(N + s n - s) - n^2/N
            (s = +1 Bose, -1 Fermi), which holds exactly because sigma
            products preserve the number shells.
    so(N):  sigma(L_ij L^ji)/2 with indices raised by c = identity,
            i.e. -sum_{i<j} sigma(L_ij)^2.
    """
    s = sigma_basis(space, data)
    m = sparse.csr_array((space.dim, space.dim), dtype=complex)
    if data.family == "sl":
        for i in range(1, data.n + 1):
            for j in range(1, data.n + 1):
                m = m + s[(i, j)] @ s[(j, i)]
        closed = casimir_sl_closed_form(space, data)
        defect = float(np.abs((m - sparse.diags_array(closed)).data).max(initial=0.0))
        if defect > 1e-10:
            raise AssertionError(f"Casimir closed form violated: {defect:.3e}")
    else:
        for lbl, mat in s.items():
            m = m - mat @ mat
    return LinOp(space, m, grade=0)


def casimir_sl_closed_form(space: FockSpace, data: LieData) -> np.ndarray:
    """Diagonal closed form n(N + s n - s) - n^2/N, s = +1 Bose / -1 Fermi."""
    s = 1.0 if space.statistics is Statistics.BOSE else -1.0
    n = space.total_occupations()
    return n * (data.n + s * n - s) - n**2 / data.n


def t_matrix(data: LieData) -> np.ndarray:
    """The invariant two-tensor t in the defining representation (N^2 x N^2).

    sl(N): t = 2 sum_ij rho(E_ij) x rho(E_ji), which equals
           2 (P - 1/N) with P the permutation matrix.
    so(N): t = sum_ij rho(L_ij) x rho(L^ji) = -2 sum_{i<j} rho(L_ij)^x2.
    It is q-independent and commutes with rho x rho of the coproduct of
    every Lie element.
    """
    n = data.n
    t = np.zeros((n * n, n * n), dtype=complex)
    if data.family == "sl":
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                t += 2.0 * np.kron(rho(data, (i, j)), rho(data, (j, i)))
    else:
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                r = rho(data, (i, j))
                t += -2.0 * np.kron(r, r)
    return t


def permutation_matrix(n: int) -> np.ndarray:
    """The flip P on C^n (x) C^n."""
    p = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            p[j * n + i, i * n + j] = 1.0
    return p


def coproduct_rep(data: LieData, x) -> np.ndarray:
    """(rho x rho) of the coproduct of a Lie element: rho(x) x 1 + 1 x rho(x)."""
    r = rho(data, x)
    eye = np.eye(data.n)
    return np.kron(r, eye) + np.kron(eye, r)


def classical_action(space: FockSpace, data: LieData, x, b: LinOp) -> LinOp:
    """Action of a Lie element on a Fock operator: the commutator [sigma(x), b].

    Only Lie-algebra elements are accepted (labels or linear combinations);
    the extension to general enveloping elements is out of scope.
    """
    sx = sigma(space, data, x)
    return LinOp(space, commutator(sx, b), grade=b.grade)
