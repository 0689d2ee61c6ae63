"""Classical sl(N) and so(N) structure data.

Defining representations rho, the bilinear oscillator (Jordan-Schwinger)
realization sigma on a Fock space, the flip P on C^N x C^N and the
two-fold coproduct in the defining representation.

Conventions:
  sl(N): basis E_ij (i, j = 1..N) with the traceless constraint
         sum_i E_ii = 0 built into rho(E_ij) = e_ij - delta_ij/N.
         [E_ij, E_hk] = E_ik d_jh - E_hj d_ik.
  so(N): basis L_ij = -L_ji with Cartesian metric c = identity,
         rho(L_ij) = e_ij - e_ji,
         [L_ij, L_hk] = L_ik c_jh + L_kj c_ih - L_hj c_ik - L_ih c_jk.

Lie elements are basis labels (i, j); every map here is taken on the
basis.  Enveloping-algebra elements are handled only through products
of sigma-images; there is no abstract PBW machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .fock import FockSpace, eye_kron, kron_eye


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


def rho(data: LieData, x) -> np.ndarray:
    """Defining-representation matrix of the basis element with label x = (i, j)."""
    i, j = x
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


def sigma_basis(space: FockSpace, data: LieData) -> sparse.csr_array:
    """The bilinear oscillator realization sigma(x) = rho(x)^i_j a+_i a^j
    of every basis label, as one (L D) x D column whose block k is
    sigma(x) for the k-th label of data.basis_labels (built afresh on
    every call).

    Two products, whatever N: the column of the a+_i a^j (block
    j N + i) is (1_N (x) column of the a+_i) times the column of the a^j,
    and the coefficients rho(x)^i_j enter as (C (x) 1_D), row k of C
    holding rho(x_k) at column j N + i.  An entry of sigma(x) sums
    several pairs only on the diagonal, where i = j, so it adds the same
    terms in the same order as the definition, to the last bit."""
    if space.modes != data.n:
        raise ValueError(f"space has {space.modes} modes, algebra needs {data.n}")
    pairs = eye_kron(data.n, sparse.vstack(space.ap, format="csr")) @ \
        sparse.vstack(space.an, format="csr")
    coef = np.array([rho(data, lbl).T.ravel() for lbl in data.basis_labels])
    return kron_eye(coef, space.dim) @ pairs


def permutation_matrix(n: int) -> np.ndarray:
    """The flip P on C^n (x) C^n."""
    p = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            p[j * n + i, i * n + j] = 1.0
    return p


def coproduct_rep(data: LieData, x) -> np.ndarray:
    """(rho x rho) of the coproduct of the basis element x: rho(x) x 1 + 1 x rho(x)."""
    r = rho(data, x)
    eye = np.eye(data.n)
    return np.kron(r, eye) + np.kron(eye, r)

