"""Classical sl(N) and so(N) structure data.

Defining representations rho, the bilinear oscillator (Jordan-Schwinger)
realization sigma on a Fock space (the stored entries of every sigma(x),
read off the ladder tables), the flip P on C^N x C^N and the
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

from .fock import FockSpace, _sum_rows


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


def sigma_entries(space: FockSpace, data: LieData):
    """The bilinear oscillator realization sigma(x) = rho(x)^i_j a+_i a^j
    of every basis label, as its stored entries: flat arrays (label, row,
    col, value), value being entry (row, col) of sigma(x) for x the
    label-th of data.basis_labels.

    a+_i a^j moves each state s by e_j - e_i, so the pairs of one shift
    make one piece of sigma(x), a weighted shift whose row s holds its
    one entry in the column of s + e_j - e_i (``FockSpace.shift_targets``).
    A sl(N) label has one piece (the pairs i = j for a diagonal label), an
    so(N) label has two.  The entries of a piece are gathered from the
    ladder tables and summed in increasing j N + i, the terms and the
    order of the sparse product that stacked the a+_i a^j."""
    if space.modes != data.n:
        raise ValueError(f"space has {space.modes} modes, algebra needs {data.n}")
    n, d = data.n, space.dim
    an, ap = space.an, space.ap
    coef = np.array([rho(data, lbl).T.ravel() for lbl in data.basis_labels])
    label, p = np.nonzero(coef)   # rho(x)^i_j at column p = j N + i
    j, i = divmod(p, n)
    pieces, first, piece = np.unique(label * n * n + np.where(i == j, 0, p),
                                     return_index=True, return_inverse=True)
    sigma = _sum_rows(piece, coef[label, p][:, None]
                      * (ap.vals[i, :d] * an.vals[j[:, None], ap.cols[i, :d]]), pieces.size)
    eye = np.eye(n, dtype=int)
    targets = space.shift_targets(eye[j[first]] - eye[i[first]])
    at, row = np.nonzero(targets < d)
    return pieces[at] // (n * n), row, targets[at, row], sigma[at, row]


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

