"""FRT braid matrices and the relation data for the deformed algebras.

The braid matrix Rhat on C^N (x) C^N is taken in the standard FRT
component conventions and then *validated* rather than trusted: the
constructor checks the Yang-Baxter braid relation, the characteristic
polynomial (Hecke for sl, cubic for so), and the q -> 1 limit, and
raises if any fails.  Conventions here:

  sl(N):  Rhat = q sum_i e_ii x e_ii + sum_{i!=j} e_ji x e_ij
                 + (q - 1/q) sum_{i<j} e_ii x e_jj
          (the normalization factor q^(1/N) relating Rhat to the
          universal construction is already folded in).

  so(N):  the FRT matrix for the B/D series, conjugated mode-by-mode
          into a "Cartesian" basis in which the metric tends to the
          identity as q -> 1.  Eigenvalues q, -1/q, q^(1-N) with
          multiplicities N(N+1)/2 - 1, N(N-1)/2, 1.

The quadratic exchange relations of the deformed generators are encoded
by an annihilating projector (contracted with A x A resp. A+ x A+) and a
cross-relation matrix.  The cross matrix is known only up to the choice
q^s Rhat versus q^s Rhat^(-1) (s = +1 Weyl, -1 Clifford); both
candidates are carried and the residual engine decides empirically
which one the explicit maps satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .liealg import permutation_matrix
from .qspecial import CLIFFORD, WEYL


class BraidConventionError(RuntimeError):
    """Raised when a constructed braid matrix fails its own invariants."""


def _ybe_residual(rhat: np.ndarray, n: int) -> float:
    """|| R12 R23 R12 - R23 R12 R23 || on C^N x C^N x C^N.  The rightmost
    factors are R12 = R x 1 and R23 = 1 x R, with row legs (a, b, c) and
    one column leg; R12 acts on them as matrix products on the rows
    (a, b), batched over c, and R23 on the rows (b, c), batched over a.
    Batched, each product stays below the size at which BLAS starts its
    worker threads."""
    eye = np.eye(n, dtype=complex)

    def r12(x):
        return (rhat @ x.reshape(n * n, n, -1).swapaxes(0, 1)).swapaxes(0, 1).reshape(n**3, -1)

    def r23(x):
        return (rhat @ x.reshape(n, n * n, -1)).reshape(n**3, -1)

    defect = r12(r23(np.kron(rhat, eye))) - r23(r12(np.kron(eye, rhat)))
    return float(np.linalg.norm(defect, 2))


def sl_rhat(n: int, q: float) -> np.ndarray:
    lam = q - 1.0 / q
    m = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            if i == j:
                m[i * n + i, i * n + i] = q
            else:
                # e_ji x e_ij : maps |i j> to |j i>
                m[j * n + i, i * n + j] = 1.0
                if i < j:
                    m[i * n + j, i * n + j] = lam
    return m


def _so_rho_vector(n: int) -> np.ndarray:
    # (N/2 - 1, N/2 - 2, ..., antisymmetric tail), middle entry 0 for odd N
    rho = np.zeros(n)
    for i in range(n // 2):
        rho[i] = n / 2.0 - 1.0 - i
        rho[n - 1 - i] = -rho[i]
    return rho


def so_rhat_frt(n: int, q: float) -> np.ndarray:
    """Braid matrix P.R for so(N) in the FRT (weight) basis."""
    lam = q - 1.0 / q
    rho = _so_rho_vector(n)
    r = np.zeros((n * n, n * n), dtype=complex)

    def put(i, j, k, l, v):
        # e_ij x e_kl contributes v at row (i,k), column (j,l)
        r[i * n + k, j * n + l] += v

    for i in range(n):
        ip = n - 1 - i
        for j in range(n):
            jp = n - 1 - j
            if i == j:
                put(i, i, i, i, q if i != ip else 1.0)
            elif i == jp:
                put(i, i, j, j, 1.0 / q)
            else:
                put(i, i, j, j, 1.0)
    for i in range(n):
        ip = n - 1 - i
        for j in range(n):
            jp = n - 1 - j
            if i > j:
                put(i, j, j, i, lam)
                put(i, j, ip, jp, -lam * q ** (rho[i] - rho[j]))
    return permutation_matrix(n) @ r


def so_metric_frt(n: int, q: float) -> np.ndarray:
    """FRT metric C_ij = q^(-rho_i) delta_{i j'}; self-inverse (C C = 1).

    The sign of the exponent is pinned by the braid matrix itself: the
    rank-one spectral projector of Rhat at eigenvalue q^(1-N) must be
    proportional to C^{ij} C_{kl}, and that selects -rho (checked by
    relation_diagnostics).
    """
    rho = _so_rho_vector(n)
    c = np.zeros((n, n), dtype=complex)
    for i in range(n):
        c[i, n - 1 - i] = q ** (-rho[i])
    return c


def cartesian_transform(n: int) -> np.ndarray:
    """Unitary W with W^T J W = 1 (J the reversal), sending the FRT weight
    basis to coordinates whose classical metric is the identity."""
    w = np.zeros((n, n), dtype=complex)
    for i in range(n // 2):
        ip = n - 1 - i
        w[i, i] = 1.0 / np.sqrt(2.0)
        w[ip, i] = 1.0 / np.sqrt(2.0)
        w[i, ip] = 1j / np.sqrt(2.0)
        w[ip, ip] = -1j / np.sqrt(2.0)
    if n % 2 == 1:
        w[n // 2, n // 2] = 1.0
    return w


@dataclass
class RelationMatrices:
    """Everything the residual engine needs about one (family, N, q, sign)."""

    family: str
    n: int
    q: float
    sign: int
    rhat: np.ndarray
    projectors: list  # [(eigenvalue, projector matrix)]
    annihilating_projector: np.ndarray
    cross_candidates: dict  # name -> matrix; the DCR oracle picks the winner
    metric_lower: np.ndarray | None = None
    metric_upper: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)  # the guard's residuals


def _sl_projectors(rhat: np.ndarray, q: float) -> list:
    eye = np.eye(rhat.shape[0], dtype=complex)
    sym = (rhat + eye / q) / (q + 1.0 / q)
    anti = (q * eye - rhat) / (q + 1.0 / q)
    return [(q, sym), (-1.0 / q, anti)]


def _so_projectors(rhat: np.ndarray, n: int, q: float) -> list:
    dim = rhat.shape[0]
    eye = np.eye(dim, dtype=complex)
    if q == 1.0:
        p = rhat
        anti = (eye - p) / 2.0
        # classical trace projector |delta><delta| / N
        v = np.eye(n, dtype=complex).reshape(-1)
        tracep = np.outer(v, v) / n
        return [(1.0, (eye + p) / 2.0 - tracep), (-1.0, anti), (1.0, tracep)]
    evs = [q, -1.0 / q, q ** (1 - n)]
    projs = []
    for k, lk in enumerate(evs):
        p = eye.copy()
        for j, lj in enumerate(evs):
            if j != k:
                p = p @ (rhat - lj * eye) / (lk - lj)
        projs.append((lk, p))
    return projs


def build_relations(family: str, n: int, q: float, sign: int = WEYL) -> RelationMatrices:
    """Build and validate the relation matrices for one algebra.

    sign selects Weyl (+1) or Clifford (-1); so(N) supports Weyl only.
    q = 1 is allowed and collapses everything to the classical
    permutation matrix.
    """
    if q <= 0:
        raise ValueError("q must be positive")
    if sign not in (WEYL, CLIFFORD):
        raise ValueError("sign must be +1 or -1")
    if family == "so" and sign == CLIFFORD:
        raise ValueError("so(N) is supported for the Weyl sign only")
    if family not in ("sl", "so"):
        raise ValueError(f"unknown family {family!r}")

    metric_lower = metric_upper = None
    eye2 = np.eye(n * n, dtype=complex)

    if family == "sl":
        rhat = sl_rhat(n, q)
        char = np.linalg.norm((rhat - q * eye2) @ (rhat + eye2 / q), 2)
        projectors = _sl_projectors(rhat, q)
        anni = projectors[1][1] if sign == WEYL else projectors[0][1]
    else:
        if q != 1.0:
            w = cartesian_transform(n)
            w2 = np.kron(w, w)
            rhat = np.linalg.inv(w2) @ so_rhat_frt(n, q) @ w2
            c_frt = so_metric_frt(n, q)
            metric_lower = w.T @ c_frt @ w
            metric_upper = np.linalg.inv(metric_lower)
        else:
            rhat = permutation_matrix(n)
            metric_lower = np.eye(n, dtype=complex)
            metric_upper = np.eye(n, dtype=complex)
        char = np.linalg.norm(
            (rhat - q * eye2) @ (rhat + eye2 / q) @ (rhat - q ** (1 - n) * eye2), 2
        )
        projectors = _so_projectors(rhat, n, q)
        anni = projectors[1][1]  # q-antisymmetrizer; the trace part stays free

    ybe = _ybe_residual(rhat, n)
    diagnostics = {"yang_baxter": ybe, "characteristic": float(char)}
    scale = float(np.linalg.norm(rhat, 2))
    if ybe > 1e-9 * max(scale**3, 1.0) or char > 1e-9 * max(scale**3, 1.0):
        raise BraidConventionError(
            f"braid matrix for {family}({n}), q={q} fails its invariants: "
            f"YBE={ybe:.3e}, char={char:.3e}"
        )

    # cross candidates q^sign * Rhat and q^sign * Rhat^(-1); only the DCR
    # oracle can tell which one the explicit maps satisfy
    qs = q ** sign
    cross = {
        "qR": qs * rhat,
        "qR_inv": qs * np.linalg.inv(rhat),
    }

    return RelationMatrices(
        family=family,
        n=n,
        q=q,
        sign=sign,
        rhat=rhat,
        projectors=projectors,
        annihilating_projector=anni,
        cross_candidates=cross,
        metric_lower=metric_lower,
        metric_upper=metric_upper,
        diagnostics=diagnostics,
    )


def relation_diagnostics(rel: RelationMatrices) -> dict:
    """The invariants of the relation matrices beyond the guard of
    build_relations (rel.diagnostics, whose Yang-Baxter and characteristic
    residuals the result repeats): completeness, orthogonality and ranks
    of the spectral projectors, and for so(N) the normalization
    C_lower C_upper = 1 of the metric and, for q != 1, the distance of the
    trace projector from the rank-one tensor C^{ij} C_{kl} / nu."""
    n, projectors = rel.n, rel.projectors
    out = dict(rel.diagnostics)
    tot = sum(p for _, p in projectors)
    out["projector_completeness"] = float(np.linalg.norm(tot - np.eye(n * n), 2))
    ortho = 0.0
    for a, (_, pa) in enumerate(projectors):
        for b, (_, pb) in enumerate(projectors):
            tgt = pa if a == b else 0.0
            ortho = max(ortho, float(np.linalg.norm(pa @ pb - tgt, 2)))
    out["projector_orthogonality"] = ortho
    out["projector_ranks"] = tuple(int(round(np.trace(p).real)) for _, p in projectors)

    if rel.metric_lower is not None:
        out["metric_normalization"] = float(
            np.linalg.norm(rel.metric_lower @ rel.metric_upper - np.eye(n), 2)
        )
        if rel.q != 1.0:
            # the trace projector must be the rank-one C x C tensor
            v = rel.metric_upper.reshape(-1)
            wvec = rel.metric_lower.reshape(-1)
            nu = wvec @ v
            out["trace_projector_vs_metric"] = float(
                np.linalg.norm(projectors[2][1] - np.outer(v, wvec) / nu, 2)
            )
    return out
