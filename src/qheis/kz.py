"""Reduced Knizhnik-Zamolodchikov machinery: the scalar three-function
system, its hypergeometric closed forms and x -> 0 limits, and the
coassociator matrix M as the connection matrix of the operator KZ
equation's two normalized Frobenius solutions.

Scalar side.  With s = +-1 (Weyl/Clifford) and eta := 2*hbar the system

    f1' = eta [  s (1/(1-x) + (n-1)/x) f1 - f2/x ]
    f2' = eta [  f1/(1-x) - s ((n-1)/(1-x) + 1/x) f2 ]
    f3' = eta [ -s f1/(1-x) + f2/x - s (1/(1-x) - 1/x)(n-1) f3 ]

is integrated from x = 1-eps (seeded with the expansion of the closed
forms below at 1-x, see integrate_scalar; f2 ~ (1-x)^(s eta (n-1)),
f1, f3 -> 0) down to small x.  The combination f1 + s f2 + (n+1) f3
equals s [x(1-x)]^(s eta (n-1)) exactly, f1/f2 satisfies a Riccati
equation, and the closed forms are

    f2 = x^(-s eta) (1-x)^(s eta (n-1)) F(s eta, -s eta, 1 + s eta n; 1-x)
    f1 = (eta/(1 + s eta n)) F(1+s eta, 1-s eta, 2+s eta n; 1-x)
         x^(-s eta) (1-x)^(1 + s eta (n-1))
    f3 = (s [x(1-x)]^(s eta (n-1)) - f1 - s f2) / (n+1).

The limits of the rescaled combinations as x -> 0 are

    l1 = lim x^(-s eta (n-1)) (n f1 - s f2)          = -s n / [n]_q
    l3 = lim x^(-s eta (n-1)) (f1 + s f2 + (n+1) f3) = s
    l2 = lim x^(-s eta (n-1)) (n f3 + s f2)          = (n l3 - l1)/(n+1)
                                                     = s (n/(n+1)) (1 + 1/[n]_q)

with [n]_q = sin(pi n eta)/sin(pi eta) (q = e^h, eta = h/(pi i)).  The
l1 coefficient follows from the connection-formula asymptotics
(the surviving term of n f1 - s f2 is n eta Gamma(1+s eta n)
Gamma(-s eta n) / (Gamma(1+s eta) Gamma(1-s eta)) = -s n/[n]_q), and l2
is the exact consequence of l1 and l3.  Both numerical routes (closed
forms, trajectory) are checked against these expressions.

Operator side.  On C^N x C^N x Fock with P the permutation matrix and
A = 1 x e_ij x a+_j a^i, the coassociator matrix is

    M = lim_{x0,y0 -> 0} x0^(-eta P) OrdExp[ eta int (P/x + A/(x-1)) dx ]
        y0^(eta A),

the connection matrix M = Y0^-1 Y1 of the solutions Y0 = H0(x) x^(eta P)
and Y1 = H1(1-x) (1-x)^(eta A) of Y' = eta (P/x + A/(x-1)) Y normalized
at x = 0 and x = 1 (Drinfeld 1990; Le-Murakami 1996).  H0 and H1 are
power series with constant term 1 whose coefficients follow from a
linear recursion; both converge at x = 1/2 in about 50 terms, so M
needs no integrator (coassociator_matrix).  P and A both conserve the
sl(N) weight e_a + e_b + occ of a basis vector (a, b, occ), so P, A,
both series and M are block diagonal over the weights, and no block is
larger than N^2.  The blocks of one size are stacked into an
(n_blocks, s, s) array, and each series is summed in the eigenbasis of
its P or A blocks (one batched eigh per stack at construction).  M is
returned as its weight blocks (WeightBlocks), and every check works on
them: norms of a block-diagonal operator are the largest block norm (a
direct sum), inverses and conjugations go block by block, and
contractions with Fock operators use the blocks as the stored entries
of a sparse matrix.

M = 1 + zeta(2) eta^2 [P, A] + O(h^3), acts trivially on the
doubly-contravariant tensor a^i a^j, commutes with the image of the
two-fold coproduct, and conjugates the numeric matrices U = P and
V = q^s P q^P into the matrices governing the deformed exchange
relations of the dressed generators a~^i = a^i, a~+_i = a+_i I~(n),
I~(n) = (n+1)_{q^(2s)} / (n+1): the paper's family a~^i = I(n) a^i,
I~(n) = (n+1)_{q^(2s)} / ((n+1) I(n)) at I = 1.

The scalar system is integrated in the logistic coordinate
t = log(x/(1-x)).  There dx/dt = x(1-x) cancels the simple poles at
x = 0 and x = 1, so one solve covers (0, 1) and the step count is
independent of eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp
from scipy.linalg import expm  # noqa: F401  (the benchmark tracer wraps kz.expm)

from .fock import FockSpace, Statistics
from .liealg import coproduct_rep, permutation_matrix, sigma_basis
from .qspecial import DeformParams, gamma, gauss_2f1, gauss_2f1_deriv, qnum, rgamma
from .verify import CaseResult, direct_sum_norms, projected_norms, quadratic_residual_matrices


class IntegrationError(RuntimeError):
    pass


EPS_RANGE = (1e-8, 1e-3)  # the endpoint regularization distances the KZ checks accept


def check_eps(eps: float) -> None:
    """Raise ValueError unless eps lies in EPS_RANGE."""
    lo, hi = EPS_RANGE
    if not lo <= eps <= hi:
        raise ValueError(f"eps must lie in [{lo:g}, {hi:g}]")


@dataclass(frozen=True)
class KZScalarParams:
    """Scalar-system parameters: the number eigenvalue n (>= 1), the
    doubled deformation parameter eta = 2*hbar, the Weyl/Clifford sign,
    and the endpoint regularization distance."""

    n: float
    hbar2: complex
    sign: int
    eps: float = 1e-8

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")
        if abs(self.hbar2) > 0.2:
            raise ValueError("|hbar2| <= 0.2 required (perturbative regime)")
        check_eps(self.eps)


def qbracket_of_eta(n: float, hbar2: complex) -> complex:
    """[n]_q for q = exp(pi i eta): sin(pi n eta)/sin(pi eta)."""
    if hbar2 == 0:
        return complex(n)
    return np.sin(np.pi * n * hbar2) / np.sin(np.pi * hbar2)


def limits_reference(params: KZScalarParams) -> tuple[complex, complex, complex]:
    """The closed expressions for (l1, l2, l3)."""
    s = params.sign
    l1 = -s * params.n / qbracket_of_eta(params.n, params.hbar2)
    l3 = complex(s)
    l2 = (params.n * l3 - l1) / (params.n + 1.0)
    return l1, l2, l3


# ---------------------------------------------------------------------------
# logistic-coordinate integration of dy/dx = rhs(x, y) on [x_lo, x_hi]
# ---------------------------------------------------------------------------


def _logit(x: float) -> float:
    return math.log(x / (1.0 - x))


def _logistic_leg(rhs: Callable[[float, np.ndarray], np.ndarray], y_start: np.ndarray,
                  x_lo: float, x_hi: float, dense_output: bool = False):
    """Integrate dy/dx = rhs(x, y) from x_hi down to x_lo in one DOP853
    solve (rtol 1e-12, atol 1e-14) in t = log(x/(1-x)), whose rhs
    x(1-x) rhs(x, y) is regular at both endpoints when rhs has simple
    poles there.  Returns scipy's solution object; its times are t values."""
    if not 0 < x_lo < x_hi < 1:
        raise ValueError("need 0 < x_lo < x_hi < 1")

    def rhs_t(t, y):
        x = 1.0 / (1.0 + math.exp(-t))
        return x * (1.0 - x) * rhs(x, y)

    sol = solve_ivp(rhs_t, (_logit(x_hi), _logit(x_lo)), y_start, method="DOP853",
                    rtol=1e-12, atol=1e-14, dense_output=dense_output)
    if not sol.success:
        raise IntegrationError(f"integration failed: {sol.message}")
    return sol


# ---------------------------------------------------------------------------
# scalar system
# ---------------------------------------------------------------------------


def _scalar_rhs(params: KZScalarParams):
    n, eta, s = params.n, params.hbar2, params.sign

    def rhs(x, y):
        f1, f2, f3 = y
        om = 1.0 / (1.0 - x)
        ix = 1.0 / x
        d1 = eta * (s * (om + (n - 1.0) * ix) * f1 - f2 * ix)
        d2 = eta * (f1 * om - s * ((n - 1.0) * om + ix) * f2)
        d3 = eta * (-s * f1 * om + f2 * ix - s * (om - ix) * (n - 1.0) * f3)
        return np.array([d1, d2, d3])

    return rhs


def integrate_scalar(params: KZScalarParams,
                     x_lo: float | None = None) -> Callable[[float], np.ndarray]:
    """Integrate the scalar system from x_hi = 1-eps down to x_lo (default eps).

    The seed is the expansion of the closed forms at e = 1 - x_hi, which
    is exact in floating point (so e is the true distance to x = 1, not
    the rounded eps):

        f2 = x_hi^(-s eta) e^kappa (1 - (s eta)^2 e / (1 + s eta n)),
        f1 = (eta / (1 + s eta n)) x_hi^(-s eta) e^(1 + kappa),
        f3 = (s (x_hi e)^kappa - f1 - s f2) / (n + 1),

    kappa = s eta (n-1), f3 from the exact combination
    f1 + s f2 + (n+1) f3 = s [x(1-x)]^kappa.  The neglected terms are
    O(e^2) absolute, far below the integration error, so the trajectory
    rows measure the solve.  Returns the dense trajectory
    x -> (f1, f2, f3), which raises ValueError outside [x_lo, x_hi].
    """
    x_lo = params.eps if x_lo is None else x_lo
    n, eta, s = params.n, params.hbar2, params.sign
    a = s * eta
    kappa = a * (n - 1.0)
    x_hi = 1.0 - params.eps
    e = 1.0 - x_hi
    f2 = x_hi**(-a) * e**kappa * (1.0 - a * a * e / (1.0 + a * n))
    f1 = (eta / (1.0 + a * n)) * x_hi**(-a) * e ** (1.0 + kappa)
    f3 = (s * (x_hi * e)**kappa - f1 - s * f2) / (n + 1.0)
    y0 = np.array([f1, f2, f3], dtype=complex)
    sol = _logistic_leg(_scalar_rhs(params), y0, x_lo, x_hi, dense_output=True)

    def traj(x: float) -> np.ndarray:
        if not x_lo - 1e-15 <= x <= x_hi + 1e-15:
            raise ValueError(f"x = {x} outside integrated range")
        return sol.sol(_logit(x))

    return traj


def closed_form_f(params: KZScalarParams, x: float) -> tuple[complex, complex, complex]:
    """The hypergeometric closed forms (f1, f2, f3) at a point x in (0, 1)."""
    if not 0.0 < x < 1.0:
        raise ValueError("x must lie in (0, 1)")
    n, eta, s = params.n, params.hbar2, params.sign
    a = s * eta
    f2 = x**(-a) * (1.0 - x)**(a * (n - 1.0)) * gauss_2f1(a, -a, 1.0 + a * n, 1.0 - x)
    f1 = (eta / (1.0 + a * n)) * gauss_2f1(1.0 + a, 1.0 - a, 2.0 + a * n, 1.0 - x) \
        * x**(-a) * (1.0 - x)**(1.0 + a * (n - 1.0))
    comb = s * (x * (1.0 - x))**(a * (n - 1.0))
    f3 = (comb - f1 - s * f2) / (n + 1.0)
    return f1, f2, f3


def closed_form_derivs(params: KZScalarParams, x: float) -> tuple[complex, complex, complex]:
    """Analytic derivatives of the closed forms (for ODE residual checks)."""
    n, eta, s = params.n, params.hbar2, params.sign
    a = s * eta
    z = 1.0 - x
    big_f = gauss_2f1(a, -a, 1.0 + a * n, z)
    big_fp = gauss_2f1_deriv(a, -a, 1.0 + a * n, z)
    pre2 = x**(-a) * z**(a * (n - 1.0))
    f2 = pre2 * big_f
    d_pre2 = (-a / x - a * (n - 1.0) / z) * pre2
    f2p = d_pre2 * big_f - pre2 * big_fp

    g = gauss_2f1(1.0 + a, 1.0 - a, 2.0 + a * n, z)
    gp = gauss_2f1_deriv(1.0 + a, 1.0 - a, 2.0 + a * n, z)
    c1 = eta / (1.0 + a * n)
    pre1 = x**(-a) * z**(1.0 + a * (n - 1.0))
    f1 = c1 * g * pre1
    d_pre1 = (-a / x - (1.0 + a * (n - 1.0)) / z) * pre1
    f1p = c1 * (gp * (-1.0) * pre1 + g * d_pre1)

    comb = s * (x * z)**(a * (n - 1.0))
    combp = comb * a * (n - 1.0) * (1.0 / x - 1.0 / z)
    f3p = (combp - f1p - s * f2p) / (n + 1.0)
    return f1p, f2p, f3p


def scalar_ode_residual(params: KZScalarParams, xs) -> float:
    """max over xs of |closed-form derivative - system right-hand side|."""
    rhs = _scalar_rhs(params)
    worst = 0.0
    for x in xs:
        f = np.array(closed_form_f(params, x))
        dtrue = np.array(closed_form_derivs(params, x))
        worst = max(worst, float(np.abs(dtrue - rhs(x, f)).max()))
    return worst


def combinations(params: KZScalarParams, f) -> np.ndarray:
    """(n f1 - s f2, n f3 + s f2, f1 + s f2 + (n+1) f3) for a value triple f."""
    n, s = params.n, params.sign
    f1, f2, f3 = f
    return np.array([n * f1 - s * f2, n * f3 + s * f2, f1 + s * f2 + (n + 1.0) * f3])


def combination_identity_residual(params: KZScalarParams, traj, xs) -> float:
    """sup |f1 + s f2 + (n+1) f3 - s [x(1-x)]^(s eta (n-1))| along xs."""
    kappa = params.sign * params.hbar2 * (params.n - 1.0)
    worst = 0.0
    for x in xs:
        c3 = combinations(params, traj(x))[2]
        worst = max(worst, abs(c3 - params.sign * (x * (1.0 - x))**kappa))
    return float(worst)


def riccati_residual(params: KZScalarParams, traj, xs) -> float:
    """Residual of the Riccati equation for u = f1/f2 along the trajectory."""
    n, eta, s = params.n, params.hbar2, params.sign
    rhs = _scalar_rhs(params)
    worst = 0.0
    for x in xs:
        f = traj(x)
        d = rhs(x, f)
        u = f[0] / f[1]
        up = (d[0] * f[1] - f[0] * d[1]) / f[1]**2
        target = eta * (s * n * (1.0 / x + 1.0 / (1.0 - x)) * u
                        - 1.0 / x - u**2 / (1.0 - x))
        worst = max(worst, abs(up - target))
    return float(worst)


def _aitken(seq):
    s = list(seq)
    while len(s) >= 3:
        out = []
        for i in range(len(s) - 2):
            d2 = s[i + 2] - 2 * s[i + 1] + s[i]
            if abs(d2) < 1e-300:
                out.append(s[i + 2])
            else:
                out.append(s[i + 2] - (s[i + 2] - s[i + 1]) ** 2 / d2)
        s = out
    return s[-1]


def limits_closed_route(params: KZScalarParams) -> tuple[complex, complex, complex]:
    """The limits extracted from the closed forms via the connection formula.

    Re-expanding F(.; 1-x) around x = 0 cancels the leading branches of
    n f1 - s f2 and leaves the coefficient of x^(s eta (n-1)) as a pure
    gamma-function ratio,

        l1 = n eta Gamma(1 + s eta n) Gamma(-s eta n)
                   / (Gamma(1 + s eta) Gamma(1 - s eta)),

    while the decoupled combination gives l3 = s exactly and l2 follows
    from the exact relation l2 = (n l3 - l1)/(n + 1).  Everything here is
    gamma arithmetic; agreement with limits_reference (which is sine
    arithmetic) is a nontrivial reflection-identity check.
    """
    n, eta, s = params.n, params.hbar2, params.sign
    a = s * eta
    l1 = n * eta * gamma(1.0 + a * n) * gamma(-a * n) * rgamma(1.0 + a) * rgamma(1.0 - a)
    l3 = complex(s)
    l2 = (n * l3 - l1) / (n + 1.0)
    return l1, l2, l3


def extract_limits(params: KZScalarParams, traj) -> dict:
    """The three limits by both routes, plus the reference expressions.

    closed route: analytic x -> 0 limit of the closed forms through the
    connection formula (limits_closed_route).  trajectory route: rescaled
    combinations evaluated on the integrated trajectory traj at
    x = 1e-4, 1e-5, 1e-6 and extrapolated (iterated Aitken, which handles
    the unknown complex correction exponents).
    """
    kappa = params.sign * params.hbar2 * (params.n - 1.0)
    traj_seq = [combinations(params, traj(x)) * x**(-kappa) for x in (1e-4, 1e-5, 1e-6)]
    return {
        "closed": limits_closed_route(params),
        "reference": limits_reference(params),
        "trajectory": tuple(_aitken([v[k] for v in traj_seq]) for k in range(3)),
    }


# ---------------------------------------------------------------------------
# operator system and the coassociator matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightBlocks:
    """The weight blocks of C^N x C^N x Fock, and the flat storage of an
    operator that is block diagonal over them.

    Such an operator is one flat array: block after block, each block
    row-major, the blocks ordered by size so that the blocks of one size
    s form the contiguous stack ``flat[sl].reshape(n_blocks, s, s)`` of
    one ``stacks`` entry.  rows and cols are the full-space row and column
    of each flat entry; block_of numbers the block of each basis vector."""

    dim: int
    block_of: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    stacks: tuple  # (slice of the flat array, (n_blocks, s, s)) per size s

    @property
    def eye(self) -> np.ndarray:
        return (self.rows == self.cols).astype(float)

    def views(self, x: np.ndarray) -> list[np.ndarray]:
        """The (n_blocks, s, s) stacks of a flat operator."""
        return [x[sl].reshape(shape) for sl, shape in self.stacks]

    def join(self, stacks) -> np.ndarray:
        return np.concatenate([b.reshape(-1) for b in stacks])

    def matmul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.join([u @ v for u, v in zip(self.views(x), self.views(y))])

    def singular_values(self, x: np.ndarray) -> np.ndarray:
        return np.concatenate([np.linalg.svd(u, compute_uv=False).reshape(-1)
                               for u in self.views(x)])

    def norm(self, x: np.ndarray) -> float:
        """Spectral norm: the largest over the blocks (a direct sum)."""
        return float(self.singular_values(x).max())

    def to_sparse(self, x: np.ndarray) -> sparse.csr_array:
        """The full-space operator, with the blocks as its stored entries."""
        return sparse.csr_array((x, (self.rows, self.cols)), shape=(self.dim, self.dim))

    def gather(self, op) -> np.ndarray:
        """The flat blocks of a sparse full-space operator; ValueError if
        it has an entry between two different weights."""
        op = sparse.csr_array(op)
        coo = op.tocoo()
        if np.any(self.block_of[coo.row] != self.block_of[coo.col]):
            raise ValueError("operator does not conserve the weight")
        return op[self.rows, self.cols]


def _weight_blocks(weights: np.ndarray) -> WeightBlocks:
    """Group the basis vectors by weight (one row of weights each)."""
    dim = weights.shape[0]
    block_of = np.unique(weights, axis=0, return_inverse=True)[1].reshape(-1)
    sizes = np.bincount(block_of)
    # the basis vectors by block size, then block; in index order within a block
    members = np.lexsort((block_of, sizes[block_of]))
    rows, cols, stacks = [], [], []
    at = flat = 0
    for s in np.unique(sizes).tolist():
        n_blocks = int(np.count_nonzero(sizes == s))
        idx = members[at:at + n_blocks * s].reshape(n_blocks, s)
        rows.append(np.repeat(idx, s, axis=1).reshape(-1))
        cols.append(np.tile(idx, (1, s)).reshape(-1))
        stacks.append((slice(flat, flat + n_blocks * s * s), (n_blocks, s, s)))
        at += n_blocks * s
        flat += n_blocks * s * s
    return WeightBlocks(dim, block_of, np.concatenate(rows), np.concatenate(cols),
                        tuple(stacks))


@dataclass(frozen=True)
class KZOperatorSystem:
    """P and A on C^N x C^N x Fock as flat weight blocks (see WeightBlocks),
    with the eigendecompositions P = vecs diag(vals) vecs^T and
    A = vecs diag(vals) vecs^T of each stack of real symmetric blocks."""

    space: FockSpace
    n: int
    blocks: WeightBlocks
    p: np.ndarray
    a: np.ndarray
    p_eig: tuple  # (vals (n_blocks, s), vecs (n_blocks, s, s)) per stack
    a_eig: tuple  # the same for A


def build_operator_system(space: FockSpace) -> KZOperatorSystem:
    """Assemble P and A on C^N x C^N x Fock for an sl(N) bosonic space."""
    if space.statistics is not Statistics.BOSE:
        raise ValueError("operator system needs a bosonic space")
    n, d = space.modes, space.dim
    an, ap = space.an, space.ap
    e = np.eye(n)
    p_sparse = sparse.kron(permutation_matrix(n), sparse.eye_array(d))
    a_sparse = sum(sparse.kron(np.kron(e, np.outer(e[i], e[j])), ap[j] @ an[i])
                   for i in range(n) for j in range(n))
    # the weight of (a, b, occ) is e_a + e_b + occ
    pair_weights = (e[:, None, :] + e[None, :, :]).reshape(n * n, 1, n)
    weights = (pair_weights + np.array(space.basis)[None, :, :]).reshape(n * n * d, n)
    blocks = _weight_blocks(weights)
    p, a = blocks.gather(p_sparse).real, blocks.gather(a_sparse).real
    p_eig = tuple(np.linalg.eigh(stack) for stack in blocks.views(p))
    a_eig = tuple(np.linalg.eigh(stack) for stack in blocks.views(a))
    return KZOperatorSystem(space, n, blocks, p, a, p_eig, a_eig)


_SERIES_TERMS = 200  # the most terms a Frobenius series may take
_RESONANCE = 1e-6  # the least relative distance of k - hbar2 (b_i - b_j) from 0
_TAIL = np.finfo(float).eps / 2  # the series stops once its tail is below this


def _frobenius_series(b_vals: np.ndarray, c_vals: np.ndarray, w: np.ndarray,
                      hbar2: complex, us: np.ndarray) -> np.ndarray:
    """H(u) at each u in us, for one stack of blocks, in B's eigenbasis:
    the solution H = sum_k h_k u^k, h_0 = 1, of

        u H' = hbar2 [B, H] - hbar2 u/(1-u) C H,

    with B = diag(b_vals) and C = w diag(c_vals) w^T in that basis.  The
    coefficients follow from (k - hbar2 (b_i - b_j)) h_k[i, j] =
    -hbar2 (C S_(k-1))[i, j], S_(k-1) = h_0 + ... + h_(k-1): one batched
    matmul and one entrywise division per term.

    The series stops once the Frobenius norm of its tail at u_max = max(us)
    is provably below _TAIL.  With g = |hbar2| max|c| / (k + 1 - |hbar2|
    max|b_i - b_j|), every later term obeys ||h_j|| <= g ||S_(j-1)|| and
    ||S_j|| <= (1 + g) ||S_(j-1)||, so the tail after term k is at most
    g ||S_k|| u_max^(k+1) / (1 - (1 + g) u_max).  Raises IntegrationError
    at a resonance (a denominator within _RESONANCE k of zero) or when the
    bound is not met within _SERIES_TERMS terms."""
    n_blocks, s = b_vals.shape
    gap = hbar2 * (b_vals[:, :, None] - b_vals[:, None, :])
    # the nearest k >= 1 to each gap is where its denominator is smallest
    k_near = np.clip(np.rint(gap.real), 1, _SERIES_TERMS)
    if np.any(np.abs(k_near - gap) < _RESONANCE * k_near):
        raise IntegrationError(f"resonant Frobenius series at hbar2 = {hbar2}")
    c = ((w * c_vals[:, None, :]) @ w.transpose(0, 2, 1)).astype(complex)
    c_norm, spread = abs(hbar2) * np.abs(c_vals).max(), np.abs(gap).max()
    u_max = us.max()
    partial = np.broadcast_to(np.eye(s, dtype=complex), (n_blocks, s, s)).copy()
    out = np.broadcast_to(partial, (us.size, n_blocks, s, s)).copy()
    for k in range(1, _SERIES_TERMS + 1):
        h = (c @ partial) * (-hbar2 / (k - gap))
        partial += h
        out += us[:, None, None, None]**k * h
        g = c_norm / (k + 1 - spread) if k + 1 > spread else math.inf
        # the Frobenius norm of the whole stack bounds that of each block
        if (1 + g) * u_max < 1 and (g * np.linalg.norm(partial) * u_max**(k + 1)
                                    / (1 - (1 + g) * u_max)) <= _TAIL:
            return out
    raise IntegrationError(f"Frobenius series not converged in {_SERIES_TERMS} terms")


def _coassociators(system: KZOperatorSystem, hbar2: complex, epss) -> list[np.ndarray]:
    """M(eps) for each eps in epss, as flat weight blocks (coassociator_matrix).

    Per stack: H0 in P's eigenbasis and H1 in A's, each one series summed
    at 1/2 and at every eps; W = vecs_P^T vecs_A carries one basis into the
    other.  The eps-independent connection matrix
    2^(eta P) H0(1/2)^-1 H1(1/2) 2^(-eta A) is formed once."""
    def power(vals, x):  # x^(hbar2 vals), the diagonal of x^(hbar2 B)
        return np.exp(math.log(x) * hbar2 * vals)

    us = np.array([0.5, *epss])
    out = [[] for _ in epss]
    for (p_vals, p_vecs), (a_vals, a_vecs) in zip(system.p_eig, system.a_eig):
        w = p_vecs.transpose(0, 2, 1) @ a_vecs
        # H0 (B, C = P, A) and H1 (B, C = A, P) summed as one stack
        h = _frobenius_series(np.concatenate([p_vals, a_vals]), np.concatenate([a_vals, p_vals]),
                              np.concatenate([w, w.transpose(0, 2, 1)]), hbar2, us)
        h0, h1 = np.split(h, 2, axis=1)
        mid = (power(p_vals, 2.0)[:, :, None] * np.linalg.solve(h0[0], w @ h1[0])
               * power(a_vals, 0.5)[:, None, :])
        for i, eps in enumerate(epss):
            dp, da = power(p_vals, eps), power(a_vals, eps)
            left = h0[i + 1] * dp[:, None, :] / dp[:, :, None]
            right = np.linalg.inv(h1[i + 1]) * da[:, None, :] / da[:, :, None]
            out[i].append(p_vecs @ left @ mid @ right @ a_vecs.transpose(0, 2, 1))
    return [system.blocks.join(stacks) for stacks in out]


def coassociator_matrix(system: KZOperatorSystem, hbar2: complex, eps: float) -> np.ndarray:
    """M at regularization eps, as its flat weight blocks: the propagator
    of Y' = hbar2 (P/x + A/(x-1)) Y from x = 1-eps to x = eps, between the
    power-law prefactors eps^(-eta P) and eps^(eta A) of the path-ordered
    integral (eta = hbar2).

    No integrator is involved.  The normalized Frobenius solutions
    Y0 = H0(x) x^(eta P) and Y1 = H1(1-x) (1-x)^(eta A), H0(0) = H1(0) = 1,
    differ by the constant connection matrix
    M = Y0^-1 Y1 = 2^(eta P) H0(1/2)^-1 H1(1/2) 2^(-eta A), the eps -> 0
    limit, and the regularized value is

        M(eps) = eps^(-eta P) H0(eps) eps^(eta P) M eps^(-eta A) H1(eps)^-1 eps^(eta A).

    H0 solves x H0' = eta [P, H0] - eta x/(1-x) A H0 and H1 the same with
    P and A swapped; both series converge at 1/2 in about 50 terms
    (_frobenius_series)."""
    if hbar2 == 0:
        return system.blocks.eye.astype(complex)
    return _coassociators(system, hbar2, (eps,))[0]


def coassociator_with_error(system: KZOperatorSystem, hbar2: complex,
                            eps: float) -> tuple[np.ndarray, float]:
    """M extrapolated to eps -> 0, with ||M(eps) - M(eps/2)|| as its error.

    The regularization error of M(eps) is linear in eps, so the Richardson
    combination 2 M(eps/2) - M(eps) of the pair removes it.  The difference
    ||M(eps) - M(eps/2)|| is the error of M(eps/2) to first order; it is
    returned as a conservative bound on the error of the extrapolated M.
    Both members share one pair of series and one connection matrix."""
    m1, m2 = _coassociators(system, hbar2, (eps, eps / 2.0))
    return 2.0 * m2 - m1, system.blocks.norm(m1 - m2)


def acts_trivially_residual(system: KZOperatorSystem, m: np.ndarray) -> float:
    """|| M . (aa) - aa || over the N^2 components, safe-projected at
    creator degree 2: aa is the column of the Fock operators a^i a^j,
    block (i, j) at pair i N + j."""
    n, an = system.n, system.space.an
    aa = sparse.vstack([an[i] @ an[j] for i in range(n) for j in range(n)])
    return projected_norms(system.space, system.blocks.to_sparse(m) @ aa - aa, 2)


def invariance_residual(system: KZOperatorSystem, m: np.ndarray, data) -> float:
    """|| [M, image of the two-fold coproduct of X] || over Lie basis X,
    with the Fock factor safe-projected at creator degree 2.  The
    commutators are the diagonal blocks of one block-diagonal matrix, whose
    norm is the largest of theirs, measured in one exact call
    (:func:`verify.direct_sum_norms` splits it along its own sparsity
    graph; no weight labels are passed)."""
    n, d = system.n, system.space.dim
    eye_pairs, eye_d = sparse.eye_array(n * n), sparse.eye_array(d)
    big_m = system.blocks.to_sparse(m)
    comms = []
    for lbl, s in sigma_basis(system.space, data).items():
        delta2 = sparse.kron(coproduct_rep(data, lbl), eye_d) + sparse.kron(eye_pairs, s)
        comms.append(big_m @ delta2 - delta2 @ big_m)
    safe = np.tile(system.space.safe_mask(2), n * n * len(comms))
    return direct_sum_norms(sparse.block_diag(comms, format="csr"), safe)


def cross_matrix_v(system: KZOperatorSystem, q: float, sign: int) -> np.ndarray:
    """V = q^s P q^P on C^N x C^N: the numeric core of the cross relation.

    q^P is computed spectrally (P has eigenvalues +-1); the extra q^s
    carries the Weyl/Clifford normalization of the cross relation.
    """
    p = permutation_matrix(system.n)
    eye = np.eye(system.n**2)
    q_p = (q + 1.0 / q) / 2.0 * eye + (q - 1.0 / q) / 2.0 * p
    return q**sign * (p @ q_p)


def dressed_generators(system: KZOperatorSystem, params: DeformParams):
    """The dressed pair a~^i = a^i, a~+_i = a+_i I~(n) with
    I~ = (n+1)_{q^(2s)} / (n+1), tabulated on n = 0..cutoff."""
    space = system.space
    q2s = params.q_real ** (2 * params.sign)
    itilde = np.array([qnum(v + 1.0, q2s).real / (v + 1.0)
                       for v in np.arange(space.cutoff + 1, dtype=float)])
    dit = sparse.diags_array(itilde[space.shell].astype(complex))
    return list(space.an), [m @ dit for m in space.ap]


def coassociator_relation_check(system: KZOperatorSystem, params: DeformParams,
                                m: np.ndarray, tol: float = 1e-6) -> list[CaseResult]:
    """Residuals of the three exchange relations of the dressed generators,
    with the relation matrices conjugated by M, safe-projected at creator
    degree 2:

      (1) a~^i a~^j   = s (M^-1 P M)^{ji}_{lm} a~^m a~^l
      (2) a~+_i a~+_j = s a~+_l a~+_m (M^-1 P M)^{lm}_{ij}
      (3) a~^i a~+_j  = delta^i_j + s a~+_l (M^-1 V M)^{il}_{jm} a~^m

    cond(M), M^-1 and the conjugated U = P and V are taken block by block
    over the weights; the contraction with the Fock operators is
    :func:`verify.quadratic_residual_matrices`, with the relation operator
    1 - s M^-1 P M for (1) and (2) and the cross candidate M^-1 V M.
    """
    space = system.space
    n, d = system.n, space.dim
    blocks = system.blocks
    s = params.sign
    sv = blocks.singular_values(m)
    cond = float(sv.max() / sv.min())
    if cond > 1e8:
        raise ValueError(f"coassociator matrix numerically singular (cond={cond:.2e})")
    minv = blocks.join([np.linalg.inv(u) for u in blocks.views(m)])
    v = blocks.gather(sparse.kron(cross_matrix_v(system, params.q_real, params.sign),
                                  sparse.eye_array(d)))
    mu = blocks.to_sparse(blocks.matmul(minv, blocks.matmul(system.p, m)))
    mv = blocks.to_sparse(blocks.matmul(minv, blocks.matmul(v, m)))
    a_t, ap_t = dressed_generators(system, params)
    rel = sparse.eye_array(n * n * d) - s * mu
    aa, apap, cross = quadratic_residual_matrices(a_t, ap_t, rel, {"cross": mv}, s)
    names = ("coassoc_relation_aa", "coassoc_relation_apap", "coassoc_relation_cross")
    return [CaseResult(name, projected_norms(space, defect, 2), tol, {"cond_M": cond})
            for name, defect in zip(names, (aa, apap, cross["cross"]))]
