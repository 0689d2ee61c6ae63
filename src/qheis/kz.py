"""Reduced Knizhnik-Zamolodchikov machinery: the scalar three-function
system, its hypergeometric closed forms and x -> 0 limits, and the
operator-valued path-ordered integral for the coassociator matrix M.

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

computed as the fundamental solution of the linear operator ODE (not by
product discretization).  P and A both conserve the sl(N) weight
e_a + e_b + occ of a basis vector (a, b, occ), so P, A, the propagator,
both endpoint factors and M are block diagonal over the weights, and no
block is larger than N^2.  The blocks of one size are stacked into an
(n_blocks, s, s) array; one ODE evolves all of them (266 entries at
N = 2, cutoff 5, against 7,056 for the full 84 x 84 propagator), and the
endpoint factors are closed forms per block: y0^(eta A) from the batched
eigendecomposition of the real symmetric A blocks, and
x0^(-eta P) = cosh(c) 1 + sinh(c) P with c = -eta log x0, since P^2 = 1.
M is returned as its weight blocks (WeightBlocks), and every check
works on them: norms of a block-diagonal operator are the largest block
norm (a direct sum), inverses and conjugations go block by block, and
contractions with Fock operators use the blocks as the stored entries
of a sparse matrix.

M = 1 + zeta(2) eta^2 [P, A] + O(h^3), acts trivially on the
doubly-contravariant tensor a^i a^j, commutes with the image of the
two-fold coproduct, and conjugates the numeric matrices U = P and
V = q^s P q^P into the matrices governing the deformed exchange
relations of the dressed generators a~^i = I(n) a^i,
a~+_i = a+_i I~(n), I~(n) = (n+1)_{q^(2s)} / ((n+1) I(n)).

Every integration runs in the logistic coordinate t = log(x/(1-x)).
There dx/dt = x(1-x) cancels the simple poles at x = 0 and x = 1, so one
solve covers (0, 1) and the step count is independent of eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp
from scipy.linalg import expm  # noqa: F401  (the benchmark tracer wraps kz.expm)

from .fock import FockSpace, Statistics, annihilator, creator
from .liealg import coproduct_rep, permutation_matrix, sigma_basis
from .qspecial import DeformParams, gamma, gauss_2f1, gauss_2f1_deriv, qnum, rgamma
from .verify import CaseResult, direct_sum_norms, max_norms, projected_norms


class IntegrationError(RuntimeError):
    pass


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
        if not 1e-8 <= self.eps <= 1e-3:
            raise ValueError("eps must lie in [1e-8, 1e-3]")


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
                  x_lo: float, x_hi: float, dense_output: bool = False,
                  rtol: float = 1e-12, atol: float = 1e-14):
    """Integrate dy/dx = rhs(x, y) from x_hi down to x_lo in one DOP853
    solve in t = log(x/(1-x)), whose rhs x(1-x) rhs(x, y) is regular at
    both endpoints when rhs has simple poles there.  Returns scipy's
    solution object; its times are t values."""
    if not 0 < x_lo < x_hi < 1:
        raise ValueError("need 0 < x_lo < x_hi < 1")

    def rhs_t(t, y):
        x = 1.0 / (1.0 + math.exp(-t))
        return x * (1.0 - x) * rhs(x, y)

    sol = solve_ivp(rhs_t, (_logit(x_hi), _logit(x_lo)), y_start, method="DOP853",
                    rtol=rtol, atol=atol, dense_output=dense_output)
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


def extract_limits(params: KZScalarParams, traj=None,
                   eps_list=(1e-4, 1e-5, 1e-6)) -> dict:
    """The three limits by both routes, plus the reference expressions.

    closed route: analytic x -> 0 limit of the closed forms through the
    connection formula (limits_closed_route).  trajectory route: rescaled
    combinations evaluated on the integrated trajectory at the eps_list
    ladder and extrapolated (iterated Aitken, which handles the unknown
    complex correction exponents).
    """
    n, eta, s = params.n, params.hbar2, params.sign
    kappa = s * eta * (n - 1.0)
    out = {
        "closed": limits_closed_route(params),
        "reference": limits_reference(params),
    }
    if traj is not None:
        traj_seq = [combinations(params, traj(x)) * x**(-kappa) for x in eps_list]
        out["trajectory"] = tuple(_aitken([v[k] for v in traj_seq]) for k in range(3))
    return out


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
    with the eigendecomposition A = vecs diag(vals) vecs^T of each stack of
    real symmetric A blocks, and the Fock ladders a^i, a+_i (sparse)."""

    space: FockSpace
    n: int
    blocks: WeightBlocks
    p: np.ndarray
    a: np.ndarray
    a_eig: tuple  # (vals (n_blocks, s), vecs (n_blocks, s, s)) per stack
    an: list      # annihilators a^1 .. a^N
    ap: list      # creators a+_1 .. a+_N

    def exp_a(self, c: complex) -> np.ndarray:
        """exp(c A), flat."""
        return self.blocks.join([(vecs * np.exp(c * vals)[:, None, :]) @ vecs.transpose(0, 2, 1)
                                 for vals, vecs in self.a_eig])

    def exp_p(self, c: complex) -> np.ndarray:
        """exp(c P), flat; P^2 = 1."""
        return np.cosh(c) * self.blocks.eye + np.sinh(c) * self.p


def build_operator_system(space: FockSpace) -> KZOperatorSystem:
    """Assemble P and A on C^N x C^N x Fock for an sl(N) bosonic space."""
    if space.statistics is not Statistics.BOSE:
        raise ValueError("operator system needs a bosonic space")
    n, d = space.modes, space.dim
    an = [annihilator(space, i).matrix for i in range(1, n + 1)]
    ap = [creator(space, i).matrix for i in range(1, n + 1)]
    e = np.eye(n)
    p_sparse = sparse.kron(permutation_matrix(n), sparse.eye_array(d))
    a_sparse = sum(sparse.kron(np.kron(e, np.outer(e[i], e[j])), ap[j] @ an[i])
                   for i in range(n) for j in range(n))
    # the weight of (a, b, occ) is e_a + e_b + occ
    pair_weights = (e[:, None, :] + e[None, :, :]).reshape(n * n, 1, n)
    weights = (pair_weights + np.array(space.basis)[None, :, :]).reshape(n * n * d, n)
    blocks = _weight_blocks(weights)
    p, a = blocks.gather(p_sparse).real, blocks.gather(a_sparse).real
    a_eig = tuple(np.linalg.eigh(stack) for stack in blocks.views(a))
    return KZOperatorSystem(space, n, blocks, p, a, a_eig, an, ap)


def coassociator_matrix(system: KZOperatorSystem, hbar2: complex, eps: float,
                        rtol: float = 1e-12, atol: float = 1e-14) -> np.ndarray:
    """M at regularization eps, as its flat weight blocks: x0 = y0 = eps,
    power-law prefactors exactly as in the path-ordered integral, interior
    by the linear operator ODE.

    The ODE state is the weight blocks of the propagator; each rhs call
    forms the real P/x + A/(x-1) once over all of them, makes one batched
    matmul per block size and scales the result by hbar2.  A real matrix
    times a complex one is a real matmul on the complex one's (s, 2s)
    float view, which for these tiny blocks is several times faster than
    a complex matmul."""
    blocks = system.blocks
    if hbar2 == 0:
        return blocks.eye.astype(complex)
    c = math.log(eps) * hbar2
    p, a = system.p, system.a
    # per block size: the slice and shape of the real coefficient's stack,
    # and of the (s, 2s) float view of the complex state's stack
    layout = [(sl, shape, slice(2 * sl.start, 2 * sl.stop), (*shape[:2], 2 * shape[2]))
              for sl, shape in blocks.stacks]

    def rhs(x, y):
        g = p * (1.0 / x) + a * (1.0 / (x - 1.0))
        out = np.empty_like(y)
        y_f, out_f = np.ascontiguousarray(y).view(float), out.view(float)
        for sl, shape, sl_f, shape_f in layout:
            np.matmul(g[sl].reshape(shape), y_f[sl_f].reshape(shape_f),
                      out=out_f[sl_f].reshape(shape_f))
        out *= hbar2
        return out

    y_end = _logistic_leg(rhs, system.exp_a(c), eps, 1.0 - eps, rtol=rtol, atol=atol).y[:, -1]
    return blocks.matmul(system.exp_p(-c), y_end)


def coassociator_with_error(system: KZOperatorSystem, hbar2: complex,
                            eps: float) -> tuple[np.ndarray, float]:
    """M at eps/2 together with ||M(eps) - M(eps/2)|| as the error estimate."""
    m1 = coassociator_matrix(system, hbar2, eps)
    m2 = coassociator_matrix(system, hbar2, eps / 2.0)
    return m2, system.blocks.norm(m1 - m2)


def _fock_blocks(big, d: int) -> list:
    """The D x D blocks of a sparse operator between sums of Fock spaces,
    row-major over the block grid."""
    big = sparse.csr_array(big)
    rows, cols = big.shape
    return [big[r:r + d, c:c + d] for r in range(0, rows, d) for c in range(0, cols, d)]


def acts_trivially_residual(system: KZOperatorSystem, m: np.ndarray,
                            degree: int = 2) -> float:
    """|| M . (aa) - aa || over the N^2 components, safe-projected: aa is
    the column of the Fock operators a^i a^j, block (i, j) at pair i N + j."""
    n, an = system.n, system.an
    aa = sparse.vstack([an[i] @ an[j] for i in range(n) for j in range(n)])
    defect = system.blocks.to_sparse(m) @ aa - aa
    return max_norms(projected_norms(system.space, r, degree)
                     for r in _fock_blocks(defect, system.space.dim))[0]


def invariance_residual(system: KZOperatorSystem, m: np.ndarray, data,
                        degree: int = 2) -> float:
    """|| [M, image of the two-fold coproduct of X] || over Lie basis X,
    with the Fock factor safe-projected.  The image of X moves each weight
    by the weight of X, so the commutator is a direct sum over the weight
    blocks it maps between and its norm the largest of theirs."""
    n, d = system.n, system.space.dim
    eye_pairs, eye_d = sparse.eye_array(n * n), sparse.eye_array(d)
    big_m = system.blocks.to_sparse(m)
    safe = np.tile(system.space.safe_mask(degree), n * n)
    worst = 0.0
    for lbl, s in sigma_basis(system.space, data).items():
        delta2 = sparse.kron(coproduct_rep(data, lbl), eye_d) + sparse.kron(eye_pairs, s)
        comm = big_m @ delta2 - delta2 @ big_m
        worst = max(worst, direct_sum_norms(comm, system.blocks.block_of, safe)[0])
    return worst


def cross_matrix_v(system: KZOperatorSystem, q: float, sign: int) -> np.ndarray:
    """V = q^s P q^P on C^N x C^N: the numeric core of the cross relation.

    q^P is computed spectrally (P has eigenvalues +-1); the extra q^s
    carries the Weyl/Clifford normalization of the cross relation.
    """
    p = permutation_matrix(system.n)
    eye = np.eye(system.n**2)
    q_p = (q + 1.0 / q) / 2.0 * eye + (q - 1.0 / q) / 2.0 * p
    return q**sign * (p @ q_p)


def dressed_generators(system: KZOperatorSystem, params: DeformParams,
                       dressing: Callable[[float], float] | None = None):
    """The dressed pair a~^i = I(n) a^i, a~+_i = a+_i I~(n) with
    I~ = (n+1)_{q^(2s)} / ((n+1) I(n)).  dressing is I as a function of the
    total number; None means I = 1."""
    space = system.space
    q2s = params.q_real ** (2 * params.sign)
    nvec = space.total_occupations()
    i_vals = np.array([1.0 if dressing is None else dressing(v) for v in nvec])
    itilde = np.array([qnum(v + 1.0, q2s).real / (v + 1.0) for v in nvec]) / i_vals
    di = sparse.diags_array(i_vals.astype(complex))
    dit = sparse.diags_array(itilde.astype(complex))
    a_t = [di @ m for m in system.an]
    ap_t = [m @ dit for m in system.ap]
    return a_t, ap_t


def coassociator_relation_check(system: KZOperatorSystem, params: DeformParams,
                                m: np.ndarray,
                                dressing: Callable[[float], float] | None = None,
                                tol: float = 1e-6,
                                degree: int = 2) -> list[CaseResult]:
    """Residuals of the three exchange relations of the dressed generators,
    with the relation matrices conjugated by M:

      (1) a~^i a~^j   = s (M^-1 P M)^{ji}_{lm} a~^m a~^l
      (2) a~+_i a~+_j = s a~+_l a~+_m (M^-1 P M)^{lm}_{ij}
      (3) a~^i a~+_j  = delta^i_j + s a~+_l (M^-1 V M)^{il}_{jm} a~^m

    cond(M), M^-1 and the conjugated U = P and V are taken block by block
    over the weights; the contractions with the Fock operators are sparse
    products of the full-space U, V with columns and rows of operators.
    """
    space = system.space
    n, d = system.n, space.dim
    blocks = system.blocks
    s = float(params.sign)
    sv = blocks.singular_values(m)
    cond = float(sv.max() / sv.min())
    if cond > 1e8:
        raise ValueError(f"coassociator matrix numerically singular (cond={cond:.2e})")
    minv = blocks.join([np.linalg.inv(u) for u in blocks.views(m)])
    v = blocks.gather(sparse.kron(cross_matrix_v(system, params.q_real, params.sign),
                                  sparse.eye_array(d)))
    mu = blocks.to_sparse(blocks.matmul(minv, blocks.matmul(system.p, m)))
    mv = blocks.to_sparse(blocks.matmul(minv, blocks.matmul(v, m)))
    a_t, ap_t = dressed_generators(system, params, dressing)

    # (1) is (1 - s U) aa = 0 for the column aa of blocks a~^j a~^i, (2) is
    # apap (1 - s U) = 0 for the row apap of blocks a~+_i a~+_j, block
    # (i, j) at pair i N + j; (3) sums over l, m inside each (i, j) block
    pairs = [divmod(k, n) for k in range(n * n)]
    aa = sparse.vstack([a_t[j] @ a_t[i] for i, j in pairs])
    apap = sparse.hstack([ap_t[i] @ ap_t[j] for i, j in pairs])
    a_col, ap_row, eye_n = sparse.vstack(a_t), sparse.hstack(ap_t), sparse.eye_array(n)
    defects = (aa - s * (mu @ aa),
               apap - s * (apap @ mu),
               a_col @ ap_row - sparse.eye_array(n * d)
               - s * (sparse.kron(eye_n, ap_row) @ mv @ sparse.kron(eye_n, a_col)))
    return [CaseResult(name, max_norms(projected_norms(space, r, degree)
                                       for r in _fock_blocks(big, d))[0], tol, {"cond_M": cond})
            for name, big in zip(("coassoc_relation_aa", "coassoc_relation_apap",
                                  "coassoc_relation_cross"), defects)]
