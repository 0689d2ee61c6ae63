"""Reduced Knizhnik-Zamolodchikov machinery: the scalar three-function
system, its hypergeometric closed forms and x -> 0 limits, and the
operator-valued path-ordered integral for the coassociator matrix M.

Scalar side.  With s = +-1 (Weyl/Clifford) and eta := 2*hbar the system

    f1' = eta [  s (1/(1-x) + (n-1)/x) f1 - f2/x ]
    f2' = eta [  f1/(1-x) - s ((n-1)/(1-x) + 1/x) f2 ]
    f3' = eta [ -s f1/(1-x) + f2/x - s (1/(1-x) - 1/x)(n-1) f3 ]

is integrated from x = 1-eps (seeded with the leading asymptotics
f2 ~ (1-x)^(s eta (n-1)), f1 = f3 = 0) down to small x.  The combination
f1 + s f2 + (n+1) f3 equals s [x(1-x)]^(s eta (n-1)) exactly, f1/f2
satisfies a Riccati equation, and the closed forms are

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
product discretization).  A conserves the total occupation and P acts
only on C^N x C^N, so P, A, the propagator and both endpoint factors are
block diagonal over the occupation shells k of Fock: shell k has size
N^2 C(k+N-1, N-1) (4(k+1) at N = 2).  One ODE evolves the concatenated
shell blocks, and the endpoint factors are closed forms per shell:
y0^(eta A) from the eigendecomposition of the real symmetric A block,
and x0^(-eta P) = cosh(c) 1 + sinh(c) P with c = -eta log x0, since
P^2 = 1.  M = 1 + zeta(2) eta^2 [P, A] + O(h^3), acts trivially on the
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
from scipy.integrate import solve_ivp
from scipy.linalg import expm  # noqa: F401  (the benchmark tracer wraps kz.expm)

from .fock import FockSpace, Statistics, annihilator, creator
from .liealg import permutation_matrix, rho, sigma_basis
from .qspecial import DeformParams, gamma, gauss_2f1, gauss_2f1_deriv, qnum, rgamma
from .verify import CaseResult, max_norms, projected_norms


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
    """Integrate the scalar system from x = 1-eps down to x_lo (default eps).

    Each component is seeded at 1-eps with its own leading asymptotic:
    f2 = eps^(s eta (n-1)) exactly as prescribed by the boundary
    condition, and f1, f3 (which vanish at x = 1) with the first
    nonvanishing power eps^(1 + s eta (n-1)) of the closed forms, so the
    seeding error is O(eps^2) relative and the trajectory can be compared
    to the closed forms at the 1e-8 level.  Returns the dense trajectory
    x -> (f1, f2, f3), which raises ValueError outside [x_lo, 1-eps].
    """
    eps = params.eps
    x_lo = eps if x_lo is None else x_lo
    n, eta, s = params.n, params.hbar2, params.sign
    kappa = s * eta * (n - 1.0)
    f2 = eps**kappa
    f1 = (eta / (1.0 + s * eta * n)) * eps ** (1.0 + kappa)
    f3 = -f1 / (n + 1.0)
    y0 = np.array([f1, f2, f3], dtype=complex)
    x_hi = 1.0 - eps
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
class KZShell:
    """One occupation shell of C^N x C^N x Fock: its indices in the full
    space, the blocks of P and A there, and the eigendecomposition
    A = vecs diag(vals) vecs^T of the real symmetric A block."""

    idx: np.ndarray
    p: np.ndarray
    a: np.ndarray
    a_vals: np.ndarray
    a_vecs: np.ndarray

    def exp_a(self, c: complex) -> np.ndarray:
        """exp(c A) on this shell."""
        return (self.a_vecs * np.exp(c * self.a_vals)) @ self.a_vecs.T

    def exp_p(self, c: complex) -> np.ndarray:
        """exp(c P) on this shell; P^2 = 1."""
        return np.cosh(c) * np.eye(self.idx.size) + np.sinh(c) * self.p


@dataclass
class KZOperatorSystem:
    space: FockSpace
    n: int
    p_big: np.ndarray
    a_big: np.ndarray
    aa_blocks: np.ndarray  # (N, N, D, D): the tensor a^i a^j
    an: list               # annihilator matrices a^1 .. a^N
    ap: list               # creator matrices a+_1 .. a+_N
    shells: tuple          # KZShell per total occupation 0 .. cutoff


def build_operator_system(space: FockSpace) -> KZOperatorSystem:
    """Assemble P and A on C^N x C^N x Fock for an sl(N) bosonic space."""
    if space.statistics is not Statistics.BOSE:
        raise ValueError("operator system needs a bosonic space")
    n, d = space.modes, space.dim
    an = [annihilator(space, i).matrix.toarray() for i in range(1, n + 1)]
    ap = [creator(space, i).matrix.toarray() for i in range(1, n + 1)]
    eye_n = np.eye(n)
    a_big = np.zeros((n * n * d, n * n * d), dtype=complex)
    for i in range(n):
        for j in range(n):
            e_ij = np.zeros((n, n))
            e_ij[i, j] = 1.0
            op = ap[j] @ an[i]
            a_big += np.kron(np.kron(eye_n, e_ij), op)
    p_big = np.kron(permutation_matrix(n), np.eye(d))
    aa = np.empty((n, n, d, d), dtype=complex)
    for i in range(n):
        for j in range(n):
            aa[i, j] = an[i] @ an[j]
    shell_of = np.tile(space.total_occupations(), n * n)
    shells = []
    for k in np.unique(shell_of):
        idx = np.flatnonzero(shell_of == k)
        a_k = a_big[np.ix_(idx, idx)].real
        shells.append(KZShell(idx, p_big[np.ix_(idx, idx)], a_k, *np.linalg.eigh(a_k)))
    return KZOperatorSystem(space, n, p_big, a_big, aa, an, ap, tuple(shells))


def coassociator_matrix(system: KZOperatorSystem, hbar2: complex, eps: float,
                        rtol: float = 1e-12, atol: float = 1e-14) -> np.ndarray:
    """M at regularization eps: x0 = y0 = eps, power-law prefactors exactly
    as in the path-ordered integral, interior by the linear operator ODE.

    The ODE state is the concatenation of the shell blocks of the
    propagator; the dense M is assembled from them at the end."""
    dim = system.p_big.shape[0]
    if hbar2 == 0:
        return np.eye(dim, dtype=complex)
    shells = system.shells
    c = math.log(eps) * hbar2
    terms = [(hbar2 * sh.p, hbar2 * sh.a) for sh in shells]
    sizes = [sh.idx.size for sh in shells]
    ends = np.cumsum([s * s for s in sizes])
    slices = [slice(e - s * s, e) for s, e in zip(sizes, ends)]
    y0 = np.concatenate([sh.exp_a(c).reshape(-1) for sh in shells])

    def rhs(x, y):
        out = np.empty_like(y)
        ix, ix1 = 1.0 / x, 1.0 / (x - 1.0)
        for (hp, ha), s, sl in zip(terms, sizes, slices):
            np.matmul(hp * ix + ha * ix1, y[sl].reshape(s, s), out=out[sl].reshape(s, s))
        return out

    y_end = _logistic_leg(rhs, y0, eps, 1.0 - eps, rtol=rtol, atol=atol).y[:, -1]
    m = np.zeros((dim, dim), dtype=complex)
    for sh, s, sl in zip(shells, sizes, slices):
        m[np.ix_(sh.idx, sh.idx)] = sh.exp_p(-c) @ y_end[sl].reshape(s, s)
    return m


def coassociator_with_error(system: KZOperatorSystem, hbar2: complex,
                            eps: float) -> tuple[np.ndarray, float]:
    """M at eps/2 together with ||M(eps) - M(eps/2)|| as the error estimate."""
    m1 = coassociator_matrix(system, hbar2, eps)
    m2 = coassociator_matrix(system, hbar2, eps / 2.0)
    return m2, float(np.linalg.norm(m1 - m2, 2))


def _blocks(system: KZOperatorSystem, big: np.ndarray) -> np.ndarray:
    n, d = system.n, system.space.dim
    # -> indexed [i, k (row pair), j, l (col pair), fock_row, fock_col]
    return big.reshape(n, n, d, n, n, d).transpose(0, 1, 3, 4, 2, 5)


def acts_trivially_residual(system: KZOperatorSystem, m: np.ndarray,
                            degree: int = 2) -> float:
    """|| M . (aa) - aa || over the N^2 components, safe-projected."""
    mb = _blocks(system, m)
    n, aa = system.n, system.aa_blocks
    defects = (sum(mb[i, j, k, l] @ aa[k, l] for k in range(n) for l in range(n)) - aa[i, j]
               for i in range(n) for j in range(n))
    return max_norms(projected_norms(system.space, r, degree) for r in defects)[0]


def invariance_residual(system: KZOperatorSystem, m: np.ndarray, data,
                        degree: int = 2) -> float:
    """|| [M, image of the two-fold coproduct of X] || over Lie basis X."""
    n, d = system.n, system.space.dim
    eye_n, eye_d = np.eye(n), np.eye(d)
    # project the Fock factor of the commutator norm
    big_mask = np.tile(system.space.safe_mask(degree), n * n)
    worst = 0.0
    for lbl, s in sigma_basis(system.space, data).items():
        r = rho(data, lbl)
        s = s.toarray()
        delta2 = (np.kron(np.kron(r, eye_n), eye_d)
                  + np.kron(np.kron(eye_n, r), eye_d)
                  + np.kron(np.kron(eye_n, eye_n), s))
        comm = m @ delta2 - delta2 @ m
        sub = comm[np.ix_(big_mask, big_mask)]
        worst = max(worst, float(np.linalg.norm(sub, 2)))
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
    di = np.diag(i_vals.astype(complex))
    dit = np.diag(itilde.astype(complex))
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
    """
    space = system.space
    n, d = system.n, space.dim
    s = float(params.sign)
    q = params.q_real
    cond = float(np.linalg.cond(m))
    if cond > 1e8:
        raise ValueError(f"coassociator matrix numerically singular (cond={cond:.2e})")
    minv = np.linalg.inv(m)
    v_big = np.kron(cross_matrix_v(system, q, params.sign), np.eye(d))
    mu = _blocks(system, minv @ system.p_big @ m)
    mv = _blocks(system, minv @ v_big @ m)
    a_t, ap_t = dressed_generators(system, params, dressing)

    eye = np.eye(d, dtype=complex)
    norms = [[], [], []]
    for i in range(n):
        for j in range(n):
            r1 = a_t[i] @ a_t[j]
            r2 = ap_t[i] @ ap_t[j]
            r3 = a_t[i] @ ap_t[j] - (1.0 if i == j else 0.0) * eye
            for l in range(n):
                for mm in range(n):
                    r1 -= s * mu[j, i, l, mm] @ (a_t[mm] @ a_t[l])
                    r2 -= s * (ap_t[l] @ ap_t[mm]) @ mu[l, mm, i, j]
                    r3 -= s * ap_t[l] @ mv[i, l, j, mm] @ a_t[mm]
            for group, r in zip(norms, (r1, r2, r3)):
                group.append(projected_norms(space, r, degree))
    return [CaseResult(name, max_norms(group)[0], tol, {"cond_M": cond})
            for name, group in zip(("coassoc_relation_aa", "coassoc_relation_apap",
                                    "coassoc_relation_cross"), norms)]
