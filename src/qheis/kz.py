"""Reduced Knizhnik-Zamolodchikov machinery: the scalar three-function
system, its hypergeometric closed forms and x -> 0 limits, and the
coassociator matrix M as the connection matrix of the operator KZ
equation's two normalized Frobenius solutions.

Scalar side.  With s = +-1 (Weyl/Clifford) and eta := 2*hbar the system
is f' = eta (P_s/x + A_s/(x-1)) f on a 3-vector f = (f1, f2, f3), with

    P_s = [[s(n-1), -1, 0], [0, -s, 0], [0, 1, s(n-1)]],
    A_s = -[[s, 0, 0], [1, -s(n-1), 0], [-s, 0, -s(n-1)]]

(scalar_matrices): the operator equation below on C^3.  The solution
read is Y1 e2, e2 = (0, 1, 0), so f2 ~ (1-x)^(s eta (n-1)) and f1, f3 -> 0
as x -> 1.  The combination f1 + s f2 + (n+1) f3 equals
s [x(1-x)]^(s eta (n-1)) exactly, and the closed forms are

    f2 = x^(-s eta) (1-x)^(s eta (n-1)) F(s eta, -s eta, 1 + s eta n; 1-x)
    f1 = (eta/(1 + s eta n)) F(1+s eta, 1-s eta, 2+s eta n; 1-x)
         x^(-s eta) (1-x)^(1 + s eta (n-1))
    f3 = (s [x(1-x)]^(s eta (n-1)) - f1 - s f2) / (n+1).

The limits of the rescaled combinations as x -> 0 are

    l1 = lim x^(-s eta (n-1)) (n f1 - s f2)          = -s n / [n]_q
    l3 = lim x^(-s eta (n-1)) (f1 + s f2 + (n+1) f3) = s
    l2 = lim x^(-s eta (n-1)) (n f3 + s f2)          = (n l3 - l1)/(n+1)
                                                     = s (n/(n+1)) (1 + 1/[n]_q)

with [n]_q = (q^n - q^-n)/(q - q^-1) at q = exp(pi i eta) = e^h.  The
l1 coefficient follows from the connection-formula asymptotics
(the surviving term of n f1 - s f2 is n eta Gamma(1+s eta n)
Gamma(-s eta n) / (Gamma(1+s eta) Gamma(1-s eta)) = -s n/[n]_q), and l2
is the exact consequence of l1 and l3.  The closed forms' own limits
(limits_closed_route, gamma arithmetic) and the limits read off the
scalar connection matrix M_s (limits_from_connection) are checked against
these expressions.

Operator side.  On C^N x C^N x Fock with P the permutation matrix and
A = 1 x e_ij x a+_j a^i, the coassociator matrix is

    M = lim_{eps -> 0} eps^(-eta P) OrdExp[ eta int_eps^(1-eps) (P/x + A/(x-1)) dx ]
        eps^(eta A),

the connection matrix M = Y0^-1 Y1 of the solutions Y0 = H0(x) x^(eta P)
and Y1 = H1(1-x) (1-x)^(eta A) of Y' = eta (P/x + A/(x-1)) Y normalized
at x = 0 and x = 1 (Drinfeld 1990; Le-Murakami 1996).  H0 and H1 are
power series with constant term 1 in the Koebe variable
z = (1 - sqrt(1-u))/(1 + sqrt(1-u)) of their argument u, whose
coefficients follow from a linear recursion; u = 1/2 is
z = 3 - 2 sqrt 2 ~ 0.172, where both converge in 20-25 terms (about 50
in u itself), so the limit is exact in closed form, with no
regularization distance and no integrator (coassociator_matrices,
which sums the series for several hbar2 at once).  The scalar system is
solved by the same series (_frobenius_series): f = Y1 e2 on x >= 1/2
and Y0 M_s e2 on x < 1/2.

P and A both conserve the sl(N) weight e_a + e_b + occ
of a basis vector (a, b, occ), so P, A, both series and M are block
diagonal over the weights, and no block is larger than N^2.  They are
block operators (``fock.BlockOperator``) on the weight partition, whose
parts are keyed by the weight, built from their entries; the blocks of
one size form one stack.  Relabelling the modes by a permutation maps
the weight block W to the block pi W and commutes with P and A, so M on
pi W is M on W with its members relabelled.  The series are therefore
summed only on the sorted-key blocks (W_1 >= ... >= W_N), one per
orbit of the mode permutations (18 of 33 blocks at N = 2, cutoff 5; 92
of 996 at N = 4, cutoff 8), each in the eigenbasis of its P or A block
(one batched eigh per stack at construction), and one gather fills every
block of M from them.  M is returned as a block operator of the same
layout, and every check works on its blocks: norms are
``verify.projected_norms`` (the largest block norm, a direct sum),
products and conjugations are block products, the coproduct images
Delta(X) are one stack of block operators that moves each weight by the
weight of X, and the relation and acts-trivially checks are small
batched products of the blocks with ladder coefficients fixed per block
(BlockLadders): on a weight block the dressing is one number, so each
defect is a partial permutation whose entries those products give.

None of P, A, the series operands of the sorted-key blocks
(SeriesStack), the gather, the BlockLadders, the identity or the
Delta(X) stack depends on q: the system (build_operator_system)
is fixed by its space, and ``kz-operator`` keeps it on the space
(``FockSpace.derived``), built once per process for each space held,
with its weight partition, layouts and product plans.  Its arrays are
read-only, and only M and what is made from it are computed per call.

M = 1 + zeta(2) eta^2 [P, A] + O(h^3), acts trivially on the
doubly-contravariant tensor a^i a^j, commutes with the image of the
two-fold coproduct, and conjugates the numeric matrices U = P and
V = q^s P q^P into the matrices governing the deformed exchange
relations of the dressed generators a~^i = a^i, a~+_i = a+_i I~(n),
I~(n) = (n+1)_{q^(2s)} / (n+1): the paper's family a~^i = I(n) a^i,
I~(n) = (n+1)_{q^(2s)} / ((n+1) I(n)) at I = 1.  The system is bosonic,
so its sign is WEYL; coassociator_relation_check takes one q and the
signs to check, CLIFFORD among them as a control that must fail.

Dependencies.  Both sides need numpy alone: importing kz, and running
the operator side, loads no scipy module.  The scalar side's closed forms
take the gamma function from ``qspecial``, which loads scipy.special on
first use.  scipy's solve_ivp and expm stay reachable as kz.solve_ivp and
kz.expm, imported on first lookup (module ``__getattr__``), for the
benchmark tracer, which times them as layers of their own.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .fock import (CLIFFORD, WEYL, BlockOperator, FockSpace, Partition, Statistics, _read_only,
                   diagonal)
from .liealg import LieData, coproduct_rep, sigma_entries
from .qspecial import (checked_q, gamma, gauss_2f1, gauss_2f1_deriv, qbracket, qnum,
                       rgamma)
from .verify import CaseResult, projected_norms


def __getattr__(name):
    """scipy's solve_ivp and expm, imported on the first lookup of
    kz.solve_ivp or kz.expm and then bound in the module.  No function of
    kz calls either; the benchmark tracer looks both up to time them as
    layers of their own, so they stay reachable without an import of kz
    loading scipy."""
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp as found
    elif name == "expm":
        from scipy.linalg import expm as found
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = found
    return found


class IntegrationError(RuntimeError):
    pass


@dataclass(frozen=True)
class KZScalarParams:
    """Scalar-system parameters: the number eigenvalue n (>= 1), the
    doubled deformation parameter eta = 2*hbar and the Weyl/Clifford sign."""

    n: float
    hbar2: complex
    sign: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")
        if abs(self.hbar2) > 0.2:
            raise ValueError("|hbar2| <= 0.2 required (perturbative regime)")


def limits_reference(params: KZScalarParams) -> tuple[complex, complex, complex]:
    """The closed expressions for (l1, l2, l3), [n]_q at q = exp(pi i eta)."""
    s = params.sign
    l1 = -s * params.n / qbracket(params.n, cmath.exp(1j * math.pi * params.hbar2))
    l3 = complex(s)
    l2 = (params.n * l3 - l1) / (params.n + 1.0)
    return l1, l2, l3


# ---------------------------------------------------------------------------
# scalar system
# ---------------------------------------------------------------------------


def scalar_matrices(params: KZScalarParams) -> tuple[np.ndarray, np.ndarray]:
    """P_s and A_s of the scalar system f' = eta (P_s/x + A_s/(x-1)) f."""
    n, s = params.n, params.sign
    p = np.array([[s * (n - 1.0), -1.0, 0.0], [0.0, -s, 0.0], [0.0, 1.0, s * (n - 1.0)]])
    a = -np.array([[s, 0.0, 0.0], [1.0, -s * (n - 1.0), 0.0], [-s, 0.0, -s * (n - 1.0)]])
    return p, a


def _scalar_series(params: KZScalarParams, us):
    """The eigendecompositions (vals, vecs, vecs^-1) of P_s and A_s,
    W = vecs_P^-1 vecs_A, and H0 and H1 at each u in us (0 < u <= 1/2),
    each an (len(us), 3, 3) array in its own matrix's eigenbasis: one
    _frobenius_series call on the stack of the two."""
    (p_vals, p_vecs), (a_vals, a_vecs) = (np.linalg.eig(x) for x in scalar_matrices(params))
    p_inv, a_inv = np.linalg.inv(p_vecs), np.linalg.inv(a_vecs)
    w, w_inv = p_inv @ a_vecs, a_inv @ p_vecs
    # A_s in P_s's eigenbasis for H0, P_s in A_s's for H1; neither need be
    # normal, so the bound takes their spectral norms
    c = np.stack([(w * a_vals) @ w_inv, (w_inv * p_vals) @ w])
    h = _frobenius_series(np.stack([p_vals, a_vals]), c,
                          np.linalg.norm(c, 2, axis=(-2, -1)).max(),
                          np.array([params.hbar2]), us)[:, 0]
    return (p_vals, p_vecs, p_inv), (a_vals, a_vecs, a_inv), w, h[:, 0], h[:, 1]


def scalar_connection(params: KZScalarParams) -> np.ndarray:
    """The scalar connection matrix M_s = Y0^-1 Y1 = 2^(eta P_s) H0(1/2)^-1
    H1(1/2) 2^(-eta A_s), as for the operator system (coassociator_matrices)."""
    (p_vals, p_vecs, _), (a_vals, _, a_inv), w, h0, h1 = _scalar_series(params, (0.5,))
    return _connection(params.hbar2, p_vals, p_vecs, a_vals, a_inv, w, h0[0], h1[0])


def scalar_trajectory(params: KZScalarParams, m: np.ndarray, xs) -> np.ndarray:
    """The solution f = Y1 e2 at each x in xs, as a (len(xs), 3) array:
    H1(1-x) (1-x)^kappa e2 on x >= 1/2 (e2 is a kappa-eigenvector of eta A_s,
    kappa = s eta (n-1)), and H0(x) x^(eta P_s) m e2 on x < 1/2, where
    Y1 = Y0 m with m = M_s (scalar_connection).  Every series is summed at
    a point u = min(x, 1-x) <= 1/2.  Raises ValueError for an x outside
    (0, 1)."""
    xs = np.asarray(xs, dtype=float)
    if not np.all((xs > 0.0) & (xs < 1.0)):
        raise ValueError("x must lie in (0, 1)")
    low = xs < 0.5
    us = np.where(low, xs, 1.0 - xs)
    (p_vals, p_vecs, p_inv), (_, a_vecs, a_inv), _, h0, h1 = _scalar_series(params, us)
    kappa = params.sign * params.hbar2 * (params.n - 1.0)
    near_one = (h1 @ a_inv[:, 1]) @ a_vecs.T * us[:, None]**kappa
    # x^(eta P_s) is diagonal in P_s's eigenbasis
    near_zero = h0 @ (us[:, None]**(params.hbar2 * p_vals) * (p_inv @ m[:, 1]))[..., None]
    return np.where(low[:, None], near_zero[..., 0] @ p_vecs.T, near_one)


def limits_from_connection(params: KZScalarParams,
                           m: np.ndarray) -> tuple[complex, complex, complex]:
    """The x -> 0 limits (l1, l2, l3), read off the connection matrix m = M_s.

    Near 0, f = H0(x) x^(eta P_s) m e2 with H0(0) = 1.  The three
    combinations vanish on P_s's -s eigenvector, and x^(eta P_s) = x^kappa
    on its s(n-1) eigenspace, whose projector is Pi = (P_s + s)/(s n), so
    the limits are l1 = n v1 - s v2, l2 = n v3 + s v2 and
    l3 = v1 + s v2 + (n+1) v3 of v = Pi m e2."""
    n, s = params.n, params.sign
    v1, v2, v3 = (scalar_matrices(params)[0] + s * np.eye(3)) @ m[:, 1] / (s * n)
    return n * v1 - s * v2, n * v3 + s * v2, v1 + s * v2 + (n + 1.0) * v3


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
    d_pre2 = (-a / x - a * (n - 1.0) / z) * pre2
    f2p = d_pre2 * big_f - pre2 * big_fp

    g = gauss_2f1(1.0 + a, 1.0 - a, 2.0 + a * n, z)
    gp = gauss_2f1_deriv(1.0 + a, 1.0 - a, 2.0 + a * n, z)
    c1 = eta / (1.0 + a * n)
    pre1 = x**(-a) * z**(1.0 + a * (n - 1.0))
    d_pre1 = (-a / x - (1.0 + a * (n - 1.0)) / z) * pre1
    f1p = c1 * (gp * (-1.0) * pre1 + g * d_pre1)

    comb = s * (x * z)**(a * (n - 1.0))
    combp = comb * a * (n - 1.0) * (1.0 / x - 1.0 / z)
    f3p = (combp - f1p - s * f2p) / (n + 1.0)
    return f1p, f2p, f3p


def scalar_ode_residual(params: KZScalarParams, xs) -> float:
    """max over xs of |closed-form derivative - eta (P_s/x + A_s/(x-1)) f|."""
    p, a = scalar_matrices(params)
    worst = 0.0
    for x in xs:
        f = np.array(closed_form_f(params, x))
        dtrue = np.array(closed_form_derivs(params, x))
        worst = max(worst, float(np.abs(dtrue - params.hbar2 * (p / x + a / (x - 1.0)) @ f).max()))
    return worst


def combination_identity_residual(params: KZScalarParams, f: np.ndarray, xs) -> float:
    """sup |f1 + s f2 + (n+1) f3 - s [x(1-x)]^(s eta (n-1))| over the rows
    of f, the solution at the points xs."""
    n, s = params.n, params.sign
    kappa = s * params.hbar2 * (n - 1.0)
    xs = np.asarray(xs, dtype=float)
    return float(np.abs(f[:, 0] + s * f[:, 1] + (n + 1.0) * f[:, 2]
                        - s * (xs * (1.0 - xs))**kappa).max())


def limits_closed_route(params: KZScalarParams) -> tuple[complex, complex, complex]:
    """The limits extracted from the closed forms via the connection formula.

    Re-expanding F(.; 1-x) around x = 0 cancels the leading branches of
    n f1 - s f2 and leaves the coefficient of x^(s eta (n-1)) as a pure
    gamma-function ratio,

        l1 = n eta Gamma(1 + s eta n) Gamma(-s eta n)
                   / (Gamma(1 + s eta) Gamma(1 - s eta)),

    while the decoupled combination gives l3 = s exactly and l2 follows
    from the exact relation l2 = (n l3 - l1)/(n + 1).  Everything here is
    gamma arithmetic; agreement with limits_reference (which is
    exponential arithmetic, [n]_q from powers of q) is a nontrivial
    reflection-identity check.
    """
    n, eta, s = params.n, params.hbar2, params.sign
    a = s * eta
    l1 = n * eta * gamma(1.0 + a * n) * gamma(-a * n) * rgamma(1.0 + a) * rgamma(1.0 - a)
    l3 = complex(s)
    l2 = (n * l3 - l1) / (n + 1.0)
    return l1, l2, l3


# ---------------------------------------------------------------------------
# operator system and the coassociator matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockLadders:
    """The undressed ladder coefficients of one stack of weight blocks, for
    the relation and acts-trivially checks.  A member v = (k, l, o) of the
    block of weight W has o = W - e_k - e_l; W - e_i is a Fock state, or
    missing, for each i.  On a bosonic space a^k a^l = a^l a^k and
    <W| a+_k a+_l |o> = c_v, so c serves all three quadratic tensors, and
    the annihilator that undoes alpha's creator is alpha transposed."""

    c: np.ndarray  # (n_blocks, s): c_v = <o| a^l a^k |W>
    alpha: np.ndarray  # (n_blocks, N, s): <W - e_i| a+_l |o> at [i, v] with k = i, else 0
    direct: np.ndarray  # (n_blocks, N, N): <W - e_i| a^i a+_j |W - e_j>
    safe: np.ndarray  # (n_blocks, s): W and o are states safe at creator degree 2
    cross_safe: np.ndarray  # (n_blocks, N, N): W - e_i and W - e_j are states safe at degree 2


@dataclass(frozen=True)
class SeriesStack:
    """The q-independent operands of the two Frobenius series on one stack
    of sorted-key weight blocks (W_1 >= ... >= W_N), one block per
    mode-permutation orbit: the eigendecompositions
    P = p_vecs diag(p_vals) p_vecs^T and A = a_vecs diag(a_vals) a_vecs^T
    of their real symmetric blocks, W = p_vecs^T a_vecs, and the C of each
    series in its B's eigenbasis, H0's (C = W diag(a_vals) W^T) stacked
    before H1's (C = W^T diag(p_vals) W).  W is orthogonal, so C is
    symmetric and c_norm = max |vals| is its spectral norm."""

    p_vals: np.ndarray  # (n_blocks, s)
    p_vecs: np.ndarray  # (n_blocks, s, s)
    a_vals: np.ndarray
    a_vecs: np.ndarray
    w: np.ndarray  # (n_blocks, s, s)
    c: np.ndarray  # (2 n_blocks, s, s)
    c_norm: float


@dataclass(frozen=True)
class KZOperatorSystem:
    """P and A on C^N x C^N x Fock as block operators on the weight
    partition (``fock.BlockOperator``), the SeriesStack of each stack of
    sorted-key blocks, the gather that fills the layout of P from those
    blocks (entry e of the layout is entry gather[e] of the sorted-key
    blocks, stack after stack, relabelled by the mode permutation that
    sorts its weight), the BlockLadders of each stack, and <0| a^j a+_j |0>
    per mode j (none when the vacuum is not safe at creator degree 2)."""

    space: FockSpace
    n: int
    p: BlockOperator
    a: BlockOperator
    series: tuple  # SeriesStack per stack of sorted-key blocks
    gather: np.ndarray  # (p.size,)
    ladders: tuple  # BlockLadders per stack
    vacuum: np.ndarray  # (N,), or (0,)

    @functools.cached_property
    def eye(self) -> BlockOperator:
        """The identity, on the layout of P, A and M."""
        return diagonal(self.p.partition, np.ones(self.p.partition.of.size)).read_only()

    @functools.cached_property
    def delta(self) -> BlockOperator:
        """The image Delta(X) = rho(X) x 1 x 1 + 1 x rho(X) x 1 + 1 x 1 x sigma(X)
        of the two-fold coproduct of every sl(N) basis element X, one
        stack of block operators on the weight partition built from
        their entries: Delta(X) moves every weight by one vector (for
        E_ij, by e_i - e_j)."""
        space, n, d = self.space, self.n, self.space.dim
        data = LieData("sl", n)
        # the entries of every Delta(X), X numbered by xs
        xs, rows, cols, vals = [], [], [], []
        occ, pairs = np.arange(d), np.arange(n * n) * d
        label_of, sigma_row, sigma_col, sigma_data = sigma_entries(space, data)
        for x, lbl in enumerate(data.basis_labels):
            rep = coproduct_rep(data, lbl)
            p1, p2 = np.nonzero(rep)
            mine = label_of == x
            sig_row, sig_col, sig_data = sigma_row[mine], sigma_col[mine], sigma_data[mine]
            rows += [(p1 * d)[:, None] + occ, pairs[:, None] + sig_row]
            cols += [(p2 * d)[:, None] + occ, pairs[:, None] + sig_col]
            vals += [np.repeat(rep[p1, p2], d), np.tile(sig_data, n * n)]
            xs.append(np.full(p1.size * d + n * n * sig_data.size, x))
        xs, rows, cols, vals = (np.concatenate([a.reshape(-1) for a in arrs])
                                for arrs in (xs, rows, cols, vals))
        return BlockOperator.from_entries(self.p.partition, rows, cols, vals.astype(complex),
                                          xs).read_only()


def build_operator_system(space: FockSpace) -> KZOperatorSystem:
    """Assemble P and A on C^N x C^N x Fock for an sl(N) bosonic space,
    from their entries, on the weight partition: basis vector (a, b, o)
    is keyed by its weight e_a + e_b + o, and both P and A keep it.  P
    maps (a, b, o) to (b, a, o), and A = 1 x e_ij x a+_j a^i maps it to
    (a, i, o - e_i + e_b) for each i, with the amplitude
    <o - e_i| a^i |o> <o - e_i + e_b| a+_b |o - e_i> read off the space's
    ladder tables."""
    if space.statistics is not Statistics.BOSE:
        raise ValueError("operator system needs a bosonic space")
    n, d = space.modes, space.dim
    # amp[k, y] = <y - e_k| a^k |y> = <y| a+_k |y - e_k>, down[k, y] the index
    # of y - e_k and up[k, x] that of x + e_k; column d stands for a state
    # outside the truncated space
    amp, down, up = space.ap.vals.real, space.ap.cols, space.an.cols
    safe = np.append(space.safe_mask(2), False)
    e = np.eye(n, dtype=int)
    weights = ((e[:, None, None, :] + e[None, :, None, :]) + space.occ).reshape(n * n * d, n)
    parts = Partition(weights, np.zeros(n, dtype=int), np.tile(space.shell, n * n))
    cols = np.arange(n * n * d)
    a_c, b_c, o_c = np.unravel_index(cols, (n, n, d))
    p = BlockOperator.from_entries(parts, (b_c * n + a_c) * d + o_c, cols, np.ones(cols.size))
    # the entry of A in column (a, b, o) and row (a, i, o - e_i + e_b), for each i with o_i > 0
    i = np.arange(n)[:, None]
    o_r = up[b_c, down[i, o_c]]
    hit = o_r < d
    a = BlockOperator.from_entries(parts, ((a_c * n + i) * d + o_r)[hit],
                                   np.broadcast_to(cols, hit.shape)[hit],
                                   (amp[i, o_c] * amp[b_c, o_r])[hit])
    series, gather = _orbit_series(space, p, a)
    ladders = []
    for src, _, stack in p.stacks():
        n_blocks, s = stack.shape[:2]
        members = parts.members[parts.start[src][:, None] + np.arange(s)]
        k, l, o = np.unravel_index(members, (n, n, d))
        w_k = up[l, o]  # the state W - e_k of each member
        w = up[k[:, 0], w_k[:, 0]]  # the state W of each block
        lam = amp[l, w_k]  # <o| a^l |W - e_k> = <W - e_k| a+_l |o>
        alpha = (k[:, None, :] == np.arange(n)[:, None]) * lam[:, None, :]
        w_i = np.full((n_blocks, n), d)  # W - e_i, from the members with k = i
        w_i[np.arange(n_blocks)[:, None], k] = w_k
        amp_w = amp[:, w].T
        ladders.append(BlockLadders(*_read_only(
            lam * amp[k, w[:, None]], alpha, amp_w[:, :, None] * amp_w[:, None, :],
            safe[w][:, None] & safe[o], safe[w_i][:, :, None] & safe[w_i][:, None, :])))
    vac = space.state_index((0,) * n)
    vacuum, = _read_only(amp[np.arange(n), up[:, vac]]**2 if safe[vac] else np.zeros(0))
    return KZOperatorSystem(space, n, p.read_only(), a.read_only(), series, gather,
                            tuple(ladders), vacuum)


def _orbit_series(space: FockSpace, p: BlockOperator,
                  a: BlockOperator) -> tuple[tuple, np.ndarray]:
    """The SeriesStack of each stack of sorted-key weight blocks of P and
    A, and the gather index that fills every block of their layout from
    them.

    Relabelling the modes by a permutation pi sends the basis vector
    (a, b, o) to (pi a, pi b, o') with o'_(pi k) = o_k, and the weight
    block W to pi W.  P and A commute with it, so M does too: its block at
    pi W is its block at W with the members relabelled.  Each weight is
    sorted by the stable descending argsort of its entries, and the
    blocks of one orbit have one size, so the sorted-key block of each
    block's orbit lies in the same stack."""
    n, d = space.modes, space.dim
    parts = p.partition
    sort = np.argsort(-parts.key, axis=1, kind="stable")  # sorted key = key[sort]
    pi = np.argsort(sort, axis=1)
    rep = np.searchsorted(parts.codes, (np.take_along_axis(parts.key, sort, 1) - parts.low)
                          @ parts.radix)
    # the place of each basis vector, relabelled, in the sorted-key block of its orbit
    a_c, b_c, o_c = np.unravel_index(np.arange(n * n * d), (n, n, d))
    of = parts.of
    radix = (space.cutoff + 1) ** np.arange(n - 1, -1, -1)  # increasing in the basis order
    moved = np.searchsorted(space.occ @ radix,
                            np.take_along_axis(space.occ[o_c], sort[of], 1) @ radix)
    place = parts.place[(pi[of, a_c] * n + pi[of, b_c]) * d + moved]
    series, gather = [], []
    offset, at = np.zeros(rep.size, dtype=int), 0  # of each sorted-key block in M's data
    for (src, _, p_stack), (_, _, a_stack) in zip(p.stacks(), a.stacks()):
        s = p_stack.shape[1]
        mine = rep[src] == src
        offset[src[mine]] = at + s * s * np.arange(mine.sum())
        at += s * s * mine.sum()
        row = place[parts.members[parts.start[src][:, None] + np.arange(s)]]
        gather.append((offset[rep[src]][:, None, None] + s * row[:, :, None]
                       + row[:, None, :]).reshape(-1))
        p_vals, p_vecs = np.linalg.eigh(p_stack[mine])
        a_vals, a_vecs = np.linalg.eigh(a_stack[mine])
        w = p_vecs.transpose(0, 2, 1) @ a_vecs
        c = np.concatenate([(w * a_vals[:, None, :]) @ w.transpose(0, 2, 1),
                            (w.transpose(0, 2, 1) * p_vals[:, None, :]) @ w])
        series.append(SeriesStack(*_read_only(p_vals, p_vecs, a_vals, a_vecs, w, c),
                                  float(max(np.abs(p_vals).max(), np.abs(a_vals).max()))))
    return tuple(series), _read_only(np.concatenate(gather))[0]


_SERIES_TERMS = 200  # the most terms a Frobenius series may take
_RESONANCE = 1e-6  # the least relative distance of k - hbar2 (b_i - b_j) from 0
_TAIL = np.finfo(float).eps / 2  # the series stops once its tail is below this
_Z_HALF = 3.0 - 2.0 * math.sqrt(2.0)  # the Koebe variable of u = 1/2


def _frobenius_series(b_vals: np.ndarray, c: np.ndarray, c_norm: float,
                      hbar2s: np.ndarray, us) -> np.ndarray:
    """H(u) at each u in us (0 < u <= 1/2) and hbar2 in hbar2s for one stack
    of blocks, in B's eigenbasis, as an (n_u, n_hbar2, n_blocks, s, s)
    array: the solution H, H(0) = 1, of

        u H' = hbar2 [B, H] - hbar2 u/(1-u) C H,

    with B = diag(b_vals) and C = c in that basis, ||C||_2 <= c_norm on
    every block.  H is analytic in the plane slit along [1, inf), which
    u = 4z/(1+z)^2 maps from the unit disk, so H is summed as a power
    series in the Koebe variable z = (1 - sqrt(1-u))/(1 + sqrt(1-u)), in
    which u = 1/2 is z = 3 - 2 sqrt 2 ~ 0.172.  There u H' = z(1+z)/(1-z) dH/dz and
    u/(1-u) = 4z/(1-z)^2, so H = sum h_k z^k has h_0 = 1 and

        (k - G) o h_k = -(k - 1 + G) o h_(k-1) - 4 hbar2 C S_(k-1),

    G_ij = hbar2 (b_i - b_j), o the entrywise product and
    S_k = h_0 + ... + h_k: one batched matmul and a few entrywise
    operations per term, for every hbar2 at once.

    The series stops once the Frobenius norm of its tail at u = 1/2, which
    bounds the tail at every u <= 1/2, is provably below _TAIL for every
    hbar2.  With sigma = max|G|, c = max|hbar2| c_norm,
    rho = max(1, (k + sigma)/(k + 1 - sigma)) and
    gamma = 4c/(k + 1 - sigma), every later term obeys
    ||h_j|| <= rho ||h_(j-1)|| + gamma ||S_(j-1)||, and so
    ||S_j|| <= rho ||h_(j-1)|| + (1 + gamma) ||S_(j-1)||.  The Perron root
    lambda of [[rho, gamma], [rho, 1 + gamma]] then bounds the growth of
    V_j = ||h_j|| + (lambda/rho - 1) ||S_j||, so the tail after term k is
    at most V_k z^(k+1) lambda/(1 - z lambda) once z lambda < 1.  V_k is
    measured only once the bound would hold at its last measured value,
    so the series may run a few terms past the first k that meets it.
    Raises IntegrationError at a resonance (a denominator within
    _RESONANCE k of zero) or when the bound is not met within
    _SERIES_TERMS terms."""
    eta = np.asarray(hbar2s, dtype=complex)[:, None, None, None]
    gap = eta * (b_vals[:, :, None] - b_vals[:, None, :])
    # the nearest k >= 1 to each gap is where its denominator is smallest
    k_near = np.clip(np.rint(gap.real), 1, _SERIES_TERMS)
    if np.any(np.abs(k_near - gap) < _RESONANCE * k_near):
        raise IntegrationError(f"resonant Frobenius series at hbar2 in {list(hbar2s)}")
    minus_4eta_c = -4.0 * eta * c
    c_bound = 4.0 * np.abs(eta).max() * c_norm
    spread = np.abs(gap).max()
    root = np.sqrt(1.0 - np.asarray(us, dtype=float))
    zs = ((1.0 - root) / (1.0 + root))[:, None, None, None, None]
    h = np.broadcast_to(np.eye(b_vals.shape[1], dtype=complex), gap.shape).copy()
    partial = h.copy()
    out = np.broadcast_to(h, (zs.shape[0], *gap.shape)).copy()
    v = 0.0  # V, measured only where the bound may hold at its last measured value
    for k in range(1, _SERIES_TERMS + 1):
        h = ((1 - k - gap) * h + minus_4eta_c @ partial) / (k - gap)
        partial += h
        out += zs**k * h
        if k + 1 <= spread:
            continue
        rho = max(1.0, (k + spread) / (k + 1 - spread))
        gamma = c_bound / (k + 1 - spread)
        trace = rho + 1.0 + gamma
        lam = (trace + math.sqrt(trace * trace - 4.0 * rho)) / 2.0
        if _Z_HALF * lam >= 1.0:
            continue
        factor = _Z_HALF**(k + 1) * lam / (1.0 - _Z_HALF * lam)
        if factor * v <= _TAIL:
            # the Frobenius norm of the whole stack bounds that of each block
            v = np.linalg.norm(h) + (lam / rho - 1.0) * np.linalg.norm(partial)
            if factor * v <= _TAIL:
                return out
    raise IntegrationError(f"Frobenius series not converged in {_SERIES_TERMS} terms")


def _connection(eta, p_vals: np.ndarray, p_vecs: np.ndarray, a_vals: np.ndarray,
                a_inv: np.ndarray, w: np.ndarray, h0: np.ndarray, h1: np.ndarray) -> np.ndarray:
    """M = 2^(eta P) H0(1/2)^-1 H1(1/2) 2^(-eta A), from H0 in P's
    eigenbasis and H1 in A's, with P = p_vecs diag(p_vals) p_vecs^-1,
    A = a_vecs diag(a_vals) a_inv and W = p_vecs^-1 a_vecs; every argument
    may carry leading batch axes."""
    # 2^(eta P) and 2^(-eta A) are diagonal in their eigenbases
    mid = (np.exp(math.log(2.0) * eta * p_vals)[..., None] * np.linalg.solve(h0, w @ h1)
           * np.exp(-math.log(2.0) * eta * a_vals)[..., None, :])
    return p_vecs @ mid @ a_inv


def coassociator_matrices(system: KZOperatorSystem, hbar2s) -> list[BlockOperator]:
    """The coassociator M at each hbar2 in hbar2s, as a block operator on
    the layout of P and A: the regularized path-ordered integral

        M = lim_{eps -> 0} eps^(-eta P) OrdExp[eta int_eps^(1-eps) (P/x + A/(x-1)) dx]
            eps^(eta A)

    (eta = hbar2), in closed form.  The normalized Frobenius solutions
    Y0 = H0(x) x^(eta P) and Y1 = H1(1-x) (1-x)^(eta A) of
    Y' = eta (P/x + A/(x-1)) Y, H0(0) = H1(0) = 1, differ by the constant
    connection matrix

        M = Y0^-1 Y1 = 2^(eta P) H0(1/2)^-1 H1(1/2) 2^(-eta A).

    H0 solves x H0' = eta [P, H0] - eta x/(1-x) A H0 and H1 the same with
    P and A swapped; both converge at 1/2 in 20-25 terms of the Koebe
    variable (_frobenius_series).  Per stack of sorted-key blocks
    (:class:`SeriesStack`), H0 in P's eigenbasis and H1 in A's are one
    series call for every hbar2 at once; W = vecs_P^T vecs_A carries one
    basis into the other.  One gather (``system.gather``) then fills every
    block of M, for every hbar2, from its orbit's sorted-key block.  No
    integrator is involved.  M is the identity, exactly, at hbar2 = 0."""
    hbar2s = np.asarray(hbar2s, dtype=complex)
    live = hbar2s != 0
    parts, lay = system.p.partition, system.p.layout
    out = [complex(1) * system.eye for _ in hbar2s]
    if not live.any():
        return out
    eta = hbar2s[live][:, None, None]
    stacks = []
    for ser in system.series:
        # H0 (B, C = P, A) and H1 (B, C = A, P) summed as one stack
        h = _frobenius_series(np.concatenate([ser.p_vals, ser.a_vals]), ser.c, ser.c_norm,
                              hbar2s[live], (0.5,))[0]
        h0, h1 = np.split(h, 2, axis=1)
        # W is orthogonal, so W^-1 is its transpose
        m = _connection(eta, ser.p_vals, ser.p_vecs, ser.a_vals, ser.a_vecs.transpose(0, 2, 1),
                        ser.w, h0, h1)
        stacks.append(m.reshape(m.shape[0], -1))
    # every block relabelled from the sorted-key block of its orbit
    data = np.concatenate(stacks, axis=1)[:, system.gather]
    for i, at in enumerate(np.flatnonzero(live)):
        out[at] = BlockOperator(parts, lay, data[i])
    return out


def _safe_max(defect: np.ndarray, safe: np.ndarray) -> float:
    """The largest modulus among the safe entries of a defect: its norm,
    when each of its D x D Fock blocks holds at most one entry per row and
    per column."""
    return float(np.abs(defect[safe]).max(initial=0.0))


def acts_trivially_residual(system: KZOperatorSystem, m: BlockOperator) -> float:
    """|| M . (aa) - aa || over the N^2 components, safe-projected at
    creator degree 2: aa is the column of the Fock operators a^i a^j,
    block (i, j) at pair i N + j.  Column W of the defect is
    (M_W - 1) c_W on weight block W (BlockLadders), and each D x D block
    of it holds at most one entry per row and per column, so its norm is
    the largest modulus on the safe states."""
    return max(_safe_max((mw @ lad.c[..., None])[..., 0] - lad.c, lad.safe)
               for (_, _, mw), lad in zip(m.stacks(), system.ladders))


def invariance_residual(system: KZOperatorSystem, m: BlockOperator) -> float:
    """|| [M, image of the two-fold coproduct of X] || over the sl(N) basis
    X, with the Fock factor safe-projected at creator degree 2: the norm
    of the stack M Delta - Delta M (``verify.projected_norms``) on the
    system's stack of the Delta(X) (:attr:`KZOperatorSystem.delta`).  A
    weight block lies in one shell (its weight sums to 2 + shell), which
    Delta(X) keeps."""
    delta = system.delta
    return projected_norms(system.space, m @ delta - delta @ m, 2)


def coassociator_relation_check(system: KZOperatorSystem, q: float, signs: tuple[int, ...],
                                m: BlockOperator) -> list[list[CaseResult]]:
    """Residuals of the three exchange relations of the dressed generators
    at the deformation parameter q, with the relation matrices conjugated
    by M, safe-projected at creator degree 2, for each sign s in signs (one
    list of rows each; WEYL is the system's own, CLIFFORD a control):

      (1) a~^i a~^j   = s (M^-1 P M)^{ji}_{lm} a~^m a~^l
      (2) a~+_i a~+_j = s a~+_l a~+_m (M^-1 P M)^{lm}_{ij}
      (3) a~^i a~+_j  = delta^i_j + s a~+_l (M^-1 V M)^{il}_{jm} a~^m

    cond(M), M^-1 (block by block) and the conjugated U = P are taken once
    for all signs; V depends on s.  The dressing I~ depends on
    the shell only, so it is one number on each weight block W, and each
    defect is a batched product on the blocks with the ladder
    coefficients of BlockLadders: R_W c_W for (1) and
    I~(t) I~(t+1) c_W^T R_W for (2), with R_W = 1 - s M_W^-1 P_W M_W and
    t = |W| - 2, and for (3), at [W - e_i, W - e_j] of Fock block (i, j),

        I~(t+1) direct_ij - delta_ij - s I~(t) (alpha X_W alpha^T)_ij,
        X_W = M_W^-1 V_W M_W,

    with the vacuum's own term I~(0) <0| a^j a+_j |0> - 1 (W = e_j, no
    weight block).  Each D x D Fock block of a defect holds at most one
    entry per row and per column, so its safe-projected norm is the
    largest modulus among its entries on safe states.  Each row is held
    to 1e-12.  Raises ValueError unless q is a real number > 0 and each
    sign is WEYL or CLIFFORD, and when M holds an entry that is not finite
    or is numerically singular (cond(M) >= 1e8, a zero block included).
    """
    q = checked_q(q)
    if not set(signs) <= {WEYL, CLIFFORD}:
        raise ValueError(f"signs must be +1 or -1, not {signs!r}")
    n, eye = system.n, system.eye
    if not np.isfinite(m.data).all():
        raise ValueError("coassociator matrix holds a non-finite entry")
    sv = np.concatenate([np.linalg.svd(mw, compute_uv=False).reshape(-1)
                         for _, _, mw in m.stacks()])
    if sv.max() >= 1e8 * sv.min():
        raise ValueError(f"coassociator matrix numerically singular (singular values "
                         f"{sv.min():.2e} to {sv.max():.2e})")
    cond = float(sv.max() / sv.min())
    minv = BlockOperator(m.partition, m.layout,
                         np.concatenate([np.linalg.inv(mw).reshape(-1) for _, _, mw in m.stacks()]))
    conj_p = minv @ (system.p @ m)
    out = []
    for s in signs:
        q2s = q ** (2 * s)
        itilde = np.array([qnum(t + 1.0, q2s).real / (t + 1.0)
                           for t in range(system.space.cutoff + 2)])
        # V = q^s P q^P = q^s ((q + 1/q)/2 P + (q - 1/q)/2), since P^2 = 1
        v_p, v_1 = q**s * (q + 1.0 / q) / 2.0, q**s * (q - 1.0 / q) / 2.0
        rel = eye - s * conj_p
        conj_v = minv @ ((v_p * system.p + v_1 * eye) @ m)
        aa = apap = 0.0
        cross = float(np.abs(itilde[0] * system.vacuum - 1.0).max(initial=0.0))
        for (src, _, rw), (_, _, xw), lad in zip(rel.stacks(), conj_v.stacks(), system.ladders):
            t = m.partition.shell[src]  # |W| - 2 on each weight block W
            i0, i1 = itilde[t][:, None, None], itilde[t + 1][:, None, None]
            aa = max(aa, _safe_max((rw @ lad.c[..., None])[..., 0], lad.safe))
            apap = max(apap, _safe_max((i0 * i1 * lad.c[:, None, :] @ rw)[:, 0], lad.safe))
            alpha_x = lad.alpha @ xw @ lad.alpha.transpose(0, 2, 1)
            cross = max(cross, _safe_max(i1 * lad.direct - np.eye(n) - s * i0 * alpha_x,
                                         lad.cross_safe))
        names = ("coassoc_relation_aa", "coassoc_relation_apap", "coassoc_relation_cross")
        out.append([CaseResult(name, res, 1e-12, {"cond_M": cond})
                    for name, res in zip(names, (aa, apap, cross))])
    return out
