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
power series with constant term 1 whose coefficients follow from a
linear recursion; both converge at x = 1/2 in about 50 terms, so the
limit is exact in closed form, with no regularization distance and no
integrator (coassociator_matrices, which sums the series for several
hbar2 at once).  The scalar system is solved by the same series
(_frobenius_series): f = Y1 e2 on x >= 1/2 and Y0 M_s e2 on x < 1/2.

P and A both conserve the sl(N) weight e_a + e_b + occ
of a basis vector (a, b, occ), so P, A, both series and M are block
diagonal over the weights, and no block is larger than N^2.  The blocks
of one size are stacked into an (n_blocks, s, s) array, and each series
is summed in the eigenbasis of its P or A blocks (one batched eigh per
stack at construction).  M is returned as its weight blocks
(WeightBlocks), and every check works on them: norms of a block-diagonal
operator are the largest block norm (a direct sum), inverses and
conjugations go block by block, the commutators with the coproduct image
are block-to-block maps, and the relation and acts-trivially checks are
small batched products of the blocks with ladder coefficients fixed per
block (BlockLadders): on a weight block the dressing is one number, so
each defect is a partial permutation whose entries those products give.

M = 1 + zeta(2) eta^2 [P, A] + O(h^3), acts trivially on the
doubly-contravariant tensor a^i a^j, commutes with the image of the
two-fold coproduct, and conjugates the numeric matrices U = P and
V = q^s P q^P into the matrices governing the deformed exchange
relations of the dressed generators a~^i = a^i, a~+_i = a+_i I~(n),
I~(n) = (n+1)_{q^(2s)} / (n+1): the paper's family a~^i = I(n) a^i,
I~(n) = (n+1)_{q^(2s)} / ((n+1) I(n)) at I = 1.

Dependencies.  Both sides need numpy alone: importing kz, and running
the operator side, loads no scipy module.  The scalar side's closed forms
take the gamma function from ``qspecial``, which loads scipy.special on
first use.  scipy's solve_ivp and expm stay reachable as kz.solve_ivp and
kz.expm, imported on first lookup (module ``__getattr__``), for the
benchmark tracer, which times them as layers of their own.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .fock import FockSpace, Statistics
from .liealg import LieData, coproduct_rep, sigma_entries
from .qspecial import (DeformParams, gamma, gauss_2f1, gauss_2f1_deriv, qbracket, qnum,
                       rgamma)
from .verify import CaseResult


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
    h = _frobenius_series(np.stack([p_vals, a_vals]), np.stack([a_vals, p_vals]),
                          np.stack([w, w_inv]), np.stack([w_inv, w]),
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
class WeightBlocks:
    """The weight blocks of C^N x C^N x Fock, and the flat storage of an
    operator that is block diagonal over them.

    Such an operator is one flat array: block after block, each block
    row-major, the blocks ordered by size so that the blocks of one size
    s form the contiguous stack ``flat[sl].reshape(n_blocks, s, s)`` of
    one ``stacks`` entry.  rows and cols are the full-space row and column
    of each flat entry; block_of numbers the block of each basis vector,
    and place is its row (and column) within that block."""

    dim: int
    block_of: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    stacks: tuple  # (slice of the flat array, (n_blocks, s, s)) per size s
    place: np.ndarray  # the place of each basis vector within its block
    size: np.ndarray  # the size of each block
    start: np.ndarray  # the offset of each block's first flat entry

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

    def pick(self, x: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """The (len(ids), s, s) stack of the blocks ids, all of size s, of a
        flat operator."""
        s = int(self.size[ids[0]])
        return x[self.start[ids][:, None] + np.arange(s * s)].reshape(-1, s, s)


def _weight_blocks(weights: np.ndarray) -> WeightBlocks:
    """Group the basis vectors by weight (one row of nonnegative integer
    weights each).  Each weight is keyed by the integer whose digits in
    base max + 1 are its entries, so the blocks are numbered in the
    lexicographic order of their weights."""
    dim, n = weights.shape
    base = weights.max() + 1
    block_of = np.unique(weights @ base ** np.arange(n - 1, -1, -1), return_inverse=True)[1]
    sizes = np.bincount(block_of)
    # the basis vectors by block size, then block; in index order within a block
    members = np.lexsort((block_of, sizes[block_of]))
    rows, cols, stacks = [], [], []
    place, start = np.zeros(dim, dtype=int), np.zeros(sizes.size, dtype=int)
    at = flat = 0
    for s in np.unique(sizes).tolist():
        n_blocks = int(np.count_nonzero(sizes == s))
        idx = members[at:at + n_blocks * s].reshape(n_blocks, s)
        rows.append(np.repeat(idx, s, axis=1).reshape(-1))
        cols.append(np.tile(idx, (1, s)).reshape(-1))
        stacks.append((slice(flat, flat + n_blocks * s * s), (n_blocks, s, s)))
        place[idx] = np.arange(s)
        start[block_of[idx[:, 0]]] = flat + s * s * np.arange(n_blocks)
        at += n_blocks * s
        flat += n_blocks * s * s
    return WeightBlocks(dim, block_of, np.concatenate(rows), np.concatenate(cols),
                        tuple(stacks), place, sizes, start)


@dataclass(frozen=True)
class BlockLadders:
    """The undressed ladder coefficients of one stack of weight blocks, for
    the relation and acts-trivially checks.  A member v = (k, l, o) of the
    block of weight W has o = W - e_k - e_l; W - e_i is a Fock state, or
    missing, for each i.  On a bosonic space a^k a^l = a^l a^k and
    <W| a+_k a+_l |o> = c_v, so c serves all three quadratic tensors, and
    the annihilator that undoes alpha's creator is alpha transposed."""

    shell: np.ndarray  # (n_blocks,): the shell |W| - 2 of the block's occupations o
    c: np.ndarray  # (n_blocks, s): c_v = <o| a^l a^k |W>
    alpha: np.ndarray  # (n_blocks, N, s): <W - e_i| a+_l |o> at [i, v] with k = i, else 0
    direct: np.ndarray  # (n_blocks, N, N): <W - e_i| a^i a+_j |W - e_j>
    safe: np.ndarray  # (n_blocks, s): W and o are states safe at creator degree 2
    cross_safe: np.ndarray  # (n_blocks, N, N): W - e_i and W - e_j are states safe at degree 2


@dataclass(frozen=True)
class KZOperatorSystem:
    """P and A on C^N x C^N x Fock as flat weight blocks (see WeightBlocks),
    with the eigendecompositions P = vecs diag(vals) vecs^T and
    A = vecs diag(vals) vecs^T of each stack of real symmetric blocks, the
    BlockLadders of each stack, and <0| a^j a+_j |0> per mode j (none when
    the vacuum is not safe at creator degree 2)."""

    space: FockSpace
    n: int
    blocks: WeightBlocks
    p: np.ndarray
    a: np.ndarray
    p_eig: tuple  # (vals (n_blocks, s), vecs (n_blocks, s, s)) per stack
    a_eig: tuple  # the same for A
    ladders: tuple  # BlockLadders per stack
    vacuum: np.ndarray  # (N,), or (0,)


def build_operator_system(space: FockSpace) -> KZOperatorSystem:
    """Assemble P and A on C^N x C^N x Fock for an sl(N) bosonic space,
    entry by entry on the weight blocks.  Within a block, the entry of P
    between (a, b, o) and (a', b', o') is [a = b' and b = a'], and that of
    A = 1 x e_ij x a+_j a^i is [a = a'] <m| a^b |o'> <m| a^b' |o>,
    m = o' - e_b = o - e_b', and the amplitudes are read off the space's
    ladder tables."""
    if space.statistics is not Statistics.BOSE:
        raise ValueError("operator system needs a bosonic space")
    n, d = space.modes, space.dim
    # amp[k, y] = <y - e_k| a^k |y> = <y| a+_k |y - e_k> and up[k, x] = the
    # index of x + e_k; column d stands for a state outside the truncated space
    amp, up = space.ap.vals.real, space.an.cols
    safe = np.append(space.safe_mask(2), False)
    # the weight of (a, b, occ) is e_a + e_b + occ
    e = np.eye(n, dtype=int)
    pair_weights = (e[:, None, :] + e[None, :, :]).reshape(n * n, 1, n)
    weights = (pair_weights + space.occ[None, :, :]).reshape(n * n * d, n)
    blocks = _weight_blocks(weights)
    (a_r, b_r, o_r), (a_c, b_c, o_c) = (np.unravel_index(x, (n, n, d))
                                        for x in (blocks.rows, blocks.cols))
    p = ((a_r == b_c) & (b_r == a_c)).astype(float)
    a = (a_r == a_c) * amp[b_r, o_c] * amp[b_c, o_r]
    p_eig = tuple(np.linalg.eigh(stack) for stack in blocks.views(p))
    a_eig = tuple(np.linalg.eigh(stack) for stack in blocks.views(a))
    ladders = []
    for sl, (n_blocks, s, _) in blocks.stacks:
        k, l, o = np.unravel_index(blocks.rows[sl].reshape(n_blocks, s, s)[:, :, 0], (n, n, d))
        w_k = up[l, o]  # the state W - e_k of each member
        w = up[k[:, 0], w_k[:, 0]]  # the state W of each block
        lam = amp[l, w_k]  # <o| a^l |W - e_k> = <W - e_k| a+_l |o>
        alpha = (k[:, None, :] == np.arange(n)[:, None]) * lam[:, None, :]
        w_i = np.full((n_blocks, n), d)  # W - e_i, from the members with k = i
        w_i[np.arange(n_blocks)[:, None], k] = w_k
        amp_w = amp[:, w].T
        ladders.append(BlockLadders(
            space.shell[o[:, 0]], lam * amp[k, w[:, None]], alpha,
            amp_w[:, :, None] * amp_w[:, None, :], safe[w][:, None] & safe[o],
            safe[w_i][:, :, None] & safe[w_i][:, None, :]))
    vac = space.state_index((0,) * n)
    vacuum = amp[np.arange(n), up[:, vac]]**2 if safe[vac] else np.zeros(0)
    return KZOperatorSystem(space, n, blocks, p, a, p_eig, a_eig, tuple(ladders), vacuum)


_SERIES_TERMS = 200  # the most terms a Frobenius series may take
_RESONANCE = 1e-6  # the least relative distance of k - hbar2 (b_i - b_j) from 0
_TAIL = np.finfo(float).eps / 2  # the series stops once its tail is below this


def _frobenius_series(b_vals: np.ndarray, c_vals: np.ndarray, w: np.ndarray, w_inv: np.ndarray,
                      hbar2s: np.ndarray, us) -> np.ndarray:
    """H(u) at each u in us (0 < u <= 1/2) and hbar2 in hbar2s for one stack
    of blocks, in B's eigenbasis, as an (n_u, n_hbar2, n_blocks, s, s)
    array: the solution H = sum_k h_k u^k, h_0 = 1, of

        u H' = hbar2 [B, H] - hbar2 u/(1-u) C H,

    with B = diag(b_vals) and C = w diag(c_vals) w_inv in that basis.  The
    coefficients follow from (k - hbar2 (b_i - b_j)) h_k[i, j] =
    -hbar2 (C S_(k-1))[i, j], S_(k-1) = h_0 + ... + h_(k-1): one batched
    matmul and one entrywise division per term, for every hbar2 at once.

    The series stops once the Frobenius norm of its tail at u = 1/2, which
    bounds the tail at every u <= 1/2, is provably below _TAIL for every
    hbar2.  With g = max|hbar2| max||C||_2 / (k + 1 - max|hbar2 (b_i - b_j)|),
    every later term obeys ||h_j|| <= g ||S_(j-1)|| and
    ||S_j|| <= (1 + g) ||S_(j-1)||, so the tail after term k is at most
    g ||S_k|| 2^-(k+1) / (1 - (1 + g)/2).  ||S_k|| is measured only once
    the bound would hold at its last measured value, so the series may run
    a few terms past the first k that meets it.  Raises IntegrationError at
    a resonance (a denominator within _RESONANCE k of zero) or when the
    bound is not met within _SERIES_TERMS terms."""
    eta = np.asarray(hbar2s, dtype=complex)[:, None, None, None]
    gap = eta * (b_vals[:, :, None] - b_vals[:, None, :])
    # the nearest k >= 1 to each gap is where its denominator is smallest
    k_near = np.clip(np.rint(gap.real), 1, _SERIES_TERMS)
    if np.any(np.abs(k_near - gap) < _RESONANCE * k_near):
        raise IntegrationError(f"resonant Frobenius series at hbar2 in {list(hbar2s)}")
    c = (w * c_vals[:, None, :]) @ w_inv
    minus_eta_c = -eta * c
    # C need not be normal, so its spectral norm, not its largest eigenvalue
    c_norm = np.abs(eta).max() * np.linalg.norm(c, 2, axis=(-2, -1)).max()
    spread = np.abs(gap).max()
    us = np.asarray(us, dtype=float)[:, None, None, None, None]
    partial = np.broadcast_to(np.eye(b_vals.shape[1], dtype=complex), gap.shape).copy()
    out = np.broadcast_to(partial, (us.shape[0], *gap.shape)).copy()
    norm = np.linalg.norm(partial)  # ||S||, measured only where the bound may hold
    for k in range(1, _SERIES_TERMS + 1):
        h = minus_eta_c @ partial
        h /= k - gap
        partial += h
        out += us**k * h
        g = c_norm / (k + 1 - spread) if k + 1 > spread else math.inf
        if g < 1:
            # the Frobenius norm of the whole stack bounds that of each block
            factor = g * 0.5**(k + 1) / (1 - (1 + g) / 2)
            if factor * norm <= _TAIL:
                norm = np.linalg.norm(partial)
                if factor * norm <= _TAIL:
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


def coassociator_matrices(system: KZOperatorSystem, hbar2s) -> list[np.ndarray]:
    """The coassociator M at each hbar2 in hbar2s, as flat weight blocks:
    the regularized path-ordered integral

        M = lim_{eps -> 0} eps^(-eta P) OrdExp[eta int_eps^(1-eps) (P/x + A/(x-1)) dx]
            eps^(eta A)

    (eta = hbar2), in closed form.  The normalized Frobenius solutions
    Y0 = H0(x) x^(eta P) and Y1 = H1(1-x) (1-x)^(eta A) of
    Y' = eta (P/x + A/(x-1)) Y, H0(0) = H1(0) = 1, differ by the constant
    connection matrix

        M = Y0^-1 Y1 = 2^(eta P) H0(1/2)^-1 H1(1/2) 2^(-eta A).

    H0 solves x H0' = eta [P, H0] - eta x/(1-x) A H0 and H1 the same with
    P and A swapped; both converge at 1/2 in about 50 terms
    (_frobenius_series).  Per stack of blocks, H0 in P's eigenbasis and H1
    in A's are summed as one series call for every hbar2 at once;
    W = vecs_P^T vecs_A carries one basis into the other.  No integrator
    is involved.  M is the identity, exactly, at hbar2 = 0."""
    hbar2s = np.asarray(hbar2s, dtype=complex)
    live = hbar2s != 0
    out = [system.blocks.eye.astype(complex) for _ in hbar2s]
    if not live.any():
        return out
    eta = hbar2s[live][:, None, None]
    stacks = []
    for (p_vals, p_vecs), (a_vals, a_vecs) in zip(system.p_eig, system.a_eig):
        w = p_vecs.transpose(0, 2, 1) @ a_vecs
        # H0 (B, C = P, A) and H1 (B, C = A, P) summed as one stack; W is
        # orthogonal, so W^-1 is its transpose
        ws = np.concatenate([w, w.transpose(0, 2, 1)])
        h = _frobenius_series(np.concatenate([p_vals, a_vals]), np.concatenate([a_vals, p_vals]),
                              ws, ws.transpose(0, 2, 1), hbar2s[live], (0.5,))[0]
        h0, h1 = np.split(h, 2, axis=1)
        stacks.append(_connection(eta, p_vals, p_vecs, a_vals, a_vecs.transpose(0, 2, 1),
                                  w, h0, h1))
    for i, at in enumerate(np.flatnonzero(live)):
        out[at] = system.blocks.join([m[i] for m in stacks])
    return out


def _safe_max(defect: np.ndarray, safe: np.ndarray) -> float:
    """The largest modulus among the safe entries of a defect: its norm,
    when each of its D x D Fock blocks holds at most one entry per row and
    per column."""
    return float(np.abs(defect[safe]).max(initial=0.0))


def acts_trivially_residual(system: KZOperatorSystem, m: np.ndarray) -> float:
    """|| M . (aa) - aa || over the N^2 components, safe-projected at
    creator degree 2: aa is the column of the Fock operators a^i a^j,
    block (i, j) at pair i N + j.  Column W of the defect is
    (M_W - 1) c_W on weight block W (BlockLadders), and each D x D block
    of it holds at most one entry per row and per column, so its norm is
    the largest modulus on the safe states."""
    return max(_safe_max((mw @ lad.c[..., None])[..., 0] - lad.c, lad.safe)
               for mw, lad in zip(system.blocks.views(m), system.ladders))


def invariance_residual(system: KZOperatorSystem, m: np.ndarray) -> float:
    """|| [M, image of the two-fold coproduct of X] || over the sl(N) basis
    X, with the Fock factor safe-projected at creator degree 2.

    Delta(X) = rho(X) x 1 x 1 + 1 x rho(X) x 1 + 1 x 1 x sigma(X) maps
    each weight block w into exactly one block w' (for E_ij, the weight
    shifts by e_i - e_j), so each commutator is the direct sum of its
    block-to-block maps M_w' D - D M_w, D the w -> w' block of Delta(X).
    A weight block lies in one shell (its weight sums to 2 + shell), and
    Delta(X) keeps the shell, so a map is safe or unsafe as a whole; the
    residual is the largest singular value among the safe ones: exact, in
    one batched SVD per pair of block sizes."""
    blocks, space = system.blocks, system.space
    data = LieData("sl", system.n)
    n, d = system.n, space.dim
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
    safe = np.tile(space.safe_mask(2), n * n)[cols]
    xs, rows, cols, vals = xs[safe], rows[safe], cols[safe], vals[safe]
    # the (X, w) pair of each entry, and the one w' that pair must map into
    n_all = blocks.size.size
    keys, pair = np.unique(xs * n_all + blocks.block_of[cols], return_inverse=True)
    to_key = xs * n_all + blocks.block_of[rows]
    dst = np.zeros(keys.size, dtype=int)
    dst[pair] = to_key
    w_from, w_to = keys % n_all, dst % n_all
    # one stack per shape (size of w', size of w)
    shapes, kind = np.unique(np.stack([blocks.size[w_to], blocks.size[w_from]], axis=1),
                             axis=0, return_inverse=True)
    worst = 0.0
    for k in range(len(shapes)):
        chosen = kind.reshape(-1) == k
        slot = np.cumsum(chosen) - 1  # the place of each chosen pair in the stack
        at = chosen[pair]
        to, fro = w_to[chosen], w_from[chosen]
        dd = np.zeros((to.size, *shapes[k]), dtype=complex)
        np.add.at(dd, (slot[pair[at]], blocks.place[rows[at]], blocks.place[cols[at]]), vals[at])
        comm = blocks.pick(m, to) @ dd - dd @ blocks.pick(m, fro)
        worst = max(worst, float(np.linalg.svd(comm, compute_uv=False)[:, 0].max()))
    return worst


def coassociator_relation_check(system: KZOperatorSystem, params: tuple[DeformParams, ...],
                                m: np.ndarray) -> list[list[CaseResult]]:
    """Residuals of the three exchange relations of the dressed generators,
    with the relation matrices conjugated by M, safe-projected at creator
    degree 2, for each deformation in params (one list of rows each):

      (1) a~^i a~^j   = s (M^-1 P M)^{ji}_{lm} a~^m a~^l
      (2) a~+_i a~+_j = s a~+_l a~+_m (M^-1 P M)^{lm}_{ij}
      (3) a~^i a~+_j  = delta^i_j + s a~+_l (M^-1 V M)^{il}_{jm} a~^m

    cond(M), M^-1 and the conjugated U = P are taken block by block over
    the weights, once for all of params; V depends on (q, s).  The
    dressing I~ depends on the shell only, so it is one number on each
    weight block W, and each defect is a batched product on the blocks
    with the ladder coefficients of BlockLadders:
    R_W c_W for (1) and I~(t) I~(t+1) c_W^T R_W for (2), with
    R_W = 1 - s M_W^-1 P_W M_W and t = |W| - 2, and for (3), at
    [W - e_i, W - e_j] of Fock block (i, j),

        I~(t+1) direct_ij - delta_ij - s I~(t) (alpha X_W alpha^T)_ij,
        X_W = M_W^-1 V_W M_W,

    with the vacuum's own term I~(0) <0| a^j a+_j |0> - 1 (W = e_j, no
    weight block).  Each D x D Fock block of a defect holds at most one
    entry per row and per column, so its safe-projected norm is the
    largest modulus among its entries on safe states.  Each row is held
    to 1e-12.
    """
    blocks, n = system.blocks, system.n
    sv = blocks.singular_values(m)
    cond = float(sv.max() / sv.min())
    if cond > 1e8:
        raise ValueError(f"coassociator matrix numerically singular (cond={cond:.2e})")
    shared = []  # per weight block: M^-1 and M^-1 P M
    for mw, pw in zip(blocks.views(m), blocks.views(system.p)):
        minv = np.linalg.inv(mw)
        shared.append((minv, minv @ (pw @ mw)))
    out = []
    for par in params:
        s, q = par.sign, par.q
        q2s = q ** (2 * s)
        itilde = np.array([qnum(t + 1.0, q2s).real / (t + 1.0)
                           for t in range(system.space.cutoff + 2)])
        # V = q^s P q^P = q^s ((q + 1/q)/2 P + (q - 1/q)/2), since P^2 = 1
        v_p, v_1 = q**s * (q + 1.0 / q) / 2.0, q**s * (q - 1.0 / q) / 2.0
        aa = apap = 0.0
        cross = float(np.abs(itilde[0] * system.vacuum - 1.0).max(initial=0.0))
        for mw, pw, lad, (minv, pmw) in zip(blocks.views(m), blocks.views(system.p),
                                             system.ladders, shared):
            eye = np.eye(mw.shape[1])
            rel = eye - s * pmw
            xw = minv @ ((v_p * pw + v_1 * eye) @ mw)
            i0, i1 = itilde[lad.shell][:, None, None], itilde[lad.shell + 1][:, None, None]
            aa = max(aa, _safe_max((rel @ lad.c[..., None])[..., 0], lad.safe))
            apap = max(apap, _safe_max((i0 * i1 * lad.c[:, None, :] @ rel)[:, 0], lad.safe))
            conj_v = lad.alpha @ xw @ lad.alpha.transpose(0, 2, 1)
            cross = max(cross, _safe_max(i1 * lad.direct - np.eye(n) - s * i0 * conj_v,
                                         lad.cross_safe))
        names = ("coassoc_relation_aa", "coassoc_relation_apap", "coassoc_relation_cross")
        out.append([CaseResult(name, res, 1e-12, {"cond_M": cond})
                    for name, res in zip(names, (aa, apap, cross))])
    return out
