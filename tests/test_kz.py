import dataclasses
import math

import numpy as np
import pytest
from scipy import sparse
from scipy.integrate import solve_ivp
from scipy.linalg import expm

import sparse_route
from qheis import fock, kz, liealg, suites, verify
from qheis.fock import Statistics
from qheis.qspecial import CLIFFORD, WEYL, DeformParams, qnum
from sparse_route import csr_list


def test_params_validation():
    with pytest.raises(ValueError):
        kz.KZScalarParams(n=0.5, hbar2=0.05, sign=+1)
    with pytest.raises(ValueError):
        kz.KZScalarParams(n=2, hbar2=0.5, sign=+1)  # outside perturbative regime


def _trajectory(p, xs):
    """The series trajectory at xs, continued below 1/2 by M_s."""
    return kz.scalar_trajectory(p, kz.scalar_connection(p), xs)


def test_trivial_deformation():
    p = kz.KZScalarParams(n=3, hbar2=0.0, sign=+1)
    f = _trajectory(p, (1e-6, 0.3, 0.7, 1 - 1e-6))
    assert np.allclose(f, [0.0, 1.0, 0.0], atol=1e-14)


def test_trajectory_matches_closed_forms():
    p = kz.KZScalarParams(n=3, hbar2=0.05, sign=+1)
    xs = np.linspace(0.02, 0.98, 25)
    f = _trajectory(p, xs)
    assert np.abs(f - np.array([kz.closed_form_f(p, x) for x in xs])).max() < 1e-13


def test_combination_identity():
    p = kz.KZScalarParams(n=2, hbar2=0.1j, sign=+1)
    xs = np.linspace(0.05, 0.95, 19)
    f = _trajectory(p, xs)
    assert kz.combination_identity_residual(p, f, xs) < 1e-13


def _default_scalar_params():
    cfg = suites.make_config("kz-scalar")
    return [kz.KZScalarParams(n=n, hbar2=hbar2, sign=sign)
            for n in cfg.n for hbar2 in cfg.hbar2 for sign in (+1, -1)]


def test_limits_from_connection_read_e2():
    # the limits of Y1 e2 read off M_s match the reference; read off M_s e1
    # in place of M_s e2 they miss by at least 2
    for p in _default_scalar_params():
        m, ref = kz.scalar_connection(p), np.array(kz.limits_reference(p))
        assert np.abs(np.array(kz.limits_from_connection(p, m)) - ref).max() < 1e-14
        e1 = m[:, [1, 0, 2]]
        assert np.abs(np.array(kz.limits_from_connection(p, e1)) - ref).max() >= 2.0 - 1e-12


def test_trajectory_below_half_reads_the_connection():
    # the x < 1/2 trajectory continued with M_s(-eta) misses the closed
    # forms by more than 1e-3 in every default unit (M_s is even in eta up
    # to O(eta^3)); the limits are no such control, since l1 is even in eta
    xs = np.linspace(0.02, 0.98, 33)
    for p in _default_scalar_params():
        closed = np.array([kz.closed_form_f(p, x) for x in xs])
        wrong = kz.scalar_connection(dataclasses.replace(p, hbar2=-p.hbar2))
        miss = np.abs(kz.scalar_trajectory(p, wrong, xs) - closed).max(axis=1)
        assert miss.max() > 1e-3
        assert np.all(miss[xs >= 0.5] < 1e-13)


def test_closed_forms_satisfy_ode():
    p = kz.KZScalarParams(n=2, hbar2=0.1j, sign=+1)
    assert kz.scalar_ode_residual(p, (0.5,)) < 1e-9
    p2 = kz.KZScalarParams(n=5, hbar2=0.05, sign=-1)
    assert kz.scalar_ode_residual(p2, (0.2, 0.5, 0.8)) < 1e-9


def test_boundary_normalization():
    # f2 (1-x)^(-s eta (n-1)) -> 1 as x -> 1
    p = kz.KZScalarParams(n=3, hbar2=0.05, sign=+1)
    x = 1 - 1e-6
    _, f2, _ = kz.closed_form_f(p, x)
    kappa = p.sign * p.hbar2 * (p.n - 1)
    assert abs(f2 * (1 - x) ** (-kappa) - 1.0) < 1e-5


def test_limits_both_routes():
    # the closed forms' limits (gamma arithmetic) against the reference
    # expressions (powers of q).  Real deformation parameter: hbar2 =
    # h/(pi i) with h = 0.1 gives a real q = e^h; imaginary hbar2 values
    # are exercised alongside
    for n, hbar2, sign in ((2, 0.1 / (math.pi * 1j), +1), (3, 0.05, +1),
                           (5, 0.1j, -1)):
        p = kz.KZScalarParams(n=n, hbar2=hbar2, sign=sign)
        closed = np.array(kz.limits_closed_route(p))
        assert np.abs(closed - np.array(kz.limits_reference(p))).max() < 1e-10


def test_limit_reference_values():
    # l1 = -s n/[n]_q with q = exp(pi i hbar2), against [2]_q written out
    h = 0.1
    p = kz.KZScalarParams(n=2, hbar2=h / (math.pi * 1j), sign=+1)
    q = math.e**h
    bracket2 = (q**2 - q**-2) / (q - 1 / q)
    l1, l2, l3 = kz.limits_reference(p)
    assert abs(l1 - (-2.0 / bracket2)) < 1e-14
    assert abs(l3 - 1.0) < 1e-15
    assert abs(l2 - (2 * l3 - l1) / 3.0) < 1e-15
    # continuity: as hbar2 -> 0 the expressions tend to (-s, s, s)
    p0 = kz.KZScalarParams(n=4, hbar2=1e-10, sign=-1)
    vals = np.array(kz.limits_reference(p0))
    assert np.abs(vals - np.array([1.0, -1.0, -1.0])).max() < 1e-8


@pytest.fixture(scope="module")
def op_system():
    return kz.build_operator_system(fock.build_space(2, Statistics.BOSE, 5))


def hbar2_of(h):
    return h / (math.pi * 1j)


@pytest.fixture(scope="module")
def m_matrix(op_system):
    return kz.coassociator_matrices(op_system, (hbar2_of(0.1),))[0]


def test_coassociator_h2_scaling(op_system):
    def norm(x):
        return verify.projected_norms(op_system.space, x, 0)

    m_h, m_half = (m - op_system.eye for m in
                   kz.coassociator_matrices(op_system, (hbar2_of(0.1), hbar2_of(0.05))))
    n1, n2 = norm(m_h), norm(m_half)
    assert 3.2 < n1 / n2 < 4.8
    # M - 1 = zeta(2) eta^2 [P, A] + O(h^3); the wrong sign is off by ~2
    p, a = op_system.p, op_system.a
    term = math.pi**2 / 6 * hbar2_of(0.05)**2 * (p @ a - a @ p)
    scale = norm(term)
    assert norm(m_half - term) / scale < 0.3
    assert norm(m_half + term) / scale > 1.5


def test_batched_coassociators_match_one_at_a_time(op_system, m_matrix):
    # one series call for several hbar2 gives each M as its own call does,
    # and the identity, exactly, at hbar2 = 0
    hbar2s = (hbar2_of(0.1), 0.0, hbar2_of(-0.07))
    batch = kz.coassociator_matrices(op_system, hbar2s)
    assert np.array_equal(batch[1].data, op_system.eye.data)
    for m, hbar2 in zip(batch, hbar2s):
        alone = kz.coassociator_matrices(op_system, (hbar2,))[0]
        assert np.abs((m - alone).data).max() <= 1e-15
    assert np.abs((batch[0] - m_matrix).data).max() <= 1e-15


def test_coassociator_acts_trivially(op_system, m_matrix):
    assert kz.acts_trivially_residual(op_system, m_matrix) < 1e-12


def test_coassociator_invariance(op_system, m_matrix):
    assert kz.invariance_residual(op_system, m_matrix) < 1e-12


def test_coassociator_relations(op_system, m_matrix):
    params = DeformParams(math.e**0.1, WEYL)
    rows = kz.coassociator_relation_check(op_system, (params,), m_matrix)[0]
    for row in rows:
        assert row.residual <= 1e-12, (row.name, row.residual)


def test_coassociator_classical_control(op_system):
    m = kz.coassociator_matrices(op_system, (0.0,))[0]
    assert np.array_equal(m.data, op_system.eye.data)
    params = DeformParams(1.0, WEYL)
    rows = kz.coassociator_relation_check(op_system, (params,), m)[0]
    for row in rows:
        assert row.residual <= 1e-12, (row.name, row.residual)


def test_coassociator_wrong_sign_control(op_system, m_matrix):
    params = DeformParams(math.e**0.1, CLIFFORD)
    rows = kz.coassociator_relation_check(op_system, (params,), m_matrix)[0]
    assert max(r.residual for r in rows) > 1e-2


def test_one_relation_check_for_both_signs(op_system, m_matrix):
    # the shared cond(M), M^-1 and M^-1 P M give each sign the rows of its own call
    signs = (DeformParams(math.e**0.1, WEYL), DeformParams(math.e**0.1, CLIFFORD))
    both = kz.coassociator_relation_check(op_system, signs, m_matrix)
    alone = [kz.coassociator_relation_check(op_system, (p,), m_matrix)[0] for p in signs]
    assert [[(r.name, r.residual, r.metadata) for r in rows] for rows in both] == \
        [[(r.name, r.residual, r.metadata) for r in rows] for rows in alone]


def test_relation_check_refuses_a_near_singular_m(op_system):
    m = complex(1) * op_system.eye
    m.data[np.flatnonzero(m.data)[0]] = 1e-9  # one block of M with cond 1e9
    with pytest.raises(ValueError, match="numerically singular"):
        kz.coassociator_relation_check(op_system, (DeformParams(1.0, WEYL),), m)[0]


@pytest.mark.parametrize("zero", ["one block", "every block"])
def test_relation_check_refuses_a_zero_block(op_system, zero):
    # cond(M) is infinite: refused as singular, with no division by zero
    m = complex(1) * op_system.eye
    b0, _, height, width = m.layout.groups[-1]  # a block of the largest size
    first = m.layout.offset[b0]
    m.data[first:first + height * width if zero == "one block" else None] = 0
    with pytest.raises(ValueError, match="numerically singular"):
        kz.coassociator_relation_check(op_system, (DeformParams(1.0, WEYL),), m)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_relation_check_refuses_a_non_finite_m(op_system, m_matrix, bad):
    m = complex(1) * m_matrix
    m.data[m.size // 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        kz.coassociator_relation_check(op_system, (DeformParams(math.e**0.1, WEYL),), m)


def to_sparse(op):
    """The full-space operator of the block operator op on the weight
    partition, with its blocks as the stored entries."""
    parts, lay = op.partition, op.layout
    area = lay.height * lay.width
    block = np.repeat(np.arange(area.size), area)
    row, col = np.divmod(np.arange(lay.total) - lay.offset[block], lay.width[block])
    rows = parts.members[parts.start[lay.dst[block]] + row]
    cols = parts.members[parts.start[lay.src[block]] + col]
    return sparse.csr_array((op.data, (rows, cols)), shape=(parts.of.size,) * 2)


def _dense_p_a(space):
    """P and A = 1 x e_ij x a+_j a^i as dense N^2 D x N^2 D matrices."""
    n, d = space.modes, space.dim
    an = [m.toarray() for m in csr_list(space.an)]
    ap = [m.toarray() for m in csr_list(space.ap)]
    e = np.eye(n)
    a = sum(np.kron(np.kron(e, np.outer(e[i], e[j])), ap[j] @ an[i])
            for i in range(n) for j in range(n))
    return np.kron(liealg.permutation_matrix(n), np.eye(d)), a


def _weights(space):
    """The sl(N) weight e_a + e_b + occ of each basis vector (a, b, occ)."""
    n = space.modes
    occ = space.occ
    return np.array([np.eye(n)[a] + np.eye(n)[b] + o
                     for a in range(n) for b in range(n) for o in occ])


def _dense_coassociator(p, a, hbar2, x0=1e-12):
    """M = 2^(eta P) H0(1/2)^-1 H1(1/2) 2^(-eta A) from the full
    N^2 D x N^2 D matrices, with H0 and H1 integrated rather than summed:
    x H0' = eta [P, H0] - eta x/(1-x) A H0 in t = log x, by DOP853 from
    x0 to 1/2 starting at H0 = 1 (so the start is off by O(x0)), and H1
    the same with P and A swapped."""
    dim = p.shape[0]

    def at_half(b, c):
        def rhs(t, y):
            x = math.exp(t)
            h = y.reshape(dim, dim)
            return (hbar2 * (b @ h - h @ b - x / (1.0 - x) * (c @ h))).reshape(-1)

        sol = solve_ivp(rhs, (math.log(x0), math.log(0.5)), np.eye(dim, dtype=complex).reshape(-1),
                        method="DOP853", rtol=1e-12, atol=1e-14)
        assert sol.success
        return sol.y[:, -1].reshape(dim, dim)

    h0, h1 = at_half(p, a), at_half(a, p)
    return (expm(math.log(2.0) * hbar2 * p) @ np.linalg.solve(h0, h1)
            @ expm(-math.log(2.0) * hbar2 * a))


@pytest.mark.parametrize("modes,cutoff", [(2, 5), (3, 3), (4, 2)])
def test_p_and_a_conserve_the_weight(modes, cutoff):
    space = fock.build_space(modes, Statistics.BOSE, cutoff)
    p, a = _dense_p_a(space)
    w = _weights(space)
    for op in (p, a):
        rows, cols = np.nonzero(op)
        assert rows.size and np.array_equal(w[rows], w[cols])
    # the block operators of the system are exactly these P and A, on one
    # block per weight
    system = kz.build_operator_system(space)
    assert np.array_equal(to_sparse(system.p).toarray(), p)
    assert np.array_equal(to_sparse(system.a).toarray(), a)
    assert system.a.layout is system.p.layout
    rows, cols = to_sparse(system.p).nonzero()
    assert np.array_equal(w[rows], w[cols])
    parts = system.p.partition
    assert np.array_equal(w[parts.members[parts.start]], parts.key)
    assert parts.size.max() <= modes * modes


@pytest.mark.parametrize("modes,cutoff,h", [(2, 3, 0.1), (3, 2, 0.1), (2, 5, 0.1), (2, 3, 0.2),
                                             (4, 2, 0.1), (3, 3, 0.1)],
                         ids=["2-3", "3-2", "2-5", "2-3-h=0.2", "4-2", "3-3"])
def test_coassociator_matches_dense_oracle(modes, cutoff, h):
    space = fock.build_space(modes, Statistics.BOSE, cutoff)
    system = kz.build_operator_system(space)
    m = to_sparse(kz.coassociator_matrices(system, (hbar2_of(h),))[0]).toarray()
    p, a = _dense_p_a(space)
    assert np.linalg.norm(m - _dense_coassociator(p, a, hbar2_of(h)), 2) <= 1e-10
    w = _weights(space)
    off_weight = np.any(w[:, None, :] != w[None, :, :], axis=2)
    assert off_weight.any()
    assert np.all(m[off_weight] == 0)


def test_truncated_series_misses_the_dense_oracle(monkeypatch):
    # a tail bound of 1e-3 stops both series after a few terms; the M they
    # give must miss the oracle by far more than the 1e-10 the full series meets
    space = fock.build_space(2, Statistics.BOSE, 3)
    system = kz.build_operator_system(space)
    p, a = _dense_p_a(space)
    want = _dense_coassociator(p, a, hbar2_of(0.1))
    monkeypatch.setattr(kz, "_TAIL", 1e-3)
    m = to_sparse(kz.coassociator_matrices(system, (hbar2_of(0.1),))[0]).toarray()
    assert np.linalg.norm(m - want, 2) > 1e-6


@pytest.mark.parametrize("modes,cutoff,summed,blocks", [(2, 5, 18, 33), (3, 8, 65, 282),
                                                         (4, 8, 92, 996)])
def test_series_runs_on_one_block_per_orbit(modes, cutoff, summed, blocks, monkeypatch):
    # the series are summed on the sorted-key weight blocks alone, one per
    # orbit of the mode permutations; H0 and H1 of each share one call
    system = kz.build_operator_system(fock.build_space(modes, Statistics.BOSE, cutoff))
    seen = []
    series = kz._frobenius_series

    def counted(b_vals, *args):
        seen.append(b_vals.shape[0] // 2)
        return series(b_vals, *args)

    monkeypatch.setattr(kz, "_frobenius_series", counted)
    kz.coassociator_matrices(system, (hbar2_of(0.1), hbar2_of(0.05)))
    parts = system.p.partition
    assert parts.size.size == blocks
    assert sum(seen) == summed == np.all(np.diff(parts.key, axis=1) <= 0, axis=1).sum()


def _unrelabelled(m):
    """m with each weight block replaced by the block of the sorted key of
    its orbit, entry for entry, with its members not relabelled."""
    parts, lay = m.partition, m.layout
    part_of = {tuple(key): k for k, key in enumerate(parts.key.tolist())}
    data = m.data.copy()
    for b, (src, area) in enumerate(zip(lay.src, lay.height * lay.width)):
        rep = lay.at[0, part_of[tuple(sorted(parts.key[src].tolist(), reverse=True))]]
        data[lay.offset[b]:lay.offset[b] + area] = m.data[lay.offset[rep]:lay.offset[rep] + area]
    return fock.BlockOperator(parts, lay, data)


@pytest.mark.parametrize("modes,cutoff", [(2, 3), (2, 5), (3, 5), (3, 8), (4, 8)])
def test_unrelabelled_fill_fails_the_invariance_row(modes, cutoff):
    # negative control of the orbit fill: copying each block from its
    # orbit's sorted-key block without relabelling its members breaks
    # [M, Delta(X)] = 0 far above the suite's 1e-12, while the exact M holds
    system = kz.build_operator_system(fock.build_space(modes, Statistics.BOSE, cutoff))
    for q in (1.18, 1.3):
        m = kz.coassociator_matrices(system, (hbar2_of(math.log(q)),))[0]
        assert kz.invariance_residual(system, m) <= 1e-12
        assert kz.invariance_residual(system, _unrelabelled(m)) > 1e-3


def test_series_guards_raise(op_system, monkeypatch):
    # P's eigenvalues are +-1, so at hbar2 = 1/2 the k = 1 denominator
    # 1 - hbar2 (1 - (-1)) vanishes; near it the series is refused too,
    # also when it shares a batch with a harmless hbar2
    for hbar2s in ((0.5,), (0.5 + 1e-9,), (hbar2_of(0.1), 0.5)):
        with pytest.raises(kz.IntegrationError, match="resonant"):
            kz.coassociator_matrices(op_system, hbar2s)
    # a series that has not met its tail bound within the term cap
    monkeypatch.setattr(kz, "_SERIES_TERMS", 5)
    with pytest.raises(kz.IntegrationError, match="not converged"):
        kz.coassociator_matrices(op_system, (hbar2_of(0.1),))


def _random_blocks(system, rng):
    """A random complex operator that conserves the weight, as a block
    operator on the layout of P and A."""
    size = system.p.size
    return fock.BlockOperator(system.p.partition, system.p.layout,
                              rng.normal(size=size) + 1j * rng.normal(size=size))


def test_invariance_residual_matches_dense_oracle():
    # a random weight-preserving M commutes with no coproduct image, so
    # the norm compared is O(1), not rounding
    space = fock.build_space(2, Statistics.BOSE, 3)
    system = kz.build_operator_system(space)
    data = liealg.LieData("sl", 2)
    m = _random_blocks(system, np.random.default_rng(11))
    big_m = to_sparse(m).toarray()
    safe = np.tile(space.safe_mask(2), 4)
    want = 0.0
    sigma, d = sparse_route.sigma_basis(space, data).toarray(), space.dim
    for k, lbl in enumerate(data.basis_labels):
        delta2 = (np.kron(liealg.coproduct_rep(data, lbl), np.eye(d))
                  + np.kron(np.eye(4), sigma[k * d:(k + 1) * d]))
        comm = (big_m @ delta2 - delta2 @ big_m)[np.ix_(safe, safe)]
        want = max(want, np.linalg.norm(comm, 2))
    assert want > 0.1
    got = kz.invariance_residual(system, m)
    assert abs(got - want) <= 1e-12 * want, (got, want)


def _sparse_invariance(system, m, data):
    """The invariance residual by full N^2 D x N^2 D sparse commutators
    [M, Delta(X)] (sparse.kron), each normed exactly through the
    components of its safe-projected sparsity graph
    (``sparse_route.norm_of_entries``)."""
    space, n = system.space, system.n
    big_m = to_sparse(m)
    safe = np.tile(space.safe_mask(2), n * n)
    worst = 0.0
    sigma, d = sparse_route.sigma_basis(space, data), space.dim
    for k, lbl in enumerate(data.basis_labels):
        delta2 = (sparse.kron(liealg.coproduct_rep(data, lbl), sparse.eye_array(d))
                  + sparse.kron(sparse.eye_array(n * n), sigma[k * d:(k + 1) * d]))
        comm = sparse.csr_array(big_m @ delta2 - delta2 @ big_m)
        comm.sum_duplicates()
        comm = comm.tocoo()
        worst = max(worst, sparse_route.norm_of_entries(comm.row, comm.col, comm.data, safe))
    return worst


@pytest.mark.parametrize("modes,cutoff", [(2, 5), (3, 4), (4, 4)])
def test_block_invariance_matches_the_sparse_commutators(modes, cutoff):
    space = fock.build_space(modes, Statistics.BOSE, cutoff)
    system = kz.build_operator_system(space)
    data = liealg.LieData("sl", modes)
    rng = np.random.default_rng(modes * 10 + cutoff)
    # an O(1) commutator: the two routes agree to rounding
    m = _random_blocks(system, rng)
    want = _sparse_invariance(system, m, data)
    assert want > 0.1
    assert abs(kz.invariance_residual(system, m) - want) <= 1e-12 * want
    # the exact M sits at the floor by both routes; a 1e-8 perturbation of
    # it reads alike by both, far above the suite's 1e-12 tolerance
    exact = kz.coassociator_matrices(system, (hbar2_of(0.1),))[0]
    assert max(kz.invariance_residual(system, exact),
               _sparse_invariance(system, exact, data)) < 1e-13
    perturbed = exact + 1e-8 * _random_blocks(system, rng)
    want = _sparse_invariance(system, perturbed, data)
    assert want > 1e3 * 1e-12
    assert abs(kz.invariance_residual(system, perturbed) - want) <= 1e-6 * want


def _sparse_relations(system, params, m):
    """The three relation residuals by full N^2 D x N^2 D sparse matrices:
    M^-1 P M and M^-1 V M contracted with the dressed ladders by the
    sparse route's quadratic_residual_matrices (tests/sparse_route.py),
    normed by sparse_route.projected_norms."""
    space, s, q = system.space, params.sign, params.q
    minv = fock.BlockOperator(m.partition, m.layout, np.concatenate(
        [np.linalg.inv(u).reshape(-1) for _, _, u in m.stacks()]))
    v = q**s * ((q + 1.0 / q) / 2.0 * system.p + (q - 1.0 / q) / 2.0 * system.eye)
    mu = to_sparse(minv @ (system.p @ m))
    mv = to_sparse(minv @ (v @ m))
    q2s = q ** (2 * s)
    itilde = np.array([qnum(t + 1.0, q2s).real / (t + 1.0) for t in range(space.cutoff + 1)])
    dit = sparse.diags_array(itilde[space.shell].astype(complex))
    rel = sparse.eye_array(mu.shape[0]) - s * mu
    aa, apap, cross = sparse_route.quadratic_residual_matrices(
        csr_list(space.an), [x @ dit for x in csr_list(space.ap)], rel, {"cross": mv}, s)
    return [sparse_route.projected_norms(space, x, 2) for x in (aa, apap, cross["cross"])]


def _sparse_acts_trivially(system, m):
    """|| M . (aa) - aa || with aa the sparse column of the a^i a^j."""
    n, an = system.n, csr_list(system.space.an)
    aa = sparse.vstack([an[i] @ an[j] for i in range(n) for j in range(n)])
    return [sparse_route.projected_norms(system.space, to_sparse(m) @ aa - aa, 2)]


# the deformation of each relation check; None stands for acts_trivially_residual
CHECKS = {"weyl": DeformParams(math.e**0.1, WEYL), "clifford": DeformParams(math.e**0.1, CLIFFORD),
          "q=1": DeformParams(1.0, WEYL), "acts_trivially": None}


def _by_blocks(system, params, m):
    if params is None:
        return [kz.acts_trivially_residual(system, m)]
    return [r.residual for r in kz.coassociator_relation_check(system, (params,), m)[0]]


def _by_sparse(system, params, m):
    if params is None:
        return _sparse_acts_trivially(system, m)
    return _sparse_relations(system, params, m)


@pytest.mark.parametrize("check", list(CHECKS))
@pytest.mark.parametrize("modes,cutoff", [(2, 3), (2, 5), (3, 4), (4, 4)])
def test_block_relations_match_the_sparse_route(modes, cutoff, check):
    system = kz.build_operator_system(fock.build_space(modes, Statistics.BOSE, cutoff))
    params = CHECKS[check]
    rng = np.random.default_rng(modes * 10 + cutoff)
    # at cutoff 3 no weight block of aa, apap or M . aa is safe: both routes read 0
    empty = {0, 1} if cutoff == 3 else set()

    def agree(m, rel_tol):
        """The sparse route's residuals that have a safe block, after
        checking every residual against the block route's."""
        got, want = _by_blocks(system, params, m), _by_sparse(system, params, m)
        for k, (g, w) in enumerate(zip(got, want)):
            if k in empty:
                assert g == w == 0.0
            else:
                assert abs(g - w) <= rel_tol * w, (k, g, w)
        return [w for k, w in enumerate(want) if k not in empty] or [math.inf]

    # an O(1) defect: the two routes agree to rounding
    assert min(agree(_random_blocks(system, rng), 1e-12)) > 0.1
    # the exact M (the identity at q = 1) sits at the floor by both routes,
    # except under the wrong sign, where both read O(1); a 1e-8
    # perturbation of it reads alike by both, far above 1e-12
    exact = (complex(1) * system.eye if check == "q=1"
             else kz.coassociator_matrices(system, (hbar2_of(0.1),))[0])
    if check == "clifford":
        assert min(agree(exact, 1e-12)) > 0.1
    else:
        assert max(*_by_blocks(system, params, exact), *_by_sparse(system, params, exact)) < 1e-13
        assert min(agree(exact + 1e-8 * _random_blocks(system, rng), 1e-6)) > 1e3 * 1e-12


def test_coassociator_makes_no_ode_solve(op_system, monkeypatch):
    # M, and the scalar system's M_s and trajectory, are sums of Frobenius
    # series; no integrator runs
    def refuse(*args, **kwargs):
        raise AssertionError("solve_ivp called")

    monkeypatch.setattr(kz, "solve_ivp", refuse)
    kz.coassociator_matrices(op_system, (hbar2_of(0.1), hbar2_of(0.05)))
    suites.run_suite(suites.make_config("kz-scalar"))


@pytest.mark.parametrize("overrides", [{}, {"q": (0.9946,)}, {"q": (1.2157,)},
                                       {"modes": 3, "cutoff": 3}, {"cutoff": 8},
                                       {"modes": 3, "cutoff": 8, "q": (1.2,)}],
                         ids=["defaults", "q=0.9946", "q=1.2157", "modes=3-cutoff=3", "cutoff=8",
                              "modes=3-cutoff=8-q=1.2"])
def test_kz_operator_passes_every_case(overrides):
    # every main row holds to 1e-12 on the exact M; the largest, relation_cross
    # at (3, 8) with q = 1.2, reads about 1.8e-14
    report = suites.run_suite(suites.make_config("kz-operator", **overrides))
    assert len(report.cases) == 12
    assert all(c.passed for c in report.cases), [c.name for c in report.cases if not c.passed]


def test_series_error_fails_each_unit_that_reads_m(monkeypatch):
    # M(h) and M(h/2) come from one shared call; when it raises, both units
    # that read them get their own EXECUTION row, and q=1 still runs
    monkeypatch.setattr(kz, "_SERIES_TERMS", 5)
    report = suites.run_suite(suites.make_config("kz-operator", cutoff=3))
    failed = sorted(c.name for c in report.cases if not c.passed)
    assert failed == ["main/EXECUTION", "scaling/EXECUTION"]
    assert all("not converged" in c.metadata["error"] for c in report.cases
               if c.name.endswith("EXECUTION"))
    assert len([c for c in report.cases if c.name.startswith("q=1/")]) == 3


def test_scalar_rows_see_a_truncated_series(monkeypatch):
    # every kz-scalar row that reads the series is in `rows`, so each one
    # is held to failing when a tail bound of 1e-3 stops the series early
    rows = ("trajectory_vs_closed_forms", "combination_identity", "limits_from_connection")
    kinds = {c.name.split("/")[-1]
             for c in suites.run_suite(suites.make_config("kz-scalar")).cases}
    assert kinds == {*rows, "closed_forms_satisfy_ode", "limits_closed_route"}

    def series_rows():
        report = suites.run_suite(suites.make_config("kz-scalar"))
        return [c for c in report.cases if c.name.split("/")[-1] in rows]

    good = series_rows()
    assert len(good) == 36
    assert all(c.residual < 1e-13 and c.passed for c in good)
    monkeypatch.setattr(kz, "_TAIL", 1e-3)
    truncated = series_rows()
    assert len(truncated) == 36
    assert not any(c.passed for c in truncated)


def test_kz_scalar_passes_every_case_at_n5_hbar2_019():
    # n hbar2 = 0.95, near the resonance at 1, where the series take the most terms
    report = suites.run_suite(suites.make_config("kz-scalar", n=(5.0,), hbar2=(0.19,)))
    assert len(report.cases) == 10
    assert all(c.passed for c in report.cases), [c.name for c in report.cases if not c.passed]


def test_scalar_trajectory_range():
    p = kz.KZScalarParams(n=2, hbar2=0.05, sign=+1)
    m = kz.scalar_connection(p)
    kz.scalar_trajectory(p, m, (1e-3, 0.5, 1 - 1e-8))
    for x in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            kz.scalar_trajectory(p, m, (0.5, x))


def test_operator_system_validation():
    with pytest.raises(ValueError):
        kz.build_operator_system(fock.build_space(2, Statistics.FERMI))
