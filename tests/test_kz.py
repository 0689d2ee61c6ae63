import math

import numpy as np
import pytest
from scipy import sparse
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from qheis import fock, kz, liealg, suites
from qheis.fock import Statistics
from qheis.qspecial import CLIFFORD, WEYL, DeformParams


def test_params_validation():
    with pytest.raises(ValueError):
        kz.KZScalarParams(n=0.5, hbar2=0.05, sign=+1)
    with pytest.raises(ValueError):
        kz.KZScalarParams(n=2, hbar2=0.5, sign=+1)  # outside perturbative regime
    with pytest.raises(ValueError):
        kz.KZScalarParams(n=2, hbar2=0.05, sign=+1, eps=1e-9)


def test_trivial_deformation():
    p = kz.KZScalarParams(n=3, hbar2=0.0, sign=+1, eps=1e-6)
    traj = kz.integrate_scalar(p, x_lo=1e-6)
    for x in (1e-6, 0.3, 0.7, 1 - 1e-6):
        assert np.allclose(traj(x), [0.0, 1.0, 0.0], atol=1e-14)


def test_trajectory_matches_closed_forms():
    p = kz.KZScalarParams(n=3, hbar2=0.05, sign=+1, eps=1e-8)
    traj = kz.integrate_scalar(p)
    xs = np.linspace(0.02, 0.98, 25)
    sup = max(np.abs(np.array(traj(x)) - np.array(kz.closed_form_f(p, x))).max()
              for x in xs)
    assert sup < 1e-8


def test_combination_identity():
    p = kz.KZScalarParams(n=2, hbar2=0.1j, sign=+1, eps=1e-8)
    traj = kz.integrate_scalar(p)
    xs = np.linspace(0.05, 0.95, 19)
    assert kz.combination_identity_residual(p, traj, xs) < 1e-8


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


def test_riccati():
    p = kz.KZScalarParams(n=3, hbar2=0.05, sign=-1, eps=1e-8)
    traj = kz.integrate_scalar(p)
    assert kz.riccati_residual(p, traj, (0.2, 0.5, 0.8)) < 1e-8


def test_limits_both_routes():
    # real deformation parameter: hbar2 = h/(pi i) with h = 0.1 gives a
    # real q = e^h; imaginary hbar2 values are exercised alongside
    for n, hbar2, sign in ((2, 0.1 / (math.pi * 1j), +1), (3, 0.05, +1),
                           (5, 0.1j, -1)):
        p = kz.KZScalarParams(n=n, hbar2=hbar2, sign=sign, eps=1e-8)
        traj = kz.integrate_scalar(p)
        lims = kz.extract_limits(p, traj)
        ref = np.array(lims["reference"])
        assert np.abs(np.array(lims["closed"]) - ref).max() < 1e-10
        assert np.abs(np.array(lims["trajectory"]) - ref).max() < 1e-6


def test_limit_reference_values():
    # l1 = -s n/[n]_q with q = exp(pi i hbar2); the two evaluation routes
    # (gamma arithmetic vs sine arithmetic) must agree
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
    return kz.coassociator_matrix(op_system, hbar2_of(0.1), 1e-6)


def test_coassociator_h2_scaling(op_system):
    blocks = op_system.blocks
    n1 = blocks.norm(kz.coassociator_matrix(op_system, hbar2_of(0.1), 1e-5) - blocks.eye)
    m_half = kz.coassociator_matrix(op_system, hbar2_of(0.05), 1e-5) - blocks.eye
    n2 = blocks.norm(m_half)
    assert 3.2 < n1 / n2 < 4.8
    # M - 1 = zeta(2) eta^2 [P, A] + O(h^3); the wrong sign is off by ~2
    p, a = op_system.p, op_system.a
    term = math.pi**2 / 6 * hbar2_of(0.05)**2 * (blocks.matmul(p, a) - blocks.matmul(a, p))
    scale = blocks.norm(term)
    assert blocks.norm(m_half - term) / scale < 0.3
    assert blocks.norm(m_half + term) / scale > 1.5


def test_coassociator_eps_stability(op_system):
    m, err = kz.coassociator_with_error(op_system, hbar2_of(0.1), 2e-6)
    assert err < 1e-6


def test_coassociator_acts_trivially(op_system, m_matrix):
    assert kz.acts_trivially_residual(op_system, m_matrix) < 1e-6


def test_coassociator_invariance(op_system, m_matrix):
    data = liealg.LieData("sl", 2)
    assert kz.invariance_residual(op_system, m_matrix, data) < 1e-6


def test_coassociator_relations(op_system, m_matrix):
    params = DeformParams(math.e**0.1, WEYL)
    rows = kz.coassociator_relation_check(op_system, params, m_matrix, tol=1e-6)
    for row in rows:
        assert row.passed, (row.name, row.residual)
    # a nontrivial diagonal dressing leaves the relations satisfied
    from qheis.qspecial import y_sln
    rows2 = kz.coassociator_relation_check(
        op_system, params, m_matrix,
        dressing=lambda v: float(np.sqrt(y_sln(int(round(v)), math.e**0.1).real)),
        tol=1e-6)
    for row in rows2:
        assert row.passed, (row.name, row.residual)


def test_coassociator_classical_control(op_system):
    m = kz.coassociator_matrix(op_system, 0.0, 1e-6)
    assert np.array_equal(m, op_system.blocks.eye)
    params = DeformParams(1.0, WEYL)
    rows = kz.coassociator_relation_check(op_system, params, m, tol=1e-12)
    for row in rows:
        assert row.passed, (row.name, row.residual)


def test_coassociator_wrong_sign_control(op_system, m_matrix):
    params = DeformParams(math.e**0.1, CLIFFORD)
    rows = kz.coassociator_relation_check(op_system, params, m_matrix, tol=1e-6)
    assert max(r.residual for r in rows) > 1e-2


def _dense_p_a(space):
    """P and A = 1 x e_ij x a+_j a^i as dense N^2 D x N^2 D matrices."""
    n, d = space.modes, space.dim
    an = [fock.annihilator(space, i).matrix.toarray() for i in range(1, n + 1)]
    ap = [fock.creator(space, i).matrix.toarray() for i in range(1, n + 1)]
    e = np.eye(n)
    a = sum(np.kron(np.kron(e, np.outer(e[i], e[j])), ap[j] @ an[i])
            for i in range(n) for j in range(n))
    return np.kron(liealg.permutation_matrix(n), np.eye(d)), a


def _weights(space):
    """The sl(N) weight e_a + e_b + occ of each basis vector (a, b, occ)."""
    n = space.modes
    occ = np.array(space.basis)
    return np.array([np.eye(n)[a] + np.eye(n)[b] + o
                     for a in range(n) for b in range(n) for o in occ])


def _dense_coassociator(p, a, hbar2, eps):
    """M from the full N^2 D x N^2 D ODE, integrated in the logistic
    coordinate x = 1/(1 + e^-t), where dx/dt = x(1-x) removes both
    endpoint singularities of P/x + A/(x-1)."""
    dim = p.shape[0]

    def rhs(t, y):
        x = 1.0 / (1.0 + math.exp(-t))
        return (hbar2 * ((1.0 - x) * p - x * a) @ y.reshape(dim, dim)).reshape(-1)

    def logit(x):
        return math.log(x / (1.0 - x))

    y0 = expm(math.log(eps) * hbar2 * a).reshape(-1)
    sol = solve_ivp(rhs, (logit(1.0 - eps), logit(eps)), y0, method="DOP853",
                    rtol=1e-12, atol=1e-14)
    assert sol.success
    return expm(-math.log(eps) * hbar2 * p) @ sol.y[:, -1].reshape(dim, dim)


@pytest.mark.parametrize("modes,cutoff", [(2, 5), (3, 3), (4, 2)])
def test_p_and_a_conserve_the_weight(modes, cutoff):
    space = fock.build_space(modes, Statistics.BOSE, cutoff)
    p, a = _dense_p_a(space)
    w = _weights(space)
    for op in (p, a):
        rows, cols = np.nonzero(op)
        assert rows.size and np.array_equal(w[rows], w[cols])
    # the flat weight blocks of the system are exactly these P and A
    system = kz.build_operator_system(space)
    blocks = system.blocks
    assert np.array_equal(blocks.to_sparse(system.p).toarray(), p)
    assert np.array_equal(blocks.to_sparse(system.a).toarray(), a)
    assert np.array_equal(w[blocks.rows], w[blocks.cols])
    assert max(shape[1] for _, shape in blocks.stacks) <= modes * modes


def test_weight_blocks_reject_a_weight_changing_operator(op_system):
    blocks = op_system.blocks
    hop = sparse.kron(sparse.eye_array(4), fock.creator(op_system.space, 1).matrix)
    with pytest.raises(ValueError):
        blocks.gather(hop)


@pytest.mark.parametrize("modes,cutoff", [(2, 3), (3, 2)])
def test_coassociator_matches_dense_oracle(modes, cutoff):
    space = fock.build_space(modes, Statistics.BOSE, cutoff)
    system = kz.build_operator_system(space)
    m = system.blocks.to_sparse(kz.coassociator_matrix(system, hbar2_of(0.1), 1e-5)).toarray()
    p, a = _dense_p_a(space)
    assert np.linalg.norm(m - _dense_coassociator(p, a, hbar2_of(0.1), 1e-5), 2) <= 1e-10
    w = _weights(space)
    off_weight = np.any(w[:, None, :] != w[None, :, :], axis=2)
    assert off_weight.any()
    assert np.all(m[off_weight] == 0)


def test_coassociator_ode_state_is_the_weight_blocks(op_system, monkeypatch):
    # N=2, cutoff 5: 33 weight blocks of sizes 1-4 hold 266 entries; the
    # occupation-shell blocks would hold 1456 and the full 84 x 84
    # propagator 7056.  One solve covers (eps, 1-eps), and only its
    # endpoint is read.
    calls = []
    real_solve_ivp = kz.solve_ivp

    def recording(fun, t_span, y0, **kw):
        calls.append((y0.size, kw.get("dense_output", False)))
        return real_solve_ivp(fun, t_span, y0, **kw)

    monkeypatch.setattr(kz, "solve_ivp", recording)
    kz.coassociator_matrix(op_system, hbar2_of(0.1), 1e-5)
    assert calls == [(266, False)]


def test_kz_operator_at_three_modes():
    report = suites.run_suite(suites.make_config("kz-operator", modes=3, cutoff=3))
    assert len(report.cases) == 13
    assert all(c.passed for c in report.cases), [c.name for c in report.cases if not c.passed]


def test_scalar_trajectory_rows_see_the_integrator(monkeypatch):
    rows = ("trajectory_vs_closed_forms", "combination_identity")

    def trajectory_rows():
        report = suites.run_suite(suites.make_config("kz-scalar"))
        return [c for c in report.cases if c.name.split("/")[-1] in rows]

    good = trajectory_rows()
    assert len(good) == 24
    assert all(c.residual < 1e-11 and c.passed for c in good)
    # the same rows from a solve at rtol 1e-6 must all fail
    real_solve_ivp = kz.solve_ivp
    monkeypatch.setattr(kz, "solve_ivp",
                        lambda *a, **kw: real_solve_ivp(*a, **{**kw, "rtol": 1e-6}))
    loose = trajectory_rows()
    assert len(loose) == 24
    assert not any(c.passed for c in loose)


def test_scalar_trajectory_range():
    p = kz.KZScalarParams(n=2, hbar2=0.05, sign=+1, eps=1e-6)
    traj = kz.integrate_scalar(p, x_lo=1e-3)
    traj(1e-3)
    traj(1 - 1e-6)
    for x in (5e-4, 1 - 5e-7, 0.0, 1.0):
        with pytest.raises(ValueError):
            traj(x)


def test_logistic_leg_rejects_empty_interval():
    def rhs(x, y):
        return y / x

    for x_lo, x_hi in ((0.5, 0.5), (0.6, 0.4), (0.0, 0.5), (0.5, 1.0)):
        with pytest.raises(ValueError):
            kz._logistic_leg(rhs, np.ones(1), x_lo, x_hi)


def test_operator_system_validation():
    with pytest.raises(ValueError):
        kz.build_operator_system(fock.build_space(2, Statistics.FERMI))
