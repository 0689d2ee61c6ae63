import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from qheis import fock, kz, liealg
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
    eye = np.eye(op_system.p_big.shape[0])
    n1 = np.linalg.norm(kz.coassociator_matrix(op_system, hbar2_of(0.1), 1e-5)
                        - eye, 2)
    m_half = kz.coassociator_matrix(op_system, hbar2_of(0.05), 1e-5) - eye
    n2 = np.linalg.norm(m_half, 2)
    assert 3.2 < n1 / n2 < 4.8
    # M - 1 = zeta(2) eta^2 [P, A] + O(h^3); the wrong sign is off by ~2
    p, a = op_system.p_big, op_system.a_big
    term = math.pi**2 / 6 * hbar2_of(0.05)**2 * (p @ a - a @ p)
    scale = np.linalg.norm(term, 2)
    assert np.linalg.norm(m_half - term, 2) / scale < 0.3
    assert np.linalg.norm(m_half + term, 2) / scale > 1.5


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
    assert np.linalg.norm(m - np.eye(m.shape[0])) == 0.0
    params = DeformParams(1.0, WEYL)
    rows = kz.coassociator_relation_check(op_system, params, m, tol=1e-12)
    for row in rows:
        assert row.passed, (row.name, row.residual)


def test_coassociator_wrong_sign_control(op_system, m_matrix):
    params = DeformParams(math.e**0.1, CLIFFORD)
    rows = kz.coassociator_relation_check(op_system, params, m_matrix, tol=1e-6)
    assert max(r.residual for r in rows) > 1e-2


def _dense_coassociator(system, hbar2, eps):
    """M from the full N^2 D x N^2 D ODE, integrated in the logistic
    coordinate x = 1/(1 + e^-t), where dx/dt = x(1-x) removes both
    endpoint singularities of P/x + A/(x-1)."""
    p, a = system.p_big, system.a_big
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


@pytest.mark.parametrize("modes,cutoff", [(2, 3), (3, 2)])
def test_coassociator_matches_dense_oracle(modes, cutoff):
    system = kz.build_operator_system(fock.build_space(modes, Statistics.BOSE, cutoff))
    m = kz.coassociator_matrix(system, hbar2_of(0.1), 1e-5)
    assert np.linalg.norm(m - _dense_coassociator(system, hbar2_of(0.1), 1e-5), 2) <= 1e-10
    shell_of = np.tile(system.space.total_occupations(), modes * modes)
    off_shell = shell_of[:, None] != shell_of[None, :]
    assert off_shell.any()
    assert np.all(m[off_shell] == 0)


def test_coassociator_ode_state_is_the_shell_blocks(op_system, monkeypatch):
    # N=2, cutoff 5: shells of size 4(k+1), k = 0..5, hold 16 * 91 = 1456
    # entries; the full 84 x 84 propagator would hold 7056
    sizes = []
    real_solve_ivp = kz.solve_ivp

    def recording(fun, t_span, y0, **kw):
        sizes.append(y0.size)
        return real_solve_ivp(fun, t_span, y0, **kw)

    monkeypatch.setattr(kz, "solve_ivp", recording)
    kz.coassociator_matrix(op_system, hbar2_of(0.1), 1e-5)
    assert sizes and all(s == 1456 for s in sizes)
    assert [sh.idx.size for sh in op_system.shells] == [4, 8, 12, 16, 20, 24]


def test_operator_system_validation():
    with pytest.raises(ValueError):
        kz.build_operator_system(fock.build_space(2, Statistics.FERMI))
