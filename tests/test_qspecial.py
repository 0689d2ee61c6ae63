import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qheis import qspecial as qs


def test_qnumbers():
    q = 1.7
    assert abs(qs.qnum(2, q) - (1 + q)) < 1e-15
    assert qs.qnum(5, 1.0) == 5.0  # continuous q -> 1 branch
    assert abs(qs.qbracket(2, q) - (q + 1 / q)) < 1e-15


@given(x=st.floats(-5, 5), q=st.floats(0.2, 3.0))
@settings(max_examples=100, deadline=None)
def test_qnum_recurrence(x, q):
    if abs(q - 1.0) < 1e-3:
        return
    lhs = qs.qnum(x + 1, q)
    rhs = 1.0 + q * qs.qnum(x, q)
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_qgamma_small_values():
    q = 0.5
    assert abs(qs.qgamma(1, q) - 1.0) < 1e-15
    assert abs(qs.qgamma(3, q) - (1 + q)) < 1e-14  # (2)_q (1)_q


@pytest.mark.parametrize("q", [0.5, 0.9])
@pytest.mark.parametrize("a", [0.75, 2.5, 7.25, 19.5])
def test_qgamma_product_recurrence(q, a):
    lhs = qs.qgamma(a + 1, q)
    rhs = qs.qnum(a, q) * qs.qgamma(a, q)
    assert abs(lhs - rhs) < 1e-12 * abs(lhs)


@pytest.mark.parametrize("q", [0.5, 0.9, 1.1, 2.0])
def test_qgamma_integer_recurrence(q):
    for a in range(1, 21):
        lhs = qs.qgamma(a + 1, q)
        rhs = qs.qnum(a, q) * qs.qgamma(a, q)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_qgamma_domain_error():
    with pytest.raises(ValueError):
        qs.qgamma(2.5, 1.3)  # non-integer argument needs |q| < 1


@pytest.mark.parametrize("q", [0.5, 0.9])
@pytest.mark.parametrize("a", [1.5, 2.5, 10.25])
def test_qgamma_tilde_recurrence(q, a):
    lhs = qs.qgamma_tilde(a + 1, q)
    rhs = qs.qbracket(a, q) * qs.qgamma_tilde(a, q)
    assert abs(lhs - rhs) < 1e-12 * abs(lhs)


def test_gamma_beta_reflection():
    assert abs(qs.gamma(5) - 24.0) < 1e-12
    assert qs.reflection_residual(0.3 + 0.1j) < 1e-12
    grid = [a + b * 1j for a in (0.25, 0.7, 1.3, -1.6, 2.2)
            for b in (-0.9, 0.1, 0.5, 1.5)]
    assert max(qs.reflection_residual(p) for p in grid) < 1e-12
    with pytest.raises(ValueError):
        qs.gamma(0)


def test_2f1_basics():
    assert qs.gauss_2f1(0.3, -0.2, 1.1, 0.0) == 1.0
    z = 0.5
    assert abs(qs.gauss_2f1(1, 1, 2, z) - (-np.log(1 - z) / z)) < 1e-13
    with pytest.raises(ValueError):
        qs.gauss_2f1(0.3, 0.2, -1.0, 0.3)  # c non-positive integer
    with pytest.raises(ValueError):
        qs.gauss_2f1(0.25, 0.75, 2.0, 0.9)  # c-a-b integer degenerate


def test_2f1_connection_and_derivative():
    assert qs.connection_residual(0.1, -0.1, 1.3, 0.5) < 1e-10
    h = 1e-5
    a, b, c, z = 0.3, -0.2, 1.1, 0.4
    fd = (qs.gauss_2f1(a, b, c, z + h) - qs.gauss_2f1(a, b, c, z - h)) / (2 * h)
    assert abs(qs.gauss_2f1_deriv(a, b, c, z) - fd) < 1e-10


@given(a=st.floats(-0.4, 0.4), b=st.floats(-0.4, 0.4),
       c=st.floats(0.8, 2.0), z=st.floats(0.05, 0.65))
@settings(max_examples=40, deadline=None)
def test_2f1_satisfies_its_ode(a, b, c, z):
    assert qs.hyper_ode_residual(a, b, c, z) < 1e-9


def test_y_sl():
    q = 1.3
    assert qs.y_sln(0, q) == 1.0
    assert abs(qs.y_sln(1, q) - 1.0) < 1e-15
    assert abs(qs.y_sln(2, q) - 2.0 / (1 + q * q)) < 1e-15
    for n in range(8):
        lhs = qs.y_sln(n + 1, q) / qs.y_sln(n, q)
        rhs = (n + 1.0) / qs.qnum(n + 1, q * q)
        assert abs(lhs - rhs) < 1e-14
    with pytest.raises(ValueError):
        qs.y_sln(-1, q)


def test_y_so_ratio():
    q, big_n = 1.3, 3
    n, l = 3.0, 1.5
    assert qs.y_son_ratio(n, l, n, l, big_n, q) == 1.0
    # the n -> n+2 shift telescopes each gamma factor once
    beta = (1.0 + q ** (big_n - 2)) / 2.0
    xm = (n + big_n / 2 + 1 - l) / 2
    xp = (n + big_n / 2 + 1 + l) / 2
    q2 = q * q
    manual = beta**-2 * (xm / qs.qnum(xm, q2)) * (xp / qs.qnum(xp, q2))
    assert abs(qs.y_son_ratio(n, l, n + 2, l, big_n, q) - manual) < 1e-14
    # composition of unit shifts equals the double shift
    via = (qs.y_son_ratio(n, l, n + 1, l + 1, big_n, q)
           * qs.y_son_ratio(n + 1, l + 1, n + 2, l, big_n, q))
    assert abs(via - qs.y_son_ratio(n, l, n + 2, l, big_n, q)) < 1e-14
    with pytest.raises(ValueError):
        qs.y_son_ratio(n, l, n + 1, l, big_n, q)  # parity-violating shift


BAD_Q = (0.0, -1.3, 1.3 + 0j, float("nan"))


def test_checked_q():
    assert qs.checked_q(1.3) == 1.3
    assert type(qs.checked_q(1)) is float
    for bad in BAD_Q:
        with pytest.raises(ValueError, match="q must be a real number > 0"):
            qs.checked_q(bad)
