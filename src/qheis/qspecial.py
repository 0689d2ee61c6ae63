"""Classical and q-deformed special functions.

q-numbers in both normalizations, the q-gamma function and its balanced
variant, the Euler gamma function (delegated to scipy, verified by the
reflection identity), the Gauss hypergeometric function 2F1 with its
0 <-> 1 connection formula, and the diagonal dressing functions
y_sl / y_so used by the deforming maps.

Domain notes that matter:
  * Gamma_q as an infinite product needs |q| < 1.  For q > 1 it is
    defined here only at positive integers, through the recurrence
    Gamma_q(1) = 1, Gamma_q(a+1) = (a)_q Gamma_q(a); every use in this
    package needs only integer arguments or telescoped ratios.
  * The y_so dressing is evaluated exclusively in ratio form, so gamma
    at half-integer arguments with q > 1 never has to be defined.
  * 2F1 is computed by direct series for |z| <= 0.7 and routed through
    the connection formula otherwise; the degenerate case c - a - b in Z
    is rejected.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

WEYL = +1       # symmetric (bosonic) sign convention
CLIFFORD = -1   # antisymmetric (fermionic) sign convention


class ConvergenceError(RuntimeError):
    pass


@dataclass(frozen=True)
class DeformParams:
    """Deformation data: the real parameter q > 0 (stored as a float)
    and the sign convention.

    sign = +1 selects the Weyl (bosonic) branch, -1 the Clifford
    (fermionic) one.
    """

    q: float
    sign: int = WEYL

    def __post_init__(self):
        if self.sign not in (WEYL, CLIFFORD):
            raise ValueError("sign must be +1 or -1")
        if not isinstance(self.q, numbers.Real) or not self.q > 0:
            raise ValueError(f"q must be a real number > 0, not {self.q!r}")
        object.__setattr__(self, "q", float(self.q))


def qnum(x, q):
    """The q-number (x)_q = (q^x - 1)/(q - 1); tends to x as q -> 1."""
    q = complex(q)
    if q == 1:
        return complex(x)
    return (q**x - 1.0) / (q - 1.0)


def qbracket(x, q):
    """The symmetric q-number [x]_q = (q^x - q^-x)/(q - q^-1)."""
    q = complex(q)
    if q == 1:
        return complex(x)
    return (q**x - q**(-x)) / (q - 1.0 / q)


def qfactorial(n: int, q) -> complex:
    """(1)_q (2)_q ... (n)_q, i.e. Gamma_q(n+1) by the recurrence."""
    if n < 0 or n != int(n):
        raise ValueError("qfactorial needs a nonnegative integer")
    out = 1.0 + 0j
    for k in range(1, int(n) + 1):
        out *= qnum(k, q)
    return out


def qgamma(a, q):
    """The q-gamma function.

    For |q| < 1 the convergent product
        Gamma_q(a) = (1-q)^(1-a) prod_{k>=0} (1-q^(k+1))/(1-q^(a+k))
    is used.  For q with |q| >= 1 only positive integer a is defined,
    via the recurrence Gamma_q(a+1) = (a)_q Gamma_q(a).
    """
    q = complex(q)
    if abs(q) < 1.0:
        a = complex(a)
        out = (1.0 - q) ** (1.0 - a)
        k = 0
        while True:
            num = 1.0 - q ** (k + 1)
            den = 1.0 - q ** (a + k)
            if den == 0:
                raise ZeroDivisionError(f"q-gamma pole at a = {a}")
            out *= num / den
            # remaining factors are 1 + O(q^k); stop once that is below 1e-17
            if abs(q) ** (k + 1) < 1e-17 * (1.0 - abs(q)):
                return out
            k += 1
            if k > 2_000_000:
                raise ConvergenceError("q-gamma product did not converge")
    if a != int(np.real(a)) or np.real(a) < 1:
        raise ValueError(f"Gamma_q at non-positive-integer argument {a} needs |q| < 1")
    return qfactorial(int(np.real(a)) - 1, q)


def qgamma_tilde(a, q):
    """Balanced q-gamma: Gamma~_q(a) = Gamma_{q^2}(a) q^(-a(a-3)/2).

    Satisfies Gamma~_q(a+1) = [a]_q Gamma~_q(a).
    """
    q = complex(q)
    a = complex(a)
    return qgamma(a, q * q) * q ** (-a * (a - 3.0) / 2.0)


def gamma(a) -> complex:
    """Euler gamma (complex); raises at poles."""
    # scipy.special is imported on first use, so suites that never call
    # gamma or rgamma do not pay for its import at start-up
    from scipy.special import gamma as _gamma
    v = complex(_gamma(complex(a)))
    if not np.isfinite(v.real) or not np.isfinite(v.imag):
        raise ValueError(f"gamma pole or overflow at a = {a}")
    return v


def rgamma(a) -> complex:
    """Reciprocal gamma 1/Gamma(a); entire, zero at the poles of Gamma."""
    from scipy.special import rgamma as _rgamma
    return complex(_rgamma(complex(a)))


def reflection_residual(a) -> float:
    """|Gamma(a) Gamma(-a) + pi / (a sin(pi a))|, relative; zero in exact arithmetic."""
    a = complex(a)
    lhs = gamma(a) * gamma(-a)
    rhs = -math.pi / (a * cmath.sin(math.pi * a))
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs))


# ---------------------------------------------------------------------------
# Gauss hypergeometric function
# ---------------------------------------------------------------------------

_SERIES_RADIUS = 0.7


def _2f1_series(a, b, c, z):
    """Direct power series with the stopping rule: three consecutive terms
    below 1e-17 times the partial sum."""
    a, b, c, z = complex(a), complex(b), complex(c), complex(z)
    term = 1.0 + 0j
    total = term
    small = 0
    for k in range(20000):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * z
        total += term
        if abs(term) < 1e-17 * max(abs(total), 1e-300):
            small += 1
            if small >= 3:
                return total
        else:
            small = 0
    raise ConvergenceError(f"2F1 series did not converge at z = {z}")


def _check_c(c):
    cr = complex(c)
    if abs(cr - round(cr.real)) < 1e-12 and round(cr.real) <= 0:
        raise ValueError(f"2F1 parameter c = {c} is a non-positive integer")


def gauss_2f1(a, b, c, z):
    """Gauss hypergeometric F(a, b, c; z).

    Direct series for |z| <= 0.7; for z closer to 1 the 0 <-> 1
    connection formula
        F(a,b,c;z) = B(c, c-a-b)/B(c-a, c-b) F(a,b,a+b+1-c; 1-z)
                   + B(c, a+b-c)/B(a, b) (1-z)^(c-a-b)
                     F(c-a,c-b,c+1-a-b; 1-z)
    is applied (rejected when c-a-b is an integer).
    """
    a, b, c, z = complex(a), complex(b), complex(c), complex(z)
    _check_c(c)
    if z == 0:
        return 1.0 + 0j
    if abs(z) <= _SERIES_RADIUS:
        return _2f1_series(a, b, c, z)
    w = 1.0 - z
    if abs(w) <= _SERIES_RADIUS:
        t1, t2 = _connection_terms(a, b, c, w)
        return t1 + t2
    raise ValueError(f"z = {z} outside the supported region (|z|<=0.7 or |1-z|<=0.7)")


def _connection_terms(a, b, c, w):
    """The two branches of the 0 <-> 1 connection formula, evaluated at
    argument w = 1 - z.  The beta-function ratios are expanded so the
    spurious Gamma(a+b) factors cancel before any pole can be hit."""
    s = c - a - b
    if abs(s - round(s.real)) < 1e-12 and abs(s.imag) < 1e-12:
        raise ValueError(f"connection formula degenerate: c-a-b = {s}")
    c1 = gamma(c) * gamma(s) * rgamma(c - a) * rgamma(c - b)
    c2 = gamma(c) * gamma(-s) * rgamma(a) * rgamma(b)
    t1 = c1 * _2f1_series(a, b, a + b + 1.0 - c, w)
    t2 = c2 * w**s * _2f1_series(c - a, c - b, c + 1.0 - a - b, w)
    return t1, t2


def gauss_2f1_deriv(a, b, c, z):
    """dF/dz = (a b / c) F(a+1, b+1, c+1; z)."""
    a, b, c = complex(a), complex(b), complex(c)
    return a * b / c * gauss_2f1(a + 1, b + 1, c + 1, z)


def hyper_ode_residual(a, b, c, z) -> float:
    """Residual of y''(1-z)z + y'[c - (a+b+1) z] - y a b for the series
    solution, with derivatives taken term by term."""
    a, b, c, z = complex(a), complex(b), complex(c), complex(z)
    if abs(z) > _SERIES_RADIUS:
        raise ValueError("termwise ODE residual only inside the series region")
    term = 1.0 + 0j
    f = term
    f1 = 0j
    f2 = 0j
    small = 0
    for k in range(20000):
        coeff = (a + k) * (b + k) / ((c + k) * (k + 1))
        term *= coeff * z
        f += term
        kk = k + 1
        if z != 0:
            f1 += kk * term / z
            if kk >= 2:
                f2 += kk * (kk - 1) * term / (z * z)
        if abs(term) < 1e-17 * max(abs(f), 1e-300):
            small += 1
            if small >= 3:
                break
        else:
            small = 0
    else:
        raise ConvergenceError("series for ODE residual did not converge")
    res = f2 * (1.0 - z) * z + f1 * (c - (a + b + 1.0) * z) - f * a * b
    scale = max(abs(f), abs(f1), 1.0)
    return abs(res) / scale


def connection_residual(a, b, c, z) -> float:
    """Self-consistency of the connection formula at z: both evaluation
    routes (direct series, routed through 1-z) must agree."""
    direct = _2f1_series(a, b, c, z)
    t1, t2 = _connection_terms(complex(a), complex(b), complex(c), 1.0 - complex(z))
    return abs(direct - (t1 + t2)) / max(abs(direct), 1.0)


# ---------------------------------------------------------------------------
# Dressing functions
# ---------------------------------------------------------------------------


def y_sln(n: int, q) -> complex:
    """y_sl(n) = Gamma(n+1) / Gamma_{q^2}(n+1) at integer n >= 0.

    Evaluated by recurrence: prod_{k=1..n} k / (k)_{q^2}.  Satisfies
    y(0) = 1 and y(n+1)/y(n) = (n+1)/(n+1)_{q^2}.
    """
    if n < 0 or n != int(n):
        raise ValueError("y_sln needs a nonnegative integer")
    q2 = complex(q) ** 2
    out = 1.0 + 0j
    for k in range(1, int(n) + 1):
        out *= k / qnum(k, q2)
    return out


def _gratio_step(x, k: int, q2) -> complex:
    """g(x + k)/g(x) for g = Gamma/Gamma_{q^2}, integer k, by telescoping
    Gamma(x+1) = x Gamma(x) against Gamma_{q^2}(x+1) = (x)_{q^2} Gamma_{q^2}(x)."""
    out = 1.0 + 0j
    if k >= 0:
        for j in range(k):
            out *= (x + j) / qnum(x + j, q2)
    else:
        for j in range(1, -k + 1):
            out *= qnum(x - j, q2) / (x - j)
    return out


def y_son_ratio(n, l, n2, l2, big_n: int, q) -> complex:
    """Ratio y_so(n2, l2) / y_so(n, l) for the so(N) dressing

        y_so(n, l) = ((1+q^(N-2))/2)^(-n) g(x_-) g(x_+),
        g = Gamma/Gamma_{q^2},  x_-+ = (n + N/2 + 1 -+ l)/2,

    computed purely from recurrence factors.  The shift (n, l) ->
    (n2, l2) must move both x_- and x_+ by integers, i.e. n2 - n and
    l2 - l must have equal parity; this covers every shift appearing in
    the four functional equations (n +- 1 with l -+ 1 or l +- 1, and
    n +- 2 with l fixed).  No gamma evaluation at non-integer arguments
    is ever performed.
    """
    dn, dl = n2 - n, l2 - l
    dxm = (dn - dl) / 2.0
    dxp = (dn + dl) / 2.0
    if abs(dxm - round(dxm)) > 1e-9 or abs(dxp - round(dxp)) > 1e-9:
        raise ValueError(f"shift ({dn}, {dl}) not reducible by recurrences")
    q = complex(q)
    q2 = q * q
    xm = (n + big_n / 2.0 + 1.0 - l) / 2.0
    xp = (n + big_n / 2.0 + 1.0 + l) / 2.0
    pref = ((1.0 + q ** (big_n - 2)) / 2.0) ** (-(n2 - n))
    return pref * _gratio_step(xm, int(round(dxm)), q2) * _gratio_step(xp, int(round(dxp)), q2)
