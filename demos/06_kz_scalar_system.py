"""The reduced scalar KZ system: trajectories, closed forms, limits.

Sums the three-function system's Frobenius series at x = 1 and x = 0,
joined by the scalar connection matrix M_s, compares the trajectory with
the hypergeometric closed forms, and reads the x -> 0 limits that feed
the deformed cross relation off M_s and off the closed forms.
"""

import numpy as np

from qheis import kz

p = kz.KZScalarParams(n=3.0, hbar2=0.05, sign=+1)
m = kz.scalar_connection(p)
xs = np.linspace(0.02, 0.98, 33)
f = kz.scalar_trajectory(p, m, xs)

print(f"scalar system at n = {p.n:g}, 2*hbar = {p.hbar2}, sign {p.sign:+d}")
print(f"{'x':>6s} {'f1':>12s} {'f2':>12s} {'f3':>12s}")
points = (0.9, 0.5, 0.1, 0.01)
for x, (f1, f2, f3) in zip(points, kz.scalar_trajectory(p, m, points)):
    print(f"{x:6.2f} {f1.real:12.6f} {f2.real:12.6f} {f3.real:12.6f}")

sup = np.abs(f - np.array([kz.closed_form_f(p, x) for x in xs])).max()
print(f"\nsup |trajectory - closed forms| on [0.02, 0.98]: {sup:.2e}")
print("combination identity residual:",
      f"{kz.combination_identity_residual(p, f, xs):.2e}")
print("closed forms vs the ODE system:",
      f"{kz.scalar_ode_residual(p, (0.2, 0.5, 0.8)):.2e}")

# The rescaled x -> 0 limits read off M_s, and those of the closed forms
# (gamma arithmetic), against the closed expressions
# (-s n/[n]_q, s n (1 + 1/[n]_q)/(n+1), s).
ref = np.array(kz.limits_reference(p))
from_m = np.array(kz.limits_from_connection(p, m))
closed = np.array(kz.limits_closed_route(p))
print("\nlimits (reference):        ", np.round(ref.real, 8))
print("limits (from M_s):         ", np.round(from_m.real, 8),
      f"  dev {np.abs(from_m - ref).max():.1e}")
print("limits (closed-form route):", np.round(closed.real, 8),
      f"  dev {np.abs(closed - ref).max():.1e}")

# An imaginary deformation parameter (the case relevant for real q)
# gives genuinely complex limits.
pc = kz.KZScalarParams(n=2.0, hbar2=0.1j, sign=-1)
refc = np.array(kz.limits_reference(pc))
devm = np.abs(np.array(kz.limits_from_connection(pc, kz.scalar_connection(pc))) - refc).max()
devc = np.abs(np.array(kz.limits_closed_route(pc)) - refc).max()
print(f"\nimaginary 2*hbar = 0.1i, limits deviation: from M_s {devm:.1e}, "
      f"closed route {devc:.1e}")
