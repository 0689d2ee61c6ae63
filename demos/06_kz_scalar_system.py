"""The reduced scalar KZ system: trajectories, closed forms, limits.

Integrates the three-function linear system from x = 1 toward x = 0,
compares with the hypergeometric closed forms, and takes the closed
forms' x -> 0 limits that feed the deformed cross relation.
"""

import numpy as np

from qheis import kz

p = kz.KZScalarParams(n=3.0, hbar2=0.05, sign=+1)
traj = kz.integrate_scalar(p, 0.01)

print(f"scalar system at n = {p.n:g}, 2*hbar = {p.hbar2}, sign {p.sign:+d}")
print(f"{'x':>6s} {'f1':>12s} {'f2':>12s} {'f3':>12s}")
for x in (0.9, 0.5, 0.1, 0.01):
    f1, f2, f3 = traj(x)
    print(f"{x:6.2f} {f1.real:12.6f} {f2.real:12.6f} {f3.real:12.6f}")

xs = np.linspace(0.02, 0.98, 33)
sup = max(np.abs(np.array(traj(x)) - np.array(kz.closed_form_f(p, x))).max()
          for x in xs)
print(f"\nsup |trajectory - closed forms| on [0.02, 0.98]: {sup:.2e}")
print("combination identity residual:",
      f"{kz.combination_identity_residual(p, traj, xs):.2e}")
print("closed forms vs the ODE system:",
      f"{kz.scalar_ode_residual(p, (0.2, 0.5, 0.8)):.2e}")

# The rescaled x -> 0 limits of the closed forms (gamma arithmetic)
# against the closed expressions (-s n/[n]_q, s n (1 + 1/[n]_q)/(n+1), s).
ref = np.array(kz.limits_reference(p))
closed = np.array(kz.limits_closed_route(p))
print("\nlimits (reference):        ", np.round(ref.real, 8))
print("limits (closed-form route):", np.round(closed.real, 8),
      f"  dev {np.abs(closed - ref).max():.1e}")

# An imaginary deformation parameter (the case relevant for real q)
# gives genuinely complex limits.
pc = kz.KZScalarParams(n=2.0, hbar2=0.1j, sign=-1)
devc = np.abs(np.array(kz.limits_closed_route(pc)) - np.array(kz.limits_reference(pc))).max()
print(f"\nimaginary 2*hbar = 0.1i, limits closed-route deviation: {devc:.1e}")
