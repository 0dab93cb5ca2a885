"""Moment duality: the forward diffusion meets the backward line counts.

E[X_t^n Y_t^m] computed from forward trajectories equals
E[x^{N_t} y^{M_t}] computed from the backward chain started at (n, m).
The right-hand side is available exactly (the matrix exponential of the
chain's sparse generator, applied to x^n y^m), which turns the
identity into a sharp integration test for the trajectory engine - and the
same identity holds with coordinated switching on both sides.
"""

import math

from seedbank import (
    IntegratorSettings,
    ModelParams,
    SwitchingMeasure,
    duality_lhs_grid,
    duality_rhs,
)

params = ModelParams(c=1.0, K=1.0)
x, y = 0.4, 0.8

# A single line flips between active and dormant at rates c and cK; at
# t = ln(2)/2 it is active with probability 3/4, so E[x^N y^M] has a closed
# form to compare against.
t = math.log(2) / 2
print(f"closed form 0.75x + 0.25y      = {0.75 * x + 0.25 * y}")
print(f"exact (sparse expm)            = {duality_rhs(1, 0, x, y, params, t)[0]:.8f}")

settings = IntegratorSettings(horizon=2.0, dt=1e-3)
lhs = duality_lhs_grid(params, x, y, [(1, 0), (2, 0), (1, 1), (2, 2)], [t, 2.0],
                       20_000, seed=3, settings=settings)
mean, se = lhs[(1, 0, t)]
print(f"forward Monte Carlo            = {mean:.4f} +- {se:.4f}")

print("\nspontaneous switching, t = 2:")
print(" n m      forward         backward    |diff|")
for n, m in [(1, 0), (2, 0), (1, 1), (2, 2)]:
    mean, se = lhs[(n, m, 2.0)]
    rhs, _ = duality_rhs(n, m, x, y, params, 2.0)
    print(f" {n} {m}   {mean:.4f}+-{se:.4f}   {rhs:.6f}   {abs(mean - rhs):.4f}")

# With coordinated switching (an atom of weight 0.5 at z = 0.5 on both
# sides), jumps enter the diffusion and binomial group flips enter the
# chain; the identity still holds.
lam = SwitchingMeasure.atom(0.5, 0.5)
jumpy = ModelParams(c=1.0, K=1.0, lambda_ad=lam, lambda_da=lam)
lhs = duality_lhs_grid(jumpy, x, y, [(2, 1)], [2.0], 20_000, seed=4, settings=settings)
mean, se = lhs[(2, 1, 2.0)]
rhs, rhs_se = duality_rhs(2, 1, x, y, jumpy, 2.0, method="mc", reps=100_000, seed=5)
exact, _ = duality_rhs(2, 1, x, y, jumpy, 2.0)
print("\nsimultaneous switching, (n,m) = (2,1), t = 2:")
print(f" forward {mean:.4f}+-{se:.4f}, backward MC {rhs:.4f}+-{rhs_se:.4f}, exact {exact:.6f}")

# As t grows every mixed moment approaches (y + xK)/(1 + K): the law of the
# pair collapses onto the two monomorphic corners.
print("\nlong-time limit (y + xK)/(1 + K) =", (y + x * 1.0) / 2)
for n, m in [(1, 0), (0, 1), (2, 2)]:
    val, _ = duality_rhs(n, m, x, y, params, 100.0)
    print(f" lim E[x^N y^M] from ({n},{m}): {val:.8f}")
