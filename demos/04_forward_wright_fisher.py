"""The forward population model: N active individuals plus a seed bank.

Each generation the active pool reproduces by multinomial sampling while c
individuals (binomially randomized) swap between the pools.  Two-allele
frequencies (x, y) then follow the dormancy diffusion on the N-rescaled
clock, and the chance of fixing at all-type-0 is (y + xK)/(1 + K): with a
large seed bank (small K) the bank's composition decides the outcome.  A
config with ``sim_switching`` adds rare coordinated events, and the same
``wf_step`` then draws them.
"""

import numpy as np

from seedbank import SimSwitching, SwitchingMeasure, WFConfig, WFState, run_trajectory, wf_ensemble, wf_step

cfg = WFConfig(N=100, K=1.0, c=1.0, exchange_mode="binomial")

traj = run_trajectory(cfg, 0.3, 0.7, generations=3000, record_every=300, seed=11)
print("one trajectory (x = active frequency, y = seed bank frequency):")
for g, xv, yv in zip(traj.generations, traj.x, traj.y):
    print(f"  gen {g:5d}: x={xv:.3f} y={yv:.3f}")
print(f"fixed at generation {traj.fixation_generation}")

print("\nfixation frequencies over 10000 runs vs (y + xK)/(1 + K):")
for K, x0, y0 in [(1.0, 0.3, 0.7), (2.0, 0.3, 0.7), (0.5, 0.5, 0.5)]:
    wf = WFConfig(N=100, K=K, c=1.0, exchange_mode="binomial")
    fix = wf_ensemble(wf, x0, y0, 10_000, 20_000, seed=12).fixation
    target = (y0 + x0 * K) / (1.0 + K)
    print(f"  K={K:3}: measured {fix.frac_11:.4f}  target {target:.4f}  (unfixed: {fix.unfixed})")

# K * x + y is conserved in expectation on the way to fixation.
wf = WFConfig(N=100, K=2.0, c=1.0)
res = wf_ensemble(wf, 0.3, 0.7, 5_000, 400, seed=13)
vals = 2.0 * res.i / wf.N + res.j / wf.M
print(f"\nmean K*x + y after 400 generations: {vals.mean():.4f} (started at {2 * 0.3 + 0.7})")

# Rare coordinated events: with probability rate/N per generation a fraction
# z of the seed bank is replaced by offspring of the active pool.
sw = SimSwitching(rate_d=2.0, mu_d=SwitchingMeasure.atom(0.5, 1.0))
cfg = WFConfig(N=200, K=2.0, c=1.0, sim_switching=sw)
rng = np.random.default_rng(14)
stats: dict = {}
s = WFState(i=60, j=50, generation=0)
for _ in range(40_000):
    s = wf_step(s, cfg, rng, stats)
print(f"\ncoordinated replacements over 200 rescaled time units: {stats.get('d_events', 0)}"
      f" (rate w/z = 2 per unit time -> about 400)")
