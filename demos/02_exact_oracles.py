"""Exact answers for small samples: first-step analysis on the line counts.

The pair (active lines, dormant lines) is a Markov chain on a finite
triangle of states, so expected coalescence times and expected branch
lengths come from sparse linear solves, with no Monte Carlo error.  These
oracles anchor the whole verification story.
"""

from seedbank import (
    BlockCountState,
    ModelParams,
    bc_transition_rates,
    blockcount_ensemble,
    expected_branch_lengths_first_step,
    expected_tmrca_first_step,
)

params = ModelParams(c=1.0, K=1.0)

print("transition rates out of (n=3, m=2) at c=2, K=0.5:")
for target, rate in bc_transition_rates(BlockCountState(3, 2), ModelParams(c=2.0, K=0.5)):
    print(f"  -> {tuple(target)}: {rate}")

# Two sampled active lines with c = K = 1: conditioning on the first event
# gives a 3x3 linear system whose solution is exactly 4 - four times the
# plain coalescent value.
t = expected_tmrca_first_step(BlockCountState(2, 0), params)
print(f"\nexpected coalescence time from (2,0): {t}")

la, ld = expected_branch_lengths_first_step(BlockCountState(2, 0), params)
print(f"expected active/dormant branch lengths: {la}, {ld}")

# The Gillespie ensemble reproduces the exact value within Monte Carlo error.
res = blockcount_ensemble(BlockCountState(2, 0), params, 100_000, seed=1)
mean = res.absorption_time.mean()
se = res.absorption_time.std(ddof=1) / 100_000**0.5
print(f"simulated mean over 1e5 replicates: {mean:.4f} +- {se:.4f}")

# Larger samples: the triangle grows quadratically but stays tiny.
for n in (5, 10, 20):
    t = expected_tmrca_first_step(BlockCountState(n, 0), params)
    print(f"expected time from ({n},0): {t:.4f}")
