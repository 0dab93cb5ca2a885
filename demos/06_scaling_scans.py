"""Desk-scale probes of the asymptotic statements.

Two scans over growing sample sizes, both driven by the vectorized
line-count ensemble:

* the expected coalescence time of a fully active sample grows like
  log log n - the scan watches mean / log log n stay within a narrow band
  while n spans three decades (n = 10^5 takes a few seconds: the ensemble
  moves its lanes by blocks of merges);

* started from many active lines, coordinated deactivation with c = 0
  leaves a mean block count at a small probe time whose growth in n
  flattens out (consecutive ratios head to 1: the genealogy collapses
  and only a slowly growing frozen remainder is left), while spontaneous
  switching c > 0 keeps feeding the bank, so the means climb faster.
"""

import math

from seedbank import ModelParams, SwitchingMeasure, coming_down_scan, tmrca_loglog_scan

params = ModelParams(c=1.0, K=1.0)
print("mean time to common ancestor, 1000 replicates per n (c = K = 1):")
print("      n      mean    stderr   mean/loglog(n)")
for row in tmrca_loglog_scan(params, [100, 1000, 10_000, 100_000], 1000, seed=31):
    print(f"  {row.n:6d}  {row.mean:7.3f}  {row.stderr:7.3f}  {row.ratio:10.3f}")
print("  (plain coalescent for comparison: mean approaches 2 for every n)")

lam = SwitchingMeasure.atom(0.5, 1.0)
print("\nmean surviving blocks at t = 0.05, coordinated switching only (c = 0):")
for row in coming_down_scan(ModelParams(c=0.0, K=1.0, lambda_ad=lam),
                            [100, 1000, 10_000], 0.05, 2000, seed=32):
    ratio = "" if math.isnan(row.ratio) else f"  x{row.ratio:.3f} vs previous"
    print(f"  n={row.n:6d}: {row.mean:8.2f} +- {row.stderr:.2f}{ratio}")

print("\nsame probe with spontaneous escape into the bank (c = 0.5):")
for row in coming_down_scan(ModelParams(c=0.5, K=1.0, lambda_ad=lam),
                            [100, 1000, 10_000], 0.05, 2000, seed=33):
    ratio = "" if math.isnan(row.ratio) else f"  x{row.ratio:.3f} vs previous"
    print(f"  n={row.n:6d}: {row.mean:8.2f} +- {row.stderr:.2f}{ratio}")
