"""Singular-value statistics of the truncations.

As the truncation grows, the singular values of T_n distribute like the
symbol's two singular values sampled over the circle.  This drives the decay
proof: means of test functions continuous on [0, 1] over the truncation
spectrum converge to a closed-form integral.  The truncation's 2n singular
values are those of its n x n fold X, each counted twice, so every mean is
a mean over X's values.  Each size's summary holds that empirical mean and
its gap to the limit; the caller takes the SVD of the fold, and integrates
the limit once.
"""

import numpy as np

from xyness import (
    ModelParams,
    avram_parter_gap,
    avram_parter_limit,
    build_block_sequence,
    folded,
    indicator_log,
    singular_values,
    symbol_norm,
)

p = ModelParams(gamma=0.9, lam=0.0, beta_l=1.0, beta_r=4.0)
seq = build_block_sequence(256, p)
norm_cap = symbol_norm(p)
print(f"parameters: {p}")
print(f"symbol operator norm (caps every truncation): {norm_cap:.10f}")
print()

print("empirical mean of g(s) = s^2 versus its distributional limit:")
g_sq = np.square
limit_sq = avram_parter_limit(g_sq, p)  # independent of n: integrated once
print(f"{'n':>5} {'empirical':>12} {'limit':>12} {'gap':>10} {'smax':>10}")
# each size's fold X gives the truncation's 2n singular values: X's, each twice
fold_sv = {n: singular_values(folded(n, seq)) for n in (16, 32, 64, 128, 256)}
for n, sv in fold_sv.items():
    s = avram_parter_gap(n, g_sq, sv, limit_sq)
    print(
        f"{n:5d} {s.empirical_mean:12.8f} {limit_sq:12.8f}"
        f" {s.gap:10.2e} {sv[-1]:10.6f}"
    )
print("the gap shrinks roughly like 1/n; smax never exceeds the symbol norm")
print()

# the test function used in the decay proof: a smooth step times log,
# zero near 0 so the small singular values cannot dominate
g_log = indicator_log(1e-3)
limit_log = avram_parter_limit(g_log, p)
s = avram_parter_gap(128, g_log, fold_sv[128], limit_log)
print(f"chi_eps*log statistic at n = 128: empirical {s.empirical_mean:.8f}, limit {limit_log:.8f}")

# term-by-term inequality: weighting each log s by chi_eps(s) <= 1 can only
# increase the sum, because every singular value lies below 1 and its log is
# negative; the sums over the 2n values are twice the sums over X's
lhs = 2.0 * float(np.sum(np.log(fold_sv[128])))
rhs = 2.0 * float(np.sum(g_log(fold_sv[128])))
print(f"log|det T_n| = {lhs:.4f} <= smoothed sum {rhs:.4f}: {lhs <= rhs}")
print()

# the census of the 2n values counts each of X's twice
print("near-kernel census (values <= eps):")
for eps in (1e-6, 1e-3, 0.5):
    counts = [2 * int(np.count_nonzero(fold_sv[n] <= eps)) for n in (32, 64, 128)]
    print(f"  eps = {eps:g}: counts {counts} out of {[2*n for n in (32, 64, 128)]}")
print("off criticality the spectrum stays away from 0: no near-kernel values")
