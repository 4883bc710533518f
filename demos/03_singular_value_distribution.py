"""Singular-value statistics of the truncations.

As the truncation grows, the singular values of T_n distribute like the
symbol's two singular values sampled over the circle.  This drives the decay
proof: means of test functions continuous on [0, 1] over the truncation
spectrum converge to a closed-form integral.  Each size's summary holds its
singular values, their empirical mean and its gap to the limit; the limit
itself is integrated once and kept by the caller.
"""

import numpy as np

from xyness import (
    ModelParams,
    assemble,
    avram_parter_gap,
    avram_parter_limit,
    build_block_sequence,
    count_small,
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
for n in (16, 32, 64, 128, 256):
    s = avram_parter_gap(n, g_sq, seq, limit_sq)
    print(
        f"{n:5d} {s.empirical_mean:12.8f} {limit_sq:12.8f}"
        f" {s.gap:10.2e} {s.values[-1]:10.6f}"
    )
print("the gap shrinks roughly like 1/n; smax never exceeds the symbol norm")
print()

# the test function used in the decay proof: a smooth step times log,
# zero near 0 so the small singular values cannot dominate
g_log = indicator_log(1e-3)
limit_log = avram_parter_limit(g_log, p)
s = avram_parter_gap(128, g_log, seq, limit_log)
print(f"plateau-log statistic at n = 128: empirical {s.empirical_mean:.8f}, limit {limit_log:.8f}")

# term-by-term inequality: discarding singular values below the plateau can
# only increase the sum, because each discarded log is negative
T = assemble(128, seq)
sv = singular_values(T)
lhs = float(np.sum(np.log(sv)))
rhs = float(np.sum(g_log(sv)))
print(f"log|det T_n| = {lhs:.4f} <= smoothed sum {rhs:.4f}: {lhs <= rhs}")
print()

print("near-kernel census (values <= eps):")
for eps in (1e-6, 1e-3, 0.5):
    counts = [count_small(n, eps, seq) for n in (32, 64, 128)]
    print(f"  eps = {eps:g}: counts {counts} out of {[2*n for n in (32, 64, 128)]}")
print("off criticality the spectrum stays away from 0: no near-kernel values")
