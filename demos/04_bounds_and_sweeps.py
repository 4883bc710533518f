"""Decay-rate bounds across parameter space, and batch sweeps.

Two bounds are available: the sharp rate integral (negative for every valid
parameter set, finite even at criticality where the integrand has log
singularities) and a cruder bound valid at every finite size.  Criticality
is a property of the parameters, and log|det Omega(n)| is twice log|C(n)|,
so neither the bound report nor a series row stores them.
"""

from xyness import ModelParams, bound_report, sweep, weak_rate

print("rate integral across the phase diagram (beta_l = 1, beta_r = 3):")
print(f"{'gamma':>7} {'lambda':>7} {'critical':>9} {'rate':>12} {'weak rate':>12}")
for gamma, lam in [(0.0, 0.5), (0.0, 1.5), (0.3, 1.0), (0.5, 0.3), (0.9, 0.0)]:
    q = ModelParams(gamma, lam, 1.0, 3.0)
    rep = bound_report(q)
    print(
        f"{gamma:7.2f} {lam:7.2f} {str(q.critical):>9}"
        f" {rep.theorem_rate:12.6f} {rep.weak_rate:12.6f}"
    )
print("criticality keeps the rate finite: the log singularities are integrable")
print()

print("warming either reservoir strengthens the decay (rate moves away from 0):")
for bl in (0.5, 1.0, 2.0):
    row = [bound_report(ModelParams(0.5, 0.3, bl, br)).theorem_rate for br in (0.5, 1.0, 2.0)]
    print(f"  beta_l = {bl:3.1f}: " + "  ".join(f"{v:9.5f}" for v in row))
print()

# a small sweep; points are independent and order-preserving, so label swaps
# land on identical series
grid = [
    ModelParams(0.5, 0.3, 1.0, 2.0),
    ModelParams(0.5, 0.3, 2.0, 1.0),
    ModelParams(0.0, 0.5, 1.0, 3.0),
]
results = sweep(grid, n_list=(8, 16, 32, 64))
print("sweep over 3 points (last one critical):")
for i, series in enumerate(results):
    if series.error is not None:
        print(f"  point {i}: failed: {series.error}")
        continue
    last = series.rows[-1]
    # compute_series raises where a row breaks the all-n bound; the margin
    # is how far the closest row stays below it
    margin = min(r.n * weak_rate(series.params) - 2 * r.log_abs_C for r in series.rows)
    print(
        f"  point {i}: swapped={series.params.swapped!s:5}"
        f" critical={series.params.critical!s:5}"
        f" log|C(64)| = {last.log_abs_C:10.4f}"
        f" weak-bound margin = {margin:.4f}"
    )
print("points 0 and 1 agree exactly:", results[0].rows[-1].log_abs_C == results[1].rows[-1].log_abs_C)
print()

p = grid[0]
print("the all-n determinant bound next to the actual values:")
for r in results[0].rows:
    print(f"  n={r.n:3d}: log|det| = {2 * r.log_abs_C:10.4f} <= {r.n * weak_rate(p):9.4f}")
