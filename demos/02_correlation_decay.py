"""Exponential decay of the transversal spin-spin correlation.

|C(n)| is the Pfaffian magnitude of a 2n x 2n skew-symmetric block Toeplitz
truncation, computed as |det X| of its n x n fold X.  The values shrink
exponentially, so everything is carried in log scale.  The "LU resid" column
compares the LU of X with the LU of its column-reversed copy.  The fitted
decay rate is compared against the rate integral, which upper-bounds the
asymptotic slope of log|C(n)|/n.
"""

from xyness import ModelParams, compute_series, fit_decay

SETS = {
    "equilibrium (beta = 2)": ModelParams(0.5, 0.3, 2.0, 2.0),
    "out of equilibrium (1, 3)": ModelParams(0.5, 0.3, 1.0, 3.0),
    "critical, out of equilibrium": ModelParams(0.0, 0.5, 1.0, 3.0),
}

N_LIST = (8, 16, 32, 64, 96, 128, 160, 192)

for label, p in SETS.items():
    series = compute_series(p, n_list=N_LIST)
    print(f"--- {label} ---")
    print(f"{'n':>5} {'log|C(n)|':>14} {'LU resid':>14} {'smin':>8}")
    for r in series.rows:
        print(f"{r.n:5d} {r.log_abs_C:14.6f} {r.pf_det_residual:14.2e} {r.smin:8.4f}")
    fit = fit_decay(series.rows, 64, 192)
    B = series.bound.theorem_rate
    print(f"fitted slope over n in [64, 192]: {fit.slope:+.6f}")
    print(f"rate integral (upper bound):      {B:+.6f}")
    print(f"slope - bound = {fit.slope - B:+.2e}  (must stay <= 0.01)")
    print(f"residual rms of the linear fit:   {fit.residual_rms:.2e}")
    print()

print(
    "Note how close the fitted slope sits to the bound: the first-order\n"
    "asymptotics of the log-determinant suggest the rate integral is in fact\n"
    "attained, although only the inequality is guaranteed."
)
