"""Tour of the steady-state model layer.

A finite XY segment is coupled to two infinite reservoirs at inverse
temperatures beta_l and beta_r.  Everything downstream is built from a few
functions on the momentum circle; this script prints them at a handful of
angles and verifies the key structural facts numerically.
"""

import numpy as np

from xyness import (
    ModelParams,
    breakpoints,
    kappa,
    mu,
    mu_sup,
    phi,
    symbol_matrices,
    symbol_singular_values,
)

p = ModelParams(gamma=0.5, lam=0.3, beta_l=1.0, beta_r=3.0)
print("parameters:", p)
# the panel edges of every symbol mean hold the minimum of mu
mu_lo = float(np.min(mu(breakpoints(p), p)))
print(f"quasi-particle energy range: [{mu_lo:.3f}, {mu_sup(p):.3f}] (sup = 1 + |lam|)")
print()

print("dispersion and thermal weights on a few angles:")
print(f"{'xi':>8} {'kappa':>10} {'mu':>8} {'phi_beta':>10} {'phi_delta':>10}")
for xi in (0.4, 1.2, 2.0, 2.8, 4.0, 5.5):
    print(
        f"{xi:8.2f} {kappa(xi, p):10.4f} {mu(xi, p):8.4f}"
        f" {phi(p.beta, xi, p):10.4f} {phi(p.delta, xi, p):10.4f}"
    )
print()

# the 2x2 symbol has singular values tanh(beta_l*mu/2), tanh(beta_r*mu/2):
# the two reservoir temperatures are readable directly from the spectrum
xi = 1.2
a = symbol_matrices(xi, p)
sv = np.linalg.svd(a, compute_uv=False)
lo, hi = symbol_singular_values(xi, p)
print(f"symbol at xi = {xi}:")
print(np.array_str(a, precision=4))
print(f"singular values from SVD:         {sv[1]:.12f}, {sv[0]:.12f}")
print(f"closed-form tanh(beta_lr mu / 2): {lo:.12f}, {hi:.12f}")
print()

# each mode equilibrates with the reservoir that sign(kappa) selects: the
# diagonal is sign(kappa)*phi_delta and the off-diagonal modulus phi_beta
diag = np.sign(kappa(xi, p)) * phi(p.delta, xi, p)
print(f"diagonal vs sign(kappa)*phi_delta: {a[0, 0].real:.12f}, {diag:.12f}")
print(f"|off-diagonal| vs phi_beta:        {abs(a[0, 1]):.12f}, {phi(p.beta, xi, p):.12f}")
print()

# out of equilibrium the symbol picks up a diagonal part whose sign follows
# the current direction sign(kappa); at equal temperatures it vanishes
eq = ModelParams(gamma=0.5, lam=0.3, beta_l=2.0, beta_r=2.0)
print("diagonal of the symbol at equal temperatures:", symbol_matrices(xi, eq)[0, 0])
print("diagonal out of equilibrium:                 ", symbol_matrices(xi, p)[0, 0])
