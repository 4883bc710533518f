"""Tour of the steady-state model layer.

A finite XY segment is coupled to two infinite reservoirs at inverse
temperatures beta_l and beta_r.  Everything downstream is built from a few
functions on the momentum circle; this script prints them at a handful of
angles and verifies the key structural facts numerically.
"""

import numpy as np

from xyness import (
    ModelParams,
    kappa,
    mu,
    mu_sup,
    phi,
    symbol_matrices,
    symbol_singular_values,
    two_point_operator,
)

p = ModelParams(gamma=0.5, lam=0.3, beta_l=1.0, beta_r=3.0)
print("parameters:", p)
print(f"quasi-particle energy range: [{0.0:.3f}, {mu_sup(p):.3f}] (sup = 1 + |lam|)")
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

# the steady-state 2-point operator is a Fermi-type matrix: spectrum in (0,1)
S = two_point_operator(xi, p)
ev = np.linalg.eigvalsh(S)
print(f"2-point operator eigenvalues at xi = {xi}: {ev[0]:.6f}, {ev[1]:.6f}")
print("both strictly inside (0, 1):", bool(0 < ev[0] and ev[1] < 1))
print()

# out of equilibrium the symbol picks up a diagonal part whose sign follows
# the current direction sign(kappa); at equal temperatures it vanishes
eq = ModelParams(gamma=0.5, lam=0.3, beta_l=2.0, beta_r=2.0)
print("diagonal of the symbol at equal temperatures:", symbol_matrices(xi, eq)[0, 0])
print("diagonal out of equilibrium:                 ", symbol_matrices(xi, p)[0, 0])
