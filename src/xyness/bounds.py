"""Decay-rate bounds on the transversal correlations.

Two upper bounds on the exponential decay of |C(n)|:

* the sharp rate integral

      B = (1/2) Int_0^{2pi} d(xi)/2pi log[ tanh(beta_l*mu/2) * tanh(beta_r*mu/2) ],

  which bounds limsup log|C(n)| / n and is strictly negative for all finite
  admissible parameters (at critical parameters the integrand has integrable
  log singularities at the zeros of mu, handled by graded panel refinement);

* the cruder all-n bound on the determinant,

      log|det Omega(n)| <= 2n * log tanh(beta_r * mu_sup / 2),

  valid for every n, with mu_sup = 1 + |lam| in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, mu, mu_sup, mu_zeros
from .quadrature import adaptive_panels

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class BoundReport:
    """Decay-rate bounds for one parameter set (all in log scale, per unit n)."""

    theorem_rate: float  # the integral B; fitted slopes should stay below it
    weak_rate: float  # 2 * log tanh(beta_r * mu_sup / 2), bounds log|det|/n
    mu_sup: float
    critical: bool


def theorem_bound(p: ModelParams, tol: float = 1e-9) -> float:
    """The rate integral B, to absolute error ``tol``.

    Adaptive panel quadrature with panels split at the zeros of mu; the
    integrand is smooth elsewhere and log-integrable at those zeros.

    Raises
    ------
    QuadratureError
        If refinement near the singularities exhausts its budget; the
        exception reports the achieved error.
    """

    if p.gamma == 0.0 and abs(p.lam) <= 1.0:
        # mu = |cos(xi) - cos(x0)| in product form: exact near the zeros
        # +-x0, where cos(xi) - lam cancels to rounding noise that no panel
        # refinement can resolve
        x0 = math.acos(p.lam)

        def mu_of(xi):
            f = np.minimum(xi, _TWO_PI - xi)
            return np.abs(2.0 * np.sin(0.5 * (f + x0)) * np.sin(0.5 * (f - x0)))

    else:

        def mu_of(xi):
            return mu(xi, p)

    def integrand(xi):
        # a node can hit a floating-point zero of mu, where log(tanh(0)) = -inf
        m = np.maximum(mu_of(xi), np.finfo(float).tiny)
        return 0.5 * (
            np.log(np.tanh(0.5 * p.beta_l * m)) + np.log(np.tanh(0.5 * p.beta_r * m))
        )

    edges = np.unique(np.concatenate([[0.0], mu_zeros(p), [_TWO_PI]]))
    value, _ = adaptive_panels(integrand, edges, tol * _TWO_PI)
    return float(np.real(value)) / _TWO_PI


def weak_rate(p: ModelParams) -> float:
    """Per-n log-scale rate of the all-n determinant bound."""
    return 2.0 * math.log(math.tanh(0.5 * p.beta_r * mu_sup(p)))


def weak_bound_log(n: int, p: ModelParams) -> float:
    """2n * log tanh(beta_r * mu_sup / 2): upper bound on log|det Omega(n)|."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return n * weak_rate(p)


def bound_report(p: ModelParams, tol: float = 1e-9) -> BoundReport:
    return BoundReport(
        theorem_rate=theorem_bound(p, tol),
        weak_rate=weak_rate(p),
        mu_sup=mu_sup(p),
        critical=p.critical,
    )


def validate_weak_bound(series) -> bool:
    """True iff log|det Omega(n)| <= weak_bound_log(n) + 1e-8 for every row."""
    p = series.params
    return all(
        row.log_abs_det <= weak_bound_log(row.n, p) + 1e-8 for row in series.rows
    )
