"""Decay-rate bounds on the transversal correlations.

Two upper bounds on the exponential decay of |C(n)|:

* the sharp rate integral

      B = (1/2) Int_0^{2pi} d(xi)/2pi log[ tanh(beta_l*mu/2) * tanh(beta_r*mu/2) ],

  which bounds limsup log|C(n)| / n and is strictly negative for all finite
  admissible parameters.  B is the Avram-Parter limit of the singular-value
  mean of log: |Pf Omega(n)|^2 = |det Omega(n)| = prod_j s_j over the 2n
  singular values, so (1/n) log|C(n)| = (1/2n) sum_j log s_j, and
  :func:`spectral.avram_parter_limit` integrates that mean's limit for any
  g.  At critical parameters log has integrable singularities at the zeros
  of mu, handled by the same graded panel refinement;

* the cruder all-n bound on the determinant,

      log|det Omega(n)| <= 2n * log tanh(beta_r * mu_sup / 2),

  valid for every n, with mu_sup = 1 + |lam| in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, mu_sup
from .quadrature import adaptive_panels  # noqa: F401 (perfbench/tracer.py wraps this binding)
from .spectral import avram_parter_limit
from .toeplitz import symbol_norm


#: rounding slack of the all-n bound check: log|det| may exceed the bound by this
WEAK_BOUND_SLACK = 1e-8


@dataclass(frozen=True)
class BoundReport:
    """Decay-rate bounds for one parameter set (all in log scale, per unit n)."""

    theorem_rate: float  # the integral B; fitted slopes should stay below it
    weak_rate: float  # 2 * log tanh(beta_r * mu_sup / 2), bounds log|det|/n
    mu_sup: float
    critical: bool


def _floored_log(s):
    # a Gauss node on a width-floor panel can land on an exact zero of mu,
    # where the singular value is 0
    return np.log(np.maximum(s, np.finfo(float).tiny))


def theorem_bound(p: ModelParams) -> float:
    """The rate integral B: :func:`avram_parter_limit` of log, to absolute
    error ``spectral.LIMIT_TOL``.

    Raises
    ------
    QuadratureError
        If refinement near the zeros of mu exhausts its budget; the
        exception reports the achieved error.
    """
    return avram_parter_limit(_floored_log, p)


def weak_rate(p: ModelParams) -> float:
    """Per-n log-scale rate of the all-n determinant bound: 2 log of the symbol norm."""
    return 2.0 * math.log(symbol_norm(p))


def weak_bound_log(n: int, p: ModelParams) -> float:
    """2n * log tanh(beta_r * mu_sup / 2): upper bound on log|det Omega(n)|."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return n * weak_rate(p)


def bound_report(p: ModelParams) -> BoundReport:
    """The bounds of :class:`BoundReport`, with B to absolute error ``LIMIT_TOL``."""
    return BoundReport(
        theorem_rate=theorem_bound(p),
        weak_rate=weak_rate(p),
        mu_sup=mu_sup(p),
        critical=p.critical,
    )


def validate_weak_bound(series) -> bool:
    """True iff log|det Omega(n)| <= weak_bound_log(n) + WEAK_BOUND_SLACK for every row."""
    p = series.params
    return all(
        row.log_abs_det <= weak_bound_log(row.n, p) + WEAK_BOUND_SLACK for row in series.rows
    )
