"""Decay-rate bounds on the transversal correlations.

Two upper bounds on the exponential decay of |C(n)|:

* the sharp rate integral

      B = (1/2) Int_0^{2pi} d(xi)/2pi log[ tanh(beta_l*mu/2) * tanh(beta_r*mu/2) ],

  which bounds limsup log|C(n)| / n and is strictly negative for all finite
  admissible parameters in exact arithmetic.  B is the Avram-Parter limit
  of the singular-value mean of log: |Pf Omega(n)|^2 = |det Omega(n)| =
  prod_j s_j over the 2n singular values, so (1/n) log|C(n)| = (1/2n)
  sum_j log s_j.  It is integrated from mu rather than through
  :func:`spectral.avram_parter_limit`, whose g sees tanh(beta*mu/2) after
  rounding: at ``bound --beta-l 100 --beta-r 100`` that is 1 on the whole
  circle, where B = -5.95e-22 (:func:`_log_tanh`).  B reaches 0 only where
  exp(-beta*mu) underflows on the whole circle.  At critical parameters
  log tanh has integrable singularities at the zeros of mu, handled by the
  graded panel refinement;

* the cruder all-n bound on the determinant,

      log|det Omega(n)| <= 2n * log tanh(beta_r * mu_sup / 2),

  valid for every n, with mu_sup = 1 + |lam| in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fourier import breakpoints
from .model import ModelParams, mu
from .quadrature import adaptive_panels
from .spectral import LIMIT_TOL
from .toeplitz import symbol_norm


#: rounding slack of the all-n bound check: log|det| may exceed the bound by this
WEAK_BOUND_SLACK = 1e-8


@dataclass(frozen=True)
class BoundReport:
    """Decay-rate bounds for one parameter set (both in log scale, per unit n)."""

    theorem_rate: float  # the integral B; fitted slopes should stay below it
    weak_rate: float  # 2 * log tanh(beta_r * mu_sup / 2), bounds log|det|/n


def _log_tanh(x):
    """log tanh(x) on an array of x >= 0, floored at log(tiny).

    Below x = 1 it is log(tanh(x)); from x = 1 on, log1p(-2e / (1 + e)) with
    e = exp(-2x), which keeps the digits that log(tanh(x)) loses as tanh(x)
    nears 1.  The floor: a Gauss node on a width-floor panel can land on an
    exact zero of mu, where tanh(x) = 0.
    """
    out = np.log(np.maximum(np.tanh(x), np.finfo(float).tiny))
    far = x >= 1.0
    e = np.exp(-x[far]) ** 2  # 2x can overflow where x does not
    out[far] = np.log1p(-2.0 * e / (1.0 + e))
    return out


def theorem_bound(p: ModelParams) -> float:
    """The rate integral B to absolute error ``spectral.LIMIT_TOL``.

    Integrated over panels split at :func:`fourier.breakpoints`, which hold
    every zero of mu.

    Raises
    ------
    QuadratureError
        If refinement near the zeros of mu exhausts its budget; the
        exception reports the achieved error.
    """

    def integrand(xi):
        m = mu(xi, p)
        return 0.5 * (_log_tanh(0.5 * p.beta_l * m) + _log_tanh(0.5 * p.beta_r * m))

    value, _ = adaptive_panels(integrand, np.append(breakpoints(p), math.tau), LIMIT_TOL * math.tau)
    return value / math.tau


def weak_rate(p: ModelParams) -> float:
    """Per-n log-scale rate of the all-n determinant bound: 2 log of the symbol norm."""
    return 2.0 * math.log(symbol_norm(p))


def bound_report(p: ModelParams) -> BoundReport:
    """The bounds of :class:`BoundReport`, with B to absolute error ``LIMIT_TOL``."""
    return BoundReport(theorem_rate=theorem_bound(p), weak_rate=weak_rate(p))

