"""Singular-value statistics of the truncations.

As the truncation size grows, the singular values of T_n distribute like the
symbol's singular values sampled uniformly over the circle (Avram-Parter):
for g continuous on [0, 1],

    (1/2n) sum_j g(s_j)  ->  (1/2) Int d(xi)/2pi [g(sv_lo(xi)) + g(sv_hi(xi))],

where sv_lo/sv_hi = tanh(beta_{l,r}*mu/2) are the symbol's singular values in
closed form.  Every value g meets, singular value or symbol value, lies in
[0, symbol_norm], below 1, by the norm bound.  This module computes both sides
and their gap, and provides the test function chi_eps * log that the decay
proof reads the rate from.

The truncation's singular values are those of its n x n fold X, each
counted twice: the reflection symmetry J T_n J = -T_n of the real gauge
makes T_n orthogonally similar to [[0, X], [-X^T, 0]].  Each size gathers X
straight from the coefficient blocks (:func:`toeplitz.folded`) without
building T_n and takes one SVD of it; a mean over the 2n values is a mean
over X's n values, and only a census doubles X's count.  The caller takes
the SVD, so that it can run the sizes' SVDs on threads of its own while it
integrates the limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fourier import breakpoints
from .model import ModelParams, mu
from .quadrature import adaptive_panels
from .skewlinalg import singular_values  # noqa: F401 (cmd_spectrum calls it here; perfbench/tracer.py wraps it)
from .toeplitz import assemble  # noqa: F401 (perfbench/tracer.py wraps this binding)

#: absolute tolerance of every symbol mean over the circle: each
#: distributional limit, the rate bound B among them
LIMIT_TOL = 1e-9


@dataclass(frozen=True)
class SpectralSummary:
    """Singular-value diagnostics of one truncation size."""

    empirical_mean: float
    gap: float  # |empirical_mean - limit|


def _smoothstep(t):
    """C-infinity monotone step: 0 for t <= 0, 1 for t >= 1 (exp(-1/t) bump)."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        fa = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        fb = np.where(t < 1.0, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return fa / (fa + fb)


def indicator_log(eps: float):
    """(chi_eps * log): the test function used in the decay proof.

    chi_eps is a smooth step: 0 at and below eps, 1 from eps + eps^2 on, and
    rising across (eps, eps + eps^2) via the standard exp(-1/t) transition,
    so it is C-infinity with 0 <= chi_eps <= 1.  The product is continuous on
    [0, 1]; every value it meets lies in [0, symbol_norm].  It vanishes
    identically at and below eps, in particular at 0, where the bare log
    would diverge.

    Requires 0 < eps < 1.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must be in (0, 1), got {eps}")

    def g(s):
        s = np.asarray(s, dtype=float)
        chi = _smoothstep((s - eps) / (eps * eps))
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(s > eps, chi * np.log(np.maximum(s, eps)), 0.0)
        return out if out.ndim else float(out)

    return g


def _symbol_mean_integrand(h, p: ModelParams):
    """(1/2)[h(beta_l*mu/2) + h(beta_r*mu/2)] in xi, every symbol mean's integrand.

    Each limit here and B integrate it over its edges, :func:`fourier.breakpoints`
    and 2*pi, which hold every zero and the minimum of mu.
    """

    def integrand(xi):
        m = mu(xi, p)
        return 0.5 * (h(0.5 * p.beta_l * m) + h(0.5 * p.beta_r * m))

    return integrand, np.append(breakpoints(p), math.tau)


def avram_parter_limit(g, p: ModelParams) -> float:
    """Limit of the singular-value mean of g, to absolute error ``LIMIT_TOL``.

    g is integrated over the symbol's singular values tanh(beta*mu/2), and
    may be log-integrable rather than bounded at 0.  With g = log the limit
    is the rate bound B, which :func:`bounds.theorem_bound` integrates with a
    log tanh of its own: g gets tanh(beta*mu/2), whose digits are gone where
    it rounds to 1.

    Raises
    ------
    QuadratureError
        If refinement near a singularity of g exhausts the panel budget.
    """
    integrand, edges = _symbol_mean_integrand(lambda x: g(np.tanh(x)), p)
    value, _ = adaptive_panels(integrand, edges, LIMIT_TOL * math.tau)
    return float(np.real(value)) / math.tau


def avram_parter_gap(n: int, g, sv: np.ndarray, limit: float) -> SpectralSummary:
    """Empirical singular-value mean of g at size n versus its distributional limit.

    ``sv`` holds the n singular values of the size's fold X, ascending:
    :func:`skewlinalg.singular_values` of :func:`toeplitz.folded` (n, seq).
    Their mean of g is the mean over the truncation's 2n values (module
    notes).  ``g`` must be vectorized and continuous on [0, 1]; every value
    it meets lies in [0, symbol_norm].  ``limit`` is
    :func:`avram_parter_limit` of the same g and the sequence's parameters;
    it does not depend on n, so a caller that compares several sizes
    integrates it once, and may do so while the SVDs run.

    Raises
    ------
    ValueError
        Unless ``sv`` holds n values.
    """
    if np.shape(sv) != (n,):
        raise ValueError(f"expected the {n} singular values of the n = {n} fold, got shape {np.shape(sv)}")
    empirical = float(np.mean(g(sv)))
    return SpectralSummary(empirical_mean=empirical, gap=abs(empirical - limit))
