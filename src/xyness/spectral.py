"""Singular-value statistics of the truncations.

As the truncation size grows, the singular values of T_n distribute like the
symbol's singular values sampled uniformly over the circle (Avram-Parter):
for g continuous on [0, 1],

    (1/2n) sum_j g(s_j)  ->  (1/2) Int d(xi)/2pi [g(sv_lo(xi)) + g(sv_hi(xi))],

where sv_lo/sv_hi = tanh(beta_{l,r}*mu/2) are the symbol's singular values in
closed form.  Every value g meets, singular value or symbol value, lies in
[0, symbol_norm], below 1, by the norm bound.  This module computes both sides
and their gap, counts near-kernel singular values, and provides the smooth
step that turns log into a test function continuous on [0, 1].

The truncation's singular values are those of its n x n fold X, each
counted twice: the reflection symmetry J T_n J = -T_n of the real gauge
makes T_n orthogonally similar to [[0, X], [-X^T, 0]].  Each size gathers X
straight from the coefficient blocks (:func:`toeplitz.folded`) without
building T_n and takes one SVD of it; the 2n values are X's repeated in
place, still ascending, and :func:`count_small` counts X's values twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fourier import BlockSequence, breakpoints
from .model import ModelParams, symbol_singular_values
from .quadrature import adaptive_panels
from .skewlinalg import singular_values
from .toeplitz import assemble  # noqa: F401 (perfbench/tracer.py wraps this binding)
from .toeplitz import folded

#: absolute tolerance of every symbol mean over the circle: each
#: distributional limit, the rate bound B among them
LIMIT_TOL = 1e-9


@dataclass(frozen=True)
class SpectralSummary:
    """Singular-value diagnostics of one truncation size."""

    values: np.ndarray  # ascending, length 2n
    empirical_mean: float
    gap: float  # |empirical_mean - limit|


def _smoothstep(t):
    """C-infinity monotone step: 0 for t <= 0, 1 for t >= 1 (exp(-1/t) bump)."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        fa = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        fb = np.where(t < 1.0, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return fa / (fa + fb)


def smooth_indicator(eps: float):
    """Smooth step: 0 at and below eps, 1 from eps + eps^2 on.

    Rises from 0 to 1 across (eps, eps + eps^2) via the standard exp(-1/t)
    transition, so the result is C-infinity with 0 <= chi <= 1.  It is
    continuous on [0, 1]; every value it meets lies in [0, symbol_norm].

    Requires 0 < eps < 1.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must be in (0, 1), got {eps}")

    def chi(s):
        out = _smoothstep((np.asarray(s, dtype=float) - eps) / (eps * eps))
        return out if out.ndim else float(out)

    return chi


def indicator_log(eps: float):
    """(chi_eps * log): the test function used in the decay proof.

    Continuous on [0, 1]; every value it meets lies in [0, symbol_norm].  It
    vanishes identically at and below eps, in particular at 0, where the bare
    log would diverge.
    """
    chi = smooth_indicator(eps)

    def g(s):
        s = np.asarray(s, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(s > eps, chi(s) * np.log(np.maximum(s, eps)), 0.0)
        return out if out.ndim else float(out)

    return g


def count_small(n: int, eps: float, seq: BlockSequence) -> int:
    """Number of singular values of the n-block truncation in [0, eps], eps in (0, 1)."""
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    return 2 * int(np.count_nonzero(singular_values(folded(n, seq)) <= eps))


def avram_parter_limit(g, p: ModelParams) -> float:
    """Limit of the singular-value mean of g, to absolute error ``LIMIT_TOL``.

    g is integrated over the symbol's closed-form singular values
    (:func:`symbol_singular_values`), with panels split at
    :func:`fourier.breakpoints`, which hold every zero and the minimum of mu.
    g may be log-integrable rather than bounded at 0: with g = log (floored)
    the limit is the rate bound B of :func:`bounds.theorem_bound`.

    Raises
    ------
    QuadratureError
        If refinement near a singularity of g exhausts the panel budget.
    """

    def integrand(xi):
        lo, hi = symbol_singular_values(xi, p)
        return 0.5 * (np.asarray(g(lo)) + np.asarray(g(hi)))

    edges = np.append(breakpoints(p), math.tau)
    value, _ = adaptive_panels(integrand, edges, LIMIT_TOL * math.tau)
    return float(np.real(value)) / math.tau


def avram_parter_gap(n: int, g, seq: BlockSequence, limit: float) -> SpectralSummary:
    """Empirical singular-value mean of g versus its distributional limit.

    ``g`` must be vectorized and continuous on [0, 1]; every value it meets
    lies in [0, symbol_norm].  ``limit`` is :func:`avram_parter_limit` of the
    same g and the sequence's parameters; it does not depend on n, so a
    caller that compares several sizes integrates it once.
    """
    sv = np.repeat(singular_values(folded(n, seq)), 2)
    empirical = float(np.mean(g(sv)))
    return SpectralSummary(values=sv, empirical_mean=empirical, gap=abs(empirical - limit))
