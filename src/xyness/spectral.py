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
building T_n and takes one SVD of it; :func:`avram_parter_gap` repeats X's
values in place, still ascending.  The caller takes the SVD, so that it can
run the sizes' SVDs on threads of its own while it integrates the limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fourier import breakpoints
from .model import ModelParams, symbol_singular_values
from .quadrature import adaptive_panels
from .skewlinalg import singular_values  # noqa: F401 (cmd_spectrum calls it here; perfbench/tracer.py wraps it)
from .toeplitz import assemble  # noqa: F401 (perfbench/tracer.py wraps this binding)

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


def avram_parter_gap(n: int, g, sv: np.ndarray, limit: float) -> SpectralSummary:
    """Empirical singular-value mean of g at size n versus its distributional limit.

    ``sv`` holds the n singular values of the size's fold X, ascending:
    :func:`skewlinalg.singular_values` of :func:`toeplitz.folded` (n, seq).
    The summary repeats each in place (module notes).  ``g`` must be
    vectorized and continuous on [0, 1]; every value it meets lies in
    [0, symbol_norm].  ``limit`` is :func:`avram_parter_limit` of the same g
    and the sequence's parameters; it does not depend on n, so a caller that
    compares several sizes integrates it once, and may do so while the SVDs
    run.

    Raises
    ------
    ValueError
        Unless ``sv`` holds n values.
    """
    if np.shape(sv) != (n,):
        raise ValueError(f"expected the {n} singular values of the n = {n} fold, got shape {np.shape(sv)}")
    values = np.repeat(sv, 2)
    empirical = float(np.mean(g(values)))
    return SpectralSummary(values=values, empirical_mean=empirical, gap=abs(empirical - limit))
