"""Singular-value statistics of the truncations.

As the truncation size grows, the singular values of T_n distribute like the
symbol's singular values sampled uniformly over the circle (Avram-Parter):
for continuous compactly supported g,

    (1/2n) sum_j g(s_j)  ->  (1/2) Int d(xi)/2pi [g(sv_lo(xi)) + g(sv_hi(xi))],

where sv_lo/sv_hi = tanh(beta_{l,r}*mu/2) are the symbol's singular values in
closed form.  This module computes both sides and their gap, counts
near-kernel singular values, and provides the smooth plateau functions that
turn log into a compactly supported test function.

The truncation's singular values are those of its n x n fold X, each
counted twice: the reflection symmetry J T_n J = -T_n of the real gauge
makes T_n orthogonally similar to [[0, X], [-X^T, 0]].  Each size gathers X
straight from the coefficient blocks (:func:`toeplitz.folded`) without
building T_n and takes one SVD of it; the 2n values are X's repeated in
place, still ascending.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fourier import BlockSequence
from .model import ModelParams, mu_zeros, symbol_singular_values
from .quadrature import adaptive_panels
from .skewlinalg import singular_values
from .toeplitz import assemble  # noqa: F401 (perfbench/tracer.py wraps this binding)
from .toeplitz import folded

_TWO_PI = 2.0 * math.pi

#: absolute tolerance of the distributional limit, a mean over the circle
LIMIT_TOL = 1e-9


@dataclass(frozen=True)
class SpectralSummary:
    """Singular-value diagnostics of one truncation size."""

    n: int
    values: np.ndarray  # ascending, length 2n
    count_small: int  # values <= the eps of avram_parter_gap
    empirical_mean: float
    limit_value: float
    gap: float


def _smoothstep(t):
    """C-infinity monotone step: 0 for t <= 0, 1 for t >= 1 (exp(-1/t) bump)."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        fa = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        fb = np.where(t < 1.0, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return fa / (fa + fb)


def smooth_indicator(eps: float, ceiling: float):
    """Smooth plateau indicator: support (eps, ceiling + 1), value 1 on [eps + eps^2, ceiling].

    Rises from 0 to 1 across (eps, eps + eps^2) and falls back to 0 across
    (ceiling, ceiling + 1), both via the standard exp(-1/t) transition, so
    the result is C-infinity with 0 <= chi <= 1.

    Parameters must satisfy 0 < eps and eps + eps^2 < ceiling.
    """
    if not (0.0 < eps and eps + eps * eps < ceiling):
        raise ValueError(f"need 0 < eps < eps + eps^2 < ceiling, got {eps}, {ceiling}")

    def chi(s):
        s = np.asarray(s, dtype=float)
        rise = _smoothstep((s - eps) / (eps * eps))
        fall = _smoothstep(ceiling + 1.0 - s)
        out = np.minimum(rise, fall)
        return out if out.ndim else float(out)

    return chi


def indicator_log(eps: float, ceiling: float):
    """(chi_eps * log): the compactly supported test function used in the decay proof.

    Vanishes identically below eps (in particular at 0, where the bare log
    would diverge) and above ceiling + 1.
    """
    chi = smooth_indicator(eps, ceiling)

    def g(s):
        s = np.asarray(s, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(s > eps, chi(s) * np.log(np.maximum(s, eps)), 0.0)
        return out if out.ndim else float(out)

    return g


def square_plateau():
    """g(s) = s^2 up to 1, smoothly cut off to 0 by 2.

    A compactly supported extension of s^2: on [0, 1] it is exactly s^2.
    Singular values never exceed the symbol norm, which is below 1, so the
    empirical mean is the squared Frobenius norm over the dimension.
    """

    def g(s):
        s = np.asarray(s, dtype=float)
        out = s * s * _smoothstep(2.0 - s)
        return out if out.ndim else float(out)

    return g


def count_small(n: int, eps: float, seq: BlockSequence) -> int:
    """Number of singular values of the n-block truncation in [0, eps]."""
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    sv = np.repeat(singular_values(folded(n, seq)), 2)
    return int(np.count_nonzero(sv <= eps))


def avram_parter_limit(g, p: ModelParams) -> float:
    """Limit of the singular-value mean of g: g integrated over the symbol's
    closed-form singular values, with panels split at the zeros of mu."""

    def integrand(xi):
        lo, hi = symbol_singular_values(xi, p)
        return 0.5 * (np.asarray(g(lo)) + np.asarray(g(hi)))

    edges = np.concatenate([[0.0], mu_zeros(p), [_TWO_PI]])
    value, _ = adaptive_panels(integrand, np.unique(edges), LIMIT_TOL * _TWO_PI)
    return float(np.real(value)) / _TWO_PI


def avram_parter_gap(n: int, g, seq: BlockSequence, p: ModelParams, eps: float = 1e-3) -> SpectralSummary:
    """Empirical singular-value mean of g versus its distributional limit.

    ``g`` must be vectorized, continuous, and compactly supported.  The limit
    side is :func:`avram_parter_limit`.
    """
    sv = np.repeat(singular_values(folded(n, seq)), 2)
    empirical = float(np.mean(g(sv)))
    limit = avram_parter_limit(g, p)
    return SpectralSummary(
        n=int(n),
        values=sv,
        count_small=int(np.count_nonzero(sv <= eps)),
        empirical_mean=empirical,
        limit_value=limit,
        gap=abs(empirical - limit),
    )
