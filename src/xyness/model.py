"""Physical parameters and momentum-space functions of the XY chain steady state.

The chain couples a finite segment to two infinite reservoirs held at inverse
temperatures ``beta_l`` and ``beta_r``.  All steady-state correlations are
encoded by a 2x2 matrix symbol ``a(xi)`` on the unit circle, built out of two
dispersion functions,

    kappa(xi) = 2*lambda*sin(xi) - (1 - gamma^2)*sin(2*xi)
    mu(xi)    = sqrt((cos(xi) - lambda)^2 + gamma^2*sin(xi)^2)

and the thermal weights

    phi_alpha(xi) = sinh(alpha*mu) / (cosh(beta*mu) + cosh(delta*mu)),

with beta = (beta_r + beta_l)/2 and delta = (beta_r - beta_l)/2.  The two
singular values of ``a(xi)`` are tanh(beta_l*mu/2) and tanh(beta_r*mu/2),
which is the identity everything downstream (decay bounds, spectral limits)
relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class ModelParams:
    """Validated physical parameters of the two-reservoir XY chain.

    Parameters
    ----------
    gamma : float
        Anisotropy of the spin-spin coupling, in (-1, 1).
    lam : float
        External magnetic field.
    beta_l, beta_r : float
        Inverse temperatures of the left and right reservoir, both > 0.

    Notes
    -----
    Reservoir labels are normalized so that ``beta_l <= beta_r`` (i.e.
    ``delta >= 0``); if the inputs arrive the other way round they are
    swapped and ``swapped`` is set.  The correlation magnitudes only depend
    on the unordered pair, so the swap is pure bookkeeping.

    ``critical`` flags parameter sets where ``mu`` has zeros on the circle:
    (gamma = 0, |lam| <= 1) or (gamma != 0, |lam| = 1).  It is reported
    only; no computation branches on it.
    """

    gamma: float
    lam: float
    beta_l: float
    beta_r: float
    beta: float = field(init=False)
    delta: float = field(init=False)
    critical: bool = field(init=False)
    swapped: bool = field(init=False)

    def __post_init__(self):
        gamma, lam = float(self.gamma), float(self.lam)
        bl, br = float(self.beta_l), float(self.beta_r)
        if not (math.isfinite(gamma) and abs(gamma) < 1):
            raise ValueError(f"gamma must be finite with |gamma| < 1, got {gamma}")
        if not math.isfinite(lam):
            raise ValueError(f"lambda must be finite, got {lam}")
        if not (math.isfinite(bl) and bl > 0):
            raise ValueError(f"beta_l must be finite and > 0, got {bl}")
        if not (math.isfinite(br) and br > 0):
            raise ValueError(f"beta_r must be finite and > 0, got {br}")
        swapped = bl > br
        if swapped:
            bl, br = br, bl
        critical = (gamma == 0.0 and abs(lam) <= 1.0) or (gamma != 0.0 and abs(lam) == 1.0)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "beta_l", bl)
        object.__setattr__(self, "beta_r", br)
        # halved before the sum, so beta stays finite for beta_l + beta_r > 1.8e308
        object.__setattr__(self, "beta", 0.5 * br + 0.5 * bl)
        object.__setattr__(self, "delta", 0.5 * br - 0.5 * bl)
        object.__setattr__(self, "critical", critical)
        object.__setattr__(self, "swapped", swapped)


def _cos_minus(xi, r: float):
    """cos(xi) - r, exactly even in xi and free of cancellation next to its zeros.

    With f = min(|xi|, 2pi - |xi|) (exact by Sterbenz): for |r| <= 1 the
    product -2 sin((f+x0)/2) sin((f-x0)/2), x0 = acos(r), which is exactly
    0 at xi = +-x0; for r > 1 the sum (1 - r) - 2 sin^2(f/2) and for r < -1
    the sum 2 cos^2(f/2) - (1 + r), whose two terms share one sign.
    """
    xi = np.asarray(xi, dtype=float)
    f = np.minimum(np.abs(xi), math.tau - np.abs(xi))
    if r > 1.0:
        return (1.0 - r) - 2.0 * np.sin(0.5 * f) ** 2
    if r < -1.0:
        return 2.0 * np.cos(0.5 * f) ** 2 - (1.0 + r)
    x0 = math.acos(r)
    return -2.0 * np.sin(0.5 * (f + x0)) * np.sin(0.5 * (f - x0))


def kappa(xi, p: ModelParams):
    """Current-direction dispersion 2*lam*sin(xi) - (1 - gamma^2)*sin(2*xi).

    Evaluated as -2c*sin(xi) * (cos(xi) - lam/c), c = 1 - gamma^2, with the
    second factor from :func:`_cos_minus`: exactly odd under xi -> -xi, and
    exactly 0 at the zeros x0 = acos(lam/c) of ``fourier.breakpoints`` when
    |lam| <= c, so its sign flips exactly there.  Its sign selects which
    reservoir a momentum mode equilibrates to in the steady state.
    """
    c = 1.0 - p.gamma**2
    out = (-2.0 * c * np.sin(xi)) * _cos_minus(xi, p.lam / c)
    return out if out.ndim else float(out)


def mu(xi, p: ModelParams):
    """Quasi-particle energy sqrt((cos(xi) - lam)^2 + gamma^2*sin(xi)^2).

    hypot(cos(xi) - lam, gamma sin(xi)), the first term from
    :func:`_cos_minus`: no cancellation next to the zeros and minimum of mu,
    where the sum form leaves rounding noise that no panel refinement
    resolves.  Exactly even in xi; zero only for critical parameters, and
    exactly at xi = +-acos(lam) when gamma = 0.
    """
    out = np.hypot(_cos_minus(xi, p.lam), p.gamma * np.sin(xi))
    return out if out.ndim else float(out)


def _phi_from_mu(alpha: float, m, beta: float, delta: float):
    """sinh(alpha*m) / (cosh(beta*m) + cosh(delta*m)), overflow-safe.

    Evaluated in exponent-shifted form so that beta*m up to ~1e308/m is fine;
    the naive sinh/cosh would overflow already at beta*m ~ 710.
    """
    m = np.asarray(m, dtype=float)
    a = abs(alpha)
    shift = max(a, beta, delta)  # all exponents below are <= 0
    num = np.exp((a - shift) * m) * (-np.expm1(-2.0 * a * m))
    den = np.exp((beta - shift) * m) * (1.0 + np.exp(-2.0 * beta * m)) + np.exp(
        (delta - shift) * m
    ) * (1.0 + np.exp(-2.0 * delta * m))
    out = math.copysign(1.0, alpha) * num / den
    return out if out.ndim else float(out)


def phi(alpha: float, xi, p: ModelParams):
    """Thermal weight phi_alpha(xi) = sinh(alpha*mu)/(cosh(beta*mu) + cosh(delta*mu)).

    In practice alpha is ``p.beta`` or ``p.delta``; any finite real is
    accepted.  For delta = 0 and alpha = beta this reduces to
    tanh(beta*mu/2) by the half-angle identity.
    """
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    return _phi_from_mu(alpha, mu(xi, p), p.beta, p.delta)


def symbol_singular_values(xi, p: ModelParams):
    """The two singular values of a(xi): (tanh(beta_l*mu/2), tanh(beta_r*mu/2)).

    Equal to (phi_beta - phi_delta, phi_beta + phi_delta) by sum-to-product
    hyperbolic identities; this closed form is what every symbol mean over
    the circle integrates, the rate bound B included.  The values are
    exactly even in xi and exactly 0 at xi = +-acos(lam) when gamma = 0.
    """
    m = mu(xi, p)
    return np.tanh(0.5 * p.beta_l * m), np.tanh(0.5 * p.beta_r * m)


def _symbol_weights(xi, p: ModelParams):
    """The symbol's weights (sign(kappa)*phi_delta, chi*phi_beta), from one mu.

    The coefficient integrands' frequency-independent factors, with the unit
    direction chi = (cos(xi) - lam - i*gamma*sin(xi))/mu.  The first is
    exactly odd in xi, the second's real part exactly even and its imaginary
    part exactly odd.  At an exact zero of mu both terms of chi's numerator
    are exactly 0, so chi is taken as 0 there and both weights are exactly
    0: the value of the analytic symbol at a zero of mu.
    """
    m = mu(xi, p)
    diag = np.sign(kappa(xi, p)) * _phi_from_mu(p.delta, m, p.beta, p.delta)
    chi = (_cos_minus(xi, p.lam) - 1j * p.gamma * np.sin(xi)) / np.where(m == 0.0, 1.0, m)
    return diag, chi * _phi_from_mu(p.beta, m, p.beta, p.delta)


def symbol_matrices(xi, p: ModelParams) -> np.ndarray:
    """Symbol values a(xi) with shape (..., 2, 2); (2, 2) for a scalar angle.

    a(xi) = [[ sign(kappa)*phi_delta, -q*phi_beta          ],
             [ conj(q)*phi_beta,      -sign(kappa)*phi_delta]]

    with q = chi*e^{i*xi}: the weights of :func:`_symbol_weights`, the second
    times e^{i*xi}.  The diagonal is real and trace-free; the off-diagonal
    entries have equal modulus phi_beta(xi).  At zeros of kappa the diagonal
    uses sign(0) = 0; these points form a measure-zero set and never enter
    the coefficient integrals because the quadrature panels are split
    exactly there.  At exact zeros of mu, a zero of kappa too, a(xi) is
    exactly 0, its limit there.
    """
    xi = np.asarray(xi, dtype=float)
    diag, off = _symbol_weights(xi, p)
    off = off * np.exp(1j * xi)
    out = np.empty(xi.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = diag
    out[..., 0, 1] = -off
    out[..., 1, 0] = np.conj(off)
    out[..., 1, 1] = -diag
    return out


def mu_sup(p: ModelParams) -> float:
    """Essential supremum of mu over the circle.

    mu^2 is a convex quadratic in cos(xi), so the maximum sits at
    cos(xi) = +-1, giving mu_sup = 1 + |lam| exactly.
    """
    return 1.0 + abs(p.lam)
