"""Block Fourier coefficients of the symbol by panel quadrature.

The scalar coefficient sequences are

    app[x] = (1/2pi) Int_0^{2pi} sign(kappa)*phi_delta * e^{-i*x*xi} dxi
    apm[y] = (1/2pi) Int_0^{2pi} (cos(xi)-lam-i*gamma*sin(xi))/mu * phi_beta * e^{-i*y*xi} dxi

and the 2x2 blocks are assembled as

    a_x = [[ app[x],    -apm[x-1] ],
           [ apm[-x-1], -app[x]   ]].

The diagonal weight sign(kappa)*phi_delta is odd on the circle, which forces
app[0] = 0, app[-x] = -app[x], and purely imaginary app[x]; apm is real.
These hold only up to quadrature error and are asserted by the test suite
against independently computed integrals.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, kappa, mu, mu_zeros, phi
from .quadrature import QuadratureError, adaptive_panels

TWO_PI = 2.0 * math.pi

#: above this frequency, base panels are split to ~8 oscillation periods each
_OSC_SPLIT_THRESHOLD = 64
_PERIODS_PER_PANEL = 8.0


class Component(enum.Enum):
    """Which scalar coefficient sequence: diagonal (PP) or off-diagonal (PM)."""

    PP = "pp"
    PM = "pm"


@dataclass(frozen=True)
class BlockSequence:
    """Fourier coefficient blocks a_x for |x| <= n_max - 1, in read-only arrays.

    Exactly the range a truncation of N = n_max block rows consumes.  ``app``
    holds x in [-(N-1), N-1] at index x + N - 1 (negative x filled by the
    oddness symmetry to halve the quadrature work), ``apm`` holds y in
    [-N, N-2] at index y + N, and ``blocks`` (shape (2N-1, 2, 2)) holds a_x at
    index x + N - 1.  ``err_estimate`` is the largest per-coefficient
    quadrature error estimate.
    """

    n_max: int
    params: ModelParams
    tol: float
    app: np.ndarray
    apm: np.ndarray
    blocks: np.ndarray
    err_estimate: float


def breakpoints(p: ModelParams) -> np.ndarray:
    """Zeros of kappa in [0, 2*pi), sorted: quadrature panel boundaries.

    kappa factors as 2*sin(xi)*(lam - (1-gamma^2)*cos(xi)), so the zeros are
    {0, pi} plus, when |lam| <= 1 - gamma^2, the two roots of
    cos(xi) = lam/(1-gamma^2).  Zeros of mu (critical parameters) are merged
    in as well; they are always kappa zeros already, so this is a no-op
    except for deduplication safety.
    """
    pts = [0.0, math.pi]
    ratio = p.lam / (1.0 - p.gamma**2)
    if abs(ratio) <= 1.0:
        x0 = math.acos(ratio)
        pts.extend([x0, TWO_PI - x0])
    pts.extend(float(z) for z in mu_zeros(p))
    return _dedupe(sorted(x % TWO_PI for x in pts))


def _dedupe(sorted_points, tol=1e-12) -> np.ndarray:
    out = []
    for x in sorted_points:
        if not out or x - out[-1] > tol:
            out.append(x)
    # a point within tol of 2*pi duplicates 0
    if out and TWO_PI - out[-1] <= tol:
        out.pop()
    return np.array(out)


def _integrand(which: Component, x: int, p: ModelParams):
    if which is Component.PP:

        def f(xi):
            return np.sign(kappa(xi, p)) * phi(p.delta, xi, p) * np.exp(-1j * x * xi)

    else:

        def f(xi):
            m = mu(xi, p)
            chi = (np.cos(xi) - p.lam - 1j * p.gamma * np.sin(xi)) / m
            return chi * phi(p.beta, xi, p) * np.exp(-1j * x * xi)

    return f


def _quad_coefficient(x: int, which: Component, p: ModelParams, tol: float):
    edges = np.concatenate([breakpoints(p), [TWO_PI]])
    max_width = None
    if abs(x) > _OSC_SPLIT_THRESHOLD:
        max_width = _PERIODS_PER_PANEL * TWO_PI / abs(x)
    value, err = adaptive_panels(
        _integrand(which, x, p), edges, tol * TWO_PI, max_width=max_width
    )
    return value / TWO_PI, err / TWO_PI


def fourier_coefficient(
    x: int, which: Component, p: ModelParams, tol: float = 1e-12
) -> complex:
    """Single Fourier coefficient app[x] (which=PP) or apm[x] (which=PM).

    Computed by adaptive Gauss-Legendre quadrature on the smooth panels
    between breakpoints, to absolute error <= tol.

    Raises
    ------
    QuadratureError
        If the panel budget was exhausted; the exception carries the achieved
        error estimate.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if which is Component.PP and p.delta == 0.0:
        return 0.0 + 0.0j  # phi_0 vanishes identically
    value, _ = _quad_coefficient(int(x), which, p, tol)
    return complex(value)


def build_block_sequence(
    n_max: int, p: ModelParams, tol: float = 1e-12
) -> BlockSequence:
    """All coefficient blocks needed for truncations up to n_max block rows.

    app[x] is computed for x = 0 .. n_max-1 and mirrored to negative x via
    the oddness symmetry; apm[y] is computed for y = -n_max .. n_max-2.
    Nothing is cached: every call runs the quadratures afresh.

    Raises
    ------
    QuadratureError
        Re-raised from the offending coefficient, with its index in the
        message.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    worst = 0.0

    def compute(x: int, which: Component):
        nonlocal worst
        try:
            value, err = _quad_coefficient(x, which, p, tol)
        except QuadratureError as exc:
            raise QuadratureError(
                f"coefficient {which.name}[{x}] did not converge", exc.achieved_error
            ) from exc
        worst = max(worst, err)
        return value

    if p.delta == 0.0:
        app = np.zeros(2 * n_max - 1, dtype=complex)
    else:
        half = np.array([compute(x, Component.PP) for x in range(n_max)], dtype=complex)
        app = np.concatenate([-half[:0:-1], half])
    apm = np.array([compute(y, Component.PM) for y in range(-n_max, n_max - 1)], dtype=complex)

    # with these offsets apm[x-1] sits at the index of a_x, apm[-x-1] at its mirror
    blocks = np.empty((2 * n_max - 1, 2, 2), dtype=complex)
    blocks[:, 0, 0] = app
    blocks[:, 1, 1] = -app
    blocks[:, 0, 1] = -apm
    blocks[:, 1, 0] = apm[::-1]
    for arr in (app, apm, blocks):
        arr.setflags(write=False)
    return BlockSequence(
        n_max=int(n_max),
        params=p,
        tol=float(tol),
        app=app,
        apm=apm,
        blocks=blocks,
        err_estimate=worst,
    )
