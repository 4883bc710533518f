"""Block Fourier coefficients of the symbol by panel quadrature.

The scalar coefficient sequences are

    app[x] = (1/2pi) Int_0^{2pi} sign(kappa)*phi_delta * e^{-i*x*xi} dxi
    apm[y] = (1/2pi) Int_0^{2pi} (cos(xi)-lam-i*gamma*sin(xi))/mu * phi_beta * e^{-i*y*xi} dxi

and the paper's 2x2 blocks are

    a_x = [[ app[x],    -apm[x-1] ],
           [ apm[-x-1], -app[x]   ]].

The diagonal weight sign(kappa)*phi_delta is odd on the circle, which forces
app[0] = 0, app[-x] = -app[x], and purely imaginary app[x]; apm is real.
These hold only up to quadrature error and are asserted by the test suite
against independently computed integrals.

The blocks are stored in the real gauge: conjugated by the per-site unitary
D = diag(e^{-i*pi/4}, e^{i*pi/4}), which has det D = 1,

    D a_x D = [[ Im app[x],  -apm[x-1] ],
               [ apm[-x-1],  Im app[x] ]],

a real matrix.  a_0's diagonal is set to exactly 0 (app[0] = -app[0]), so
every truncation D_n Omega(n) D_n (D_n = D on each site) is real and
skew-symmetric bit for bit, with Omega(n)'s Pfaffian, determinant and
singular values: the linear algebra runs in real arithmetic.  The dropped
parts, Re app, Im app[0] and Im apm, are quadrature noise;
:func:`build_block_sequence` checks them against the gate's own threshold
before dropping them.  ``app`` and ``apm`` keep the complex coefficients.

Every coefficient of a sequence comes from one shared-node engine: a single
adaptive refinement over panels split at the zeros of kappa and mu and capped
at _PERIODS_PER_PANEL periods of the highest frequency.  The two
frequency-independent weights are evaluated once per node, and each panel's
sums for every frequency are one batched matrix product with a factored
phase table.  A panel is accepted only when every coefficient passes the
proportional error test on it, so no coefficient gets a weaker guarantee
than an adaptive quadrature of its own would give it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, kappa, mu, phi
from .quadrature import _NODES, _WEIGHTS, QuadratureError, _refine, _split_edges
from .quadrature import adaptive_panels  # noqa: F401  (perfbench/tracer.py wraps this binding)

TWO_PI = 2.0 * math.pi

#: above this highest frequency, base panels are split to ~8 of its periods each
_OSC_SPLIT_THRESHOLD = 64
_PERIODS_PER_PANEL = 8.0
#: frequencies per row of the factored phase table; a power of two, since
#: the table is built by doubling
_PHASE_BLOCK = 64
#: panels per batched product, which bounds the phase tables to a few MiB
_PANEL_CHUNK = 128


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
    index x + N - 1.  The blocks are real: D a_x D in the gauge of the
    module notes, while ``app`` and ``apm`` are the complex coefficients.
    ``err_estimate`` is the largest per-coefficient quadrature error
    estimate.
    """

    n_max: int
    tol: float
    app: np.ndarray
    apm: np.ndarray
    blocks: np.ndarray
    err_estimate: float


def breakpoints(p: ModelParams) -> np.ndarray:
    """Zeros of kappa in [0, 2*pi), sorted: quadrature panel boundaries.

    kappa factors as 2*sin(xi)*(lam - (1-gamma^2)*cos(xi)), so the zeros are
    {0, pi} plus, when |lam| <= 1 - gamma^2, the two roots of
    cos(xi) = lam/(1-gamma^2).  These include every zero of mu (critical
    parameters): at gamma = 0 they are the roots of cos(xi) = lam, otherwise
    0 or pi.
    """
    pts = [0.0, math.pi]
    ratio = p.lam / (1.0 - p.gamma**2)
    if abs(ratio) <= 1.0:
        x0 = math.acos(ratio)
        pts.extend([x0, TWO_PI - x0])
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


def _phase_table(xi: np.ndarray) -> np.ndarray:
    """e^{-i*k*xi} for 0 <= k < _PHASE_BLOCK, along a new last axis.

    Built by doubling: columns m .. 2m-1 are columns 0 .. m-1 times
    e^{-i*m*xi} for m = 1, 2, 4, ..., so it takes log2(_PHASE_BLOCK)
    exponentials per node where one per entry would take _PHASE_BLOCK, and
    each entry is at most that many roundings from its own exponential.
    """
    table = np.empty(xi.shape + (_PHASE_BLOCK,), dtype=complex)
    table[..., 0] = 1.0
    m = 1
    while m < _PHASE_BLOCK:
        np.multiply(table[..., :m], np.exp(-1j * m * xi)[..., None], out=table[..., m : 2 * m])
        m *= 2
    return table


def _panel_sums(lo: np.ndarray, hi: np.ndarray, p: ModelParams, groups) -> np.ndarray:
    """Gauss-Legendre sums of every coefficient integrand on each panel.

    ``groups`` lists (component, first frequency, count); the result is
    (panels, total count), the groups' columns side by side.  The weights
    sign(kappa)*phi_delta and chi*phi_beta do not depend on the frequency, so
    they are evaluated once per node; the phases come from the factored table
    e^{-i(k0+k)xi} = e^{-i*k0*xi} * e^{-i*k*xi}, 0 <= k < _PHASE_BLOCK, so
    each panel's sums are one (blocks, nodes) @ (nodes, _PHASE_BLOCK) product
    with the :func:`_phase_table` of its nodes.  The e^{-i*k0*xi} factors
    are one exponential each: powers of e^{-i*_PHASE_BLOCK*xi} would compound
    their roundings over the hundreds of rows a large n_max needs.
    """
    half = 0.5 * (hi - lo)
    xi = 0.5 * (hi + lo)[:, None] + half[:, None] * _NODES[None, :]
    w = _WEIGHTS[None, :] * half[:, None]
    rows = []
    for which, first, count in groups:
        if which is Component.PP:
            weight = np.sign(kappa(xi, p)) * phi(p.delta, xi, p)
        else:
            chi = (np.cos(xi) - p.lam - 1j * p.gamma * np.sin(xi)) / mu(xi, p)
            weight = chi * phi(p.beta, xi, p)
        k0 = first + _PHASE_BLOCK * np.arange(math.ceil(count / _PHASE_BLOCK))
        rows.append((weight * w)[:, None, :] * np.exp(-1j * k0[None, :, None] * xi[:, None, :]))
    sums = (np.concatenate(rows, axis=1) @ _phase_table(xi)).reshape(lo.size, -1)
    cols, start = [], 0
    for _, _, count in groups:
        cols.append(sums[:, start : start + count])
        start += _PHASE_BLOCK * math.ceil(count / _PHASE_BLOCK)
    return np.concatenate(cols, axis=1)


def _coefficients(
    n_max: int, p: ModelParams, tol: float, pp_first: int = 0
) -> tuple[dict, float]:
    """app[pp_first .. pp_first+N-1] and apm[-N .. N-2] on one shared panel set.

    N = n_max.  Returns the arrays by component (PP absent when delta = 0,
    where phi_0 vanishes) and the largest per-coefficient error estimate,
    which is at most ``tol``.  The panel arrays hold one column per
    coefficient, about 3N, so the memory of a refinement level grows as
    O(N * panels).

    Raises
    ------
    QuadratureError
        Naming the coefficient with the largest achieved error when the panel
        budget runs out, or the first non-finite one.
    """
    groups = [(Component.PM, -n_max, 2 * n_max - 1)]
    if p.delta != 0.0:
        groups.insert(0, (Component.PP, pp_first, n_max))

    def name(column: int) -> str:
        for which, first, count in groups:
            if column < count:
                return f"{which.name}[{first + column}]"
            column -= count
        raise IndexError(column)

    columns = sum(count for _, _, count in groups)

    def rule(lo, hi):
        out = np.empty((lo.size, columns), dtype=complex)
        for s in range(0, lo.size, _PANEL_CHUNK):
            part = slice(s, s + _PANEL_CHUNK)
            out[part] = _panel_sums(lo[part], hi[part], p, groups)
        return out

    max_width = _PERIODS_PER_PANEL * TWO_PI / n_max if n_max > _OSC_SPLIT_THRESHOLD else None
    lo, hi = _split_edges(np.concatenate([breakpoints(p), [TWO_PI]]), max_width)
    try:
        vals, errs = _refine(rule, lo, hi, tol * TWO_PI, TWO_PI)
    except QuadratureError as exc:
        raise QuadratureError(
            f"coefficient {name(exc.column)} did not converge", exc.achieved_error / TWO_PI
        ) from exc
    values = vals.sum(axis=0) / TWO_PI
    errors = errs.sum(axis=0) / TWO_PI
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise QuadratureError(
            f"coefficient {name(bad[0])} did not converge: non-finite integral", errors[bad[0]]
        )
    out, start = {}, 0
    for which, _, count in groups:
        out[which] = values[start : start + count]
        start += count
    return out, float(errors.max())


def fourier_coefficient(
    x: int, which: Component, p: ModelParams, tol: float = 1e-12
) -> complex:
    """Single Fourier coefficient app[x] (which=PP) or apm[x] (which=PM).

    Runs the shared-panel engine of :func:`build_block_sequence` at the
    smallest n_max whose range holds x, so for x >= 0 (and every PM index)
    the value equals that sequence's entry bit for bit; absolute error <=
    tol.  A negative PP index is integrated at its own frequency rather than
    mirrored from app[|x|], so it checks the oddness of the diagonal weight
    independently.  The run integrates about 3|x| coefficients, so the cost
    grows as O(x**2).

    Raises
    ------
    QuadratureError
        If the panel budget was exhausted; the exception carries the achieved
        error estimate.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    x = int(x)
    if which is Component.PP:
        if p.delta == 0.0:
            return 0.0 + 0.0j  # phi_0 vanishes identically
        values, _ = _coefficients(abs(x) + 1, p, tol, pp_first=min(x, 0))
        return complex(values[Component.PP][x - min(x, 0)])
    n_max = max(1, x + 2, -x)
    values, _ = _coefficients(n_max, p, tol)
    return complex(values[Component.PM][x + n_max])


def _check_gauge(app: np.ndarray, apm: np.ndarray, n_max: int, err: float) -> None:
    """Check that Re app[0 .. N-1], Im app[0] and Im apm[-N .. N-2] are noise."""
    scale = max(float(np.abs(app).max()), float(np.abs(apm).max()))
    limit = max(2.0 * err, 1e-14 * scale)
    for which, dropped, first in (
        (Component.PP, app.real, 0),
        (Component.PP, app.imag[:1], 0),
        (Component.PM, apm.imag, -n_max),
    ):
        i = int(np.argmax(np.abs(dropped)))
        if abs(dropped[i]) > limit:
            raise QuadratureError(
                f"coefficient {which.name}[{first + i}] breaks the real gauge: "
                f"dropped part {abs(dropped[i]):.3e} > {limit:.3e}",
                err,
            )


def build_block_sequence(
    n_max: int, p: ModelParams, tol: float = 1e-12
) -> BlockSequence:
    """All coefficient blocks needed for truncations up to n_max block rows.

    app[x] is computed for x = 0 .. n_max-1 and mirrored to negative x via
    the oddness symmetry; apm[y] is computed for y = -n_max .. n_max-2, all
    by one run of the shared-node engine.  Nothing is cached: every call
    integrates afresh.  The blocks are built in the real gauge of the module
    notes, where every truncation is skew-symmetric bit for bit.

    Raises
    ------
    QuadratureError
        Naming the failing coefficient's component and index, also when the
        part the gauge drops (Re app, Im app[0], Im apm) exceeds the gate's
        threshold max(2 * err_estimate, 1e-14 * max|coefficient|).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    values, worst = _coefficients(n_max, p, tol)
    if p.delta == 0.0:
        app = np.zeros(2 * n_max - 1, dtype=complex)
    else:
        half = values[Component.PP]
        app = np.concatenate([-half[:0:-1], half])
    apm = values[Component.PM]
    _check_gauge(app[n_max - 1 :], apm, n_max, worst)

    # with these offsets apm[x-1] sits at the index of a_x, apm[-x-1] at its
    # mirror; the blocks are D a_x D, whose entries are real
    blocks = np.empty((2 * n_max - 1, 2, 2))
    blocks[:, 0, 0] = app.imag
    blocks[n_max - 1, 0, 0] = 0.0  # app[0] = -app[0]: a_0's diagonal is exactly 0
    blocks[:, 1, 1] = blocks[:, 0, 0]
    blocks[:, 0, 1] = -apm.real
    blocks[:, 1, 0] = apm.real[::-1]
    for arr in (app, apm, blocks):
        arr.setflags(write=False)
    return BlockSequence(
        n_max=int(n_max),
        tol=float(tol),
        app=app,
        apm=apm,
        blocks=blocks,
        err_estimate=worst,
    )
