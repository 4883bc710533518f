"""Panel-adaptive Gauss-Legendre quadrature for piecewise-smooth integrands.

All integrands in this package are analytic between known breakpoints (zeros
of kappa, and of mu at criticality), so a fixed high-order rule per panel
with dyadic subdivision converges spectrally.  The engine works on batches of
panels: each refinement level evaluates the integrand once on a (panels,
nodes) array, which keeps the Python overhead per level instead of per panel.

Integrable endpoint singularities (the log-type ones of the decay-rate
integrand at zeros of mu) are handled by grading: panels touching a
singularity keep failing the proportional error test at a constant rate, so
they shrink geometrically until they hit the width floor, below which their
total contribution is negligible and is charged to the error estimate.
"""

from __future__ import annotations

import numpy as np

GAUSS_ORDER = 40
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(GAUSS_ORDER)


class QuadratureError(RuntimeError):
    """Adaptive refinement exhausted its budget before reaching the tolerance."""

    def __init__(self, message: str, achieved_error: float):
        super().__init__(f"{message} (achieved error estimate {achieved_error:.3e})")
        self.achieved_error = achieved_error


def _gauss_batch(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Gauss-Legendre estimates of integral(f) over each [lo_i, hi_i]."""
    half = 0.5 * (hi - lo)
    x = 0.5 * (hi + lo)[:, None] + half[:, None] * _NODES[None, :]
    return np.asarray(f(x)) @ _WEIGHTS * half


def _split_edges(edges: np.ndarray, max_width: float | None) -> tuple[np.ndarray, np.ndarray]:
    """Base panels between consecutive edges, each at most max_width wide."""
    lo_list, hi_list = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        if b <= a:
            continue
        parts = 1 if max_width is None else max(1, int(np.ceil((b - a) / max_width)))
        cuts = np.linspace(a, b, parts + 1)
        lo_list.append(cuts[:-1])
        hi_list.append(cuts[1:])
    return np.concatenate(lo_list), np.concatenate(hi_list)


def adaptive_panels(
    f,
    edges,
    tol: float,
    max_width: float | None = None,
    max_depth: int = 52,
    max_panels: int = 400_000,
) -> tuple[complex, float]:
    """Integrate ``f`` over [edges[0], edges[-1]] to absolute tolerance ``tol``.

    Parameters
    ----------
    f : callable
        Vectorized integrand; called with a float array of any shape and must
        return an array of the same shape (real or complex).
    edges : array_like
        Sorted panel boundaries; the integrand must be smooth strictly inside
        each [edges[i], edges[i+1]].
    tol : float
        Absolute error target for the whole integral.
    max_width : float, optional
        Upper bound on base-panel width (used to resolve oscillatory factors).

    Returns
    -------
    value : complex
        The integral, summed over panels in left-endpoint order (so the
        result is independent of the refinement schedule).
    err_estimate : float
        Sum of per-panel error estimates.

    Raises
    ------
    QuadratureError
        If the panel budget or recursion depth is exhausted first, or if the
        total is not finite (inf or nan).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    edges = np.asarray(edges, dtype=float)
    total = edges[-1] - edges[0]
    width_floor = total * 2.0**-46

    lo, hi = _split_edges(edges, max_width)
    coarse = _gauss_batch(f, lo, hi)

    acc_lo, acc_val, acc_err = [], [], []
    n_evals = lo.size
    for _ in range(max_depth):
        if lo.size == 0:
            break
        mid = 0.5 * (lo + hi)
        left = _gauss_batch(f, lo, mid)
        right = _gauss_batch(f, mid, hi)
        n_evals += 2 * lo.size
        fine = left + right
        err = np.abs(fine - coarse)
        width = hi - lo
        converged = err <= tol * width / total
        floored = ~converged & (width <= width_floor)
        # floor-hit panels border an integrable singularity; their whole
        # magnitude is charged to the error budget
        err = np.where(floored, err + np.abs(fine) + np.abs(coarse), err)
        done = converged | floored
        acc_lo.append(lo[done])
        acc_val.append(fine[done])
        acc_err.append(err[done])
        keep = ~done
        lo = np.concatenate([lo[keep], mid[keep]])
        hi = np.concatenate([mid[keep], hi[keep]])
        coarse = np.concatenate([left[keep], right[keep]])
        if n_evals + 2 * lo.size > max_panels:
            achieved = float(sum(e.sum() for e in acc_err) + err[keep].sum())
            raise QuadratureError("panel budget exhausted", achieved)
    if lo.size:
        achieved = float(sum(e.sum() for e in acc_err))
        raise QuadratureError("max refinement depth reached", achieved)

    lo = np.concatenate(acc_lo)
    vals = np.concatenate(acc_val)
    errs = np.concatenate(acc_err)
    order = np.argsort(lo, kind="stable")
    value = vals[order].sum()
    if not np.isfinite(value):
        raise QuadratureError("non-finite integral", float(errs.sum()))
    return (complex(value) if np.iscomplexobj(vals) else float(value)), float(errs.sum())
