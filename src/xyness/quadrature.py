"""Panel-adaptive Gauss-Legendre quadrature for piecewise-smooth integrands.

All integrands in this package are analytic between known breakpoints (zeros
of kappa, which hold those of mu), so a fixed high-order rule per panel
with dyadic subdivision converges spectrally.  The engine works on batches of
panels: each refinement level evaluates the integrand once on a (panels,
nodes) array, which keeps the Python overhead per level instead of per panel.
One refinement loop (``_refine``) also serves batches of integrals over a
shared panel set, such as every Fourier coefficient of the symbol at once: a
panel is then accepted only when every integral of the batch passes on it.

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
#: most halvings of a base panel; the width floor total * 2**-46 comes first
MAX_DEPTH = 52
#: most panel evaluations times integrals per panel in one refinement, beside
#: the 400k panel budget of ``_refine``: it caps the memory, ~24 bytes each.
#: The coefficients' first level takes ~0.38 N^2, 6.34e6 at N = 4096 at CI's
#: critical points and 1.60e6 at N = 2048, the largest any test, CI step,
#: demo or workload runs; the cap is 5.3 times the first, up to N ~ 9400
_MAX_ENTRIES = 2**25


class QuadratureError(RuntimeError):
    """Adaptive refinement exhausted its budget before reaching the tolerance."""

    def __init__(self, message: str, achieved_error: float, column: int | None = None):
        super().__init__(f"{message} (achieved error estimate {achieved_error:.3e})")
        self.achieved_error = achieved_error
        #: for a batch of integrals, the one with the largest achieved error
        self.column = column


def _gauss_batch(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Gauss-Legendre estimates of integral(f) over each [lo_i, hi_i]."""
    half = 0.5 * (hi - lo)
    x = 0.5 * (hi + lo)[:, None] + half[:, None] * _NODES[None, :]
    return np.asarray(f(x)) @ _WEIGHTS * half


def _split_edges(edges: np.ndarray, max_width: float) -> tuple[np.ndarray, np.ndarray]:
    """Base panels between strictly ascending edges, each at most max_width (inf: no cap) wide."""
    pairs = zip(edges[:-1], edges[1:])
    cuts = [np.linspace(a, b, max(1, int(np.ceil((b - a) / max_width))) + 1) for a, b in pairs]
    return np.concatenate([c[:-1] for c in cuts]), np.concatenate([c[1:] for c in cuts])


def adaptive_panels(f, edges, tol: float) -> tuple[complex, float]:
    """Integrate ``f`` over [edges[0], edges[-1]] to absolute tolerance ``tol``.

    Parameters
    ----------
    f : callable
        Vectorized integrand; called with a float array of any shape and must
        return an array of the same shape (real or complex).
    edges : array_like
        At least two finite, strictly ascending boundaries; the integrand must
        be smooth strictly inside each [edges[i], edges[i+1]].
    tol : float
        Absolute error target for the whole integral.

    Returns
    -------
    value : complex
        The integral, summed over panels in left-endpoint order (so the
        result is independent of the refinement schedule).
    err_estimate : float
        Sum of per-panel error estimates.

    Raises
    ------
    ValueError
        If ``tol`` is not positive or ``edges`` is not as above.
    QuadratureError
        If the panel budget or recursion depth is exhausted first, or if the
        total is not finite (inf or nan).
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    edges = np.asarray(edges, dtype=float)
    ascending = edges.ndim == 1 and edges.size >= 2 and np.all(edges[1:] > edges[:-1])
    if not (ascending and np.all(np.isfinite(edges))):
        raise ValueError("edges must hold at least two finite, strictly ascending values")
    lo, hi = _split_edges(edges, np.inf)
    vals, errs = _refine(
        lambda a, b: _gauss_batch(f, a, b)[:, None], lo, hi, tol, edges[-1] - edges[0]
    )
    vals, errs = vals[:, 0], errs[:, 0]
    value = vals.sum()
    if not np.isfinite(value):
        raise QuadratureError("non-finite integral", float(errs.sum()))
    return (complex(value) if np.iscomplexobj(vals) else float(value)), float(errs.sum())


def _refine(
    rule,
    lo: np.ndarray,
    hi: np.ndarray,
    tol: float,
    total: float,
    max_panels: int = 400_000,
    panel_cost: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Dyadic refinement of base panels [lo_i, hi_i] until every panel passes.

    ``rule(lo, hi)`` returns a (panels, K) array: K integrals over each panel,
    one per column (K = 1 for a scalar integrand).  A panel is accepted when
    its coarse estimate and the sum over its two halves differ by at most
    ``tol * width / total`` in every column, so each column's error estimate
    sums to at most ``tol`` over a domain of length ``total``.  A panel that
    reaches the width floor ``total * 2**-46`` without passing is accepted
    with its whole magnitude charged to the error estimate.

    The arrays of a level are (panels, K), so memory grows as panels * K.
    Two budgets bound the panel evaluations: ``max_panels`` counts each one
    as ``panel_cost`` (2 for a panel that stands for itself and its mirror),
    whatever K is, and :data:`_MAX_ENTRIES` counts each one as K.

    Returns
    -------
    values, errors : np.ndarray
        (panels, K) arrays over the accepted panels, sorted by left endpoint,
        so that column sums do not depend on the refinement schedule.

    Raises
    ------
    QuadratureError
        If either budget or the depth is exhausted first; ``column`` names
        the column with the largest achieved error estimate.
    """
    width_floor = total * 2.0**-46
    coarse = rule(lo, hi)
    acc_lo, acc_val, acc_err = [], [], []
    n_evals = lo.size
    for _ in range(MAX_DEPTH):
        if lo.size == 0:
            break
        mid = 0.5 * (lo + hi)
        left = rule(lo, mid)
        right = rule(mid, hi)
        n_evals += 2 * lo.size
        fine = left + right
        err = np.abs(fine - coarse)
        width = hi - lo
        converged = err.max(axis=1) <= tol * width / total
        floored = ~converged & (width <= width_floor)
        # floor-hit panels border an integrable singularity; their whole
        # magnitude is charged to the error budget
        err = np.where(floored[:, None], err + np.abs(fine) + np.abs(coarse), err)
        done = converged | floored
        acc_lo.append(lo[done])
        acc_val.append(fine[done])
        acc_err.append(err[done])
        keep = ~done
        lo = np.concatenate([lo[keep], mid[keep]])
        hi = np.concatenate([mid[keep], hi[keep]])
        coarse = np.concatenate([left[keep], right[keep]])
        evals = n_evals + 2 * lo.size  # after the next level
        if evals * panel_cost > max_panels or evals * coarse.shape[1] > _MAX_ENTRIES:
            _raise_unfinished("panel budget exhausted", acc_err + [err[keep]])
    if lo.size:
        _raise_unfinished("max refinement depth reached", acc_err)

    order = np.argsort(np.concatenate(acc_lo), kind="stable")
    return np.concatenate(acc_val)[order], np.concatenate(acc_err)[order]


def _raise_unfinished(message: str, errors: list) -> None:
    achieved = np.atleast_1d(sum(e.sum(axis=0) for e in errors))
    column = int(np.argmax(achieved))
    raise QuadratureError(message, float(achieved[column]), column)
