"""End-to-end computation of correlation series, decay fits and sweeps.

For each truncation size n the correlation magnitude is |C(n)| = |Pf
Omega(n)|.  Only its magnitude is kept: the overall phase depends on a
row-ordering convention.

Omega(n) is handled in the real gauge of :mod:`xyness.fourier`: the
truncation R = D_n Omega(n) D_n is real and skew-symmetric bit for bit, with
the same Pfaffian, determinant and singular values, so the LU and the SVD
run in real arithmetic.

Each truncation R satisfies J R J = -R, so an orthogonal change of basis
brings it to [[0, X], [-X^T, 0]], X = fold(R) of size n x n (proof sketch
in :mod:`xyness.toeplitz`): |Pf R| = |det X|, log|det R| = 2 log|det X|,
and R's singular values are X's, each counted twice.  Each size gathers its
own X straight from the coefficient blocks (:func:`xyness.toeplitz.folded`,
byte for byte the fold of R), so R is never built, and one pivoted LU of X
gives log|C(n)|.

The cross check compares two elimination routes on X: the LU of X against
the LU of its column-reversed copy X J_n, a different pivot sequence and
elimination order with the same |det|.  Twice their log difference must stay
below 1e-6 at every n or the run aborts.  The check is not made against
sum log sigma_i(X) from the SVD the row also runs: where the smallest
singular value sits at quadrature noise, the LU and the SVD are backward
stable for different perturbations of X and differ by far more than
rounding, while the two LUs still agree within 1e-11 relative (ROADMAP
item 1).  The paper's Pfaffian itself is checked against log|det X| off
this path, by the pivoted :func:`pfaffian` in ``selftest`` and the tests.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._version import __version__
from .bounds import BoundReport, bound_report, weak_bound_log
from .fourier import BlockSequence, build_block_sequence
from .model import ModelParams
from .skewlinalg import log_det, singular_values
from .skewlinalg import pfaffian  # noqa: F401 (perfbench/tracer.py wraps this binding)
from .spectral import LIMIT_TOL
from .toeplitz import assemble  # noqa: F401 (perfbench/tracer.py wraps this binding)
from .toeplitz import folded

#: default truncation sizes: powers of two padded inside the fit window
DEFAULT_N_LIST = (8, 16, 32, 64, 96, 128, 160, 192, 224, 256)


class NumericalError(RuntimeError):
    """A numerical consistency gate failed (message names the stage and n)."""


@dataclass(frozen=True)
class SeriesRow:
    n: int
    log_abs_C: float  # log|Pf Omega(n)| = log|det X| from the LU of the fold X
    log_abs_det: float  # log|det Omega(n)| = 2 * log_abs_C
    pf_det_residual: float  # |2 log|det X J_n| - log_abs_det|: the second LU route
    smin: float
    smax: float


@dataclass(frozen=True)
class FitResult:
    n_lo: int
    n_hi: int
    slope: float
    intercept: float
    residual_rms: float


@dataclass(frozen=True)
class CorrelationSeries:
    params: ModelParams
    rows: tuple
    fit: FitResult | None
    bound: BoundReport | None
    metadata: dict
    #: the coefficient blocks each row's fold was gathered from (None on failure)
    sequence: BlockSequence | None = None


def fit_decay(series: CorrelationSeries, n_lo: int, n_hi: int) -> FitResult:
    """Least-squares line through (n, log|C(n)|) for rows with n in [n_lo, n_hi].

    The slope estimates the asymptotic decay rate limsup log|C(n)|/n.
    Requires at least 4 rows inside the window.
    """
    return _fit_rows(series.rows, n_lo, n_hi)


def _fit_rows(rows, n_lo: int, n_hi: int) -> FitResult:
    rows = [r for r in rows if n_lo <= r.n <= n_hi]
    if len(rows) < 4:
        raise ValueError(
            f"need at least 4 rows in [{n_lo}, {n_hi}], have {len(rows)}"
        )
    ns = np.array([r.n for r in rows], dtype=float)
    ys = np.array([r.log_abs_C for r in rows], dtype=float)
    design = np.column_stack([ns, np.ones_like(ns)])
    (slope, intercept), *_ = np.linalg.lstsq(design, ys, rcond=None)
    resid = ys - (slope * ns + intercept)
    return FitResult(
        n_lo=int(n_lo),
        n_hi=int(n_hi),
        slope=float(slope),
        intercept=float(intercept),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
    )


def check_sizes(n_list, tol: float) -> list[int]:
    """``n_list`` as ints, after checking the sizes and the tolerance.

    Raises
    ------
    ValueError
        Unless ``n_list`` is a nonempty, strictly ascending list of positive
        integers and ``tol`` is positive.
    """
    n_list = [int(n) for n in n_list]
    if not n_list:
        raise ValueError("n_list must be nonempty")
    if any(b <= a for a, b in zip(n_list[:-1], n_list[1:])) or n_list[0] < 1:
        raise ValueError("n_list must be strictly ascending positive integers")
    if not tol > 0:
        raise ValueError("tol must be positive")
    return n_list


def compute_series(p: ModelParams, n_list=DEFAULT_N_LIST, tol: float = 1e-12) -> CorrelationSeries:
    """Correlation magnitudes log|C(n)| for each n in ``n_list``.

    One block sequence is built at max(n_list), and every size gathers its
    n x n fold from it without assembling the truncation.  Each row takes
    log|C(n)| from the LU of its fold, carries the residual against the LU
    of the column-reversed fold (module notes) and the extreme singular
    values of the fold.  The decay fit runs over the upper half of the
    sizes, widened to at least 4 of them, and is omitted for fewer than 4
    sizes.  The rate bound is integrated to ``LIMIT_TOL``.

    Raises
    ------
    ValueError
        If :func:`check_sizes` rejects ``n_list`` or ``tol``.
    NumericalError
        If the residual between the two LU routes exceeds 1e-6 or the all-n
        determinant bound is violated at some n.
    """
    n_list = check_sizes(n_list, tol)
    seq = build_block_sequence(max(n_list), p, tol)
    rows = []
    for n in n_list:
        X = folded(n, seq)
        log_abs_C = log_det(X).log_abs
        log_abs_det = 2.0 * log_abs_C
        residual = abs(2.0 * log_det(X[:, ::-1]).log_abs - log_abs_det)
        if not residual <= 1e-6:
            raise NumericalError(
                f"LU/reversed-LU cross-check failed at n={n}: residual {residual:.3e}"
            )
        wb = weak_bound_log(n, p)
        if not log_abs_det <= wb + 1e-8:
            raise NumericalError(
                f"determinant bound violated at n={n}: {log_abs_det:.6e} > {wb:.6e}"
            )
        sv = singular_values(X)  # each of R's singular values, once
        rows.append(
            SeriesRow(
                n=n,
                log_abs_C=log_abs_C,
                log_abs_det=log_abs_det,
                pf_det_residual=residual,
                smin=float(sv[0]),
                smax=float(sv[-1]),
            )
        )

    # upper half of the sizes, widened just enough for 4 rows
    start = max(0, min(len(rows) // 2, len(rows) - 4))
    return CorrelationSeries(
        params=p,
        rows=tuple(rows),
        fit=_fit_rows(rows, rows[start].n, rows[-1].n) if len(rows) >= 4 else None,
        bound=bound_report(p),
        metadata={
            "tol": float(tol),
            "bound_tol": LIMIT_TOL,
            "swapped": p.swapped,
            "coefficient_err_estimate": seq.err_estimate,
            "version": __version__,
            # in-memory provenance only: file emitters must stay byte-deterministic
            "created_unix": time.time(),
        },
        sequence=seq,
    )


def _worker_count() -> int:
    raw = os.environ.get("XYNESS_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def sweep(grid, n_list=DEFAULT_N_LIST, tol: float = 1e-12) -> list[CorrelationSeries]:
    """Independent :func:`compute_series` per grid point, input order preserved.

    An invalid ``n_list`` or ``tol`` raises the :func:`check_sizes` error
    before any point runs.  A failure at one point is recorded in that
    point's metadata (empty rows, ``metadata["error"]``) without aborting the
    rest.  Parallelism is capped by the XYNESS_THREADS environment variable
    (default: serial); results do not depend on the execution schedule.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("grid must be nonempty")
    n_list = check_sizes(n_list, tol)

    def run(p: ModelParams) -> CorrelationSeries:
        try:
            return compute_series(p, n_list=n_list, tol=tol)
        except Exception as exc:  # noqa: BLE001 - failure isolation per point
            return CorrelationSeries(
                params=p,
                rows=(),
                fit=None,
                bound=None,
                metadata={"error": f"{type(exc).__name__}: {exc}", "tol": float(tol)},
            )

    workers = _worker_count()
    if workers == 1 or len(grid) == 1:
        return [run(p) for p in grid]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, grid))
