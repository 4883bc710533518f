"""End-to-end computation of correlation series, decay fits and sweeps.

For each truncation size n the correlation magnitude is obtained from the
Pfaffian of the assembled skew matrix, log|C(n)| = log|Pf Omega(n)|, with the
determinant recomputed independently as a cross check: 2*log|Pf| must equal
log|det| to 1e-6 at every n or the run aborts.  The Pfaffian is the primary
value (half the log-scale error accumulation of the determinant); the overall
phase is recorded but not interpreted, since only the magnitude carries
ordering-convention-independent meaning.

The truncations are nested leading corners of the largest one, so one
unpivoted elimination of that matrix (:func:`nested_log_pfaffians`) yields
the Pfaffian of every size.  Unpivoted elimination has no a-priori accuracy
guarantee, so each size's nested value must also agree with log|det| to
``NESTED_PF_DET_RTOL`` relative.  A size where it does not, or where the pass
met an exact zero pivot at or below n, is recomputed by the fully pivoted
:func:`pfaffian`.  The threshold is four orders tighter than the 1e-6 gate,
so it catches a nested value that lost accuracy the gate would let through,
and about thirty times above the largest disagreement between the two routes
measured at sizes up to 512 (3.5e-12 relative, over the reference, critical
and hot parameter sets and 40 random generic points), so on such inputs it
does not fire.  The fallback sizes and the pass's smallest relative pivot are
recorded in ``series.metadata``.
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
from .skewlinalg import log_det, nested_log_pfaffians, pfaffian, singular_values
from .toeplitz import assemble

#: default truncation sizes: powers of two padded inside the fit window
DEFAULT_N_LIST = (8, 16, 32, 64, 96, 128, 160, 192, 224, 256)

#: largest |2 log|Pf| - log|det|| / (1 + |log|det||) accepted from the nested
#: pass; beyond it the size falls back to the pivoted Pfaffian
NESTED_PF_DET_RTOL = 1e-10


class NumericalError(RuntimeError):
    """A numerical consistency gate failed (message names the stage and n)."""


@dataclass(frozen=True)
class SeriesRow:
    n: int
    log_abs_C: float  # log|Pf Omega(n)|
    log_abs_det: float
    pf_det_residual: float  # |2*log|Pf| - log|det||
    smin: float
    smax: float
    pf_phase: complex  # convention-dependent; recorded, not interpreted


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
    #: the coefficient blocks the rows were assembled from (None on failure)
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


def compute_series(
    p: ModelParams,
    n_list=DEFAULT_N_LIST,
    tol: float = 1e-12,
    bound_tol: float = 1e-9,
    fit_window: tuple[int, int] | None = None,
) -> CorrelationSeries:
    """Correlation magnitudes log|C(n)| for each n in ``n_list``.

    One block sequence and one truncation are built at max(n_list); every
    size is its leading corner.  One nested Pfaffian pass gives every size's
    Pfaffian, with the pivoted fallback of the module notes.  Each row
    carries the Pfaffian/determinant cross-check residual and the extreme
    singular values.  The fit window defaults to the upper half of the
    available sizes; the fit is omitted when fewer than 4 rows fall inside
    the window.

    Raises
    ------
    NumericalError
        If the Pfaffian-determinant residual exceeds 1e-6 or the all-n
        determinant bound is violated at some n.
    """
    n_list = [int(n) for n in n_list]
    if not n_list:
        raise ValueError("n_list must be nonempty")
    if any(b <= a for a, b in zip(n_list[:-1], n_list[1:])) or n_list[0] < 1:
        raise ValueError("n_list must be strictly ascending positive integers")

    seq = build_block_sequence(max(n_list), p, tol)
    skew_tol = max(2.0 * seq.err_estimate, 1e-13)
    omega = assemble(max(n_list), seq).entries
    nested = nested_log_pfaffians(omega, skew_tol=skew_tol)
    rows = []
    fallback_sizes = []
    for n in n_list:
        corner = omega[: 2 * n, : 2 * n]  # equals assemble(n, seq).entries
        det = log_det(corner)
        pf = nested.corner(n)
        if not abs(2.0 * pf.log_abs - det.log_abs) <= NESTED_PF_DET_RTOL * (1.0 + abs(det.log_abs)):
            pf = pfaffian(corner, skew_tol=skew_tol)
            fallback_sizes.append(n)
        residual = abs(2.0 * pf.log_abs - det.log_abs)
        if not residual <= 1e-6:
            raise NumericalError(
                f"Pfaffian/determinant cross-check failed at n={n}: residual {residual:.3e}"
            )
        wb = weak_bound_log(n, p)
        if not det.log_abs <= wb + 1e-8:
            raise NumericalError(
                f"determinant bound violated at n={n}: {det.log_abs:.6e} > {wb:.6e}"
            )
        sv = singular_values(corner)
        rows.append(
            SeriesRow(
                n=n,
                log_abs_C=pf.log_abs,
                log_abs_det=det.log_abs,
                pf_det_residual=residual,
                smin=float(sv[0]),
                smax=float(sv[-1]),
                pf_phase=pf.phase,
            )
        )

    if fit_window is None:
        ns = [r.n for r in rows]
        # upper half of the available sizes, widened just enough for 4 rows
        start = max(0, min(len(ns) // 2, len(ns) - 4))
        fit_window = (ns[start], ns[-1])
    in_window = sum(fit_window[0] <= r.n <= fit_window[1] for r in rows)
    return CorrelationSeries(
        params=p,
        rows=tuple(rows),
        fit=_fit_rows(rows, *fit_window) if in_window >= 4 else None,
        bound=bound_report(p, bound_tol),
        metadata={
            "tol": float(tol),
            "bound_tol": float(bound_tol),
            "swapped": p.swapped,
            "coefficient_err_estimate": seq.err_estimate,
            "pfaffian_min_pivot": nested.min_pivot,
            "pfaffian_fallback_sizes": tuple(fallback_sizes),
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

    A failure at one point is recorded in that point's metadata (empty rows,
    ``metadata["error"]``) without aborting the rest.  Parallelism is capped
    by the XYNESS_THREADS environment variable (default: serial); results do
    not depend on the execution schedule.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("grid must be nonempty")

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
