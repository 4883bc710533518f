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
below 1e-6 at every n or the run aborts; a fold that either route finds
exactly singular aborts the run by name.  The check is not made against
sum log sigma_i(X) from the SVD the row also runs: where the smallest
singular value sits at quadrature noise, the LU and the SVD are backward
stable for different perturbations of X and differ by far more than
rounding, while the two LUs still agree.  Where split pairs of singular
values fall fast with n, the two LUs drift apart as well, and the gate
exits 3 (ROADMAP item 1).  The paper's Pfaffian itself is checked against
log|det X| off this path, by the pivoted :func:`pfaffian` in ``selftest``
and the tests.

The sizes are independent calls, run by :func:`_run_all` on
``XYNESS_THREADS`` workers, the calling thread among them (default in
:func:`_worker_count`).  One rule sets the schedule: the calls are listed
in read order and taken from the end, and :func:`_per_size` lists them for
both LAPACK subcommands, given the steps each runs on a fold: an LU pair
(with both gates) and an SVD for :func:`compute_series`, an SVD after two
limit integrals for ``spectrum`` (:func:`xyness.cli.cmd_spectrum`).  Each
smaller size is one call that gathers its own fold and runs every step,
smallest n first; the list ends with each step on the largest fold,
gathered by the calling thread, as its own call, the SVD last.  The
n = 512 SVD alone is the critical path, and the calling thread takes it
before any other worker starts.  NumPy 2.4 releases the interpreter lock
only around an SVD of more than 500 columns, and never around slogdet, so
the other workers wait behind a gate until the calling thread has taken
its call: the n = 512 LU pair, started first on another thread, would hold
the lock and keep the calling thread out of its SVD.  That relies on
:func:`~xyness.skewlinalg.singular_values` crossing the lock once
(:mod:`xyness.skewlinalg` notes).  A failing run raises the error of the
smallest failing n at any worker count.  :func:`sweep` lists its points on
the same runner; a point run there runs its sizes inline, so pools never
nest (README gives the measured pairs).  The outputs do not depend on the
schedule: each call factors the same matrix in the same way on whichever
thread runs it.
"""

from __future__ import annotations

import contextvars
import functools
import os
import threading
from dataclasses import dataclass

import numpy as np

from .bounds import WEAK_BOUND_SLACK, BoundReport, bound_report, weak_rate
from .fourier import BlockSequence, build_block_sequence
from .model import ModelParams
from .skewlinalg import log_det, singular_values
from .skewlinalg import pfaffian  # noqa: F401 (perfbench/tracer.py wraps this binding)
from .toeplitz import assemble  # noqa: F401 (perfbench/tracer.py wraps this binding)
from .toeplitz import folded

#: default truncation sizes: powers of two padded inside the fit window
DEFAULT_N_LIST = (8, 16, 32, 64, 96, 128, 160, 192, 224, 256)


class NumericalError(RuntimeError):
    """A numerical consistency gate failed (message names the stage and n)."""


@dataclass(frozen=True)
class SeriesRow:
    n: int
    log_abs_C: float  # log|Pf Omega(n)| = log|det X| (LU of the fold X) = log|det Omega(n)| / 2
    pf_det_residual: float  # |2 log|det X J_n| - 2 log_abs_C|: the second LU route
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
    #: the coefficient blocks each row's fold was gathered from (None on failure)
    sequence: BlockSequence | None = None
    #: why a :func:`sweep` point failed, as "ExceptionType: message" (else None)
    error: str | None = None


def fit_decay(rows, n_lo: int, n_hi: int) -> FitResult:
    """Least-squares line through (n, log|C(n)|) for the :class:`SeriesRow` with n in [n_lo, n_hi].

    The slope estimates the asymptotic decay rate limsup log|C(n)|/n.
    Requires at least 4 rows inside the window.
    """
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


def check_sizes(n_list) -> list[int]:
    """``n_list`` as ints, after checking the sizes.

    Raises
    ------
    ValueError
        Unless ``n_list`` is a nonempty, strictly ascending list of positive
        integers.
    """
    n_list = list(n_list)
    try:
        sizes = [int(n) for n in n_list]
    except (OverflowError, ValueError):  # int() of an infinity or a NaN
        sizes = None
    if sizes != n_list:
        raise ValueError(f"n_list must hold integers, got {n_list}")
    if not sizes:
        raise ValueError("n_list must be nonempty")
    if any(b <= a for a, b in zip(sizes[:-1], sizes[1:])) or sizes[0] < 1:
        raise ValueError("n_list must be strictly ascending positive integers")
    return sizes


def compute_series(p: ModelParams, n_list=DEFAULT_N_LIST) -> CorrelationSeries:
    """Correlation magnitudes log|C(n)| for each n in ``n_list``.

    One block sequence is built at max(n_list), and every size gathers its
    n x n fold from it without assembling the truncation.  Each row takes
    log|C(n)| from the LU of its fold, carries the residual against the LU
    of the column-reversed fold (module notes) and the extreme singular
    values of the fold; ``series.sequence`` keeps the coefficients' error
    estimate.  The decay fit runs over the upper half of the sizes, widened
    to at least 4 of them, and is omitted for fewer than 4 sizes.  The rate
    bound is integrated to ``LIMIT_TOL``.  The sizes run on
    ``XYNESS_THREADS`` workers, the calling thread among them, on the
    schedule of :func:`_per_size` (module notes).  The rows do not depend
    on the thread count.  A caller that runs this function on
    threads of its own should set XYNESS_THREADS=1, or each call starts
    threads of its own.

    Raises
    ------
    ValueError
        If :func:`check_sizes` rejects ``n_list``, or XYNESS_THREADS is
        malformed; either before any coefficient is integrated.
    NumericalError
        If a fold is exactly singular, the residual between the two LU
        routes exceeds 1e-6 or the all-n determinant bound is violated at
        some n.
    """
    n_list = check_sizes(n_list)
    workers = _worker_count()  # read first: a malformed value raises before the quadrature
    seq = build_block_sequence(n_list[-1], p)
    _, results = _per_size(seq, n_list, (functools.partial(_lu_pair, p=p), singular_values), workers)
    rows = [
        SeriesRow(n, *lu, smin=float(sv[0]), smax=float(sv[-1]))  # each of R's singular values, once
        for n, (lu, sv) in zip(n_list, results)
    ]

    # upper half of the sizes, widened just enough for 4 rows
    start = max(0, min(len(rows) // 2, len(rows) - 4))
    return CorrelationSeries(
        params=p,
        rows=tuple(rows),
        fit=fit_decay(rows, rows[start].n, rows[-1].n) if len(rows) >= 4 else None,
        bound=bound_report(p),
        sequence=seq,
    )


def _per_size(seq: BlockSequence, n_list: list, steps: tuple, workers: int, head: tuple = ()) -> tuple:
    """The results of ``head``, and per size the results of ``steps`` on its fold.

    Each step is a function of one fold; the calls run on :func:`_run_all`
    in the order of the module notes.
    """
    *smaller, largest = n_list

    def run_steps(n):
        X = folded(n, seq)
        return [step(X) for step in steps]

    X = folded(largest, seq)
    sizes = [functools.partial(run_steps, n) for n in smaller]
    results = _run_all([*head, *sizes, *(functools.partial(step, X) for step in steps)], workers)
    split = len(head) + len(smaller)
    return results[: len(head)], [*results[len(head) : split], results[split:]]


def _lu_pair(X: np.ndarray, p: ModelParams) -> tuple:
    """log|det X| and the residual against the column-reversed LU, both gates held.

    Raises
    ------
    NumericalError
        If either LU route finds X exactly singular, the two routes differ
        by more than 1e-6 or the all-n determinant bound is violated.
    """
    n = X.shape[0]
    det, det_reversed = log_det(X), log_det(X[:, ::-1])
    if det.is_zero or det_reversed.is_zero:
        raise NumericalError(f"fold X is exactly singular at n={n}: log|det X| = -inf")
    log_abs_C = det.log_abs
    log_abs_det = 2.0 * log_abs_C
    residual = abs(2.0 * det_reversed.log_abs - log_abs_det)
    if not residual <= 1e-6:
        raise NumericalError(
            f"LU/reversed-LU cross-check failed at n={n}: residual {residual:.3e}"
        )
    wb = n * weak_rate(p)
    if not log_abs_det <= wb + WEAK_BOUND_SLACK:
        raise NumericalError(
            f"determinant bound violated at n={n}: {log_abs_det:.6e} > {wb:.6e}"
        )
    return log_abs_C, residual


#: ``.active`` is set on every thread that takes calls in :func:`_run_all`,
#: the calling thread only while it does, so a call run there runs inline
_pool_thread = threading.local()


def _blas_pinned() -> bool:
    """Whether the environment limits BLAS to one thread.

    The first of OPENBLAS_NUM_THREADS, MKL_NUM_THREADS and OMP_NUM_THREADS
    that is set decides, as each library's own variable overrides OpenMP's.
    """
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        raw = os.environ.get(var)
        if raw is not None:
            return raw.strip() == "1"
    return False


def _worker_count() -> int:
    """XYNESS_THREADS, or 1 on a pool's own thread.

    Unset, it is the usable cores when BLAS is pinned to one thread and 1
    otherwise: with BLAS threads of its own, each worker contends for the
    same cores and the pool is slower than serial (README).

    Raises
    ------
    ValueError
        If XYNESS_THREADS is set to anything but a positive integer.
    """
    if getattr(_pool_thread, "active", False):
        return 1
    raw = os.environ.get("XYNESS_THREADS")
    if raw is None:
        if not _blas_pinned():
            return 1
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:  # no sched_getaffinity on this platform
            return os.cpu_count() or 1
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"XYNESS_THREADS must be a positive integer, got {raw!r}")
    return count


def _run_all(calls: list, workers: int) -> list:
    """The results of ``calls``, each a function of no arguments, in list order.

    At one worker (or one call) the calls run in list order on the calling
    thread, and the first that raises stops the run.  Otherwise the calling
    thread and min(len(calls), workers) - 1 new threads each take the last
    call left in the list until none is: the calling thread takes its first
    call, the last in the list, before the new threads start any (module
    notes).  Each runs in a copy of the calling thread's context, on a
    thread that counts as a pool thread while it does.  Every call runs,
    and the exception of the first call in the list that raised is raised.
    """
    workers = min(len(calls), workers)
    if workers == 1:
        return [call() for call in calls]
    todo = list(enumerate(calls))
    results, errors = [None] * len(calls), {}
    gate, context = threading.Event(), contextvars.copy_context()

    def work():
        _pool_thread.active = True
        while True:
            try:
                i, call = todo.pop()  # atomic: no two threads take the same call
            except IndexError:
                return
            gate.set()
            try:
                results[i] = context.copy().run(call)
            except Exception as exc:  # noqa: BLE001 - raised once every call has run
                errors[i] = exc

    def wait_then_work():
        gate.wait()
        work()

    threads = [threading.Thread(target=wait_then_work) for _ in range(workers - 1)]
    for thread in threads:
        thread.start()
    try:
        work()
    finally:
        _pool_thread.active = False
        todo.clear()  # after an interrupt, no thread starts another call
        gate.set()
        for thread in threads:
            thread.join()
    if errors:
        raise errors[min(errors)]
    return results


def sweep(grid, n_list=DEFAULT_N_LIST) -> list[CorrelationSeries]:
    """Independent :func:`compute_series` per grid point, input order preserved.

    An invalid ``n_list`` raises the :func:`check_sizes` error before any
    point runs.  A failure at one point is recorded in that point's series
    (empty rows, ``error`` set) without aborting the rest.  Parallelism is
    capped by the XYNESS_THREADS environment variable (default in the
    module notes); with more than one point the points run in parallel,
    taken from the end of the grid, so the calling thread runs the last
    point, and each point runs its sizes inline.  Results do not depend on
    the execution schedule.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("grid must be nonempty")
    n_list = check_sizes(n_list)

    def run(p: ModelParams) -> CorrelationSeries:
        try:
            return compute_series(p, n_list=n_list)
        except Exception as exc:  # noqa: BLE001 - failure isolation per point
            error = f"{type(exc).__name__}: {exc}"
            return CorrelationSeries(params=p, rows=(), fit=None, bound=None, error=error)

    return _run_all([functools.partial(run, p) for p in grid], _worker_count())
