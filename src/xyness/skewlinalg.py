"""Underflow-safe determinants, Pfaffians and singular values.

The correlation values this package produces shrink like exp(rate * n) and
leave the double-precision range long before the truncation sizes of
interest, so determinants and Pfaffians are carried in a log-magnitude plus
unit-phase representation (:class:`LogScalar`).

The pivoted :func:`pfaffian` is the skew-symmetric Parlett-Reid elimination
with full pivoting: at each 2x2 step the largest-magnitude entry of the
trailing submatrix is brought to the super-diagonal position by a
permutation congruence (each transposition flips the Pfaffian's sign), the
pivot is accumulated in log scale, and the trailing matrix gets a skew
rank-2 update.  Magnitude ordering preserves the relative accuracy of the
accumulated log whatever the entries, at the price of one Python-level step,
with a trailing-matrix ``argmax``, per pivot.  The correlation pipeline does
not call it: there |Pf R| = |det X| for the n x n fold X of
:mod:`xyness.toeplitz`, and :func:`log_det` of X gives it.  It stays as the
independent Pfaffian route that ``selftest`` and the tests compare against,
with :func:`pfaffian_brute` as its own oracle at small sizes.

Every routine works in the input's arithmetic: a real matrix, such as the
real-gauge truncations of :func:`toeplitz.assemble`, is factored in real
arithmetic (LAPACK's d-routines, real Parlett-Reid updates) and its phases
are exactly +-1; a complex matrix is factored in complex arithmetic.

:func:`pfaffian` rejects input with max|M + M^T|/2 > 1e-10 * max|M|, a fixed
check of outside input (the truncations are skew bit for bit), and
eliminates the skew part (M - M^T)/2.

Every routine rejects a non-square input up front, and raises
``ValueError("<name>: non-finite entries")`` on a NaN or infinite entry.
:func:`pfaffian` and :func:`pfaffian_brute` scan for those entries before
they start.  :func:`log_det` and :func:`singular_values` call LAPACK at once
and scan the input only when the result is bad: when the SVD raises, or
either returns a non-finite value (an exact zero's log is one).  Of finite
inputs, only an exactly singular one reaches the scan.  The scan stays off
the good path because each NumPy pass over a large array releases the
interpreter lock and takes it again, and beside a thread that runs Python,
taking it again waits up to the switch interval (5 ms).  Beside a
pure-Python thread, at one BLAS thread, the scan's two passes stretched the
n = 512 SVD of the fold from 37 ms (the bare LAPACK call) to 51 ms (medians
of 15 calls).  The LAPACK call itself crosses the lock at most once: NumPy
2.4 releases it around an SVD of more than 500 columns, and not around
slogdet.  The price is that an infinite entry reaches LAPACK before the
scan, and OpenBLAS may print ``** On entry to DLASCL parameter number 4 had
an illegal value`` to stderr before the error is raised.  No CLI path
passes such a matrix: the coefficient engine refuses non-finite
coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LogScalar:
    """A complex number as (log magnitude, unit phase).

    ``log_abs = -inf`` encodes an exact zero, in which case ``phase`` is
    meaningless (kept at 1).  ``to_value`` is exact up to ~|log_abs| * eps
    relative (the irreducible exp(log(x)) error of the representation): far
    below 1e-14 at working magnitudes, ~1e-13 at the extremes of the double
    range.
    """

    log_abs: float
    phase: complex = 1.0 + 0.0j

    def to_value(self) -> complex:
        if self.log_abs == -math.inf:
            return 0.0 + 0.0j
        return math.exp(self.log_abs) * self.phase

    @property
    def is_zero(self) -> bool:
        return self.log_abs == -math.inf


def _check_square(M: np.ndarray, name: str) -> np.ndarray:
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} expects a square matrix, got shape {M.shape}")
    return M


def _check_finite(M: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name}: non-finite entries")


def log_det(M: np.ndarray) -> LogScalar:
    """Determinant of a dense matrix in log representation.

    LU factorization with partial pivoting (LAPACK, via numpy's slogdet):
    the log magnitudes of the diagonal factors accumulate without underflow
    and the pivot-permutation sign folds into the phase.  An exactly
    singular input yields ``log_abs = -inf``.

    Raises
    ------
    ValueError
        On a non-square input, or a non-finite entry (module notes).
    """
    M = _check_square(M, "log_det")
    # slogdet raises no LinAlgError on a square matrix, and only a non-finite
    # M makes it divide by zero or meet an invalid value
    with np.errstate(divide="ignore", invalid="ignore"):
        sign, logabs = np.linalg.slogdet(M)
    if not math.isfinite(logabs):  # -inf for an exact zero, NaN or inf from a non-finite M
        _check_finite(M, "log_det")
    if sign == 0:
        return LogScalar(-math.inf)
    return LogScalar(float(logabs), complex(sign))


def pfaffian(M: np.ndarray) -> LogScalar:
    """Pfaffian of a skew-symmetric matrix in log representation.

    Parameters
    ----------
    M : ndarray
        Square matrix, skew-symmetric within the module notes' tolerance;
        its skew part is eliminated.  Odd dimension returns an exact zero.

    Raises
    ------
    ValueError
        On non-finite entries or a skew-symmetry violation.
    """
    M = _check_square(M, "pfaffian")
    _check_finite(M, "pfaffian")
    n = M.shape[0]
    if n == 0:
        return LogScalar(0.0)  # Pf of the empty matrix is 1
    limit = 1e-10 * float(np.max(np.abs(M)))
    asym = 0.5 * float(np.max(np.abs(M + M.T)))
    if asym > limit:
        raise ValueError(
            f"matrix is not skew-symmetric: max|M + M^T|/2 = {asym:.3e} > {limit:.3e}"
        )
    if n % 2 == 1:
        return LogScalar(-math.inf)

    A = 0.5 * (M - M.T).astype(np.result_type(M, float))
    log_abs = 0.0
    phase = 1.0 + 0.0j
    for k in range(0, n - 2, 2):
        # full pivot: largest |A[i, j]| in the trailing submatrix
        sub = np.abs(A[k:, k:])
        i0, j0 = np.unravel_index(int(np.argmax(sub)), sub.shape)
        if sub[i0, j0] == 0.0:
            return LogScalar(-math.inf)
        i0 += k
        j0 += k
        if i0 > j0:
            i0, j0 = j0, i0
        # i0 < j0 here, so j0 >= k + 1 and the two swaps below cannot collide
        if i0 != k:
            A[[k, i0], :] = A[[i0, k], :]
            A[:, [k, i0]] = A[:, [i0, k]]
            phase = -phase
        if j0 != k + 1:
            A[[k + 1, j0], :] = A[[j0, k + 1], :]
            A[:, [k + 1, j0]] = A[:, [j0, k + 1]]
            phase = -phase
        c = A[k, k + 1]
        log_abs += math.log(abs(c))
        phase *= c / abs(c)
        tau = A[k, k + 2 :] / c
        col = A[k + 2 :, k + 1]
        A[k + 2 :, k + 2 :] += np.outer(tau, col) - np.outer(col, tau)
    c = A[n - 2, n - 1]
    if c == 0.0:
        return LogScalar(-math.inf)
    log_abs += math.log(abs(c))
    phase *= c / abs(c)
    return LogScalar(log_abs, phase)


def pfaffian_brute(M: np.ndarray) -> complex:
    """Pfaffian by expansion over perfect matchings (reference, dim <= ~12).

    Recursion along the first row: Pf(A) = sum_j (-1)^j A[0, j] Pf(A with
    rows/columns {0, j} removed).  Exponential cost; used only as the
    independent oracle for the elimination-based routine.
    """
    M = _check_square(M, "pfaffian_brute")
    _check_finite(M, "pfaffian_brute")
    n = M.shape[0]
    if n % 2 == 1:
        return 0.0 + 0.0j
    A = np.asarray(M, dtype=complex)

    def rec(B: np.ndarray) -> complex:
        m = B.shape[0]
        if m == 0:
            return 1.0 + 0.0j
        if m == 2:
            return B[0, 1]
        total = 0.0 + 0.0j
        for j in range(1, m):
            keep = [i for i in range(1, m) if i != j]
            total += (-1.0) ** (j - 1) * B[0, j] * rec(B[np.ix_(keep, keep)])
        return total

    return complex(rec(A))


def singular_values(M: np.ndarray) -> np.ndarray:
    """All singular values of a square matrix, sorted ascending.

    LAPACK SVD: the computed values are exact singular values of M + E with
    ||E|| = O(ulp * ||M||).

    Raises
    ------
    ValueError
        On a non-square input, or a non-finite entry (module notes).
    LinAlgError
        If LAPACK's SVD of a finite M does not converge.
    """
    M = _check_square(M, "singular_values")
    try:
        sv = np.linalg.svd(M, compute_uv=False)
    except np.linalg.LinAlgError:
        _check_finite(M, "singular_values")
        raise
    if not np.all(np.isfinite(sv)):
        _check_finite(M, "singular_values")
    return sv[::-1].copy()
