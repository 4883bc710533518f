"""Underflow-safe determinants, Pfaffians and singular values.

The correlation values this package produces shrink like exp(rate * n) and
leave the double-precision range long before the truncation sizes of
interest, so determinants and Pfaffians are carried in a log-magnitude plus
unit-phase representation (:class:`LogScalar`).

Two Pfaffian routines share the skew-symmetric Parlett-Reid elimination: each
2x2 step takes the pivot A[k, k+1], accumulates it in log scale, and gives the
trailing matrix a skew rank-2 update.

* :func:`nested_log_pfaffians` eliminates without pivoting, in natural block
  order.  Eliminating rows k, k+1 leaves the leading corners of the trailing
  matrix as the Schur complements of the leading corners of the input, so the
  running pivot product is the Pfaffian of *every* leading 2k x 2k corner:
  one O(N^3) pass serves all nested truncation sizes.  The pass is blocked
  after Wimmer, "Algorithm 923" (ACM TOMS 38(4), 2012): inside a panel of
  ``PANEL_STEPS`` block steps only the two pivot rows are brought up to date,
  from the panel's accumulated update vectors, and the trailing matrix then
  receives one GEMM-based skew rank-2m update.  Without pivoting a small
  pivot can lose accuracy; callers gate its values (the pipeline compares
  them against the determinant) and report the smallest relative pivot.
* :func:`pfaffian` uses full pivoting: at each step the largest-magnitude
  entry of the trailing submatrix is brought to the super-diagonal position
  by a permutation congruence (each transposition flips the Pfaffian's sign).
  Magnitude ordering preserves the relative accuracy of the accumulated log
  whatever the entries, at the price of one Python-level step, with a
  trailing-matrix ``argmax``, per pivot and per size.  It is the reference
  and the fallback for sizes the nested pass cannot serve.

Every routine works in the input's arithmetic: a real matrix, such as the
real-gauge truncations of :func:`toeplitz.assemble`, is factored in real
arithmetic (LAPACK's d-routines, real Parlett-Reid updates) and its phases
are exactly +-1; a complex matrix is factored in complex arithmetic.

Both Pfaffian routines reject input with max|M + M^T|/2 > 1e-10 * max|M|, a
fixed check of outside input (the truncations are skew bit for bit), and
eliminate the skew part (M - M^T)/2.
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


def _check_square_finite(M: np.ndarray, name: str) -> np.ndarray:
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} expects a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name}: non-finite entries")
    return M


def log_det(M: np.ndarray) -> LogScalar:
    """Determinant of a dense matrix in log representation.

    LU factorization with partial pivoting (LAPACK, via numpy's slogdet):
    the log magnitudes of the diagonal factors accumulate without underflow
    and the pivot-permutation sign folds into the phase.  An exactly
    singular input yields ``log_abs = -inf``.
    """
    M = _check_square_finite(M, "log_det")
    sign, logabs = np.linalg.slogdet(M)
    if sign == 0:
        return LogScalar(-math.inf)
    return LogScalar(float(logabs), complex(sign))


def _check_skew(M: np.ndarray) -> float:
    """max|M|, after checking max|M + M^T|/2 <= 1e-10 max|M|."""
    scale = float(np.max(np.abs(M)))
    limit = 1e-10 * scale
    asym = 0.5 * float(np.max(np.abs(M + M.T)))
    if asym > limit:
        raise ValueError(
            f"matrix is not skew-symmetric: max|M + M^T|/2 = {asym:.3e} > {limit:.3e}"
        )
    return scale


#: block steps per panel of :func:`nested_log_pfaffians`
PANEL_STEPS = 32


@dataclass(frozen=True)
class NestedPfaffians:
    """Pfaffians of the leading 2k x 2k corners, k = 1 .. dim // 2.

    ``log_abs[k - 1]`` and ``phase[k - 1]`` belong to the corner with k block
    rows.  From an exact zero pivot on, ``log_abs`` reads ``-inf``: that
    corner's Pfaffian is zero, and the larger ones are out of this route's
    reach.  ``min_pivot`` is the smallest |pivot| / max|entry| met (0 after
    a zero pivot), the measure of how far the unpivoted pass strayed from
    the magnitude ordering of full pivoting.
    """

    log_abs: np.ndarray
    phase: np.ndarray
    min_pivot: float

    def corner(self, k: int) -> LogScalar:
        if self.log_abs[k - 1] == -math.inf:
            return LogScalar(-math.inf)
        return LogScalar(float(self.log_abs[k - 1]), complex(self.phase[k - 1]))


def nested_log_pfaffians(M: np.ndarray) -> NestedPfaffians:
    """Pfaffians of every leading 2k x 2k corner of M from one elimination.

    Unpivoted, blocked Parlett-Reid elimination (see the module notes); the
    Pfaffian of the corner with k block rows is the product of the first k
    pivots.  Costs about as much as one LU factorization of M.

    Parameters
    ----------
    M : ndarray
        Square matrix, skew-symmetric within the module notes' tolerance;
        checking M checks every corner.

    Raises
    ------
    ValueError
        On non-finite entries or a skew-symmetry violation.
    """
    M = _check_square_finite(M, "nested_log_pfaffians")
    dim = M.shape[0]
    scale = _check_skew(M) if dim else 0.0
    dtype = np.result_type(M, float)
    if dim < 2:
        return NestedPfaffians(np.zeros(0), np.ones(0, dtype=dtype), math.inf)

    A = np.asarray(M - M.T, dtype=dtype)  # a fresh array: scaled in place
    A *= 0.5
    end = dim - dim % 2
    pivots = []
    for k0 in range(0, end, 2 * PANEL_STEPS):
        k1 = min(k0 + 2 * PANEL_STEPS, end)
        # the panel's skew rank-2 updates so far: A_now = A + U W^T - W U^T on
        # rows and columns k0 onward (column s is zero above row 2s + 2)
        U = np.zeros((dim - k0, (k1 - k0) // 2), dtype=A.dtype, order="F")
        W = np.zeros_like(U)
        for s in range(U.shape[1]):
            r = 2 * s
            # up-to-date rows k, k + 1 of A_now, columns k + 1 onward
            rows = (
                A[k0 + r : k0 + r + 2, k0 + r + 1 :]
                + U[r : r + 2, :s] @ W[r + 1 :, :s].T
                - W[r : r + 2, :s] @ U[r + 1 :, :s].T
            )
            c = rows[0, 0]
            pivots.append(c)
            if c == 0.0:
                return _nested_result(pivots, dim // 2, scale)
            U[r + 2 :, s] = rows[0, 1:] / c
            W[r + 2 :, s] = -rows[1, 1:]
        # one skew rank-2m update of the trailing matrix
        S = U[k1 - k0 :] @ W[k1 - k0 :].T
        trailing = A[k1:, k1:]
        trailing += S
        trailing -= S.T
    return _nested_result(pivots, dim // 2, scale)


def _nested_result(pivots: list, steps: int, scale: float) -> NestedPfaffians:
    piv = np.array(pivots)
    mag = np.abs(piv)
    log_abs = np.full(steps, -math.inf)
    phase = np.ones(steps, dtype=piv.dtype)
    with np.errstate(divide="ignore"):  # log 0 = -inf marks a zero pivot
        log_abs[: piv.size] = np.cumsum(np.log(mag))
    phase[: piv.size] = np.cumprod(piv / np.where(mag > 0.0, mag, 1.0))
    # scale = 0 only for the zero matrix, whose first pivot is 0
    return NestedPfaffians(log_abs, phase, float(mag.min()) / scale if scale else 0.0)


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
    M = _check_square_finite(M, "pfaffian")
    n = M.shape[0]
    if n == 0:
        return LogScalar(0.0)  # Pf of the empty matrix is 1
    _check_skew(M)
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
    M = _check_square_finite(M, "pfaffian_brute")
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
    """
    M = _check_square_finite(M, "singular_values")
    return np.linalg.svd(M, compute_uv=False)[::-1].copy()
