"""Truncated block Toeplitz matrices built from a BlockSequence.

The truncation with n block rows is the dense 2n x 2n matrix whose (i, j)
block is a_{i-j}.  The blocks satisfy a_{-x} = -a_x^T bit for bit by
construction (:mod:`xyness.fourier`), so the truncation is skew-symmetric,
which makes its Pfaffian meaningful, without a check at run time.  The
operator norm of any truncation is bounded by the essential supremum of the
symbol's largest singular value.

The blocks come in the real gauge of :mod:`xyness.fourier`, so
:func:`assemble` returns the real matrix R = D_n Omega(n) D_n, where D_n
applies D = diag(e^{-i*pi/4}, e^{i*pi/4}) on every site.  D_n is unitary
with det D_n = 1: R has Omega(n)'s Pfaffian, determinant and singular
values.  :func:`dump_matrix` undoes D_n and writes Omega(n) itself.

In this gauge every block has equal diagonal entries, Im app[x], so the
truncation also has a reflection symmetry: with J the exchange matrix of its
size, J R J = -R bit for bit.  This is the skew form of the even/odd
splitting of centrosymmetric matrices (Cantoni & Butler, Linear Algebra
Appl. 13, 1976).  The orthogonal Q = [[I, I], [J_n, -J_n]]/sqrt(2) brings R
to [[0, X], [-X^T, 0]] with the n x n X = R_11 - R_12 J_n of
:func:`fold`.  So R's singular values are X's, each counted twice,
|det R| = det(X)^2 and |Pf R| = |det X|: the SVD and the LU of R can run on
X, with 8x fewer flops.

:func:`folded` gathers X without R.  Entry (r, s) = (2i+a, 2j+b) is
R[r, s] - R[r, 2n-1-s], and 2n-1-s = 2(n-1-j) + 1-b, so each parity class
of X is a Toeplitz minus a Hankel matrix of single entries of the stored
blocks B_x = seq.blocks[x + N - 1],

    X[a::2, b::2] = T - H,  T[i, j] = B_{i-j}[a, b],  H[i, j] = B_{i+j-(n-1)}[a, 1-b],

both read as strided views of the blocks, as are the Toeplitz classes
R[a::2, b::2] that :func:`assemble` fills.  Each entry is the difference of
the same two block entries as in fold(assemble(n)), so the two agree byte
for byte.

Over the whole of X, with alpha_x = Im app[x] and c_x = -apm[x-1], the
(0, 0) and (0, 1) entries of block x, and pi = (0, n-1, 1, n-2, 2, ...),
the same entries are

    X[i, j] = (-1)^j * (alpha[pi_i - pi_j] - c[pi_i + pi_j - (n-1)]),

because alpha_{-x} = -alpha_x and the (1, 0) entry of block x is -c_{-x}.
In matrix form X = P (T_n(alpha) - H_n) P^T S, with the skew Toeplitz
T_n(alpha)[k, l] = alpha_{k-l}, the Hankel H_n[k, l] = c_{k+l-(n-1)}, P
the permutation pi and S = diag((-1)^j): a fixed signed permutation of
T_n(alpha) - H_n, with its singular values and |det|.  The equality holds
value for value, not byte for byte: a sign flip of an exact zero
difference gives -0.0 where R's entries give +0.0.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .fourier import BlockSequence
from .model import ModelParams, mu_sup


def assemble(n: int, seq: BlockSequence) -> np.ndarray:
    """Dense real ``(2n, 2n)`` truncation of ``n`` block rows from ``seq``.

    The matrix is in the real gauge (module notes).  The leading 2m x 2m
    corner equals ``assemble(m, seq)`` bit-for-bit for every m <= n.

    Raises
    ------
    ValueError
        If ``n < 1`` or ``seq.n_max < n``.
    """
    _check_size(n, seq)
    R = np.empty((2 * n, 2 * n))
    for a, b in np.ndindex(2, 2):
        # entry (2i+a, 2j+b) is entry (a, b) of block i - j
        R[a::2, b::2] = _diagonals(seq, a, b, seq.n_max - 1, (n, n), -1)
    return R


def _diagonals(seq: BlockSequence, a: int, b: int, first: int, shape: tuple, step: int):
    """Read-only view M[i, j] = seq.blocks[first + i + step * j, a, b], no copy.

    step = -1 makes M a Toeplitz and step = +1 a Hankel matrix of the
    blocks' (a, b) entries, with strides read off those entries, whatever
    the layout of ``blocks``.  ``as_strided`` checks no bounds; every index
    stays in [0, 2N-2], N = seq.n_max, because 1 <= n <= N
    (:func:`_check_size`).  :func:`assemble` reads i - j + N - 1 with
    0 <= i, j <= n - 1, in [N-n, N+n-2]; :func:`folded` reads a subset of
    those, and the Hankel index i + j + N - n with 2i + a and 2j + b at most
    n - 1, so 0 <= i + j <= n - 1 and the index lies in [N-n, N-1].
    """
    entries = seq.blocks[:, a, b]
    stride = entries.strides[0]
    return as_strided(entries[first:], shape, (stride, step * stride), writeable=False)


def _check_size(n: int, seq: BlockSequence) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if seq.n_max < n:
        raise ValueError(f"sequence holds n_max={seq.n_max} < requested n={n}")


def folded(n: int, seq: BlockSequence) -> np.ndarray:
    """The n x n fold of the ``n``-block truncation, gathered without R.

    Equals ``fold(assemble(n, seq))`` byte for byte: each entry is the same
    difference of the same two block entries (module notes).

    Raises
    ------
    ValueError
        If ``n < 1`` or ``seq.n_max < n``.
    """
    _check_size(n, seq)
    N = seq.n_max
    X = np.empty((n, n))
    for a, b in np.ndindex(2, 2):
        part = X[a::2, b::2]
        T = _diagonals(seq, a, b, N - 1, part.shape, -1)
        H = _diagonals(seq, a, 1 - b, N - n, part.shape, 1)
        np.subtract(T, H, out=part)
    return X


def fold(R: np.ndarray) -> np.ndarray:
    """The n x n X = R_11 - R_12 J_n of a 2n x 2n truncation R (module notes).

    R_11 and R_12 are R's upper-left and upper-right n x n quadrants and J_n
    reverses the column order.  Q^T R Q = [[0, X], [-X^T, 0]] holds because
    J R J = -R: the (i, j) block of J R J is b_{j-i} with both of its
    indices reversed, which is b_{j-i}^T with its diagonal entries swapped.
    The blocks are equal-diagonal in the real gauge, and R is skew by
    construction, b_{j-i}^T = -b_{i-j}, so that block is -b_{i-j} bit for
    bit.  Neither property is checked here; both belong to the construction
    of the blocks.  The reflection is about R's own centre, so the fold of a
    leading corner is not a corner of the fold of R.
    """
    n = R.shape[0] // 2
    return R[:n, :n] - R[:n, n:][:, ::-1]


def symbol_norm(p: ModelParams) -> float:
    """Largest singular value of the symbol, maximized over the circle.

    The largest singular value at angle xi is tanh(beta_r*mu(xi)/2) (the
    identity is verified independently in the model tests), and mu peaks at
    mu_sup = 1 + |lam| at xi in {0, pi}, so the supremum is
    tanh(beta_r*mu_sup/2) in closed form.  Strictly below 1 for finite
    temperatures, though it rounds to 1 once beta_r*mu_sup/2 exceeds ~19.
    """
    return math.tanh(0.5 * p.beta_r * mu_sup(p))


def dump_matrix(entries: np.ndarray, path) -> None:
    """Raw binary dump of Omega(n): row-major (re, im) float64 pairs, little-endian.

    ``entries`` is a real-gauge truncation R from :func:`assemble`; the dump
    is D_n^{-1} R D_n^{-1}, which multiplies the entries of the diagonal
    positions of each 2x2 block by i and -i and keeps the off-diagonal ones.

    Raises
    ------
    ValueError
        If ``entries`` is complex, so not a real-gauge truncation.
    """
    if np.iscomplexobj(entries):
        raise ValueError("dump_matrix expects the real truncation from assemble")
    data = entries.astype("<c16")
    for a, sign in ((0, 1.0), (1, -1.0)):
        site = data[a::2, a::2]
        site.imag = sign * site.real
        site.real = 0.0
    with open(path, "wb") as fh:
        fh.write(data.tobytes())
