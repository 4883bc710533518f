"""Block Fourier coefficients of the symbol by panel quadrature.

The scalar coefficient sequences are

    app[x] = (1/2pi) Int_0^{2pi} sign(kappa)*phi_delta * e^{-i*x*xi} dxi
    apm[y] = (1/2pi) Int_0^{2pi} (cos(xi)-lam-i*gamma*sin(xi))/mu * phi_beta * e^{-i*y*xi} dxi

and the paper's 2x2 blocks are

    a_x = [[ app[x],    -apm[x-1] ],
           [ apm[-x-1], -app[x]   ]].

The diagonal weight sign(kappa)*phi_delta is odd on the circle, which forces
app[0] = 0, app[-x] = -app[x], and purely imaginary app[x]; apm is real.
The sequence stores app[-x] by that mirror; the tests check both sides
against a 30-digit mpmath quadrature that integrates either sign.

The blocks are stored in the real gauge: conjugated by the per-site unitary
D = diag(e^{-i*pi/4}, e^{i*pi/4}), which has det D = 1,

    D a_x D = [[ Im app[x],  -apm[x-1] ],
               [ apm[-x-1],  Im app[x] ]],

a real matrix.  a_0's diagonal is set to exactly 0 (app[0] = -app[0]), so
every truncation D_n Omega(n) D_n (D_n = D on each site) is real and
skew-symmetric bit for bit, with Omega(n)'s Pfaffian, determinant and
singular values: the linear algebra runs in real arithmetic.  The dropped
parts are Re app, Im app[0] and Im apm.  The engine never integrates Re
app and Im apm: it computes Im app and Re apm alone, after checking at
every Gauss node that the parities which make the dropped parts vanish
hold exactly.  Im app[0] is a sum against sin 0 = 0, so it is 0 by
construction.  The blocks are the one home of the coefficients: app[x] =
1j * blocks[x+N-1, 0, 0] and apm[y] = -blocks[y+N, 0, 1], N = n_max.

Every coefficient of a sequence comes from one shared-node engine: a single
adaptive refinement over panels split at the zeros of kappa and mu and capped
at _PERIODS_PER_PANEL periods of the highest frequency.  The panel set
depends on N = n_max, so a coefficient computed at two values of N can
differ by rounding: by up to 2.3e-15 between N = 128 and N = 512 at
(0.5, 0.3, 1, 3).  So :func:`build_block_sequence` is the one public route
to the coefficients, and a truncation takes all of its blocks from one
sequence.

The panels cover [0, pi] only, by the fold identity, which holds for any f:

    Int_0^{2pi} f e^{-ik xi} dxi
        = Int_0^pi [(f(xi) + f(-xi)) cos(k xi) - i (f(xi) - f(-xi)) sin(k xi)] dxi.

The two frequency-independent weights come from one call of
``model._symbol_weights`` on the Gauss nodes xi and their mirrors -xi, so one
node serves both, and mu is evaluated once per node.  Their exact parities
come from the model: np.sin is exactly odd, and ``model._cos_minus``, which
gives cos(xi) - lam in mu and in the direction and cos(xi) - lam/c in kappa,
reads xi through |xi| and so is exactly even.  So at every node pair the PP
weight is odd, the PM weight's real part even and its imaginary part odd.
The engine checks this exactly, as
f(xi) + f(-xi) == 0 for PP, and refuses a weight with any parity defect,
however small, with a QuadratureError naming the component.  Only three
weighted vectors are then left: PP's odd part, PM's even real part and
PM's odd imaginary part.  The cosine and sine sums run over k >= 0 only, so
the negative frequencies of apm come from the same sums as the positive
ones; each panel's sums for every frequency are one batched real matrix
product with a factored phase table.

A panel is accepted only when every coefficient passes the proportional
error test on it, so no coefficient gets a weaker guarantee than an
adaptive quadrature of its own would give it.  A folded panel stands for
two circle panels: it gets their share of the error budget, and the panel
budget counts it twice, so the budget runs out at the same refinement as
on the full circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, _symbol_weights
from .quadrature import _MAX_ENTRIES, _NODES, _WEIGHTS, QuadratureError, _refine, _split_edges
from .quadrature import adaptive_panels  # noqa: F401  (perfbench/tracer.py wraps this binding)

#: base panels are split to at most this many periods of the highest frequency
_PERIODS_PER_PANEL = 12.0
#: frequencies per row of the factored phase table; a power of two, since
#: the table is built by doubling
_PHASE_BLOCK = 64
#: panels per batched product, which bounds the phase tables to a few MiB
_PANEL_CHUNK = 128
#: absolute quadrature tolerance of every coefficient, as ``spectral.LIMIT_TOL`` of every mean
COEFF_TOL = 1e-12


@dataclass(frozen=True)
class BlockSequence:
    """Fourier coefficient blocks a_x for |x| <= n_max - 1, in a read-only array.

    Exactly the range a truncation of N = n_max block rows consumes.
    ``blocks`` (shape (2N-1, 2, 2)) holds D a_x D, the real gauge of the
    module notes, at index x + N - 1.  The paper's coefficients read back
    exactly: app[x] = 1j * blocks[x+N-1, 0, 0] for x in [-(N-1), N-1]
    (negative x filled by the oddness symmetry) and apm[y] = -blocks[y+N,
    0, 1] for y in [-N, N-2].  ``err_estimate`` is the largest
    per-coefficient truncation estimate of the refinement, at most
    :data:`COEFF_TOL`; it leaves out the engine's rounding (README).
    """

    n_max: int
    blocks: np.ndarray
    err_estimate: float


def breakpoints(p: ModelParams) -> np.ndarray:
    """Zeros of kappa in [0, 2*pi), sorted: quadrature panel boundaries.

    kappa factors as 2*sin(xi)*(lam - (1-gamma^2)*cos(xi)), so the zeros are
    {0, pi} plus, when |lam| <= 1 - gamma^2, the two roots of
    cos(xi) = lam/(1-gamma^2).  These include every zero of mu (critical
    parameters): at gamma = 0 they are the roots of cos(xi) = lam, otherwise
    0 or pi.  They also hold the minimum of mu, the stationary point of
    mu^2 in cos(xi), so they are the panel edges of every symbol mean as
    well (:func:`spectral.avram_parter_limit`, :func:`bounds.theorem_bound`).
    """
    pts = [0.0, math.pi]
    ratio = p.lam / (1.0 - p.gamma**2)
    if abs(ratio) <= 1.0:
        x0 = math.acos(ratio)
        pts.extend([x0, math.tau - x0])
    # acos is exactly 0 or pi at |ratio| = 1, else >= 1.49e-8 from both: only
    # exact duplicates occur (np.unique would import numpy.ma on first call)
    return np.array(sorted({x % math.tau for x in pts}))


def _doubled(xi: np.ndarray, step: int, count: int) -> np.ndarray:
    """e^{-i*step*r*xi} for 0 <= r < count, along a new first axis.

    Built by doubling: rows m .. 2m-1 are rows 0 .. m-1 times
    e^{-i*step*m*xi} for m = 1, 2, 4, ..., so it takes about log2(count)
    exponentials per node where one per entry would take count, and each
    entry is at most that many roundings from its own exponential.  For a
    power-of-two ``step`` every argument step*m*xi is exact.
    """
    table = np.empty((count,) + xi.shape, dtype=complex)
    table[0] = 1.0
    m = 1
    while m < count:
        n = min(m, count - m)
        np.multiply(table[:n], np.exp(-1j * (step * m) * xi), out=table[m : m + n])
        m *= 2
    return table


def _gate(which: str, *defects: np.ndarray) -> None:
    """Raise unless each part of weight ``which`` ("PP"/"PM") the real gauge drops is exactly 0."""
    worst = max(float(np.max(np.abs(d))) for d in defects)
    if not worst == 0.0:
        raise QuadratureError(
            f"{which} weight breaks the real gauge at a Gauss node pair", worst
        )


def _panel_sums(lo: np.ndarray, hi: np.ndarray, p: ModelParams, n_max: int, out: np.ndarray) -> None:
    """Gauss-Legendre sums of the kept coefficient parts on folded panels.

    Each panel [lo, hi] lies in [0, pi] and stands for itself and its mirror
    [-hi, -lo].  ``out`` (panels, 3N - 1), N = n_max, receives Im app[0 ..
    N-1] (0 when delta = 0), then Re apm[-N .. N-2].  With E = f(xi) + f(-xi)
    and O = f(xi) - f(-xi) for either weight f, both read from one call of
    ``model._symbol_weights`` on the nodes and their mirrors, the fold
    identity gives the coefficient at frequency s*k (s = +-1, k >= 0) as

        C_k(E) + i*s*N_k(O),  C_k(v) = sum v cos(k xi),  N_k(v) = -sum v sin(k xi).

    The PP weight is odd and the PM weight's real part even, its imaginary
    part odd, so Im app[k] = N_k(O) and Re apm[s*k] = C_k(Re E) - s*N_k(Im O),
    and the parts the gauge drops vanish.  These parities are checked
    exactly at every node pair, E = 0 for PP, Im E = 0 and Re O = 0 for PM,
    and a defect raises :class:`QuadratureError` naming the component.
    Every sum runs over k >= 0, so one set of rows serves both signs.

    C and N come from the factored phase e^{-i(k0+k)xi} = e^{-i*k0*xi} *
    e^{-i*k*xi}, 0 <= k < _PHASE_BLOCK, k0 a multiple of _PHASE_BLOCK.  As
    real vectors over the (Re, Im) pairs of the nodes, the row v*conj(z0)
    against the :func:`_doubled` table z of e^{-i*k*xi} gives C(v) and the
    row i*v*conj(z0) gives N(v), so each panel's sums are one real
    (rows, 2*nodes) @ (2*nodes, _PHASE_BLOCK) product.  The e^{-i*k0*xi}
    rows are built by doubling from exact arguments, like the table:
    successive powers of e^{-i*_PHASE_BLOCK*xi} would compound their
    roundings over the rows.
    """
    nodes = _NODES.size
    half = 0.5 * (hi - lo)
    xi = 0.5 * (hi + lo)[:, None] + half[:, None] * _NODES[None, :]
    w = _WEIGHTS[None, :] * half[:, None]
    pp, pm = _symbol_weights(np.concatenate([xi, -xi], axis=1), p)

    def folded(f):
        return f[:, :nodes] + f[:, nodes:], f[:, :nodes] - f[:, nodes:]

    # (weighted vector, whether its row gives N rather than C)
    vectors = []
    if p.delta != 0.0:  # at delta = 0, phi_0 and so the PP weight vanish
        even, odd = folded(pp)
        _gate("PP", even)
        vectors.append((odd * w, True))
    even, odd = folded(pm)
    _gate("PM", even.imag, odd.real)
    vectors += [(even.real * w, False), (odd.imag * w, True)]

    rows = n_max // _PHASE_BLOCK + 1
    z0 = np.conj(_doubled(xi, _PHASE_BLOCK, rows)).transpose(1, 0, 2)
    factor = {False: z0, True: 1j * z0}
    left = np.empty((lo.size, len(vectors), rows, nodes), dtype=complex)
    for i, (v, is_n) in enumerate(vectors):
        np.multiply(v[:, None, :], factor[is_n], out=left[:, i])
    z = _doubled(xi, 1, _PHASE_BLOCK)
    table = z.view(float).transpose(1, 2, 0)  # (panels, 2 * nodes, _PHASE_BLOCK)
    sums = left.view(float).reshape(lo.size, -1, 2 * nodes) @ table
    *pp, c, n = sums.reshape(lo.size, len(vectors), -1).transpose(1, 0, 2)

    out[:, :n_max] = pp[0][:, :n_max] if pp else 0.0
    # apm[-N .. -1] reads k = N .. 1, apm[0 .. N-2] reads k = 0 .. N-2
    np.add(c[:, n_max:0:-1], n[:, n_max:0:-1], out=out[:, n_max : 2 * n_max])
    np.subtract(c[:, : n_max - 1], n[:, : n_max - 1], out=out[:, 2 * n_max :])


def _coefficients(n_max: int, p: ModelParams) -> tuple[np.ndarray, float]:
    """Im app[0 .. N-1], then Re apm[-N .. N-2], on one shared panel set.

    N = n_max.  Returns the (3N - 1,) real array, whose app part is 0 when
    delta = 0 (phi_0 vanishes), and the largest per-coefficient error
    estimate, which is at most :data:`COEFF_TOL`.  The panels cover [0, pi]
    only, split at ``breakpoints(p)`` there, and each one stands for itself
    and its mirror (:func:`_panel_sums`); the error test runs on the folded
    panel, whose share of the budget COEFF_TOL * 2pi is that of the two
    circle panels it stands for, and the panel budget counts it as two.
    Only the parts the real gauge keeps are integrated.  The panel arrays
    hold one column per coefficient, 3N - 1, so the memory of a refinement
    level grows as O(N * panels), within the budget ``_MAX_ENTRIES``.

    Raises
    ------
    QuadratureError
        Naming n_max if its first refinement level exceeds ``_MAX_ENTRIES``,
        the component whose weight breaks its parity at a node pair, the
        coefficient with the largest achieved error when a budget runs out,
        or the first non-finite one.
    """

    def name(column: int) -> str:
        if column < n_max:
            return f"PP[{column}]"
        return f"PM[{column - 2 * n_max}]"

    def rule(lo, hi):
        out = np.empty((lo.size, 3 * n_max - 1))
        for s in range(0, lo.size, _PANEL_CHUNK):
            part = slice(s, s + _PANEL_CHUNK)
            _panel_sums(lo[part], hi[part], p, n_max, out[part])
        return out

    max_width = _PERIODS_PER_PANEL * math.tau / n_max
    # the breakpoints are symmetric under xi -> 2pi - xi: kappa is odd, mu even
    edges = breakpoints(p)
    edges = np.append(edges[edges < math.pi], math.pi)
    # before any array of the size: the first level evaluates each base panel and
    # its halves, and _split_edges makes at most pi / max_width plus one per edge
    entries = 3 * (len(edges) + math.pi / max_width) * (3 * n_max - 1)
    if entries > _MAX_ENTRIES:
        message = f"coefficients at n_max={n_max} need {entries:.3g} panel entries, over the budget {_MAX_ENTRIES}"
        raise QuadratureError(message, math.inf)
    lo, hi = _split_edges(edges, max_width)
    try:
        values, errors = _refine(rule, lo, hi, COEFF_TOL * math.tau, math.pi, panel_cost=2)
    except QuadratureError as exc:
        if exc.column is None:
            raise
        raise QuadratureError(
            f"coefficient {name(exc.column)} did not converge: {exc.args[0]}", exc.achieved_error / math.tau
        ) from exc
    return values / math.tau, float(errors.max() / math.tau)


def build_block_sequence(n_max: int, p: ModelParams) -> BlockSequence:
    """All coefficient blocks needed for truncations up to n_max block rows.

    app[x] is computed for x = 0 .. n_max-1 and mirrored to negative x via
    the oddness symmetry; apm[y] is computed for y = -n_max .. n_max-2, all
    by one run of the shared-node engine, which integrates only the parts
    the real gauge keeps, Im app and Re apm.  Nothing is cached: every call
    integrates afresh.  The blocks are built in the real gauge of the module
    notes, where every truncation is skew-symmetric bit for bit.

    Raises
    ------
    ValueError
        If n_max < 1.
    QuadratureError
        Naming the component (PP or PM) whose weight breaks its parity at a
        Gauss node pair, so that a part the gauge drops would not vanish,
        or the failing coefficient's component and index.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    values, worst = _coefficients(n_max, p)
    half, re_apm = values[:n_max], values[n_max:]
    # at delta = 0 the mirror of the zero columns would be -0.0
    im_app = np.concatenate([-half[:0:-1], half]) if p.delta != 0.0 else np.zeros(2 * n_max - 1)

    # with these offsets apm[x-1] sits at the index of a_x, apm[-x-1] at its
    # mirror; the blocks are D a_x D, whose entries are real
    blocks = np.empty((2 * n_max - 1, 2, 2))
    blocks[:, 0, 0] = im_app
    blocks[n_max - 1, 0, 0] = 0.0  # app[0] = -app[0]: a_0's diagonal is exactly 0
    blocks[:, 1, 1] = blocks[:, 0, 0]
    blocks[:, 0, 1] = -re_apm
    blocks[:, 1, 0] = re_apm[::-1]
    blocks.setflags(write=False)
    return BlockSequence(n_max=int(n_max), blocks=blocks, err_estimate=worst)
