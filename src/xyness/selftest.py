"""Built-in invariant suite: the acceptance checks at reduced sizes.

Each check is a plain function on data so the test suite can re-run it with
deliberately corrupted inputs (negative controls).  ``run_selftest`` wires
them together at sizes small enough for an interactive run and returns one
pass/fail record per check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import theorem_bound
from .fourier import COEFF_TOL, BlockSequence, breakpoints, build_block_sequence
from .model import ModelParams, _symbol_weights, symbol_matrices, symbol_singular_values
from .pipeline import compute_series
from .quadrature import adaptive_panels
from .skewlinalg import log_det, pfaffian, pfaffian_brute, singular_values
from .spectral import avram_parter_gap, avram_parter_limit
from .toeplitz import assemble, fold, folded, symbol_norm

#: parameter sets exercised by the full acceptance suite
ACCEPTANCE_SETS = (
    ModelParams(0.5, 0.3, 2.0, 1.0),
    ModelParams(0.5, 0.3, 1.0, 3.0),
    ModelParams(-0.4, 1.7, 2.0, 2.0),
    ModelParams(0.9, 0.0, 4.0, 1.0),
)
CRITICAL_SET = ModelParams(0.0, 0.5, 1.0, 3.0)

#: reduced-size slope margin; the full acceptance gate uses 0.01 on [64, 256]
REDUCED_SLOPE_MARGIN = 0.02


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def midpoint_grid(points: int) -> np.ndarray:
    """Uniform grid offset by half a step: stays clear of the zeros of kappa,
    where the sign(0) = 0 convention makes both singular values collapse to
    phi_beta and the closed-form pair holds only as a one-sided limit."""
    return (np.arange(points) + 0.5) * (math.tau / points)


def symbol_svd_deviation(p: ModelParams, xi: np.ndarray, matrices=None) -> float:
    """Max deviation between SVD of the symbol and the closed-form pair."""
    a = symbol_matrices(xi, p) if matrices is None else matrices
    sv = np.linalg.svd(a, compute_uv=False)  # descending along last axis
    lo, hi = symbol_singular_values(xi, p)
    expected = np.stack([hi, lo], axis=-1)
    return float(np.max(np.abs(sv - expected)))


def skew_deviation(entries: np.ndarray) -> float:
    return float(np.max(np.abs(entries + entries.T)))


def pf_det_residual(entries: np.ndarray) -> float:
    pf = pfaffian(entries)
    det = log_det(entries)
    return abs(2.0 * pf.log_abs - det.log_abs)


def fold_deviation(p: ModelParams, seq: BlockSequence) -> float:
    """Worst distance between ``seq`` and a full-circle quadrature.

    The engine integrates over [0, pi], each node serving xi and -xi; here
    app[k] and apm[k] at k in {-5, -2, -1, 0, 1, 3} are each one adaptive
    quadrature of their own integrand over the whole circle, split at the
    zeros of kappa, against the entries of ``seq`` (n_max >= 6).  The
    sequence's app[k] at negative k is the mirror -app[-k], so an even part
    of the diagonal weight shows as a deviation.  Each side is within
    ``COEFF_TOL``, so a sound fold keeps the distance within 2 * COEFF_TOL.
    """
    edges = np.append(breakpoints(p), math.tau)
    worst = 0.0
    # app[k] = 1j * blocks[k + N - 1, 0, 0] and apm[k] = -blocks[k + N, 0, 1];
    # the weights come from the model, not through the engine's binding
    app, apm = 1j * seq.blocks[:, 0, 0], -seq.blocks[:, 0, 1]
    for values, offset, part in ((app, seq.n_max - 1, 0), (apm, seq.n_max, 1)):
        for k in (-5, -2, -1, 0, 1, 3):
            ref, _ = adaptive_panels(
                lambda xi: _symbol_weights(xi, p)[part] * np.exp(-1j * k * xi),
                edges,
                COEFF_TOL * math.tau,
            )
            worst = max(worst, abs(values[k + offset] - ref / math.tau))
    return worst


def run_selftest() -> list[CheckResult]:
    """Run every check at reduced size, in order."""
    results: list[CheckResult] = []

    def record(name: str, ok: bool, detail: str):
        results.append(CheckResult(name, bool(ok), detail))

    # symbol singular values vs closed form
    xi = midpoint_grid(1024)
    dev = max(symbol_svd_deviation(p, xi) for p in ACCEPTANCE_SETS)
    record("symbol-singular-values", dev <= 1e-12, f"max dev {dev:.2e} (tol 1e-12)")

    p = ACCEPTANCE_SETS[0]
    seq = build_block_sequence(33, p)

    # the folded quadrature against full-circle integrals of its own
    dev = fold_deviation(p, seq)
    record("fold", dev <= 2.0 * COEFF_TOL, f"max dev {dev:.2e} (tol {2.0 * COEFF_TOL:.0e})")

    # skew-symmetric assembly: bit for bit, by construction of the blocks
    dev = skew_deviation(assemble(16, seq))
    record("skew-assembly", dev == 0.0, f"max dev {dev:.2e}")

    # reflection symmetry, and the fold's SVD and determinant against R's
    bitwise, sv_dev, det_dev = True, 0.0, 0.0
    for n in (8, 32):
        R = assemble(n, seq)
        X = fold(R)
        bitwise = bitwise and np.array_equal(R[::-1, ::-1], -R)
        sv = singular_values(R)
        sv_dev = max(sv_dev, float(np.max(np.abs(np.repeat(singular_values(X), 2) - sv))) / sv[-1])
        det = log_det(R).log_abs
        det_dev = max(det_dev, abs(2.0 * log_det(X).log_abs - det) / abs(det))
    record(
        "reflection-fold",
        bitwise and sv_dev <= 1e-13 and det_dev <= 1e-12,
        f"J R J = -R {'bitwise' if bitwise else 'BROKEN'}, sv dev {sv_dev:.2e}, det dev {det_dev:.2e}",
    )

    # the fold gathered from the blocks is the fold of the assembled R
    same = all(folded(n, seq).tobytes() == fold(assemble(n, seq)).tobytes() for n in (1, 7, 8, 33))
    record(
        "direct-fold",
        same,
        f"folded == fold(assemble) {'bytewise' if same else 'BROKEN'} at n = 1, 7, 8, 33",
    )

    # Pfaffian squared vs determinant, plus the brute-force oracle
    worst = 0.0
    for n in (1, 2, 4, 8, 16, 32):
        worst = max(worst, pf_det_residual(assemble(n, seq)))
    ok = worst <= 1e-6
    brute_dev = 0.0
    for n in (1, 2, 3):
        entries = assemble(n, seq)
        ref = pfaffian_brute(entries)
        val = pfaffian(entries).to_value()
        brute_dev = max(brute_dev, abs(val - ref) / abs(ref))
    record(
        "pfaffian-determinant",
        ok and brute_dev <= 1e-10,
        f"residual {worst:.2e}, brute dev {brute_dev:.2e}",
    )

    # the paper's Pfaffian, pivoted, against the fold's LU that the
    # pipeline reports as log|C(n)|
    seq128 = build_block_sequence(128, p)
    fold_dev = 0.0
    for n in (8, 32, 128):
        R = assemble(n, seq128)
        det = log_det(fold(R)).log_abs
        fold_dev = max(fold_dev, abs(pfaffian(R).log_abs - det) / abs(det))
    record("pfaffian-fold", fold_dev <= 1e-12, f"max rel dev {fold_dev:.2e} (tol 1e-12)")

    # norm bound
    bound = symbol_norm(p)
    smax = max(float(singular_values(assemble(n, seq))[-1]) for n in (8, 32))
    record("norm-bound", smax <= bound + 1e-8, f"smax {smax:.6f} <= {bound:.6f}")

    # Avram-Parter with the square test function
    seq64 = build_block_sequence(64, p)
    limit = avram_parter_limit(np.square, p)
    gaps = [avram_parter_gap(n, np.square, singular_values(folded(n, seq64)), limit).gap for n in (16, 64)]
    ok = all(math.isfinite(v) and v > 0 for v in gaps) and gaps[1] <= gaps[0]
    record("avram-parter-gap", ok, f"gap(16)={gaps[0]:.2e} gap(64)={gaps[1]:.2e}")

    # decay-rate bound at reduced size, fitted over n in [32, 96]; compute_series
    # itself raises if a row breaks the all-n determinant bound
    series = compute_series(p, n_list=(8, 16, 24, 32, 48, 64, 96))
    rate = series.bound.theorem_rate
    record(
        "decay-rate-bound",
        series.fit.slope <= rate + REDUCED_SLOPE_MARGIN,
        f"slope {series.fit.slope:.6f} vs bound {rate:.6f}",
    )

    # equilibrium reduction: no temperature difference, no diagonal blocks
    eq = ModelParams(0.5, 0.3, 2.0, 2.0)
    eq_seq = build_block_sequence(8, eq)
    dev = float(np.max(np.abs(eq_seq.blocks[:, 0, 0])))
    diag_dev = float(
        np.max(np.abs(symbol_matrices(midpoint_grid(256), eq)[:, [0, 1], [0, 1]]))
    )
    record("equilibrium-reduction", dev == 0.0 and diag_dev == 0.0, f"diag dev {diag_dev:.2e}")

    # rate integral is strictly negative, finite even at criticality
    rates = [theorem_bound(q) for q in (*ACCEPTANCE_SETS, CRITICAL_SET)]
    ok = all(math.isfinite(b) and b < 0 for b in rates)
    record("rate-integral-negative", ok, f"min {min(rates):.4f} max {max(rates):.4f}")

    return results
