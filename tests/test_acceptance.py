"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines.  The suite covers the four reference parameter sets (including
one equilibrium point) plus one critical point, at truncation sizes up to
512 block rows.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

import xyness.fourier
from xyness import (
    assemble,
    avram_parter_gap,
    avram_parter_limit,
    build_block_sequence,
    compute_series,
    fit_decay,
    log_det,
    pfaffian,
    pfaffian_brute,
    symbol_matrices,
    symbol_norm,
    symbol_singular_values,
    weak_rate,
)
from conftest import ACCEPTANCE_SETS, CRITICAL_SET, midpoint_grid


def report(criterion: int, detail: str):
    print(f"[PASS] criterion {criterion}: {detail}")


@pytest.fixture(scope="module")
def seqs512():
    return {p: build_block_sequence(512, p) for p in ACCEPTANCE_SETS}


@pytest.fixture(scope="module")
def series_all():
    n_list = (8, 16, 32, 64, 96, 128, 160, 192, 224, 256)
    out = {}
    for p in (*ACCEPTANCE_SETS, CRITICAL_SET):
        out[p] = compute_series(p, n_list=n_list)
    return out


def test_criterion_1_symbol_singular_values():
    xi = midpoint_grid(4096)
    worst = 0.0
    for p in ACCEPTANCE_SETS:
        sv = np.linalg.svd(symbol_matrices(xi, p), compute_uv=False)
        lo, hi = symbol_singular_values(xi, p)
        worst = max(
            worst,
            float(np.max(np.abs(sv[:, 0] - hi))),
            float(np.max(np.abs(sv[:, 1] - lo))),
        )
    assert worst <= 1e-12
    report(1, f"symbol SVD matches tanh pair on 4096-point grid, max dev {worst:.2e}")


def test_criterion_2_pfaffian_determinant(seqs512, series_all):
    worst = 0.0
    for p in ACCEPTANCE_SETS:
        seq = seqs512[p]
        for n in (1, 2, 4, 8, 16, 32, 64, 128, 256):
            entries = assemble(n, seq)
            pf = pfaffian(entries)
            det = log_det(entries)
            worst = max(worst, abs(2.0 * pf.log_abs - det.log_abs))
    assert worst <= 1e-6

    # the reported log|C(n)| (the fold's LU) against the pivoted Pfaffian
    fold_worst = 0.0
    for p in ACCEPTANCE_SETS:
        series = series_all[p]
        for row in series.rows:
            pf = pfaffian(assemble(row.n, series.sequence)).log_abs
            fold_worst = max(fold_worst, abs(pf - row.log_abs_C) / abs(pf))
    assert fold_worst <= 1e-12

    brute_worst = 0.0
    for p in ACCEPTANCE_SETS:
        for n in (1, 2, 3):
            entries = assemble(n, seqs512[p])
            ref = pfaffian_brute(entries)
            got = pfaffian(entries).to_value()
            brute_worst = max(brute_worst, abs(got - ref) / abs(ref))
    assert brute_worst <= 1e-10
    report(
        2,
        f"2 log|Pf| vs log|det| max residual {worst:.2e}; "
        f"log|Pf| vs reported log|C| rel dev {fold_worst:.2e}; "
        f"brute-force oracle rel dev {brute_worst:.2e}",
    )


def test_criterion_3_coefficient_symmetries(seqs512):
    p = ACCEPTANCE_SETS[1]  # out of equilibrium: nontrivial diagonal sequence
    seq = seqs512[p]
    o = seq.n_max - 1  # index of x = 0
    # the engine's own Im app[0]: build_block_sequence stores a set 0.0
    worst_zero = abs(xyness.fourier._coefficients(512, p)[0][0])
    worst_skew = 0.0
    for x in range(-256, 257):
        worst_skew = max(
            worst_skew, float(np.max(np.abs(seq.blocks[-x + o] + seq.blocks[x + o].T)))
        )
    assert worst_zero == 0.0
    assert worst_skew <= 2 * xyness.fourier.COEFF_TOL
    report(
        3,
        f"|x|<=256: app[0] {worst_zero:.2e}, block skewness {worst_skew:.2e}",
    )


@pytest.fixture(scope="module")
def spectral_summaries(seqs512):
    g = np.square
    out = {}
    for p in ACCEPTANCE_SETS:
        limit = avram_parter_limit(g, p)
        out[p] = {
            n: avram_parter_gap(n, g, seqs512[p], limit) for n in (64, 128, 256, 512)
        }
    return out


def test_criterion_4_norm_bound(spectral_summaries, series_all):
    worst = -math.inf
    for p in ACCEPTANCE_SETS:
        bound = symbol_norm(p)
        for summary in spectral_summaries[p].values():
            worst = max(worst, float(summary.values[-1]) - bound)
        for row in series_all[p].rows:
            worst = max(worst, row.smax - bound)
    assert worst <= 1e-8
    report(4, f"largest singular value exceeds symbol norm by at most {worst:.2e}")


def test_criterion_5_avram_parter_convergence(spectral_summaries):
    worst_final = 0.0
    for p in ACCEPTANCE_SETS:
        gaps = {n: s.gap for n, s in spectral_summaries[p].items()}
        assert all(math.isfinite(v) and v > 0.0 for v in gaps.values())
        assert gaps[512] <= gaps[64]
        assert gaps[512] <= 1e-2
        worst_final = max(worst_final, gaps[512])
    report(5, f"gap(512) <= gap(64) for all sets; worst gap(512) {worst_final:.2e}")


def test_criterion_6_theorem_bound_compliance(series_all):
    details = []
    for p, series in series_all.items():
        fit = fit_decay(series.rows, 64, 256)
        rate = series.bound.theorem_rate
        assert fit.slope <= rate + 0.01, (p, fit.slope, rate)
        details.append(f"{fit.slope - rate:+.2e}")
    report(6, "fitted slope - bound: " + ", ".join(details) + " (all <= 0.01)")


def test_criterion_7_sharpness_observation(series_all):
    # soft, non-gating: logged only (first-order Szego heuristic)
    gaps = []
    for p in ACCEPTANCE_SETS:
        series = series_all[p]
        fit = fit_decay(series.rows, 64, 256)
        gaps.append(abs(fit.slope - series.bound.theorem_rate))
    report(
        7,
        "observed |slope - B| on non-critical sets: "
        + ", ".join(f"{g:.3e}" for g in gaps)
        + " (soft target 0.05, not asserted)",
    )


def test_criterion_8_weak_bound(series_all):
    worst = -math.inf
    for p, series in series_all.items():
        for row in series.rows:
            worst = max(worst, 2 * row.log_abs_C - row.n * weak_rate(p))
    assert worst <= 1e-8
    report(8, f"log|det| exceeds the all-n bound by at most {worst:.2e}")


def test_criterion_9_equilibrium_reduction(seqs512, series_all):
    p = ACCEPTANCE_SETS[2]  # beta_l = beta_r = 2
    assert p.delta == 0.0
    seq = seqs512[p]
    assert all(v == 0.0 for v in seq.blocks[:, 0, 0])
    a = symbol_matrices(midpoint_grid(1024), p)
    assert np.all(a[:, 0, 0] == 0.0) and np.all(a[:, 1, 1] == 0.0)
    fit = fit_decay(series_all[p].rows, 64, 256)
    rate = series_all[p].bound.theorem_rate
    assert fit.slope <= rate + 0.01
    report(
        9,
        f"equilibrium: diagonal coefficients identically 0, slope - bound = "
        f"{fit.slope - rate:+.2e}",
    )


def test_criterion_10_cli_determinism(tmp_path):
    args = [
        sys.executable, "-m", "xyness.cli",
        "correlations",
        "--gamma", "0.5", "--lambda", "0.3", "--beta-l", "1", "--beta-r", "3",
        "--n-list", "2,4,8,16",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    r1 = subprocess.run([*args, "--out", str(a)], capture_output=True, text=True)
    r2 = subprocess.run([*args, "--out", str(b)], capture_output=True, text=True)
    assert r1.returncode == 0 and r2.returncode == 0
    assert a.read_bytes() == b.read_bytes()
    report(10, f"repeated cmd_correlations runs byte-identical ({a.stat().st_size} bytes)")
