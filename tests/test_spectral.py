import math

import numpy as np
import pytest

from xyness import (
    ModelParams,
    assemble,
    avram_parter_gap,
    breakpoints,
    build_block_sequence,
    count_small,
    indicator_log,
    log_det,
    phi,
    smooth_indicator,
    square_plateau,
    symbol_norm,
)
import xyness.spectral
import xyness.toeplitz
from xyness.quadrature import adaptive_panels
TWO_PI = 2.0 * math.pi


class TestSmoothIndicator:
    def test_plateau_and_support(self):
        eps, ceiling = 0.01, 0.9
        chi = smooth_indicator(eps, ceiling)
        assert chi(eps / 2) == 0.0
        assert chi(0.0) == 0.0
        mid = 0.5 * (eps + eps**2 + ceiling)
        assert chi(mid) == 1.0
        assert chi(ceiling + 1.0) == 0.0
        assert chi(ceiling + 1.5) == 0.0

    def test_monotone_rising_edge(self):
        eps, ceiling = 0.05, 0.8
        chi = smooth_indicator(eps, ceiling)
        s = np.linspace(eps, eps + eps**2, 2001)
        vals = chi(s)
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            smooth_indicator(0.0, 1.0)
        with pytest.raises(ValueError):
            smooth_indicator(0.5, 0.5)

    def test_indicator_log_kills_origin(self):
        g = indicator_log(1e-3, 0.9)
        assert g(0.0) == 0.0 and g(1e-4) == 0.0
        assert g(0.5) == pytest.approx(math.log(0.5))

    def test_square_plateau_exact_below_ceiling(self):
        g = square_plateau()
        s = np.linspace(0.0, 1.0, 101)
        assert np.allclose(g(s), s * s, atol=0.0)
        assert g(2.5) == 0.0


class TestCountSmall:
    def test_trivial_bounds(self, base_params, base_seq):
        sv_min = float(np.min(np.abs(np.linalg.svd(assemble(8, base_seq), compute_uv=False))))
        assert count_small(8, sv_min / 2, base_seq) == 0
        assert count_small(8, 0.999999, base_seq) == 16

    def test_no_near_kernel_off_criticality(self, base_seq):
        for n in (4, 16, 32):
            assert count_small(n, 1e-3, base_seq) == 0

    def test_eps_validation(self, base_seq):
        with pytest.raises(ValueError):
            count_small(4, 0.0, base_seq)
        with pytest.raises(ValueError):
            count_small(4, 1.5, base_seq)

    def test_bounded_ratio_as_n_grows(self):
        # near-kernel fraction must not grow superlinearly (criterion: diagnostics)
        p = ModelParams(0.0, 0.5, 1.0, 3.0)  # critical: smin -> 0
        seq = build_block_sequence(64, p, 1e-12)
        ratios = [count_small(n, 1e-3, seq) / n for n in (16, 32, 64)]
        assert max(ratios) <= 1.0

    def test_near_kernel_census_on_reference_sets(self):
        # eps = 1e-6 finds nothing off criticality *unless* the off-diagonal
        # symbol factor winds around the origin: for |lam| > 1 the factor
        # (cos - lam - i*gamma*sin)*e^{i xi} has winding number 1, which
        # plants exactly one exponentially small singular-value pair in
        # every truncation (the index obstruction to invertibility)
        from conftest import ACCEPTANCE_SETS

        for p in ACCEPTANCE_SETS:
            seq = build_block_sequence(32, p, 1e-12)
            expected = 2 if abs(p.lam) > 1.0 else 0
            assert count_small(32, 1e-6, seq) == expected


class TestNoAssembly:
    def test_fold_is_gathered_from_the_blocks(self, base_params, base_seq, monkeypatch):
        # count_small and avram_parter_gap never build the 2n x 2n truncation
        g = square_plateau()
        expected = (count_small(16, 0.5, base_seq), avram_parter_gap(16, g, base_seq, base_params))

        def refuse(*args, **kwargs):
            raise AssertionError("assemble called")

        monkeypatch.setattr(xyness.toeplitz, "assemble", refuse)
        monkeypatch.setattr(xyness.spectral, "assemble", refuse)
        assert count_small(16, 0.5, base_seq) == expected[0]
        summary = avram_parter_gap(16, g, base_seq, base_params)
        assert summary.values.tobytes() == expected[1].values.tobytes()
        assert summary.gap == expected[1].gap


class TestAvramParter:
    def test_zero_function(self, base_params, base_seq):
        s = avram_parter_gap(8, lambda x: np.zeros_like(np.asarray(x, dtype=float)), base_seq, base_params)
        assert s.empirical_mean == 0.0 and s.limit_value == 0.0 and s.gap == 0.0

    def test_square_matches_frobenius_and_parseval(self, base_params, base_seq):
        g = square_plateau()
        for n in (8, 24):
            s = avram_parter_gap(n, g, base_seq, base_params)
            T = assemble(n, base_seq)
            frob = float(np.sum(np.abs(T) ** 2)) / (2 * n)
            assert s.empirical_mean == pytest.approx(frob, rel=1e-12)

        # independent limit: integral of phi_beta^2 + phi_delta^2
        def integrand(xi):
            return phi(base_params.beta, xi, base_params) ** 2 + phi(
                base_params.delta, xi, base_params
            ) ** 2

        ref, _ = adaptive_panels(
            integrand, np.concatenate([breakpoints(base_params), [TWO_PI]]), 1e-11
        )
        s = avram_parter_gap(16, g, base_seq, base_params)
        assert s.limit_value == pytest.approx(float(np.real(ref)) / TWO_PI, abs=1e-9)

    def test_gap_decreases(self, base_params, base_seq):
        g = square_plateau()
        gaps = [avram_parter_gap(n, g, base_seq, base_params).gap for n in (8, 16, 32)]
        assert all(v > 0.0 and math.isfinite(v) for v in gaps)
        assert gaps[2] <= gaps[1] <= gaps[0]

    def test_values_within_norm_bound(self, base_params, base_seq):
        bound = symbol_norm(base_params)
        for n in (8, 32):
            s = avram_parter_gap(n, square_plateau(), base_seq, base_params)
            assert s.values[0] >= 0.0
            assert s.values[-1] <= bound + 1e-8

    def test_proof_chain_inequality(self, base_params, base_seq):
        # log|det T_n| <= sum_j chi_eps(s_j) log s_j, term-by-term justified
        # because every discarded log s_j is negative
        eps = 1e-3
        g = indicator_log(eps, symbol_norm(base_params))
        for n in (4, 16, 32):
            T = assemble(n, base_seq)
            s = avram_parter_gap(n, g, base_seq, base_params)
            lhs = log_det(T).log_abs
            rhs = float(np.sum(g(s.values)))
            assert lhs <= rhs + 1e-10
            assert np.all(s.values < 1.0)
