import math

import numpy as np
import pytest

from xyness import (
    ModelParams,
    assemble,
    avram_parter_gap,
    avram_parter_limit,
    breakpoints,
    build_block_sequence,
    compute_series,
    folded,
    indicator_log,
    log_det,
    mu,
    phi,
    singular_values,
    symbol_norm,
)
import xyness.spectral
import xyness.toeplitz
from xyness.cli import SPECTRUM_EPS
from xyness.quadrature import adaptive_panels
from xyness.spectral import LIMIT_TOL
from test_golden import POINTS
TWO_PI = 2.0 * math.pi


def summary(n, g, seq, limit):
    """``avram_parter_gap`` at size n, from the SVD of the fold gathered from ``seq``."""
    return avram_parter_gap(n, g, singular_values(folded(n, seq)), limit)


def census(n, eps, seq):
    """Number of the n-block truncation's 2n singular values in [0, eps]: X's, each twice."""
    return 2 * int(np.count_nonzero(singular_values(folded(n, seq)) <= eps))


class TestSmoothIndicator:
    """chi_eps, the smooth step inside :func:`indicator_log`."""

    def test_zero_to_eps_and_one_from_eps_plus_eps_squared(self):
        eps = 0.01
        g = indicator_log(eps)
        assert g(0.0) == 0.0 and g(eps / 2) == 0.0 and g(eps) == 0.0
        assert np.all(g(np.linspace(0.0, eps, 101)) == 0.0)
        s = np.linspace(eps + eps**2, 1.0, 1001)
        assert np.all(g(s) == np.log(s))

    def test_monotone_rising_edge(self):
        eps = 0.05
        s = np.linspace(eps, eps + eps**2, 2001)
        vals = xyness.spectral._smoothstep((s - eps) / (eps * eps))
        assert vals[0] == 0.0 and vals[-1] == 1.0
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_invalid_parameters(self):
        for eps in (0.0, -1.0, 1.0, 1.5, math.nan, math.inf):
            with pytest.raises(ValueError, match=r"^eps must be in \(0, 1\)"):
                indicator_log(eps)

    def test_indicator_log_kills_origin(self):
        g = indicator_log(1e-3)
        assert g(0.0) == 0.0 and g(1e-4) == 0.0
        assert g(0.5) == pytest.approx(math.log(0.5))


class TestCountSmall:
    """The census of ``spectrum``'s ``count_small`` column: twice the count of X's values."""

    def test_trivial_bounds(self, base_params, base_seq):
        sv_min = float(np.min(np.abs(np.linalg.svd(assemble(8, base_seq), compute_uv=False))))
        assert census(8, sv_min / 2, base_seq) == 0
        assert census(8, 0.999999, base_seq) == 16

    def test_no_near_kernel_off_criticality(self, base_seq):
        for n in (4, 16, 32):
            assert census(n, 1e-3, base_seq) == 0

    def test_bounded_ratio_as_n_grows(self):
        # near-kernel fraction must not grow superlinearly (criterion: diagnostics)
        p = ModelParams(0.0, 0.5, 1.0, 3.0)  # critical: smin -> 0
        seq = build_block_sequence(64, p)
        ratios = [census(n, 1e-3, seq) / n for n in (16, 32, 64)]
        assert max(ratios) <= 1.0

    def test_near_kernel_census_on_reference_sets(self):
        # eps = 1e-6 finds nothing off criticality *unless* the off-diagonal
        # symbol factor winds around the origin: for |lam| > 1 the factor
        # (cos - lam - i*gamma*sin)*e^{i xi} has winding number 1, which
        # plants exactly one exponentially small singular-value pair in
        # every truncation (the index obstruction to invertibility)
        from conftest import ACCEPTANCE_SETS

        for p in ACCEPTANCE_SETS:
            seq = build_block_sequence(32, p)
            expected = 2 if abs(p.lam) > 1.0 else 0
            assert census(32, 1e-6, seq) == expected


class TestNoAssembly:
    def test_fold_is_gathered_from_the_blocks(self, base_params, base_seq, monkeypatch):
        # the spectrum's route never builds the 2n x 2n truncation
        g = np.square
        limit = avram_parter_limit(g, base_params)
        expected_sv = singular_values(folded(16, base_seq))
        expected = avram_parter_gap(16, g, expected_sv, limit)

        def refuse(*args, **kwargs):
            raise AssertionError("assemble called")

        monkeypatch.setattr(xyness.toeplitz, "assemble", refuse)
        monkeypatch.setattr(xyness.spectral, "assemble", refuse)
        sv = singular_values(folded(16, base_seq))
        got = avram_parter_gap(16, g, sv, limit)
        assert sv.tobytes() == expected_sv.tobytes()
        assert got.gap == expected.gap


class TestAvramParter:
    def test_rejects_values_of_another_size(self, base_seq):
        sv = singular_values(folded(8, base_seq))
        for n in (4, 16):
            with pytest.raises(ValueError, match=f"expected the {n} singular values"):
                avram_parter_gap(n, np.square, sv, 0.0)

    def test_zero_function(self, base_params, base_seq):
        def zero(x):
            return np.zeros_like(np.asarray(x, dtype=float))

        limit = avram_parter_limit(zero, base_params)
        s = summary(8, zero, base_seq, limit)
        assert s.empirical_mean == 0.0 and limit == 0.0 and s.gap == 0.0

    def test_square_matches_frobenius_and_parseval(self, base_params, base_seq):
        g = np.square
        limit = avram_parter_limit(g, base_params)
        for n in (8, 24):
            s = summary(n, g, base_seq, limit)
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
        assert limit == pytest.approx(float(np.real(ref)) / TWO_PI, abs=1e-9)

    @pytest.mark.parametrize(
        "point", [(0.0, 0.5, 1.0, 3.0), (0.5, 1.0, 1.0, 3.0), (0.0, -1.0, 2.0, 0.5)]
    )
    def test_critical_limits_match_sum_form_mu(self, point):
        # the limit's product-form mu against a quadrature of sum-form mu
        p = ModelParams(*point)
        assert p.critical
        edges = np.append(breakpoints(p), TWO_PI)
        for g in (np.square, indicator_log(1e-3)):

            def integrand(xi):
                m = mu(xi, p)
                return 0.5 * (g(np.tanh(0.5 * p.beta_l * m)) + g(np.tanh(0.5 * p.beta_r * m)))

            ref, _ = adaptive_panels(integrand, edges, LIMIT_TOL * TWO_PI)
            ref = float(np.real(ref)) / TWO_PI
            assert abs(avram_parter_limit(g, p) - ref) <= 2.0 * LIMIT_TOL

    def test_gap_decreases(self, base_params, base_seq):
        g = np.square
        limit = avram_parter_limit(g, base_params)
        gaps = [summary(n, g, base_seq, limit).gap for n in (8, 16, 32)]
        assert all(v > 0.0 and math.isfinite(v) for v in gaps)
        assert gaps[2] <= gaps[1] <= gaps[0]

    def test_values_within_norm_bound(self, base_params, base_seq):
        bound = symbol_norm(base_params)
        for n in (8, 32):
            sv = singular_values(folded(n, base_seq))
            assert sv[0] >= 0.0
            assert sv[-1] <= bound + 1e-8

    def test_proof_chain_inequality(self, base_params, base_seq):
        # log|det T_n| <= sum_j chi_eps(s_j) log s_j, term-by-term justified
        # because every discarded log s_j is negative
        eps = 1e-3
        g = indicator_log(eps)
        limit = avram_parter_limit(g, base_params)
        for n in (4, 16, 32):
            T = assemble(n, base_seq)
            sv = singular_values(folded(n, base_seq))
            s = avram_parter_gap(n, g, sv, limit)
            lhs = log_det(T).log_abs
            rhs = 2.0 * float(np.sum(g(sv)))  # the 2n values: X's, each twice
            assert lhs <= rhs + 1e-10
            assert rhs == pytest.approx(2 * n * s.empirical_mean, rel=1e-13)
            assert np.all(sv < 1.0)


class TestFoldMeans:
    """Each mean over X's n values against the mean over the 2n-value doubled spectrum."""

    @pytest.mark.parametrize("point", POINTS.values(), ids=POINTS.keys())
    def test_within_two_ulp_of_the_doubled_spectrum(self, point):
        seq = build_block_sequence(512, ModelParams(*map(float, point)))
        for n in (64, 128, 256, 512):
            sv = singular_values(folded(n, seq))
            for g in (indicator_log(SPECTRUM_EPS), np.square):
                doubled = float(np.mean(g(np.repeat(sv, 2))))
                got = avram_parter_gap(n, g, sv, 0.0).empirical_mean
                assert abs(got - doubled) <= 2.0 * np.spacing(abs(doubled)), (n, got, doubled)


class TestEmpiricalMeanCrossChecks:
    """Both empirical means of ``spectrum`` against routes that take no SVD.

    Each size's values are X's singular values, each counted twice, so the
    square mean is ||X||_F^2 / n, and where every value exceeds eps + eps^2
    the chi_log mean is log|det X| / n, the log|C(n)| of the fold's LU over n.
    """

    @pytest.mark.parametrize(
        "point",
        [
            (0.5, 0.3, 1.0, 3.0),
            (0.0, 0.5, 1.0, 3.0),  # critical
            (0.5, 1.0, 1.0, 3.0),  # critical, |lambda| = 1
            (0.5, 1.5, 2.0, 2.0),  # one exponentially small pair: chi_log not checked
            (0.5, 0.3, 1e-4, 1e-4),  # hot: every value below eps
            (0.9, 0.5, 0.5, 4.0),
        ],
    )
    def test_means_match_frobenius_and_log_det(self, point):
        eps = 1e-3
        g = indicator_log(eps)
        p = ModelParams(*point)
        n_list = (64, 128, 256, 512)
        seq = build_block_sequence(max(n_list), p)
        for row in compute_series(p, n_list=n_list).rows:
            n = row.n
            X = folded(n, seq)
            sv = singular_values(X)
            s = avram_parter_gap(n, g, sv, 0.0)
            frobenius = float(np.sum(X * X)) / n
            assert avram_parter_gap(n, np.square, sv, 0.0).empirical_mean == pytest.approx(
                frobenius, rel=1e-13, abs=0.0
            )
            if sv[0] > eps + eps * eps:
                assert s.empirical_mean == pytest.approx(row.log_abs_C / n, rel=0.0, abs=1e-13)
