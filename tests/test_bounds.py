import math

import numpy as np
import pytest

from xyness import (
    ModelParams,
    bound_report,
    compute_series,
    mu,
    theorem_bound,
    validate_weak_bound,
    weak_bound_log,
)
from xyness.pipeline import CorrelationSeries, SeriesRow
from conftest import ACCEPTANCE_SETS, CRITICAL_SET

# regression constant computed before the build with a 30-digit tanh-sinh
# quadrature; an independent 1e6-point midpoint rule agrees to ~1.4e-6
# (its own accuracy near the two log singularities)
B_FROZEN_CRITICAL_FREE = -0.83605549673591661


class TestTheoremBound:
    def test_frozen_regression_constant(self):
        p = ModelParams(0.0, 0.0, 2.0, 2.0)
        assert theorem_bound(p, 1e-9) == pytest.approx(B_FROZEN_CRITICAL_FREE, abs=1e-9)

    def test_midpoint_oracle(self):
        # slow independent oracle: 1e6-point midpoint rule
        p = ModelParams(0.0, 0.0, 2.0, 2.0)
        N = 10**6
        x = (np.arange(N) + 0.5) * (2 * math.pi / N)
        ref = float(np.mean(np.log(np.tanh(np.abs(np.cos(x))))))
        assert theorem_bound(p, 1e-9) == pytest.approx(ref, abs=5e-6)

    def test_equilibrium_single_factor(self):
        # beta_l = beta_r: the two tanh factors coincide
        p = ModelParams(0.5, 0.3, 2.0, 2.0)
        from xyness.quadrature import adaptive_panels

        def single(xi):
            return np.log(np.tanh(0.5 * p.beta * mu(xi, p)))

        ref, _ = adaptive_panels(single, [0.0, 2 * math.pi], 1e-11)
        assert theorem_bound(p, 1e-10) == pytest.approx(float(np.real(ref)) / (2 * math.pi), abs=1e-9)

    def test_saturated_limit(self):
        # huge beta: tanh factors saturate to 1 in double precision, B -> 0-
        p = ModelParams(0.5, 0.3, 1.0e4, 1.0e4)
        B = theorem_bound(p, 1e-9)
        assert B <= 0.0 and B > -1e-10

    def test_negative_for_all_acceptance_sets(self):
        for p in (*ACCEPTANCE_SETS, CRITICAL_SET):
            B = theorem_bound(p, 1e-9)
            assert math.isfinite(B) and B < 0.0

    def test_critical_boundary_field(self):
        # gamma != 0, |lam| = 1: single mu zero at xi = 0 or pi
        p = ModelParams(0.5, 1.0, 1.0, 3.0)
        assert p.critical
        B = theorem_bound(p, 1e-9)
        assert math.isfinite(B) and B < 0.0

    @pytest.mark.parametrize(
        "point",
        [
            (0.0, -0.4228, 2.2819, 0.6596),
            (0.0, 0.6856, 1.4701, 0.7152),
            (0.0, 0.425, 1.5022, 2.5108),
        ],
    )
    def test_node_on_exact_mu_zero(self, point):
        # a Gauss node lands on a floating-point zero of mu at these critical
        # points; the rate must stay finite and continuous in lambda
        gamma, lam, beta_l, beta_r = point
        B = theorem_bound(ModelParams(*point), 1e-9)
        assert math.isfinite(B)
        neighbours = [
            theorem_bound(ModelParams(gamma, lam + d, beta_l, beta_r), 1e-9)
            for d in (-1e-5, 1e-5)
        ]
        assert B == pytest.approx(0.5 * sum(neighbours), abs=1e-6)

    def test_gamma_zero_critical_points_finish(self):
        # gamma = 0, |lam| <= 1: before mu was evaluated in product form,
        # rounding noise in cos(xi) - lam next to the zeros of mu exhausted the
        # panel budget at about a third of these points
        rng = np.random.default_rng(20261018)
        points = [
            (0.0, lam + d, bl, br)
            for (_, lam, bl, br) in (
                (0.0, -0.4228, 2.2819, 0.6596),
                (0.0, 0.6856, 1.4701, 0.7152),
                (0.0, 0.425, 1.5022, 2.5108),
            )
            for d in (-1e-5, 0.0, 1e-5)
        ]
        points += [(0.0, 0.5, 1.0, 3.0)] + [(0.0, lam, 1.0, 3.0) for lam in (-1.0, 0.0, 1.0)]
        points += [
            (0.0, float(lam), float(bl), float(br))
            for lam, bl, br in zip(
                rng.uniform(-1.0, 1.0, 40), rng.uniform(0.2, 4.0, 40), rng.uniform(0.2, 4.0, 40)
            )
        ]
        for point in points:
            B = theorem_bound(ModelParams(*point), 1e-9)
            assert math.isfinite(B) and B < 0.0, point

    def test_monotone_in_each_beta(self):
        # warmer reservoirs (smaller beta) push B further below 0
        betas = (0.5, 1.0, 2.0)
        vals = {
            (bl, br): theorem_bound(ModelParams(0.5, 0.3, bl, br), 1e-10)
            for bl in betas
            for br in betas
        }
        for bl in betas:
            for lo, hi in ((0.5, 1.0), (1.0, 2.0)):
                assert vals[(bl, lo)] <= vals[(bl, hi)] + 1e-9
                assert vals[(lo, bl)] <= vals[(hi, bl)] + 1e-9

    def test_tolerance_consistency(self):
        p = ACCEPTANCE_SETS[1]
        assert theorem_bound(p, 1e-6) == pytest.approx(theorem_bound(p, 1e-7), abs=1e-6)


class TestWeakBound:
    @pytest.mark.parametrize(
        "gamma,lam,musup",
        [(0.0, 0.0, 1.0), (0.0, 0.5, 1.5), (0.5, 0.3, 1.3)],
    )
    def test_rate_from_mu_sup(self, gamma, lam, musup):
        p = ModelParams(gamma, lam, 1.0, 2.0)
        expected = 2.0 * math.log(math.tanh(0.5 * p.beta_r * musup))
        assert weak_bound_log(1, p) == pytest.approx(expected, abs=1e-14)
        assert weak_bound_log(10, p) == pytest.approx(10 * expected, abs=1e-13)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            weak_bound_log(0, ACCEPTANCE_SETS[0])

    def test_report_fields(self):
        rep = bound_report(CRITICAL_SET, 1e-9)
        assert rep.critical
        assert rep.theorem_rate < 0.0 and rep.weak_rate < 0.0
        assert rep.mu_sup == pytest.approx(1.5)

    def test_validate_on_real_series(self, base_params):
        series = compute_series(base_params, n_list=(2, 4, 8, 16), tol=1e-12)
        assert validate_weak_bound(series)

    def test_validate_negative_control(self, base_params):
        series = compute_series(base_params, n_list=(2, 4, 8, 16), tol=1e-12)
        bad_row = SeriesRow(
            n=16,
            log_abs_C=0.0,
            log_abs_det=weak_bound_log(16, base_params) + 1.0,
            pf_det_residual=0.0,
            smin=0.1,
            smax=0.9,
            pf_phase=1.0 + 0j,
        )
        doctored = CorrelationSeries(
            params=series.params,
            rows=series.rows + (bad_row,),
            fit=series.fit,
            bound=series.bound,
            metadata=series.metadata,
        )
        assert not validate_weak_bound(doctored)

    def test_equilibrium_series_valid(self):
        p = ModelParams(-0.4, 1.7, 2.0, 2.0)
        series = compute_series(p, n_list=(2, 4, 8, 16), tol=1e-12)
        assert validate_weak_bound(series)
