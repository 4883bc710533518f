import math

import numpy as np
import pytest

from xyness import (
    LogScalar,
    ModelParams,
    NumericalError,
    bound_report,
    compute_series,
    mu,
    mu_sup,
    theorem_bound,
    weak_rate,
)
import xyness.cli
import xyness.pipeline
from xyness.bounds import WEAK_BOUND_SLACK
from xyness.spectral import LIMIT_TOL
from conftest import ACCEPTANCE_SETS, CRITICAL_SET

# regression constant computed before the build with a 30-digit tanh-sinh
# quadrature; an independent 1e6-point midpoint rule agrees to ~1.4e-6
# (its own accuracy near the two log singularities)
B_FROZEN_CRITICAL_FREE = -0.83605549673591661


class TestTheoremBound:
    def test_frozen_regression_constant(self):
        p = ModelParams(0.0, 0.0, 2.0, 2.0)
        assert theorem_bound(p) == pytest.approx(B_FROZEN_CRITICAL_FREE, abs=1e-9)

    def test_midpoint_oracle(self):
        # slow independent oracle: 1e6-point midpoint rule
        p = ModelParams(0.0, 0.0, 2.0, 2.0)
        N = 10**6
        x = (np.arange(N) + 0.5) * (2 * math.pi / N)
        ref = float(np.mean(np.log(np.tanh(np.abs(np.cos(x))))))
        assert theorem_bound(p) == pytest.approx(ref, abs=5e-6)

    def test_equilibrium_single_factor(self):
        # beta_l = beta_r: the two tanh factors coincide
        p = ModelParams(0.5, 0.3, 2.0, 2.0)
        from xyness.quadrature import adaptive_panels

        def single(xi):
            return np.log(np.tanh(0.5 * p.beta * mu(xi, p)))

        ref, _ = adaptive_panels(single, [0.0, 2 * math.pi], 1e-11)
        assert theorem_bound(p) == pytest.approx(float(np.real(ref)) / (2 * math.pi), abs=1e-9)

    def test_saturated_limit(self):
        # huge beta: tanh factors saturate to 1 in double precision, B -> 0-
        p = ModelParams(0.5, 0.3, 1.0e4, 1.0e4)
        B = theorem_bound(p)
        assert B <= 0.0 and B > -1e-10

    @pytest.mark.parametrize(
        "point", [(0.5, 0.3, 100.0, 100.0), (0.5, 2.0, 30.0, 30.0), (0.5, 0.3, 60.0, 60.0), (0.5, 0.3, 30.0, 30.0)],
        ids=str,
    )
    def test_cold_points_against_mpmath(self, point):
        # beta*mu/2 beyond ~19 rounds tanh to 1, where log(tanh) reads 0; B
        # keeps its digits against a 40-digit mpmath quadrature of log tanh,
        # split at the zeros of kappa, with mu computed in mpmath
        mpmath = pytest.importorskip("mpmath")
        p = ModelParams(*point)
        mp = mpmath.mp
        with mp.workdps(40):
            gamma, lam = mp.mpf(p.gamma), mp.mpf(p.lam)

            def log_tanh_mean(xi):
                m = mp.sqrt((mp.cos(xi) - lam) ** 2 + (gamma * mp.sin(xi)) ** 2)
                return (mp.log(mp.tanh(p.beta_l * m / 2)) + mp.log(mp.tanh(p.beta_r * m / 2))) / 2

            cuts = [mp.zero, mp.pi, 2 * mp.pi]
            ratio = lam / (1 - gamma**2)
            if abs(ratio) <= 1:
                cuts += [mp.acos(ratio), 2 * mp.pi - mp.acos(ratio)]
            ref = float(mp.quad(log_tanh_mean, sorted(cuts)) / (2 * mp.pi))
        B = theorem_bound(p)
        assert B < 0.0
        assert abs(B - ref) <= 1e-13 * abs(ref)

    def test_negative_for_all_acceptance_sets(self):
        for p in (*ACCEPTANCE_SETS, CRITICAL_SET):
            B = theorem_bound(p)
            assert math.isfinite(B) and B < 0.0

    def test_critical_boundary_field(self):
        # gamma != 0, |lam| = 1: single mu zero at xi = 0 or pi
        p = ModelParams(0.5, 1.0, 1.0, 3.0)
        assert p.critical
        B = theorem_bound(p)
        assert math.isfinite(B) and B < 0.0
        # small gamma at and next to |lam| = 1: cos(xi) - lam cancels to
        # rounding noise next to the (near-)zero of mu, where mu in sum form
        # exhausted the panel budget.  B is continuous in gamma: it moves by
        # about gamma from its gamma = 0 value
        near = (0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6)
        for lam in (s * (1.0 + d) for s in (1.0, -1.0) for d in near):
            B0 = theorem_bound(ModelParams(0.0, lam, 1.4701, 0.7152))
            for gamma in (1e-12, 1e-9, 1e-6, 1e-5):
                B = theorem_bound(ModelParams(gamma, lam, 1.4701, 0.7152))
                assert math.isfinite(B) and B < 0.0
                assert abs(B - B0) <= 2.0 * gamma + 2.0 * LIMIT_TOL, (gamma, lam)

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
        B = theorem_bound(ModelParams(*point))
        assert math.isfinite(B)
        neighbours = [
            theorem_bound(ModelParams(gamma, lam + d, beta_l, beta_r))
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
            B = theorem_bound(ModelParams(*point))
            assert math.isfinite(B) and B < 0.0, point

    def test_gap_opening_at_gamma_zero(self):
        # an analytic cross-check: at gamma = 0, mu = |cos(xi) - lam|
        # and opening the gap at |lam| = 1 moves B by
        # (1/2pi) Int log(1 + 2 eps/xi^2) dxi = sqrt(2 eps), up to O(eps)
        for s in (1.0, -1.0):
            B0 = theorem_bound(ModelParams(0.0, s, 1.4701, 0.7152))
            for eps in (1e-12, 1e-9, 1e-6):
                delta = theorem_bound(ModelParams(0.0, s * (1.0 + eps), 1.4701, 0.7152)) - B0
                assert abs(delta - math.sqrt(2.0 * eps)) <= eps + 2.0 * LIMIT_TOL, (s, eps)

    def test_monotone_in_each_beta(self):
        # warmer reservoirs (smaller beta) push B further below 0
        betas = (0.5, 1.0, 2.0)
        vals = {
            (bl, br): theorem_bound(ModelParams(0.5, 0.3, bl, br))
            for bl in betas
            for br in betas
        }
        for bl in betas:
            for lo, hi in ((0.5, 1.0), (1.0, 2.0)):
                assert vals[(bl, lo)] <= vals[(bl, hi)] + 1e-9
                assert vals[(lo, bl)] <= vals[(hi, bl)] + 1e-9


class TestWeakBound:
    @pytest.mark.parametrize(
        "gamma,lam,musup",
        [(0.0, 0.0, 1.0), (0.0, 0.5, 1.5), (0.5, 0.3, 1.3)],
    )
    def test_rate_from_mu_sup(self, gamma, lam, musup):
        p = ModelParams(gamma, lam, 1.0, 2.0)
        expected = 2.0 * math.log(math.tanh(0.5 * p.beta_r * musup))
        assert weak_rate(p) == pytest.approx(expected, abs=1e-14)
        assert 10 * weak_rate(p) == pytest.approx(10 * expected, abs=1e-13)

    def test_report_fields(self):
        rep = bound_report(CRITICAL_SET)
        assert CRITICAL_SET.critical
        assert rep.theorem_rate < 0.0 and rep.weak_rate < 0.0
        assert mu_sup(CRITICAL_SET) == pytest.approx(1.5)

    @pytest.mark.parametrize(
        "p",
        [*ACCEPTANCE_SETS, CRITICAL_SET, ModelParams(0.5, 0.3, 100.0, 100.0)],
        ids=lambda p: f"{p.gamma},{p.lam},{p.beta_l},{p.beta_r}",
    )
    def test_rate_integral_within_half_the_weak_rate(self, p):
        # t_l <= t_r <= symbol_norm(p) on the circle, so B <= log symbol_norm
        # = weak_rate / 2; at beta = 100 weak_rate reads 0.0 (saturated
        # tanh) and B = -5.95e-22 lies strictly below it
        rep = bound_report(p)
        assert rep.theorem_rate <= 0.5 * rep.weak_rate + 2 * LIMIT_TOL

    @staticmethod
    def assert_rows_below_bound(series):
        for row in series.rows:
            assert 2 * row.log_abs_C <= row.n * weak_rate(series.params) + WEAK_BOUND_SLACK

    def test_validate_on_real_series(self, base_params):
        series = compute_series(base_params, n_list=(2, 4, 8, 16))
        self.assert_rows_below_bound(series)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_gate_fires(self, base_params, threads, monkeypatch, tmp_path, capsys):
        # both LU routes report log|det X| raised by 1e3 n from n = 16 on:
        # the residual between them stays small, the bound is broken, the
        # run names the smallest failing n on any schedule, and the CLI
        # exits 3 without leaving its output behind
        real = xyness.pipeline.log_det

        def inflated(M):
            det, n = real(M), M.shape[0]
            return det if n < 16 else LogScalar(det.log_abs + 1e3 * n, det.phase)

        monkeypatch.setattr(xyness.pipeline, "log_det", inflated)
        monkeypatch.setenv("XYNESS_THREADS", threads)
        with pytest.raises(NumericalError, match=r"^determinant bound violated at n=16: "):
            compute_series(base_params, n_list=(8, 16, 32))
        out = tmp_path / "c.csv"
        argv = ["correlations", "--gamma", "0.5", "--lambda", "0.3", "--beta-l", "1"]
        argv += ["--beta-r", "2", "--n-list", "8,16,32", "--out", str(out)]
        assert xyness.cli.main(argv) == 3
        assert "determinant bound violated at n=16" in capsys.readouterr().err
        assert not out.exists()

    def test_equilibrium_series_valid(self):
        p = ModelParams(-0.4, 1.7, 2.0, 2.0)
        series = compute_series(p, n_list=(2, 4, 8, 16))
        self.assert_rows_below_bound(series)
