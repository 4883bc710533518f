import math

import numpy as np
import pytest

from xyness import (
    Component,
    LogScalar,
    ModelParams,
    NumericalError,
    assemble,
    compute_series,
    fit_decay,
    fold,
    fourier_coefficient,
    log_det,
    pfaffian,
    singular_values,
    sweep,
)
import xyness.pipeline
import xyness.toeplitz
from xyness.pipeline import DEFAULT_N_LIST, CorrelationSeries, SeriesRow
from conftest import ACCEPTANCE_SETS, CRITICAL_SET

HOT_SET = ModelParams(0.5, 0.3, 1e-3, 2e-3)


def synthetic_series(values):
    rows = tuple(
        SeriesRow(
            n=n,
            log_abs_C=y,
            log_abs_det=2 * y,
            pf_det_residual=0.0,
            smin=0.1,
            smax=0.9,
        )
        for n, y in values
    )
    return CorrelationSeries(
        params=ModelParams(0.5, 0.3, 1.0, 2.0),
        rows=rows,
        fit=None,
        bound=None,
        metadata={},
    )


class TestFitDecay:
    def test_exact_line(self):
        series = synthetic_series([(n, -0.37 * n + 1.2) for n in (10, 20, 30, 40, 50)])
        fit = fit_decay(series, 10, 50)
        assert fit.slope == pytest.approx(-0.37, abs=1e-12)
        assert fit.intercept == pytest.approx(1.2, abs=1e-10)
        assert fit.residual_rms < 1e-12

    def test_alternating_noise_cancels(self):
        rate = -0.25
        vals = [
            (n, rate * n + 0.7 + (1e-6 if i % 2 == 0 else -1e-6))
            for i, n in enumerate(range(10, 90, 10))
        ]
        fit = fit_decay(synthetic_series(vals), 10, 80)
        assert fit.slope == pytest.approx(rate, abs=1e-6)

    def test_requires_four_rows(self):
        series = synthetic_series([(n, -n) for n in (10, 20, 30)])
        with pytest.raises(ValueError):
            fit_decay(series, 10, 30)


class TestComputeSeries:
    def test_single_size_matches_coefficient(self, base_params):
        series = compute_series(base_params, n_list=[1], tol=1e-12)
        # Pf of the 2x2 block: |C(1)| = |apm[-1]|, cross-checked against a
        # direct quadrature of that coefficient
        c = fourier_coefficient(-1, Component.PM, base_params, tol=1e-12)
        assert series.rows[0].log_abs_C == pytest.approx(math.log(abs(c)), abs=1e-12)
        assert series.fit is None

    def test_residual_gate_on_all_rows(self, base_params):
        series = compute_series(base_params, n_list=(2, 4, 8, 16, 32), tol=1e-12)
        for row in series.rows:
            assert row.pf_det_residual <= 1e-6
            assert 2 * row.log_abs_C == pytest.approx(row.log_abs_det, abs=1e-6)

    def test_rows_sorted_and_metadata(self, base_params):
        series = compute_series(base_params, n_list=(2, 8, 32), tol=1e-12)
        assert [r.n for r in series.rows] == [2, 8, 32]
        assert series.metadata["swapped"] is False
        assert series.metadata["tol"] == 1e-12
        assert series.bound.theorem_rate < 0.0

    def test_equilibrium_decay_is_linear(self):
        p = ModelParams(0.5, 0.3, 2.0, 2.0)
        series = compute_series(p, n_list=(8, 16, 24, 32, 40, 48), tol=1e-12)
        ys = [r.log_abs_C for r in series.rows]
        assert all(b < a for a, b in zip(ys, ys[1:]))
        # per-step decrements stabilize: asymptotically linear in n
        steps = np.diff(ys) / 8.0
        assert abs(steps[-1] - steps[-2]) < 1e-3
        assert abs(steps[-1] - series.bound.theorem_rate) < 1e-2

    def test_determinism(self, base_params):
        a = compute_series(base_params, n_list=(4, 8, 16), tol=1e-12)
        b = compute_series(base_params, n_list=(4, 8, 16), tol=1e-12)
        assert a.rows == b.rows

    def test_monotone_refinement(self, base_params):
        coarse = compute_series(base_params, n_list=(4, 8, 16), tol=1e-10)
        fine = compute_series(base_params, n_list=(4, 8, 16), tol=1e-11)
        e_tot = coarse.metadata["coefficient_err_estimate"] + fine.metadata[
            "coefficient_err_estimate"
        ]
        for rc, rf in zip(coarse.rows, fine.rows):
            # first-order perturbation bound: dim * max entry error / smin
            allowance = 2 * rc.n * e_tot / rc.smin + 1e-12
            assert abs(rc.log_abs_C - rf.log_abs_C) <= allowance

    @pytest.mark.parametrize(
        "p",
        [*ACCEPTANCE_SETS, CRITICAL_SET, HOT_SET],
        ids=lambda p: f"{p.gamma},{p.lam},{p.beta_l},{p.beta_r}",
    )
    def test_rows_match_pivoted_pfaffian(self, p):
        series = compute_series(p, n_list=DEFAULT_N_LIST, tol=1e-12)
        seq = series.sequence
        for row in series.rows:
            ref = pfaffian(assemble(row.n, seq))
            assert abs(row.log_abs_C - ref.log_abs) <= 1e-10 * (1.0 + abs(ref.log_abs))

    @pytest.mark.parametrize(
        "p",
        [ACCEPTANCE_SETS[1], ACCEPTANCE_SETS[2]],
        ids=lambda p: f"{p.gamma},{p.lam},{p.beta_l},{p.beta_r}",
    )
    def test_rows_are_the_fold_lu(self, p):
        series = compute_series(p, n_list=(1, 2, 8, 32, 64, 96))
        for row in series.rows:
            X = fold(assemble(row.n, series.sequence))
            assert row.log_abs_C == log_det(X).log_abs
            assert row.log_abs_det == 2 * row.log_abs_C
            assert row.pf_det_residual == abs(2 * log_det(X[:, ::-1]).log_abs - row.log_abs_det)

    def test_no_truncation_is_assembled(self, base_params, monkeypatch):
        # every row's fold is gathered from the blocks; R is never built
        expected = compute_series(base_params, n_list=(1, 4, 8, 16, 33))

        def refuse(*args, **kwargs):
            raise AssertionError("assemble called")

        monkeypatch.setattr(xyness.toeplitz, "assemble", refuse)
        monkeypatch.setattr(xyness.pipeline, "assemble", refuse)
        assert compute_series(base_params, n_list=(1, 4, 8, 16, 33)).rows == expected.rows

    def test_reversed_lu_gate_names_stage_and_n(self, base_params, monkeypatch):
        # shift the log|det| of the column-reversed fold, the second route
        real = xyness.pipeline.log_det

        def shifted(M):
            d = real(M)
            return LogScalar(d.log_abs + 1e-5, d.phase) if M.strides[1] < 0 else d

        monkeypatch.setattr(xyness.pipeline, "log_det", shifted)
        with pytest.raises(NumericalError, match=r"LU/reversed-LU cross-check failed at n=4:"):
            compute_series(base_params, n_list=(4, 8))

    def test_svd_and_lu_disagree_on_unresolved_rows(self):
        # sum log sigma_i(X) is not a second route for the gate: at this
        # equilibrium point smin sits at quadrature noise from n = 64 on
        # (ROADMAP item 1), and the SVD and the LU see different noise
        def gaps(p):
            series = compute_series(p, n_list=DEFAULT_N_LIST)
            out = {}
            for row in series.rows:
                X = fold(assemble(row.n, series.sequence))
                out[row.n] = abs(float(np.sum(np.log(singular_values(X)))) - row.log_abs_C)
            return out

        unresolved = gaps(ModelParams(0.5, 1.5, 2.0, 2.0))
        assert all(gap > 1e-3 for n, gap in unresolved.items() if n >= 64), unresolved
        assert max(gaps(ModelParams(0.5, 0.3, 1.0, 3.0)).values()) <= 1e-8

    def test_input_validation(self, base_params):
        with pytest.raises(ValueError):
            compute_series(base_params, n_list=())
        with pytest.raises(ValueError):
            compute_series(base_params, n_list=(8, 4))
        with pytest.raises(ValueError):
            compute_series(base_params, n_list=(0, 4))


class TestSweep:
    def test_single_point_equals_compute_series(self, base_params):
        direct = compute_series(base_params, n_list=(2, 4, 8), tol=1e-12)
        swept = sweep([base_params], n_list=(2, 4, 8), tol=1e-12)
        assert len(swept) == 1
        assert swept[0].rows == direct.rows

    def test_reservoir_swap_symmetry(self):
        grid = [
            ModelParams(0.5, 0.3, bl, br) for bl in (1.0, 2.0) for br in (1.0, 2.0)
        ]
        results = sweep(grid, n_list=(2, 4, 8, 16), tol=1e-12)
        # off-diagonal points are label swaps: identical log|C(n)| series
        swapped_pair = (results[1], results[2])
        for a, b in zip(swapped_pair[0].rows, swapped_pair[1].rows):
            assert a.log_abs_C == b.log_abs_C

    def test_critical_point_completes(self):
        results = sweep([CRITICAL_SET], n_list=(2, 4, 8, 16), tol=1e-12)
        assert "error" not in results[0].metadata
        assert results[0].bound.critical
        assert math.isfinite(results[0].bound.theorem_rate)

    def test_failure_isolation(self, base_params, monkeypatch):
        bad = ModelParams(0.9, 0.0, 4.0, 1.0)
        real = xyness.pipeline.compute_series

        def flaky(p, **kwargs):
            if p == bad:
                raise NumericalError("synthetic failure at n=4")
            return real(p, **kwargs)

        monkeypatch.setattr(xyness.pipeline, "compute_series", flaky)
        results = xyness.pipeline.sweep([base_params, bad], n_list=(2, 4), tol=1e-12)
        assert results[0].rows and "error" not in results[0].metadata
        assert results[1].rows == ()
        assert "synthetic failure" in results[1].metadata["error"]

    def test_thread_pool_matches_serial(self, base_params, monkeypatch):
        grid = [
            base_params,
            ModelParams(0.5, 0.3, 2.0, 2.0),
            ModelParams(-0.4, 1.7, 2.0, 2.0),
        ]
        serial = sweep(grid, n_list=(2, 4, 8), tol=1e-12)
        monkeypatch.setenv("XYNESS_THREADS", "3")
        threaded = sweep(grid, n_list=(2, 4, 8), tol=1e-12)
        for a, b in zip(serial, threaded):
            assert a.rows == b.rows

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep([])

    def test_bad_sizes_rejected_before_any_point(self, base_params, monkeypatch):
        def never(p, **kwargs):
            raise AssertionError("a point ran")

        monkeypatch.setattr(xyness.pipeline, "compute_series", never)
        for n_list, tol in (((8, 4), 1e-12), ((0,), 1e-12), ((8,), -1.0)):
            with pytest.raises(ValueError):
                xyness.pipeline.sweep([base_params], n_list=n_list, tol=tol)
