import itertools
import math
import os
import re
import threading
import time

import numpy as np
import pytest

from xyness import (
    LogScalar,
    ModelParams,
    NumericalError,
    assemble,
    build_block_sequence,
    compute_series,
    fit_decay,
    fold,
    log_det,
    pfaffian,
    singular_values,
    sweep,
)
import xyness.fourier
import xyness.pipeline
import xyness.toeplitz
from xyness.pipeline import DEFAULT_N_LIST, SeriesRow, check_sizes
from conftest import ACCEPTANCE_SETS, CRITICAL_SET, paper_coefficients

HOT_SET = ModelParams(0.5, 0.3, 1e-3, 2e-3)
#: a cold point whose whole correlation lies below the quadrature floor
#: (ROADMAP item 1); with these sizes its n = 1 fold is exactly singular
COLD_SET, COLD_SIZES = ModelParams(0.0, 2.0, 50.0, 50.0), (1, 2, 4, 8)


def synthetic_rows(values):
    return [SeriesRow(n=n, log_abs_C=y, pf_det_residual=0.0, smin=0.1, smax=0.9) for n, y in values]


class TestFitDecay:
    def test_exact_line(self):
        rows = synthetic_rows([(n, -0.37 * n + 1.2) for n in (10, 20, 30, 40, 50)])
        fit = fit_decay(rows, 10, 50)
        assert fit.slope == pytest.approx(-0.37, abs=1e-12)
        assert fit.intercept == pytest.approx(1.2, abs=1e-10)
        assert fit.residual_rms < 1e-12

    def test_alternating_noise_cancels(self):
        rate = -0.25
        vals = [
            (n, rate * n + 0.7 + (1e-6 if i % 2 == 0 else -1e-6))
            for i, n in enumerate(range(10, 90, 10))
        ]
        fit = fit_decay(synthetic_rows(vals), 10, 80)
        assert fit.slope == pytest.approx(rate, abs=1e-6)

    def test_requires_four_rows(self):
        rows = synthetic_rows([(n, -n) for n in (10, 20, 30)])
        with pytest.raises(ValueError):
            fit_decay(rows, 10, 30)


class TestComputeSeries:
    def test_single_size_matches_coefficient(self, base_params):
        series = compute_series(base_params, n_list=[1])
        # Pf of the 2x2 block: |C(1)| = |apm[-1]|, cross-checked against the
        # coefficient of a longer sequence, a separate engine run
        _, apm = paper_coefficients(build_block_sequence(8, base_params))
        c = apm[-1 + 8]
        assert series.rows[0].log_abs_C == pytest.approx(math.log(abs(c)), abs=1e-12)
        assert series.fit is None

    def test_residual_gate_on_all_rows(self, base_params):
        series = compute_series(base_params, n_list=(2, 4, 8, 16, 32))
        for row in series.rows:
            assert row.pf_det_residual <= 1e-6

    def test_rows_sorted_and_metadata(self, base_params):
        series = compute_series(base_params, n_list=(2, 8, 32))
        assert [r.n for r in series.rows] == [2, 8, 32]
        # each value has one home: the point, the coefficient sequence
        assert series.params.swapped is False
        assert series.sequence.err_estimate <= xyness.fourier.COEFF_TOL
        assert series.error is None
        assert series.bound.theorem_rate < 0.0

    def test_equilibrium_decay_is_linear(self):
        p = ModelParams(0.5, 0.3, 2.0, 2.0)
        series = compute_series(p, n_list=(8, 16, 24, 32, 40, 48))
        ys = [r.log_abs_C for r in series.rows]
        assert all(b < a for a, b in zip(ys, ys[1:]))
        # per-step decrements stabilize: asymptotically linear in n
        steps = np.diff(ys) / 8.0
        assert abs(steps[-1] - steps[-2]) < 1e-3
        assert abs(steps[-1] - series.bound.theorem_rate) < 1e-2

    def test_determinism(self, base_params):
        a = compute_series(base_params, n_list=(4, 8, 16))
        b = compute_series(base_params, n_list=(4, 8, 16))
        assert a.rows == b.rows

    def test_monotone_refinement(self, base_params, monkeypatch):
        monkeypatch.setattr(xyness.fourier, "COEFF_TOL", 1e-10)
        coarse = compute_series(base_params, n_list=(4, 8, 16))
        monkeypatch.setattr(xyness.fourier, "COEFF_TOL", 1e-11)
        fine = compute_series(base_params, n_list=(4, 8, 16))
        e_tot = coarse.sequence.err_estimate + fine.sequence.err_estimate
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
        series = compute_series(p, n_list=DEFAULT_N_LIST)
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
            assert row.pf_det_residual == abs(2 * log_det(X[:, ::-1]).log_abs - 2 * row.log_abs_C)

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

    def test_domain_sweep_completes_or_names_n(self):
        # near-critical fields next to |lam| = 1 at small gamma, and the
        # extremes of gamma, lam and both temperatures.  A QuadratureError
        # (an exhausted panel budget in the rate bound, next to a near-zero of
        # mu) fails the test.  A gate may fire if it names n:
        # (-0.999999, 0.3, 1e-6, 1e-6) and (-0.999999, 0.999999, 1, 1) trip
        # the LU/reversed-LU gate, where one singular-value pair falls below
        # the quadrature floor
        near = [
            (gamma, s * (1.0 + d), 1.4701, 0.7152)
            for gamma in (0.0, 1e-12, 1e-9, 1e-6, 1e-5)
            for s in (1.0, -1.0)
            for d in (1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6)
        ]
        extreme = itertools.product(
            (0.999999, -0.999999, -0.5, 1e-9, 0.5),
            (-3.0, -1.000001, 0.3, 0.999999, 1.5),
            (1e-6, 1e-2, 1.0, 50.0, 100.0),
            (1e-6, 1.0, 100.0),
        )
        unnamed = []
        for point in (*near, *extreme):
            try:
                compute_series(ModelParams(*point), n_list=(8, 16, 32, 64))
            except NumericalError as exc:
                if not re.search(r"\bn=\d+", str(exc)):
                    unnamed.append((point, str(exc)))
        assert not unnamed

    @pytest.mark.parametrize(
        "point",
        [(0.5, 0.3, 1.0, 3.0), (0.5, 1.5, 2.0, 2.0), (0.0, 0.5, 1.0, 3.0)],
        ids=["generic", "noise", "critical"],
    )
    def test_pooled_rows_match_serial(self, point, monkeypatch):
        # the CLI's 11 sizes up to 512; the noise point's rows past n = 64
        # sit at quadrature noise, where any change of operation order shows
        p = ModelParams(*point)
        monkeypatch.setenv("XYNESS_THREADS", "1")
        serial = compute_series(p, n_list=(*DEFAULT_N_LIST, 512))
        monkeypatch.setenv("XYNESS_THREADS", "2")
        pooled = compute_series(p, n_list=(*DEFAULT_N_LIST, 512))
        assert pooled.rows == serial.rows

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_failure_names_smallest_failing_n(self, threads, monkeypatch):
        # the LU/reversed-LU gate trips here at n = 16 and at larger sizes,
        # which the pool runs first; the error is the n = 16 one either way
        monkeypatch.setenv("XYNESS_THREADS", threads)
        with pytest.raises(NumericalError, match=r"LU/reversed-LU cross-check failed at n=16:"):
            compute_series(ModelParams(-0.999999, 0.999999, 1.0, 1.0), n_list=(*DEFAULT_N_LIST, 512))

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_exactly_singular_fold_is_named(self, threads, monkeypatch):
        # both LU routes give log|det X| = -inf at n = 1, so their residual
        # would be -inf - (-inf), a NaN
        monkeypatch.setenv("XYNESS_THREADS", threads)
        with pytest.raises(NumericalError, match=r"^fold X is exactly singular at n=1:") as info:
            compute_series(COLD_SET, n_list=COLD_SIZES)
        assert "nan" not in str(info.value)

    def test_input_validation(self, base_params):
        with pytest.raises(ValueError):
            compute_series(base_params, n_list=())
        with pytest.raises(ValueError):
            compute_series(base_params, n_list=(8, 4))
        with pytest.raises(ValueError):
            compute_series(base_params, n_list=(0, 4))
        # a size that is not an integer is refused, not truncated
        with pytest.raises(ValueError, match="n_list must hold integers"):
            compute_series(base_params, n_list=(4.9, 8.5))
        # int() of these raises OverflowError and its own ValueError
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="n_list must hold integers"):
                compute_series(base_params, n_list=(4, bad))
        # numpy integers are integers
        assert check_sizes(np.array([2, 4], dtype=np.int64)) == [2, 4]


class TestSweep:
    def test_single_point_equals_compute_series(self, base_params):
        direct = compute_series(base_params, n_list=(2, 4, 8))
        swept = sweep([base_params], n_list=(2, 4, 8))
        assert len(swept) == 1
        assert swept[0].rows == direct.rows

    def test_reservoir_swap_symmetry(self):
        grid = [
            ModelParams(0.5, 0.3, bl, br) for bl in (1.0, 2.0) for br in (1.0, 2.0)
        ]
        results = sweep(grid, n_list=(2, 4, 8, 16))
        # off-diagonal points are label swaps: identical log|C(n)| series
        swapped_pair = (results[1], results[2])
        for a, b in zip(swapped_pair[0].rows, swapped_pair[1].rows):
            assert a.log_abs_C == b.log_abs_C

    def test_critical_point_completes(self):
        results = sweep([CRITICAL_SET], n_list=(2, 4, 8, 16))
        assert results[0].error is None
        assert results[0].params.critical
        assert math.isfinite(results[0].bound.theorem_rate)

    def test_failure_isolation(self, base_params, monkeypatch):
        bad = ModelParams(0.9, 0.0, 4.0, 1.0)
        real = xyness.pipeline.compute_series

        def flaky(p, **kwargs):
            if p == bad:
                raise NumericalError("synthetic failure at n=4")
            return real(p, **kwargs)

        monkeypatch.setattr(xyness.pipeline, "compute_series", flaky)
        results = xyness.pipeline.sweep([base_params, bad], n_list=(2, 4))
        assert results[0].rows and results[0].error is None
        assert results[1].rows == ()
        assert results[1].error == "NumericalError: synthetic failure at n=4"

    def test_thread_pool_matches_serial(self, base_params, monkeypatch):
        grid = [
            base_params,
            ModelParams(0.5, 0.3, 2.0, 2.0),
            ModelParams(-0.4, 1.7, 2.0, 2.0),
        ]
        monkeypatch.setenv("XYNESS_THREADS", "1")
        serial = sweep(grid, n_list=(2, 4, 8))
        monkeypatch.setenv("XYNESS_THREADS", "3")
        threaded = sweep(grid, n_list=(2, 4, 8))
        for a, b in zip(serial, threaded):
            assert a.rows == b.rows

    @pytest.mark.parametrize(
        "blas_env, workers",
        [
            ({}, 1),
            ({"OPENBLAS_NUM_THREADS": "1"}, 3),
            ({"OMP_NUM_THREADS": "1"}, 3),
            ({"OMP_NUM_THREADS": "2"}, 1),
            ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 1),
        ],
        ids=["unpinned", "openblas-1", "omp-1", "omp-2", "openblas-overrides-omp"],
    )
    def test_default_workers_follow_blas_pin(self, blas_env, workers, monkeypatch):
        # unset XYNESS_THREADS pools only over single-threaded BLAS
        monkeypatch.delenv("XYNESS_THREADS", raising=False)
        for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in blas_env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert xyness.pipeline._worker_count() == workers
        monkeypatch.setenv("XYNESS_THREADS", "2")
        assert xyness.pipeline._worker_count() == 2

    @pytest.mark.parametrize("raw", ["two", "0", "-3", "", "1.5"])
    def test_malformed_thread_count_raises(self, raw, base_params, monkeypatch):
        monkeypatch.setenv("XYNESS_THREADS", raw)

        def integrate(*args):
            raise AssertionError("coefficients integrated before XYNESS_THREADS was read")

        # the variable is read before any coefficient is integrated
        monkeypatch.setattr(xyness.pipeline, "build_block_sequence", integrate)
        message = re.escape(f"XYNESS_THREADS must be a positive integer, got {raw!r}")
        with pytest.raises(ValueError, match=message):
            xyness.pipeline._worker_count()
        with pytest.raises(ValueError, match=message):
            compute_series(base_params, n_list=(2, 4))
        with pytest.raises(ValueError, match=message):
            sweep([base_params, ModelParams(0.5, 0.3, 2.0, 2.0)], n_list=(2, 4))

    def test_pools_never_nest(self, base_params, monkeypatch):
        # points on two workers run their sizes inline: no more LAPACK calls
        # at once than XYNESS_THREADS allows.  Each call holds its slot for a
        # few ms, so a nested pool would overlap calls
        lock = threading.Lock()
        running, peak = 0, 0

        def counted(fn):
            def wrapper(M):
                nonlocal running, peak
                with lock:
                    running += 1
                    peak = max(peak, running)
                try:
                    time.sleep(0.002)
                    return fn(M)
                finally:
                    with lock:
                        running -= 1

            return wrapper

        monkeypatch.setattr(xyness.pipeline, "singular_values", counted(xyness.pipeline.singular_values))
        monkeypatch.setattr(xyness.pipeline, "log_det", counted(xyness.pipeline.log_det))
        monkeypatch.setenv("XYNESS_THREADS", "2")
        grid = [base_params, ModelParams(0.5, 0.3, 2.0, 2.0), ModelParams(-0.4, 1.7, 2.0, 2.0)]
        results = sweep(grid, n_list=(8, 16, 32, 64))
        assert all(r.rows and r.error is None for r in results)
        assert 1 <= peak <= 2

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep([])

    def test_bad_sizes_rejected_before_any_point(self, base_params, monkeypatch):
        def never(p, **kwargs):
            raise AssertionError("a point ran")

        monkeypatch.setattr(xyness.pipeline, "compute_series", never)
        for n_list in ((8, 4), (0,), (4.9, 8.5), (math.inf,), (math.nan,)):
            with pytest.raises(ValueError):
                xyness.pipeline.sweep([base_params], n_list=n_list)
