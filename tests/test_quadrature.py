import math

import numpy as np
import pytest

from xyness import QuadratureError, adaptive_panels
from xyness.quadrature import _gauss_batch, _refine


def test_polynomial_exact():
    value, err = adaptive_panels(lambda x: x**3 - 2 * x, [0.0, 2.0], 1e-12)
    assert value == pytest.approx(0.0, abs=1e-13)
    assert err < 1e-12


def test_oscillatory_with_max_width():
    k = 200
    value, _ = adaptive_panels(
        lambda x: np.sin(k * x), [0.0, 1.0], 1e-12, max_width=8 * 2 * math.pi / k
    )
    assert value == pytest.approx((1 - math.cos(k)) / k, abs=1e-12)


def test_complex_integrand():
    value, _ = adaptive_panels(lambda x: np.exp(1j * x), [0.0, math.pi], 1e-13)
    assert value == pytest.approx(2j, abs=1e-12)


def test_log_endpoint_singularity():
    # integrable singularity at 0: graded refinement down to the width floor
    value, err = adaptive_panels(np.log, [0.0, 1.0], 1e-9)
    assert value == pytest.approx(-1.0, abs=1e-9)
    assert err <= 1e-9


def test_interior_breakpoint():
    value, _ = adaptive_panels(lambda x: np.abs(x), [-1.0, 0.0, 1.0], 1e-13)
    assert value == pytest.approx(1.0, abs=1e-13)


def test_budget_exhaustion_reports_achieved_error():
    # no breakpoint at the singularity and a tiny budget: must fail loudly
    with pytest.raises(QuadratureError) as exc_info:
        adaptive_panels(
            lambda x: np.sin(1.0 / np.maximum(x, 1e-300)),
            [0.0, 1.0],
            1e-12,
            max_panels=2000,
        )
    assert exc_info.value.achieved_error >= 0.0


def test_non_finite_total_raises():
    # each panel converges to a finite value, but their sum overflows
    with pytest.raises(QuadratureError, match="non-finite"), np.errstate(over="ignore"):
        adaptive_panels(lambda x: np.full_like(x, 8e307), [0.0, 1.0, 2.0, 3.0], 1e-9)


def test_batch_refines_until_every_column_passes():
    # one shared panel set for a smooth and an oscillatory integral: the
    # smooth column passes on the single base panel, the other does not
    k = 200.0

    def rule(lo, hi):
        return np.stack([_gauss_batch(np.cos, lo, hi), _gauss_batch(lambda x: np.cos(k * x), lo, hi)], axis=1)

    vals, errs = _refine(rule, np.array([0.0]), np.array([1.0]), 1e-12, 1.0)
    assert vals.shape[1] == 2 and vals.shape[0] > 1
    total = vals.sum(axis=0)
    assert total[0] == pytest.approx(math.sin(1.0), abs=1e-12)
    assert total[1] == pytest.approx(math.sin(k) / k, abs=1e-12)
    assert np.all(errs.sum(axis=0) <= 1e-12)


def test_invalid_tol():
    with pytest.raises(ValueError):
        adaptive_panels(np.sin, [0.0, 1.0], 0.0)


def test_deterministic():
    def f(x):
        return np.log(np.maximum(x, 1e-300)) * np.sin(3 * x)

    a = adaptive_panels(f, [0.0, 2.0], 1e-10)
    b = adaptive_panels(f, [0.0, 2.0], 1e-10)
    assert a == b
