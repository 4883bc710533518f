import functools
import math

import numpy as np
import pytest

from xyness import QuadratureError, adaptive_panels
import xyness.quadrature
from xyness.quadrature import _gauss_batch, _refine


def test_polynomial_exact():
    value, err = adaptive_panels(lambda x: x**3 - 2 * x, [0.0, 2.0], 1e-12)
    assert value == pytest.approx(0.0, abs=1e-13)
    assert err < 1e-12


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


def test_budget_exhaustion_reports_achieved_error(monkeypatch):
    # no breakpoint at the singularity and a tiny budget: must fail loudly
    monkeypatch.setattr(xyness.quadrature, "_refine", functools.partial(_refine, max_panels=2000))
    with pytest.raises(QuadratureError) as exc_info:
        adaptive_panels(lambda x: np.sin(1.0 / np.maximum(x, 1e-300)), [0.0, 1.0], 1e-12)
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


def test_panel_cost_counts_against_the_budget():
    # a panel that stands for two counts twice: a budget of 2M at cost 2
    # runs out after the same evaluations as a budget of M at cost 1
    def evaluations(max_panels, panel_cost):
        sizes = []

        def rule(lo, hi):
            sizes.append(lo.size)
            return np.sqrt(hi - lo)[:, None]  # halves never agree with the whole

        with pytest.raises(QuadratureError, match="panel budget exhausted"):
            _refine(rule, np.array([0.0]), np.array([1.0]), 1e-12, 1.0, max_panels, panel_cost)
        return sum(sizes)

    assert evaluations(200, 2) == evaluations(100, 1)
    assert evaluations(200, 2) < evaluations(200, 1)



def test_entry_budget_counts_each_column(monkeypatch):
    # the entry budget counts a panel evaluation once per column: with K
    # columns it runs out after the evaluations a panel budget of
    # _MAX_ENTRIES / K allows
    def evaluations(columns, **budget):
        sizes = []

        def rule(lo, hi):
            sizes.append(lo.size)
            return np.repeat(np.sqrt(hi - lo)[:, None], columns, axis=1)  # halves never agree

        with pytest.raises(QuadratureError, match="panel budget exhausted"):
            _refine(rule, np.array([0.0]), np.array([1.0]), 1e-12, 1.0, **budget)
        return sum(sizes)

    monkeypatch.setattr(xyness.quadrature, "_MAX_ENTRIES", 12_000)
    assert evaluations(12, max_panels=2000) == evaluations(1, max_panels=1000)

def test_invalid_tol():
    with pytest.raises(ValueError):
        adaptive_panels(np.sin, [0.0, 1.0], 0.0)


def test_nan_tol_rejected():
    # NaN fails every comparison, so a tol <= 0 test alone would let it
    # through to a refinement that runs out of panels
    with pytest.raises(ValueError, match="tol must be positive"):
        adaptive_panels(np.sin, [0.0, 1.0], math.nan)


@pytest.mark.parametrize("edges", [[1.0, 1.0], [2.0, 1.0], [0.0], [0.0, math.nan], [0.0, math.inf]], ids=str)
def test_invalid_edges_rejected(edges):
    # refused before any panel is built: a repeated, descending or single
    # edge leaves no panel, and a nan or inf edge has no finite width to halve
    with pytest.raises(ValueError, match="^edges must hold at least two finite, strictly ascending values$"):
        adaptive_panels(np.sin, edges, 1e-10)


def test_deterministic():
    def f(x):
        return np.log(np.maximum(x, 1e-300)) * np.sin(3 * x)

    a = adaptive_panels(f, [0.0, 2.0], 1e-10)
    b = adaptive_panels(f, [0.0, 2.0], 1e-10)
    assert a == b
