import math

import numpy as np
import pytest

from xyness import (
    Component,
    ModelParams,
    QuadratureError,
    breakpoints,
    build_block_sequence,
    fourier_coefficient,
    symbol_matrices,
)
import xyness.fourier
from xyness.quadrature import adaptive_panels

TWO_PI = 2.0 * math.pi


def trapezoid_oracle(which, x, p, points_per_panel=2**18):
    """Slow composite trapezoid on each smooth panel, built from plain
    sinh/cosh ratios (moderate beta only; independent of the package path).

    sign(kappa) is constant on a panel, so it is sampled once at the panel
    midpoint: evaluating it at the panel edges, where kappa crosses zero,
    would pick up floating-point noise with O(step) weight.
    """
    edges = np.concatenate([breakpoints(p), [TWO_PI]])
    total = 0.0 + 0.0j
    for a, b in zip(edges[:-1], edges[1:]):
        xs = np.linspace(a, b, points_per_panel + 1)
        m = np.hypot(np.cos(xs) - p.lam, p.gamma * np.sin(xs))
        den = np.cosh(p.beta * m) + np.cosh(p.delta * m)
        if which is Component.PP:
            mid = 0.5 * (a + b)
            kap_mid = 2 * p.lam * np.sin(mid) - (1 - p.gamma**2) * np.sin(2 * mid)
            w = np.sign(kap_mid) * np.sinh(p.delta * m) / den
        else:
            w = (np.cos(xs) - p.lam - 1j * p.gamma * np.sin(xs)) / m * np.sinh(p.beta * m) / den
        total += np.trapezoid(w * np.exp(-1j * x * xs), xs)
    return total / TWO_PI


class TestBreakpoints:
    def test_isotropic_free(self):
        pts = breakpoints(ModelParams(0.0, 0.0, 1.0, 2.0))
        assert pts == pytest.approx([0.0, math.pi / 2, math.pi, 3 * math.pi / 2])

    def test_no_extra_roots(self):
        pts = breakpoints(ModelParams(0.0, 2.0, 1.0, 2.0))
        assert pts == pytest.approx([0.0, math.pi])

    def test_interior_roots(self):
        pts = breakpoints(ModelParams(0.5, 0.375, 1.0, 2.0))
        assert pts == pytest.approx([0.0, 1.0471975511965979, math.pi, 5.2359877559829888])

    def test_boundary_degenerate_root_deduped(self):
        # |lam| = 1 - gamma^2: the extra root collides with 0 or pi
        pts = breakpoints(ModelParams(0.5, 0.75, 1.0, 2.0))
        assert pts == pytest.approx([0.0, math.pi])


class TestSingleCoefficient:
    def test_pp_zero_offset(self, base_params):
        assert abs(fourier_coefficient(0, Component.PP, base_params)) < 1e-12

    def test_pp_equilibrium_exactly_zero(self):
        p = ModelParams(0.5, 0.3, 2.0, 2.0)
        assert fourier_coefficient(7, Component.PP, p) == 0.0

    def test_pp_odd_symmetry_independent(self, base_params):
        for x in (1, 2, 5, 9):
            plus = fourier_coefficient(x, Component.PP, base_params)
            minus = fourier_coefficient(-x, Component.PP, base_params)
            assert abs(plus + minus) < 2e-12

    def test_pp_purely_imaginary(self, base_params):
        for x in (1, 3, 12):
            c = fourier_coefficient(x, Component.PP, base_params)
            assert abs(c.real) < 1e-12

    def test_pm_purely_real(self, base_params):
        for x in (-3, -1, 0, 2):
            c = fourier_coefficient(x, Component.PM, base_params)
            assert abs(c.imag) < 1e-12

    @pytest.mark.parametrize("which", [Component.PP, Component.PM])
    @pytest.mark.parametrize("x", [0, 1, 2, 4, 8])
    def test_trapezoid_oracle(self, which, x, base_params):
        got = fourier_coefficient(x, which, base_params, tol=1e-12)
        ref = trapezoid_oracle(which, x, base_params)
        assert abs(got - ref) < 1e-9

    def test_invalid_tol(self, base_params):
        with pytest.raises(ValueError):
            fourier_coefficient(1, Component.PP, base_params, tol=-1.0)


class TestBlockSequence:
    def test_minimal_sequence(self, base_params):
        seq = build_block_sequence(1, base_params)
        assert seq.blocks.shape == (1, 2, 2)  # the single block a_0
        c = seq.apm[0]  # apm[-1]
        a0 = seq.blocks[0]
        # the diagonal holds the honestly integrated app[0], zero within tol
        assert abs(a0[0, 0]) <= seq.err_estimate and abs(a0[1, 1]) <= seq.err_estimate
        assert a0[0, 1] == -c and a0[1, 0] == c

    def test_blocks_match_single_calls_bitwise(self, base_params):
        seq = build_block_sequence(3, base_params)
        # offsets: app[x] at x + 2, apm[y] at y + 3, blocks[x] at x + 2
        for x in (-2, -1, 0, 1, 2):
            expected = np.array(
                [
                    [seq.app[x + 2], -seq.apm[x - 1 + 3]],
                    [seq.apm[-x - 1 + 3], -seq.app[x + 2]],
                ]
            )
            assert np.array_equal(seq.blocks[x + 2], expected)
        # positive-x coefficients are fresh quadratures; identical inputs
        # must reproduce them bit-for-bit
        assert seq.app[2 + 2] == fourier_coefficient(2, Component.PP, base_params)
        assert seq.apm[1 + 3] == fourier_coefficient(1, Component.PM, base_params)

    def test_equilibrium_zero_diagonal(self):
        p = ModelParams(-0.4, 1.7, 2.0, 2.0)
        seq = build_block_sequence(6, p)
        assert all(v == 0.0 for v in seq.app)
        assert all(blk[0, 0] == 0.0 for blk in seq.blocks)

    def test_skew_assembly_consistency(self, base_seq):
        o = base_seq.n_max - 1  # index of x = 0
        for x in range(-(base_seq.n_max - 1), base_seq.n_max):
            lhs = base_seq.blocks[-x + o]
            rhs = -base_seq.blocks[x + o].T
            assert np.max(np.abs(lhs - rhs)) <= 2.0 * base_seq.err_estimate

    def test_parseval_from_below(self, base_params, base_seq):
        # sum of block Frobenius norms approaches the symbol integral from below
        def integrand(xi):
            a = symbol_matrices(xi, base_params)
            return np.sum(np.abs(a) ** 2, axis=(-2, -1))

        total, _ = adaptive_panels(integrand, np.concatenate([breakpoints(base_params), [TWO_PI]]), 1e-10)
        total = float(np.real(total)) / TWO_PI
        o = base_seq.n_max - 1  # index of x = 0
        partial = [
            sum(
                float(np.sum(np.abs(base_seq.blocks[x + o]) ** 2))
                for x in range(-k, k + 1)
            )
            for k in (4, 16, 32)
        ]
        assert partial[0] < partial[1] < partial[2] <= total + 1e-9
        assert total - partial[2] < total - partial[0]

    def test_coefficient_decay(self, base_seq):
        # |app[x]| <= C/|x|: the symbol has only jump discontinuities
        o = base_seq.n_max - 1  # index of x = 0
        scaled = {x: abs(x * base_seq.app[x + o]) for x in range(1, base_seq.n_max)}
        C = max(scaled[x] for x in range(1, 17))
        for x in range(17, base_seq.n_max):
            assert scaled[x] <= 1.05 * C

    def test_budget_failure_names_coefficient(self, base_params, monkeypatch):
        def exploding(*args, **kwargs):
            raise QuadratureError("boom", 1e-3)

        monkeypatch.setattr(xyness.fourier, "adaptive_panels", exploding)
        with pytest.raises(QuadratureError, match=r"PP\[0\]"):
            build_block_sequence(4, base_params, tol=1e-13)

    def test_rebuild_is_bitwise_equal(self, base_params):
        a = build_block_sequence(5, base_params, tol=1e-10)
        b = build_block_sequence(5, base_params, tol=1e-10)
        assert a is not b
        for name in ("app", "apm", "blocks"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        assert a.err_estimate == b.err_estimate

    @pytest.mark.parametrize("name", ["app", "apm", "blocks"])
    def test_arrays_read_only(self, base_seq, name):
        with pytest.raises(ValueError):
            getattr(base_seq, name)[0] = 1.0

    def test_invalid_args(self, base_params):
        with pytest.raises(ValueError):
            build_block_sequence(0, base_params)
        with pytest.raises(ValueError):
            build_block_sequence(4, base_params, tol=0.0)


class TestCriticalParameters:
    def test_coefficients_finite_at_criticality(self):
        p = ModelParams(0.0, 0.5, 1.0, 3.0)
        seq = build_block_sequence(4, p, tol=1e-12)
        for blk in seq.blocks:
            assert np.all(np.isfinite(blk))
        assert seq.err_estimate < 1e-11
