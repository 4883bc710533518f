import functools
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
    kappa,
    mu,
    phi,
    symbol_matrices,
)
import xyness.fourier
from xyness.quadrature import _NODES, _refine, adaptive_panels
from conftest import ACCEPTANCE_SETS, CRITICAL_SET, random_points

TWO_PI = 2.0 * math.pi
TOL = 1e-12

#: the acceptance sets, the critical set, a hot set and |gamma| -> 1
ORACLE_SETS = (
    *ACCEPTANCE_SETS,
    CRITICAL_SET,
    ModelParams(0.5, 0.3, 1e-3, 2e-3),
    ModelParams(0.999, 0.3, 1.0, 3.0),
    ModelParams(-0.999, 0.3, 1.0, 3.0),
)


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


def per_coefficient_route(n_max, p, tol):
    """The route the shared-panel engine replaced: one adaptive quadrature per
    coefficient, its base panels capped at 8 periods of its own frequency
    above frequency 64.  Returns app[0 .. n_max-1] and apm[-n_max .. n_max-2].
    """
    edges = np.concatenate([breakpoints(p), [TWO_PI]])

    def coefficient(weight, x):
        max_width = 8.0 * TWO_PI / abs(x) if abs(x) > 64 else None
        value, _ = adaptive_panels(
            lambda xi: weight(xi) * np.exp(-1j * x * xi), edges, tol * TWO_PI, max_width=max_width
        )
        return value / TWO_PI

    def w_pp(xi):
        return np.sign(kappa(xi, p)) * phi(p.delta, xi, p)

    def w_pm(xi):
        return (np.cos(xi) - p.lam - 1j * p.gamma * np.sin(xi)) / mu(xi, p) * phi(p.beta, xi, p)

    app = [coefficient(w_pp, x) if p.delta else 0.0 for x in range(n_max)]
    apm = [coefficient(w_pm, y) for y in range(-n_max, n_max - 1)]
    return np.array(app), np.array(apm)


def exponential_phase_table(xi):
    """One exponential per entry: the phase table before it was built by doubling."""
    return np.exp(-1j * xi[:, :, None] * np.arange(xyness.fourier._PHASE_BLOCK)[None, None, :])


def mp_coefficients(p, x_max, panel_width=0.2, dps=30):
    """app[-x_max .. x_max] and apm[-x_max .. x_max] in 30-digit arithmetic.

    Composite 48-point Gauss-Legendre on equal subpanels of each smooth piece
    between the zeros of kappa and of mu, all computed in mpmath; only the
    parameters come from the package.  sign(kappa) is constant on a piece and
    taken at its midpoint.  Negative frequencies are integrated like positive
    ones, so app[-x] = -app[x] is a result here, not an assumption.
    """
    mpmath = pytest.importorskip("mpmath")
    from mpmath.calculus.quadrature import GaussLegendre

    mp = mpmath.mp
    with mp.workdps(dps):
        gamma, lam = mp.mpf(p.gamma), mp.mpf(p.lam)
        beta, delta = mp.mpf(p.beta), mp.mpf(p.delta)
        cuts = [mp.zero, mp.pi, 2 * mp.pi]
        ratio = lam / (1 - gamma**2)
        if abs(ratio) <= 1:
            cuts += [mp.acos(ratio), 2 * mp.pi - mp.acos(ratio)]
        if gamma == 0 and abs(lam) <= 1:
            cuts += [mp.acos(lam), 2 * mp.pi - mp.acos(lam)]
        cuts = sorted(cuts)
        edges = [c for i, c in enumerate(cuts) if i == 0 or c - cuts[i - 1] > mp.mpf(10) ** (5 - dps)]
        rule = GaussLegendre(mp).calc_nodes(5, mp.prec)
        app = [mp.zero] * (2 * x_max + 1)
        apm = [mp.zero] * (2 * x_max + 1)
        for a, b in zip(edges[:-1], edges[1:]):
            mid = (a + b) / 2
            sign_kappa = mp.sign(2 * lam * mp.sin(mid) - (1 - gamma**2) * mp.sin(2 * mid))
            parts = int(mp.ceil((b - a) / panel_width))
            h = (b - a) / parts
            for j in range(parts):
                c = a + (j + mp.mpf(0.5)) * h
                for t, w in rule:
                    xi = c + t * h / 2
                    m = mp.sqrt((mp.cos(xi) - lam) ** 2 + (gamma * mp.sin(xi)) ** 2)
                    den = mp.cosh(beta * m) + mp.cosh(delta * m)
                    w_pp = w * h / 2 * sign_kappa * mp.sinh(delta * m) / den
                    w_pm = w * h / 2 * (mp.cos(xi) - lam - 1j * gamma * mp.sin(xi)) / m * mp.sinh(beta * m) / den
                    step = mp.expj(-xi)
                    phase = mp.expj(x_max * xi)  # e^{-i x xi} at x = -x_max
                    for k in range(2 * x_max + 1):
                        apm[k] += w_pm * phase
                        app[k] += w_pp * phase
                        phase *= step
        return (
            np.array([complex(v / (2 * mp.pi)) for v in app]),
            np.array([complex(v / (2 * mp.pi)) for v in apm]),
        )


#: the oracle sets, cold reservoirs (beta = 50) and 20 random generic points
GAUGE_SETS = (
    *ORACLE_SETS,
    ModelParams(0.5, 0.3, 1.0, 50.0),
    ModelParams(0.5, 0.3, 50.0, 50.0),
    ModelParams(0.0, 0.5, 20.0, 50.0),
    *random_points(20, seed=20261018),
)


def set_id(p):
    return f"{p.gamma:g},{p.lam:g},{p.beta_l:g},{p.beta_r:g}"


@pytest.fixture(scope="module")
def engine512():
    return {p: build_block_sequence(512, p, TOL) for p in ORACLE_SETS}


class TestEngineOracles:
    @pytest.mark.parametrize("p", ORACLE_SETS, ids=set_id)
    def test_matches_high_precision_oracle(self, p, engine512):
        seq = engine512[p]
        app, apm = mp_coefficients(p, 8)
        o = seq.n_max - 1  # index of x = 0 in seq.app
        x = np.arange(-8, 9)
        # the negative side of seq.app is mirrored; the oracle's is integrated
        assert np.max(np.abs(seq.app[o + x] - app)) <= 2 * TOL
        assert np.max(np.abs(seq.apm[x + seq.n_max] - apm)) <= 2 * TOL
        assert seq.err_estimate <= TOL

    @pytest.mark.parametrize("p", ORACLE_SETS, ids=set_id)
    def test_negative_pp_matches_high_precision_oracle(self, p):
        # fourier_coefficient integrates a negative PP index at its own
        # frequency, so this checks the engine's diagonal weight for oddness
        app, _ = mp_coefficients(p, 8)
        got = [fourier_coefficient(x, Component.PP, p, TOL) for x in range(-8, 0)]
        assert np.max(np.abs(np.array(got) - app[:8])) <= 2 * TOL

    def test_oracle_resolved(self):
        # halving the subpanels moves no value beyond the oracle's own noise
        p = ORACLE_SETS[1]
        coarse, fine = mp_coefficients(p, 8), mp_coefficients(p, 8, panel_width=0.1)
        for a, b in zip(coarse, fine):
            assert np.max(np.abs(a - b)) <= 1e-20

    @pytest.mark.parametrize("p", ORACLE_SETS, ids=set_id)
    def test_matches_per_coefficient_route(self, p, engine512):
        seq = engine512[p]
        app, apm = per_coefficient_route(512, p, TOL)
        assert np.max(np.abs(seq.app[511:] - app)) <= 2 * TOL
        assert np.max(np.abs(seq.apm - apm)) <= 2 * TOL


class TestPhaseTable:
    def test_doubling_matches_exponentials(self):
        # against e^{-i k xi} with k*xi and its cosine and sine in extended
        # precision: np.exp(-1j*k*xi) itself is off by up to 2.9e-14 near
        # 2 pi, where the rounding of its argument k*xi is that large, while
        # m*xi is exact for the powers of two m that the doubling uses
        if np.finfo(np.longdouble).eps > 1e-18:
            pytest.skip("long double has no extra precision on this platform")
        # Gauss nodes of 66 panels across [0, 2 pi]
        edges = np.linspace(0.0, TWO_PI, 67)
        half = 0.5 * np.diff(edges)
        xi = (0.5 * (edges[1:] + edges[:-1]))[:, None] + half[:, None] * _NODES[None, :]
        table = xyness.fourier._phase_table(xi)
        assert table.shape == xi.shape + (64,)
        angle = xi.astype(np.longdouble)[..., None] * np.arange(64)
        exact = np.cos(angle).astype(float) - 1j * np.sin(angle).astype(float)
        assert np.max(np.abs(table - exact)) <= 1e-15

    @pytest.mark.parametrize("p", ORACLE_SETS, ids=set_id)
    def test_blocks_match_the_exponential_table(self, p, engine512, monkeypatch):
        monkeypatch.setattr(xyness.fourier, "_phase_table", exponential_phase_table)
        reference = build_block_sequence(512, p, TOL)
        assert np.max(np.abs(engine512[p].blocks - reference.blocks)) <= 1e-14


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

    def test_pp_odd_symmetry_sees_broken_weight(self, base_params, monkeypatch):
        # a diagonal weight with an even part must fail the oddness check
        def skewed_phi(d, xi, p):
            return phi(d, xi, p) * (1.0 + 0.1 * np.sin(xi))

        monkeypatch.setattr(xyness.fourier, "phi", skewed_phi)
        plus = fourier_coefficient(1, Component.PP, base_params)
        minus = fourier_coefficient(-1, Component.PP, base_params)
        assert abs(plus + minus) > 1e-4

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
        # the diagonal is app[0] = -app[0], set to exactly 0
        assert abs(a0[0, 0]) <= seq.err_estimate and abs(a0[1, 1]) <= seq.err_estimate
        assert a0[0, 1] == -c and a0[1, 0] == c

    def test_blocks_match_single_calls_bitwise(self, base_params):
        seq = build_block_sequence(3, base_params)
        # offsets: app[x] at x + 2, apm[y] at y + 3, blocks[x] at x + 2;
        # the blocks are D a_x D, D = diag(e^{-i pi/4}, e^{i pi/4})
        for x in (-2, -1, 0, 1, 2):
            expected = np.array(
                [
                    [seq.app[x + 2].imag, -seq.apm[x - 1 + 3].real],
                    [seq.apm[-x - 1 + 3].real, seq.app[x + 2].imag],
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
        # a budget of 8 panel evaluations runs out after the first refinement
        monkeypatch.setattr(xyness.fourier, "_refine", functools.partial(_refine, max_panels=8))
        with pytest.raises(QuadratureError, match=r"coefficient P[PM]\[-?\d+\] did not converge") as info:
            build_block_sequence(4, base_params, tol=1e-13)
        assert "panel budget exhausted" in str(info.value.__cause__)

    @pytest.mark.parametrize("p", GAUGE_SETS, ids=set_id)
    def test_gauge_drops_only_noise(self, p):
        # Re app and Im apm, which the real blocks drop, stay well inside the
        # threshold of the gauge gate
        for n_max in (64, 512):
            seq = build_block_sequence(n_max, p, TOL)
            scale = max(np.abs(seq.app).max(), np.abs(seq.apm).max())
            limit = max(2.0 * seq.err_estimate, 1e-14 * scale)
            dropped = max(np.abs(seq.app.real).max(), np.abs(seq.apm.imag).max())
            assert dropped <= 0.5 * limit

    @pytest.mark.parametrize(
        "p, which",
        [(ModelParams(0.5, 0.3, 1.0, 2.0), "PP"), (ModelParams(0.5, 0.3, 2.0, 2.0), "PM")],
        ids=["pp", "pm-at-equilibrium"],
    )
    def test_gauge_gate_sees_broken_weight(self, p, which, monkeypatch):
        # a weight with an even part gives app a real part and apm an
        # imaginary one; at delta = 0 only the off-diagonal sequence exists
        def skewed_phi(d, xi, q):
            return phi(d, xi, q) * (1.0 + 0.1 * np.sin(xi))

        monkeypatch.setattr(xyness.fourier, "phi", skewed_phi)
        with pytest.raises(QuadratureError, match=rf"coefficient {which}\[-?\d+\] breaks the real gauge"):
            build_block_sequence(8, p, TOL)

    def test_gauge_gate_sees_imaginary_app0(self, base_params, monkeypatch):
        # the blocks set a_0's diagonal to 0, so Im app[0] is a dropped part
        integrate = xyness.fourier._coefficients

        def shifted(*args):
            values, err = integrate(*args)
            values[Component.PP] = values[Component.PP].copy()
            values[Component.PP][0] += 1e-3j  # app[0]
            return values, err

        monkeypatch.setattr(xyness.fourier, "_coefficients", shifted)
        with pytest.raises(QuadratureError, match=r"coefficient PP\[0\] breaks the real gauge"):
            build_block_sequence(8, base_params, TOL)

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
