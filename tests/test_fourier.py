import functools
import math
import tracemalloc

import numpy as np
import pytest

from xyness import (
    ModelParams,
    QuadratureError,
    breakpoints,
    build_block_sequence,
    kappa,
    mu,
    phi,
    symbol_matrices,
)
import xyness.fourier
from xyness.quadrature import _NODES, _refine, _split_edges, adaptive_panels
from conftest import ACCEPTANCE_SETS, CRITICAL_SET, mp_coefficient_sums, paper_coefficients, random_points

TWO_PI = 2.0 * math.pi
TOL = xyness.fourier.COEFF_TOL

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
        if which == "PP":
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
        lo, hi = _split_edges(edges, max_width)
        value, _ = adaptive_panels(
            lambda xi: weight(xi) * np.exp(-1j * x * xi), np.append(lo, hi[-1]), tol * TWO_PI
        )
        return value / TWO_PI

    def w_pp(xi):
        return np.sign(kappa(xi, p)) * phi(p.delta, xi, p)

    def w_pm(xi):
        return (np.cos(xi) - p.lam - 1j * p.gamma * np.sin(xi)) / mu(xi, p) * phi(p.beta, xi, p)

    app = [coefficient(w_pp, x) if p.delta else 0.0 for x in range(n_max)]
    apm = [coefficient(w_pm, y) for y in range(-n_max, n_max - 1)]
    return np.array(app), np.array(apm)


def exponential_doubled(xi, step, count, doubled=xyness.fourier._doubled):
    """The phase table (``step`` 1) with one exponential per entry, as before
    it was built by doubling; the e^{-i*k0*xi} rows are still doubled."""
    if step != 1:
        return doubled(xi, step, count)
    return np.exp(-1j * xi[None, :, :] * np.arange(count)[:, None, None])


def mp_coefficients(p, x_max, panel_width=0.2, dps=30):
    """:func:`mp_coefficient_sums` rounded to complex doubles, as numpy arrays."""
    sums = mp_coefficient_sums(p, x_max, panel_width, dps)
    return tuple(np.array([complex(v) for v in part]) for part in sums)


#: the oracle sets, cold reservoirs (beta = 50), |lam| just inside
#: 1 - gamma^2 (a zero of kappa ~1e-7 from 0 or pi) and 20 random generic points
GAUGE_SETS = (
    *ORACLE_SETS,
    ModelParams(0.5, 0.3, 1.0, 50.0),
    ModelParams(0.5, 0.3, 50.0, 50.0),
    ModelParams(0.0, 0.5, 20.0, 50.0),
    ModelParams(0.5, 0.75 * (1 - 1e-14), 1.0, 2.0),
    ModelParams(0.5, -0.75 * (1 - 1e-14), 1.0, 2.0),
    ModelParams(0.5, 0.75 * (1 - 1e-15), 1.0, 2.0),
    *random_points(20, seed=20261018),
)


def set_id(p):
    return f"{p.gamma:g},{p.lam:g},{p.beta_l:g},{p.beta_r:g}"


@pytest.fixture(scope="module")
def engine512():
    return {p: build_block_sequence(512, p) for p in ORACLE_SETS}


class TestEngineOracles:
    @pytest.mark.parametrize("p", ORACLE_SETS, ids=set_id)
    def test_matches_high_precision_oracle(self, p, engine512):
        seq = engine512[p]
        got_app, got_apm = paper_coefficients(seq)
        app, apm = mp_coefficients(p, 8)
        o = seq.n_max - 1  # index of x = 0 in got_app
        x = np.arange(-8, 9)
        # the negative side of the blocks is mirrored; the oracle's is integrated
        assert np.max(np.abs(got_app[o + x] - app)) <= 2 * TOL
        assert np.max(np.abs(got_apm[x + seq.n_max] - apm)) <= 2 * TOL
        assert seq.err_estimate <= TOL

    def test_oracle_resolved(self):
        # halving the subpanels moves no value beyond the oracle's own noise
        p = ORACLE_SETS[1]
        coarse, fine = mp_coefficients(p, 8), mp_coefficients(p, 8, panel_width=0.1)
        for a, b in zip(coarse, fine):
            assert np.max(np.abs(a - b)) <= 1e-20

    @pytest.mark.parametrize("p", ORACLE_SETS, ids=set_id)
    def test_matches_per_coefficient_route(self, p, engine512):
        got_app, got_apm = paper_coefficients(engine512[p])
        app, apm = per_coefficient_route(512, p, TOL)
        assert np.max(np.abs(got_app[511:] - app)) <= 2 * TOL
        assert np.max(np.abs(got_apm - apm)) <= 2 * TOL


class TestFold:
    def test_budget_counts_each_folded_panel_twice(self, base_params, monkeypatch):
        # a panel on [0, pi] stands for itself and its mirror, so the panel
        # budget, set in circle panels, charges it twice
        budgets = []

        def spy(*args, **kwargs):
            budgets.append(kwargs.get("panel_cost"))
            return _refine(*args, **kwargs)

        monkeypatch.setattr(xyness.fourier, "_refine", spy)
        build_block_sequence(4, base_params)
        assert budgets == [2]


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
        table = xyness.fourier._doubled(xi, 1, 64)
        assert table.shape == (64,) + xi.shape
        angle = np.arange(64)[:, None, None] * xi.astype(np.longdouble)
        exact = np.cos(angle).astype(float) - 1j * np.sin(angle).astype(float)
        assert np.max(np.abs(table - exact)) <= 1e-15

    @pytest.mark.parametrize("p", ORACLE_SETS, ids=set_id)
    def test_blocks_match_the_exponential_table(self, p, engine512, monkeypatch):
        monkeypatch.setattr(xyness.fourier, "_doubled", exponential_doubled)
        reference = build_block_sequence(512, p)
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

    @pytest.mark.parametrize("p", GAUGE_SETS, ids=set_id)
    def test_kappa_exactly_odd_and_zero_at_breakpoints(self, p):
        # the engine's node pairs +-xi need sign(kappa) exactly odd, and its
        # panels need the sign to flip at the breakpoint itself, also where
        # a zero of kappa sits ~1e-7 from 0 or pi and the sum form cancels
        xi = np.linspace(0.0, math.pi, 1001)
        for x0 in breakpoints(p)[1:-1]:
            if x0 < math.pi:
                near = x0 + np.array([-1e-9, -1e-12, 0.0, 1e-12, 1e-9])
                xi = np.concatenate([xi, near, np.nextafter(x0, [0.0, 4.0])])
                assert kappa(x0, p) == 0.0
                below, above = kappa(np.nextafter(x0, [0.0, 4.0]), p)
                assert below * above < 0.0
        # exact equality; a zero of kappa may come out as 0.0 or -0.0
        assert np.array_equal(kappa(-xi, p), -kappa(xi, p))

    def test_boundary_degenerate_root_deduped(self):
        # |lam| = 1 - gamma^2: the extra root collides with 0 or pi
        pts = breakpoints(ModelParams(0.5, 0.75, 1.0, 2.0))
        assert pts == pytest.approx([0.0, math.pi])


def coefficient(seq, which, x):
    """app[x] (which=PP) or apm[x] (which=PM) as ``seq`` stores it."""
    app, apm = paper_coefficients(seq)
    if which == "PP":
        return app[x + seq.n_max - 1]
    return apm[x + seq.n_max]


class TestSingleCoefficient:
    """Single coefficients, read from the block sequence."""

    def test_pp_zero_offset(self, base_params):
        seq = build_block_sequence(1, base_params)
        assert abs(coefficient(seq, "PP", 0)) < 1e-12

    def test_pp_equilibrium_exactly_zero(self):
        seq = build_block_sequence(8, ModelParams(0.5, 0.3, 2.0, 2.0))
        assert coefficient(seq, "PP", 7) == 0.0

    def test_pp_odd_symmetry_independent(self, base_params):
        # a negative PP index is the sequence's mirror of the positive one;
        # the mpmath oracle checks that mirror against integrals of its own
        seq = build_block_sequence(10, base_params)
        for x in (1, 2, 5, 9):
            assert coefficient(seq, "PP", -x) == -coefficient(seq, "PP", x)

    # ids as recorded while the components were an enum, so each case keeps its name
    @pytest.mark.parametrize("which", ["PP", "PM"], ids=["Component.PP", "Component.PM"])
    @pytest.mark.parametrize("x", [0, 1, 2, 4, 8])
    def test_trapezoid_oracle(self, which, x, base_params):
        got = coefficient(build_block_sequence(10, base_params), which, x)
        ref = trapezoid_oracle(which, x, base_params)
        assert abs(got - ref) < 1e-9


class TestBlockSequence:
    def test_minimal_sequence(self, base_params):
        seq = build_block_sequence(1, base_params)
        assert seq.blocks.shape == (1, 2, 2)  # the single block a_0
        c = paper_coefficients(seq)[1][0]  # apm[-1]
        a0 = seq.blocks[0]
        # the diagonal is app[0] = -app[0], set to exactly +0.0
        for d in (a0[0, 0], a0[1, 1]):
            assert d == 0.0 and not np.signbit(d)
        assert a0[0, 1] == -c and a0[1, 0] == c

    @pytest.mark.parametrize("noise", [1e-13, -0.0])
    def test_a0_diagonal_is_set_not_integrated(self, base_params, noise, monkeypatch):
        # the stored diagonal does not depend on the engine's own Im app[0]
        engine = xyness.fourier._coefficients

        def noisy(*args):
            values, err = engine(*args)
            values[0] = noise
            return values, err

        monkeypatch.setattr(xyness.fourier, "_coefficients", noisy)
        seq = build_block_sequence(4, base_params)
        for d in (seq.blocks[3, 0, 0], seq.blocks[3, 1, 1]):
            assert d == 0.0 and not np.signbit(d)

    def test_blocks_match_coefficients_bitwise(self, base_params):
        seq = build_block_sequence(3, base_params)
        app, apm = paper_coefficients(seq)
        # offsets: app[x] at x + 2, apm[y] at y + 3, blocks[x] at x + 2;
        # the blocks are D a_x D, D = diag(e^{-i pi/4}, e^{i pi/4})
        for x in (-2, -1, 0, 1, 2):
            expected = np.array(
                [
                    [app[x + 2].imag, -apm[x - 1 + 3]],
                    [apm[-x - 1 + 3], app[x + 2].imag],
                ]
            )
            assert np.array_equal(seq.blocks[x + 2], expected)

    def test_equilibrium_zero_diagonal(self):
        p = ModelParams(-0.4, 1.7, 2.0, 2.0)
        seq = build_block_sequence(6, p)
        # app = 1j * blocks[:, 0, 0]
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
        app, _ = paper_coefficients(base_seq)
        scaled = {x: abs(x * app[x + o]) for x in range(1, base_seq.n_max)}
        C = max(scaled[x] for x in range(1, 17))
        for x in range(17, base_seq.n_max):
            assert scaled[x] <= 1.05 * C

    def test_budget_failure_names_coefficient(self, base_params, monkeypatch):
        # a budget of 8 panel evaluations runs out after the first refinement
        monkeypatch.setattr(xyness.fourier, "_refine", functools.partial(_refine, max_panels=8))
        with pytest.raises(QuadratureError, match=r"coefficient P[PM]\[-?\d+\] did not converge") as info:
            build_block_sequence(4, base_params)
        assert "panel budget exhausted" in str(info.value.__cause__)

    @pytest.mark.parametrize("p", GAUGE_SETS, ids=set_id)
    def test_gauge_drops_only_noise(self, p):
        # Re app and Im apm, which the real blocks drop, are never
        # integrated: the build passes the gate only where they vanish
        # exactly at every node pair.  The error estimate keeps its promise
        for n_max in (64, 512):
            assert build_block_sequence(n_max, p).err_estimate <= TOL

    @pytest.mark.parametrize("p", GAUGE_SETS, ids=set_id)
    def test_dropped_parts_are_exact_zeros(self, p):
        # Im app[0] is the one dropped part the engine sums: against sin 0 = 0,
        # so it is exactly zero
        for n_max in (64, 512):
            values, _ = xyness.fourier._coefficients(n_max, p)
            assert values[0] == 0.0

    @pytest.mark.parametrize(
        "p, which",
        [(ModelParams(0.5, 0.3, 1.0, 2.0), "PP"), (ModelParams(0.5, 0.3, 2.0, 2.0), "PM")],
        ids=["pp", "pm-at-equilibrium"],
    )
    def test_gauge_gate_sees_broken_weight(self, p, which, monkeypatch):
        # a weight with an even part would give app a real part and apm an
        # imaginary one, and the gate sees that part at the nodes; at
        # delta = 0 only the off-diagonal sequence exists
        weights = xyness.fourier._symbol_weights

        def skewed(xi, q):
            return tuple(f * (1.0 + 0.1 * np.sin(xi)) for f in weights(xi, q))

        monkeypatch.setattr(xyness.fourier, "_symbol_weights", skewed)
        with pytest.raises(QuadratureError, match=rf"^{which} weight breaks the real gauge"):
            build_block_sequence(8, p)

    @pytest.mark.parametrize("amplitude", [0.1, 1e-15])
    @pytest.mark.parametrize(
        "which, part",
        [
            ("PP", lambda f: f.real),
            ("PM", lambda f: f.real),
            ("PM", lambda f: 1j * f.imag),
        ],
        ids=["pp-even", "pm-odd-real", "pm-even-imaginary"],
    )
    def test_gate_sees_each_dropped_part(self, base_params, which, part, amplitude, monkeypatch):
        # f + a*sin(xi)*part(f) adds exactly one dropped part: an even PP
        # part, an odd real PM part or an even imaginary PM part.  The gate
        # compares the node pairs exactly, so a defect far below the
        # quadrature error (1e-15 relative) fires it too
        weights = xyness.fourier._symbol_weights

        def broken(xi, q):
            return tuple(
                f + amplitude * np.sin(xi) * part(f) if w == which else f
                for w, f in zip(("PP", "PM"), weights(xi, q))
            )

        monkeypatch.setattr(xyness.fourier, "_symbol_weights", broken)
        with pytest.raises(QuadratureError, match=rf"^{which} weight breaks the real gauge"):
            build_block_sequence(8, base_params)

    def test_integrates_only_the_kept_parts(self, base_params):
        # the refinement carries one real column per kept coefficient, so the
        # peak stays near its (panels, 3N - 1) level arrays: 54 MiB at N = 2048
        tracemalloc.start()
        try:
            build_block_sequence(2048, base_params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20

    def test_entry_budget_refuses_before_building(self, base_params, monkeypatch):
        # N = 1e7 would need ~4e13 entries in its first level: refused before
        # the symbol is evaluated or any panel array is built
        def never(*args):
            raise AssertionError("panel arrays built past the entry budget")

        monkeypatch.setattr(xyness.fourier, "_split_edges", never)
        with pytest.raises(QuadratureError, match=r"^coefficients at n_max=10000000 need 3\.75e\+13 "):
            build_block_sequence(10_000_000, base_params)

    @pytest.mark.parametrize(
        "point",
        [(0, 0.68559, 1.4701, 0.7152), (1e-9, 1, 1.4701, 0.7152), (0, -1, 2, 0.5),
         (1e-9, 0.999999999999, 1.4701, 0.7152), (0, 1.000000000001, 1.4701, 0.7152)],
        ids=str,
    )
    def test_entry_budget_admits_4096_at_critical_points(self, point):
        # the CI's critical and near-critical points, where the coefficients
        # at N = 4096 take 6.34e6 entries of the 2**25 budget
        seq = build_block_sequence(4096, ModelParams(*point))
        assert seq.err_estimate <= TOL

    def test_rebuild_is_bitwise_equal(self, base_params):
        a = build_block_sequence(5, base_params)
        b = build_block_sequence(5, base_params)
        assert a is not b
        assert a.blocks.tobytes() == b.blocks.tobytes()
        assert a.err_estimate == b.err_estimate

    @pytest.mark.parametrize("name", ["blocks"])
    def test_arrays_read_only(self, base_seq, name):
        with pytest.raises(ValueError):
            getattr(base_seq, name)[0] = 1.0

    def test_invalid_args(self, base_params):
        with pytest.raises(ValueError):
            build_block_sequence(0, base_params)


class TestCriticalParameters:
    def test_coefficients_finite_at_criticality(self):
        p = ModelParams(0.0, 0.5, 1.0, 3.0)
        seq = build_block_sequence(4, p)
        for blk in seq.blocks:
            assert np.all(np.isfinite(blk))
        assert seq.err_estimate < 1e-11


#: off-equilibrium, non-critical points of the far-tail check; six have four
#: zeros of kappa (|lam| <= 1 - gamma^2), the other four have two
FAR_TAIL_SETS = [
    ModelParams(0.5, 0.3, 1.0, 3.0),
    ModelParams(0.2, -0.4, 0.3, 10.0),
    ModelParams(0.9, 0.5, 0.5, 4.0),
    ModelParams(0.5, 1.5, 1.0, 3.0),
    ModelParams(-0.6, 0.2, 0.5, 2.0),
    ModelParams(0.0, 1.5, 1.0, 2.0),
    ModelParams(0.3, -1.2, 2.0, 5.0),
    ModelParams(0.7, 0.0, 1.0, 1.5),
    ModelParams(0.5, 0.3, 1e-3, 2e-3),
    ModelParams(-0.95, 0.05, 0.2, 8.0),
]
FAR_TAIL_N = 2048


def jump_term(p, xi_j, jump, x, terms=6):
    """Breakpoint xi_j's share of app[x] ~ (1/2pi) sum_j e^{-ix xi_j} sum_m J_j^(m) / (ix)^(m+1).

    Integration by parts on the smooth pieces of sign(kappa) * g, g = phi_delta
    of mu, leaves at each zero xi_j of kappa the jump J_j^(m) = jump * g^(m)(xi_j),
    ``jump`` the sign of kappa just after xi_j minus the sign just before.  The
    derivatives come from ``mp.diffs`` at 30 digits.
    """
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    with mp.workdps(30):
        gamma, lam = mp.mpf(p.gamma), mp.mpf(p.lam)
        beta, delta = mp.mpf(p.beta), mp.mpf(p.delta)

        def g(xi):
            m = mp.sqrt((mp.cos(xi) - lam) ** 2 + (gamma * mp.sin(xi)) ** 2)
            return mp.sinh(delta * m) / (mp.cosh(beta * m) + mp.cosh(delta * m))

        series = sum(d / (1j * x) ** (k + 1) for k, d in enumerate(mp.diffs(g, mp.mpf(xi_j), terms - 1)))
        return complex(mp.exp(-1j * x * mp.mpf(xi_j)) * jump * series / (2 * mp.pi))


def sign_jumps(p, xis):
    """The jump of sign(kappa) across each of ``xis``: the sign just after minus the sign just before."""
    return [np.sign(kappa(x0 + 1e-6, p)) - np.sign(kappa(x0 - 1e-6, p)) for x0 in xis]


def mu_zeros(p):
    """The zeros of kappa where mu vanishes too, decided by structure, not by a float test of mu.

    mu = hypot(cos(xi) - lam, gamma sin(xi)) vanishes at +-acos(lam) when
    gamma = 0 and |lam| <= 1, and at the xi in {0, pi} with cos(xi) = lam
    when |lam| = 1.  The symbol is analytic there (ROADMAP item 16), so
    these are no jumps.
    """
    zeros = set()
    if p.gamma == 0.0 and abs(p.lam) <= 1.0:
        zeros |= {math.acos(p.lam), (math.tau - math.acos(p.lam)) % math.tau}
    if abs(p.lam) == 1.0:
        zeros.add(0.0 if p.lam == 1.0 else math.pi)
    return zeros


#: critical points of the far-tail check, four with gamma = 0 and two with
#: |lam| = 1
FAR_TAIL_CRITICAL_SETS = [
    ModelParams(0.0, 0.5, 1.0, 3.0),
    ModelParams(0.0, 0.2, 0.5, 2.0),
    ModelParams(0.0, -0.7, 2.0, 0.6),
    ModelParams(0.5, 1.0, 1.0, 3.0),
    ModelParams(-0.3, -1.0, 0.8, 2.5),
    ModelParams(0.0, 0.0, 1.0, 2.0),
]
#: where the zeros of mu, counted as jumps, reach Im app; at the other three
#: critical points their terms vanish in Im app
MU_ZERO_CONTROL = set(FAR_TAIL_CRITICAL_SETS[:2] + FAR_TAIL_CRITICAL_SETS[3:4])


class TestFarTail:
    """The far tail of app against its asymptote from the jumps of sign(kappa) (ROADMAP items 14, 16)."""

    @pytest.mark.parametrize("p", FAR_TAIL_SETS + FAR_TAIL_CRITICAL_SETS, ids=set_id)
    def test_app_tail_matches_jump_asymptote(self, p):
        # the jumps are the zeros of kappa where mu != 0
        assert p.delta > 0.0
        seq = build_block_sequence(FAR_TAIL_N, p)
        dropped = mu_zeros(p)
        assert bool(dropped) == p.critical
        xis = [x0 for x0 in breakpoints(p) if x0 not in dropped]
        jumps = sign_jumps(p, xis)
        assert all(abs(j) == 2.0 for j in jumps)
        bound = 2.0 * seq.err_estimate
        for x in (1024, 2047):
            terms = [jump_term(p, x0, j, x) for x0, j in zip(xis, jumps)]
            im_app = seq.blocks[x + FAR_TAIL_N - 1, 0, 0]
            assert abs(im_app - sum(terms).imag) <= bound, x
            if p in MU_ZERO_CONTROL:
                # negative control: the zeros of mu counted as jumps as well
                wrong = sum(terms) + sum(
                    jump_term(p, x0, j, x) for x0, j in zip(dropped, sign_jumps(p, dropped))
                )
                assert abs(im_app - wrong.imag) > 1e6 * bound, x
        # negative control: at x = 2047, the asymptote with xi_0 moved by
        # 1e-6 misses by far more than the bound
        moved = jump_term(p, xis[0] + 1e-6, jumps[0], x) + sum(terms[1:])
        assert abs(im_app - moved.imag) > 10.0 * bound
