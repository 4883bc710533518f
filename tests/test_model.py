import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from xyness import (
    ModelParams,
    breakpoints,
    kappa,
    mu,
    mu_sup,
    phi,
    symbol_matrices,
    symbol_singular_values,
)
import xyness.fourier
from xyness.model import _cos_minus
from conftest import ACCEPTANCE_SETS, CRITICAL_SET, midpoint_grid

TWO_PI = 2.0 * math.pi


def closed_form_mu_min(p):
    """Minimum of mu over the circle (0 exactly when ``p.critical``).

    mu^2 is a convex quadratic in cos(xi): its minimum sits at the interior
    stationary point cos(xi) = lam/(1 - gamma^2) when that lies in [-1, 1],
    and at cos(xi) = sign(lam) otherwise.
    """
    c_star = p.lam / (1.0 - p.gamma**2)
    if abs(c_star) <= 1.0:
        val = p.gamma**2 * (1.0 - p.gamma**2 - p.lam**2) / (1.0 - p.gamma**2)
        return math.sqrt(max(val, 0.0))
    return abs(1.0 - abs(p.lam))


class TestModelParams:
    def test_derived_fields_exact(self):
        p = ModelParams(0.5, 0.3, 1.0, 3.0)
        assert p.beta == 2.0 and p.delta == 1.0
        assert not p.swapped and not p.critical

    def test_derived_fields_finite_near_overflow(self):
        # beta_l + beta_r overflows to inf; their halves do not
        p = ModelParams(0.5, 0.3, 1e308, 1.7e308)
        assert math.isfinite(p.beta) and math.isfinite(p.delta)
        assert (p.beta, p.delta) == pytest.approx((1.35e308, 0.35e308), rel=1e-15)

    def test_swap_rule(self):
        p = ModelParams(0.5, 0.3, 3.0, 1.0)
        assert p.swapped
        assert (p.beta_l, p.beta_r) == (1.0, 3.0)
        assert 0.0 <= p.delta < p.beta

    @pytest.mark.parametrize(
        "gamma,lam,critical",
        [
            (0.0, 0.5, True),
            (0.0, 1.0, True),
            (0.0, -1.0, True),
            (0.0, 1.5, False),
            (0.5, 1.0, True),
            (0.5, -1.0, True),
            (0.5, 0.3, False),
            (0.9, 0.0, False),
        ],
    )
    def test_critical_flag(self, gamma, lam, critical):
        assert ModelParams(gamma, lam, 1.0, 2.0).critical is critical

    @pytest.mark.parametrize(
        "bad",
        [
            dict(gamma=1.0),
            dict(gamma=-1.5),
            dict(gamma=math.nan),
            dict(beta_l=0.0),
            dict(beta_r=-1.0),
            dict(beta_l=math.inf),
            dict(lam=math.inf),
        ],
    )
    def test_rejects_invalid(self, bad):
        kwargs = dict(gamma=0.5, lam=0.3, beta_l=1.0, beta_r=2.0)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            ModelParams(**kwargs)


class TestDispersion:
    def test_kappa_zero_at_origin(self):
        for p in ACCEPTANCE_SETS:
            assert kappa(0.0, p) == 0.0

    def test_kappa_isotropic_point(self):
        p = ModelParams(0.0, 1.0, 1.0, 2.0)
        assert kappa(math.pi / 2, p) == pytest.approx(2.0, abs=1e-15)

    def test_kappa_frozen_value(self):
        # high-precision scalar oracle: 2*0.3*sin(1) - 0.75*sin(2)
        p = ModelParams(0.5, 0.3, 1.0, 2.0)
        assert kappa(1.0, p) == pytest.approx(-0.17709047923452337, abs=1e-15)

    def test_mu_at_origin(self):
        p = ModelParams(0.7, 0.3, 1.0, 2.0)
        assert mu(0.0, p) == pytest.approx(0.7, abs=1e-15)

    def test_mu_isotropic_closed_form(self):
        p = ModelParams(0.0, 0.0, 1.0, 2.0)
        xi = midpoint_grid(64)
        assert np.allclose(mu(xi, p), np.abs(np.cos(xi)), atol=1e-15)

    def test_mu_frozen_value(self):
        # sqrt(0.09 + 0.25), scalar oracle
        p = ModelParams(0.5, 0.3, 1.0, 2.0)
        assert mu(math.pi / 2, p) == pytest.approx(0.58309518948453005, abs=1e-15)

    @given(
        xi=st.floats(0.0, TWO_PI),
        gamma=st.floats(-0.95, 0.95),
        lam=st.floats(-2.0, 2.0),
    )
    def test_parity(self, xi, gamma, lam):
        p = ModelParams(gamma, lam, 1.0, 2.0)
        assert kappa(TWO_PI - xi, p) == pytest.approx(-kappa(xi, p), abs=1e-13)
        assert mu(TWO_PI - xi, p) == pytest.approx(mu(xi, p), abs=1e-13)

    def test_mu_exactly_even(self):
        xi = np.linspace(-TWO_PI, TWO_PI, 4001)
        for p in (*ACCEPTANCE_SETS, CRITICAL_SET, ModelParams(1e-9, 1.0, 1.0, 3.0)):
            assert np.array_equal(mu(-xi, p), mu(xi, p))

    @pytest.mark.parametrize("lam", [-1.0, -0.4228, 0.0, 0.5, 0.68559, 1.0])
    def test_mu_exact_zero_at_gamma_zero(self, lam):
        # the product form of cos(xi) - lam vanishes exactly at fl(acos(lam))
        p = ModelParams(0.0, lam, 1.0, 3.0)
        x0 = math.acos(lam)
        assert mu(x0, p) == 0.0 and mu(-x0, p) == 0.0

    def test_mu_nonnegative_and_zeros(self):
        xi = midpoint_grid(512)
        for p in (*ACCEPTANCE_SETS, CRITICAL_SET):
            assert np.all(mu(xi, p) >= 0.0)
        x0 = math.acos(0.5)
        assert np.allclose(mu(np.array([x0, TWO_PI - x0]), CRITICAL_SET), 0.0, atol=1e-15)
        assert closed_form_mu_min(ACCEPTANCE_SETS[0]) > 0.0
        # breakpoints are the panel edges of every symbol mean, so they must
        # hold every zero of mu: gamma = 0 with |lam| <= 1 (zeros at
        # +-acos(lam)) and gamma != 0 with |lam| = 1 (a zero at 0 or pi)
        critical = [ModelParams(0.0, lam, 1.0, 3.0) for lam in (-1.0, -0.4228, 0.0, 0.5, 1.0)]
        critical += [ModelParams(g, lam, 1.0, 3.0) for g in (0.5, -0.3, 1e-9) for lam in (1.0, -1.0)]
        for p in critical:
            if p.gamma == 0.0:
                zeros = [math.acos(p.lam), TWO_PI - math.acos(p.lam)]
            else:
                zeros = [0.0 if p.lam == 1.0 else math.pi]
            edges = np.append(breakpoints(p), TWO_PI)
            for z in zeros:
                assert np.min(np.abs(edges - z)) <= 1e-12, (p, z)
        # the minimum of mu sits on a breakpoint, near-critical points included
        near = [
            ModelParams(g, s * (1.0 + d), 1.0, 3.0)
            for g in (0.0, 1e-9, 0.5)
            for s in (1.0, -1.0)
            for d in (1e-12, -1e-6, 0.5)
        ]
        for p in critical + near:
            lowest = np.min(mu(breakpoints(p), p))
            assert lowest == pytest.approx(closed_form_mu_min(p), abs=1e-15), p


class TestCosMinus:
    XI = np.concatenate(
        [
            np.linspace(-TWO_PI, TWO_PI, 4001),
            np.linspace(-1e-5, 1e-5, 401),
            math.pi + np.linspace(-1e-5, 1e-5, 401),
        ]
    )
    RATIOS = (3.0, -3.0, 1.0 + 1e-6, -1.0 - 1e-6, 1.0 + 1e-12, -1.0 - 1e-12, 1.0, -1.0, 0.3, 0.0)

    @pytest.mark.parametrize("r", RATIOS)
    def test_even_and_close_to_sum_form(self, r):
        out = _cos_minus(self.XI, r)
        assert np.array_equal(out, _cos_minus(-self.XI, r))
        eps = np.finfo(float).eps
        assert np.max(np.abs(out - (np.cos(self.XI) - r))) <= 4.0 * eps * max(1.0, abs(r))

    @pytest.mark.parametrize("r", [r for r in RATIOS if abs(r) <= 1.0])
    def test_exact_zeros(self, r):
        x0 = math.acos(r)
        assert np.all(_cos_minus(np.array([x0, -x0]), r) == 0.0)


class TestPhi:
    def test_zero_alpha(self, base_params):
        xi = midpoint_grid(32)
        assert np.all(phi(0.0, xi, base_params) == 0.0)

    def test_equilibrium_half_angle(self):
        # delta = 0: phi_beta = tanh(beta*mu/2) pointwise
        p = ModelParams(0.5, 0.3, 2.0, 2.0)
        xi = midpoint_grid(257)
        lhs = phi(p.beta, xi, p)
        rhs = np.tanh(0.5 * p.beta * mu(xi, p))
        assert np.allclose(lhs, rhs, atol=1e-15)

    def test_frozen_value(self):
        # beta=2, delta=1, mu(0)=1: sinh(2)/(cosh(2)+cosh(1)), scalar oracle;
        # the product form of cos(0) - 0 about fl(pi/2) rounds 1 ulp below 1
        p = ModelParams(0.5, 0.0, 1.0, 3.0)
        assert mu(0.0, p) == 0.9999999999999998
        assert phi(2.0, 0.0, p) == pytest.approx(0.6836327054524381, abs=1e-15)

    def test_overflow_safe(self):
        p = ModelParams(0.5, 0.3, 1.0e5, 3.0e5)
        xi = midpoint_grid(64)
        vb, vd = phi(p.beta, xi, p), phi(p.delta, xi, p)
        assert np.all(np.isfinite(vb)) and np.all(np.isfinite(vd))
        # at these temperatures both tanh factors saturate
        assert np.allclose(vb + vd, 1.0, atol=1e-12)

    def test_sum_to_product_identities(self):
        xi = midpoint_grid(512)
        for p in ACCEPTANCE_SETS:
            m = mu(xi, p)
            pb, pd = phi(p.beta, xi, p), phi(p.delta, xi, p)
            assert np.allclose(pb + pd, np.tanh(0.5 * p.beta_r * m), atol=1e-12)
            assert np.allclose(pb - pd, np.tanh(0.5 * p.beta_l * m), atol=1e-12)

    def test_ordering_invariant(self):
        # 0 < phi_beta - phi_delta <= phi_beta + phi_delta < 1 off criticality
        xi = midpoint_grid(512)
        for p in ACCEPTANCE_SETS:
            pb, pd = phi(p.beta, xi, p), phi(p.delta, xi, p)
            assert np.all(pb - pd > 0.0)
            assert np.all(pb - pd <= pb + pd)
            assert np.all(pb + pd < 1.0)


class TestQFactor:
    """The symbol's unit-modulus factor q, read off as -a[0, 1]/phi_beta."""

    @staticmethod
    def q(xi, p):
        return -symbol_matrices(xi, p)[..., 0, 1] / phi(p.beta, xi, p)

    def test_unit_modulus(self):
        xi = midpoint_grid(512)
        for p in ACCEPTANCE_SETS:
            assert np.allclose(np.abs(self.q(xi, p)), 1.0, atol=1e-14)

    def test_simple_values(self):
        assert self.q(0.0, ModelParams(0.0, 0.0, 1.0, 2.0)) == pytest.approx(1.0)
        assert self.q(0.0, ModelParams(0.0, 2.0, 1.0, 2.0)) == pytest.approx(-1.0)

    def test_symbol_vanishes_at_exact_mu_zero(self):
        # exact zeros of mu: gamma=0, lam=1, xi=0, and at gamma=0
        # fl(acos(lam)), where the product form vanishes.  Both terms of the
        # direction's numerator are exactly 0 there, so a(xi) is exactly 0,
        # its analytic limit, with no 0/0 on the way
        x0 = math.acos(0.5)
        cases = ((0.0, ModelParams(0.0, 1.0, 1.0, 3.0)), (x0, CRITICAL_SET))
        with np.errstate(all="raise"):
            for xi, p in cases:
                assert np.all(symbol_matrices(xi, p) == 0.0)
                assert np.all(symbol_matrices(np.array([xi, -xi]), p) == 0.0)
        # a floating-point neighbor of a zero is continuous with it
        for xi, p in cases:
            for nb in (math.nextafter(xi, -4.0), math.nextafter(xi, 4.0)):
                assert np.max(np.abs(symbol_matrices(nb, p))) <= 1e-15
        # and the direction there is still a unit vector
        assert abs(self.q(math.nextafter(x0, 4.0), CRITICAL_SET)) == pytest.approx(1.0)


class TestSymbol:
    def test_structure(self, base_params):
        for xi in midpoint_grid(64):
            a = symbol_matrices(float(xi), base_params)
            assert a[0, 0].imag == 0.0 and a[1, 1].imag == 0.0
            assert a[0, 0] == -a[1, 1]
            assert abs(a[0, 1]) == pytest.approx(abs(a[1, 0]), abs=1e-15)
            assert abs(a[0, 1]) == pytest.approx(
                phi(base_params.beta, float(xi), base_params), abs=1e-15
            )

    def test_equilibrium_diagonal_vanishes(self):
        p = ModelParams(-0.4, 1.7, 2.0, 2.0)
        a = symbol_matrices(midpoint_grid(128), p)
        assert np.all(a[:, 0, 0] == 0.0) and np.all(a[:, 1, 1] == 0.0)

    def test_singular_values_match_closed_form(self):
        xi = midpoint_grid(512)
        for p in ACCEPTANCE_SETS:
            sv = np.linalg.svd(symbol_matrices(xi, p), compute_uv=False)
            lo, hi = symbol_singular_values(xi, p)
            assert np.max(np.abs(sv[:, 0] - hi)) < 1e-12
            assert np.max(np.abs(sv[:, 1] - lo)) < 1e-12

    def test_critical_singular_values_exact_at_zeros(self):
        # gamma = 0, |lam| < 1: mu in product form vanishes exactly at +-x0,
        # where cos(xi) - lam leaves rounding noise
        for lam in (-0.4228, 0.5, 0.68559):
            p = ModelParams(0.0, lam, 1.0, 3.0)
            x0 = math.acos(lam)
            for xi in (x0, -x0):
                assert symbol_singular_values(xi, p) == (0.0, 0.0)

    def test_critical_singular_values_even_and_close_to_sum_form(self):
        xi = np.linspace(0.0, TWO_PI, 4097)
        points = (
            CRITICAL_SET,
            ModelParams(0.5, 1.0, 1.0, 3.0),
            ModelParams(1e-9, -1.0, 2.0, 0.5),
            *ACCEPTANCE_SETS,
            ModelParams(0.5, -3.0, 1.0, 3.0),
            ModelParams(1e-9, 1.0 - 1e-12, 1.4701, 0.7152),
            ModelParams(0.0, -1.0 - 1e-12, 1.4701, 0.7152),
            ModelParams(1e-6, 1.0 + 1e-9, 2.0, 0.5),
        )
        for p in points:
            lo, hi = symbol_singular_values(xi, p)
            lo_neg, hi_neg = symbol_singular_values(-xi, p)
            assert np.array_equal(lo, lo_neg) and np.array_equal(hi, hi_neg)
            m = mu(xi, p)
            assert np.max(np.abs(lo - np.tanh(0.5 * p.beta_l * m))) < 1e-15
            assert np.max(np.abs(hi - np.tanh(0.5 * p.beta_r * m))) < 1e-15

    def test_singular_values_are_tanh_of_mu_bitwise(self):
        xi = np.linspace(-TWO_PI, TWO_PI, 2001)
        for p in (*ACCEPTANCE_SETS, CRITICAL_SET):
            lo, hi = symbol_singular_values(xi, p)
            m = mu(xi, p)
            assert np.array_equal(lo, np.tanh(0.5 * p.beta_l * m))
            assert np.array_equal(hi, np.tanh(0.5 * p.beta_r * m))

    def test_entries_are_the_engine_weights_bitwise(self):
        # the symbol and the coefficient engine share one route to the weights
        xi = midpoint_grid(256)
        for p in (*ACCEPTANCE_SETS, ModelParams(0.5, 0.3, 2.0, 2.0)):
            diag, off = xyness.fourier._symbol_weights(xi, p)
            a = symbol_matrices(xi, p)
            assert np.array_equal(a[:, 0, 0], diag)
            assert np.array_equal(a[:, 0, 1], off * -np.exp(1j * xi))

    @staticmethod
    def fermi_weight_deviation(xi, p):
        """Largest deviation of the symbol's weights from the Fermi weights.

        A mode at xi equilibrates with the reservoir that sign(kappa)
        selects, so its +-mu eigenspaces hold the Fermi weights
        w_pm = (1 + tanh((+-beta + sign(kappa)*delta)*mu/2))/2, and
        sign(kappa)*phi_delta = w_+ + w_- - 1, phi_beta = w_+ - w_-.
        """
        a = symbol_matrices(xi, p)
        m, s = mu(xi, p), np.sign(kappa(xi, p))
        w_plus = 0.5 + 0.5 * np.tanh(0.5 * (p.beta + s * p.delta) * m)
        w_minus = 0.5 + 0.5 * np.tanh(0.5 * (-p.beta + s * p.delta) * m)
        return max(
            np.max(np.abs(a[:, 0, 0] - (w_plus + w_minus - 1.0))),
            np.max(np.abs(np.abs(a[:, 0, 1]) - (w_plus - w_minus))),
        )

    def test_fermi_weight_identities(self):
        for p in ACCEPTANCE_SETS:
            assert self.fermi_weight_deviation(midpoint_grid(512), p) <= 1e-12

    @pytest.mark.parametrize(
        "beta_l,beta_r", [(1e-6, 2e-6), (1e3, 2e3), (1e-6, 1e3)], ids=["hot", "cold", "hot-cold"]
    )
    def test_fermi_weight_identities_extreme_temperatures(self, beta_l, beta_r):
        # the weights saturate without overflow; exp(-2*beta*mu) underflowing
        # to 0 is how they saturate, so underflow stays numpy's default
        with np.errstate(all="raise", under="ignore"):
            for q in ACCEPTANCE_SETS:
                p = ModelParams(q.gamma, q.lam, beta_l, beta_r)
                assert self.fermi_weight_deviation(midpoint_grid(64), p) <= 1e-12

    def test_determinant_positive(self):
        xi = midpoint_grid(256)
        for p in ACCEPTANCE_SETS:
            a = symbol_matrices(xi, p)
            det = np.linalg.det(a)
            lo, hi = symbol_singular_values(xi, p)
            assert np.allclose(det.imag, 0.0, atol=1e-14)
            assert np.all(det.real > 0.0)
            assert np.allclose(det.real, lo * hi, atol=1e-13)


class TestMuExtremes:
    @pytest.mark.parametrize(
        "gamma,lam,expected",
        [(0.0, 0.0, 1.0), (0.0, 0.5, 1.5), (0.5, 0.3, 1.3), (-0.4, 1.7, 2.7)],
    )
    def test_mu_sup_closed_form(self, gamma, lam, expected):
        p = ModelParams(gamma, lam, 1.0, 2.0)
        assert mu_sup(p) == pytest.approx(expected, abs=1e-15)
        # grid oracle: never exceeded, attained at an endpoint
        grid_max = float(np.max(mu(np.linspace(0, TWO_PI, 20001), p)))
        assert grid_max <= mu_sup(p) + 1e-12
        assert grid_max == pytest.approx(mu_sup(p), abs=1e-6)

    def test_mu_min_grid_oracle(self):
        for p in (*ACCEPTANCE_SETS, CRITICAL_SET):
            grid_min = float(np.min(mu(np.linspace(0, TWO_PI, 20001), p)))
            assert closed_form_mu_min(p) <= grid_min + 1e-12
            assert grid_min == pytest.approx(closed_form_mu_min(p), abs=1e-4)
