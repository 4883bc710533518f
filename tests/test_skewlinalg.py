import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xyness import (
    LogScalar,
    log_det,
    pfaffian,
    pfaffian_brute,
    singular_values,
    symbol_matrices,
    symbol_singular_values,
)

def random_skew(rng, dim, scale=1.0):
    M = scale * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return M - M.T


def naive_det(M):
    """Cofactor-expansion determinant; exponential cost, used as oracle."""
    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    if n == 1:
        return M[0, 0]
    return sum(
        (-1.0) ** j * M[0, j] * naive_det(np.delete(np.delete(M, 0, 0), j, 1))
        for j in range(n)
    )


class TestLogScalar:
    @given(
        mag=st.floats(1e-55, 1e55),
        angle=st.floats(-math.pi, math.pi),
    )
    def test_roundtrip(self, mag, angle):
        phase = complex(math.cos(angle), math.sin(angle))
        back = LogScalar(math.log(mag), phase).to_value()
        assert abs(back - mag * phase) <= 1e-14 * mag

    @given(mag=st.floats(1e-300, 1e300))
    def test_roundtrip_full_range(self, mag):
        # representation-limited accuracy ~|log_abs| * eps at range extremes
        back = LogScalar(math.log(mag)).to_value()
        assert abs(back - mag) <= 1e-13 * mag

    def test_zero(self):
        z = LogScalar(-math.inf)
        assert z.is_zero and z.to_value() == 0.0


class TestLogDet:
    def test_identity(self):
        d = log_det(np.eye(5))
        assert d.log_abs == pytest.approx(0.0, abs=1e-14)
        assert d.phase == pytest.approx(1.0)

    def test_tiny_diagonal_no_underflow(self):
        d = log_det(np.diag([1e-200, 1e-200]))
        assert d.log_abs == pytest.approx(2 * math.log(1e-200), rel=1e-14)
        assert d.phase == pytest.approx(1.0)

    def test_against_cofactor_oracle(self):
        rng = np.random.default_rng(7)
        M = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        got = log_det(M)
        ref = naive_det(M)
        assert got.log_abs == pytest.approx(math.log(abs(ref)), rel=1e-10)
        assert abs(got.phase - ref / abs(ref)) < 1e-10

    def test_exact_singular(self):
        M = np.array([[1.0, 2.0], [2.0, 4.0]])
        assert log_det(M).is_zero

    def test_row_swap_flips_phase_exactly(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((6, 6))
        swapped = M[[1, 0, 2, 3, 4, 5], :]
        assert log_det(swapped).phase == -log_det(M).phase
        assert log_det(swapped).log_abs == log_det(M).log_abs

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            log_det(np.ones((2, 3)))
        with pytest.raises(ValueError):
            log_det(np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestPfaffian:
    def test_two_by_two(self):
        c = 0.3 - 1.2j
        M = np.array([[0.0, c], [-c, 0.0]])
        assert pfaffian(M).to_value() == pytest.approx(c)

    def test_four_by_four_formula(self):
        rng = np.random.default_rng(11)
        A = random_skew(rng, 4)
        expected = A[0, 1] * A[2, 3] - A[0, 2] * A[1, 3] + A[0, 3] * A[1, 2]
        assert pfaffian(A).to_value() == pytest.approx(expected, rel=1e-12)
        assert pfaffian_brute(A) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_square_is_determinant(self, m):
        rng = np.random.default_rng(m)
        A = random_skew(rng, 2 * m)
        pf = pfaffian(A)
        det = log_det(A)
        assert 2 * pf.log_abs == pytest.approx(det.log_abs, rel=1e-9)
        assert abs(pf.phase**2 - det.phase) < 1e-9

    @pytest.mark.parametrize("m", [2, 3])
    def test_brute_oracle(self, m):
        rng = np.random.default_rng(20 + m)
        A = random_skew(rng, 2 * m)
        ref = pfaffian_brute(A)
        assert pfaffian(A).to_value() == pytest.approx(ref, rel=1e-10)

    def test_congruence(self):
        # Pf(B^T A B) = det(B) Pf(A), O(1) values in plain arithmetic
        rng = np.random.default_rng(42)
        for dim in (4, 6):
            A = random_skew(rng, dim)
            B = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            lhs = pfaffian(B.T @ A @ B).to_value()
            rhs = np.linalg.det(B) * pfaffian(A).to_value()
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_odd_dimension_zero(self):
        A = np.zeros((3, 3))
        assert pfaffian(A).is_zero

    def test_exact_zero(self):
        A = np.zeros((4, 4), dtype=complex)
        A[0, 1], A[1, 0] = 1.0, -1.0
        assert pfaffian(A).is_zero

    def test_underflow_scale(self):
        # magnitudes far below the double-precision floor survive in log scale
        rng = np.random.default_rng(5)
        A = random_skew(rng, 8, scale=1e-60)
        pf = pfaffian(A)
        det = log_det(A)
        assert pf.log_abs < -500.0
        assert 2 * pf.log_abs == pytest.approx(det.log_abs, rel=1e-9)

    def test_symmetrization_within_tol(self):
        rng = np.random.default_rng(9)
        A = random_skew(rng, 6)
        noisy = A + 1e-13 * rng.standard_normal((6, 6))
        ref = pfaffian(A)
        got = pfaffian(noisy)
        assert got.log_abs == pytest.approx(ref.log_abs, rel=1e-10)

    def test_rejects_non_skew(self):
        with pytest.raises(ValueError):
            pfaffian(np.eye(4))

    def test_rejects_non_finite(self):
        A = np.zeros((2, 2))
        A[0, 1], A[1, 0] = np.inf, -np.inf
        with pytest.raises(ValueError):
            pfaffian(A)


class TestNestedPfaffians:
    """The pivoted Pfaffian of every leading corner of one matrix, against the brute-force sum."""

    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_every_corner_matches_brute(self, dim, seed):
        A = random_skew(np.random.default_rng(seed), dim)
        for k in range(1, dim // 2 + 1):
            ref = pfaffian_brute(A[: 2 * k, : 2 * k])
            assert pfaffian(A[: 2 * k, : 2 * k]).to_value() == pytest.approx(ref, rel=1e-9, abs=1e-9)


class TestSingularValues:
    def test_diagonal(self):
        assert singular_values(np.diag([3.0, -4.0])) == pytest.approx([3.0, 4.0])

    def test_unitary(self):
        rng = np.random.default_rng(2)
        Q, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        assert np.allclose(singular_values(Q), 1.0, atol=1e-12)

    def test_symbol_closed_form(self, base_params):
        a = symbol_matrices(1.1, base_params)
        lo, hi = symbol_singular_values(1.1, base_params)
        assert singular_values(a) == pytest.approx([lo, hi], abs=1e-14)

    def test_ascending(self):
        rng = np.random.default_rng(6)
        sv = singular_values(rng.standard_normal((10, 10)))
        assert np.all(np.diff(sv) >= 0.0)


def bases(n):
    """A random, an upper-triangular, the identity and an exactly singular n x n matrix.

    The last has a zero first column, so its LU stops at a zero pivot and
    ``log_det`` sees a sign of 0 whatever the other entries hold.
    """
    rng = np.random.default_rng(n)
    singular = rng.standard_normal((n, n))
    singular[:, 0] = 0.0
    return (rng.standard_normal((n, n)), np.triu(rng.standard_normal((n, n))), np.eye(n), singular)


@pytest.mark.parametrize("fn", [log_det, singular_values], ids=lambda fn: fn.__name__)
class TestLapackInputChecks:
    """``log_det`` and ``singular_values`` scan for non-finite entries only
    when LAPACK's result is bad; every non-finite input must still raise."""

    @staticmethod
    def assert_rejected(fn, M):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no warning may escape either
            with pytest.raises(ValueError, match=rf"^{fn.__name__}: non-finite entries$"):
                fn(M)

    def test_every_position_up_to_6(self, fn):
        for n in range(1, 7):
            for base, bad in itertools.product(bases(n), (math.nan, math.inf, -math.inf)):
                for i, j in itertools.product(range(n), repeat=2):
                    M = base.copy()
                    M[i, j] = bad
                    self.assert_rejected(fn, M)

    def test_sampled_positions_up_to_128(self, fn):
        rng = np.random.default_rng(11)
        for n in (7, 8, 12, 16, 24, 32, 64, 128):
            corners = [(0, 0), (0, n - 1), (n - 1, 0), (n - 1, n - 1)]
            positions = corners + [tuple(ij) for ij in rng.integers(0, n, size=(6, 2))]
            for base, bad in itertools.product(bases(n), (math.nan, math.inf, -math.inf)):
                for i, j in positions:
                    M = base.copy()
                    M[i, j] = bad
                    self.assert_rejected(fn, M)

    def test_rejects_non_square(self, fn):
        for M in (np.ones((2, 3)), np.ones(4), np.ones((2, 2, 2))):
            with pytest.raises(ValueError, match=f"^{fn.__name__} expects a square matrix"):
                fn(M)

    def test_finite_singular_input_is_not_rejected(self, fn):
        # an exact zero sends log_det to the scan, which must pass a finite matrix
        for M in (np.zeros((3, 3)), np.array([[1.0, 2.0], [2.0, 4.0]]), np.diag([1.0, 0.0, 2.0])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = fn(M)
            if fn is log_det:
                assert got.is_zero and got.log_abs == -math.inf
            else:
                assert got[0] == pytest.approx(0.0, abs=1e-15)
