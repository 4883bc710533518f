import math

import numpy as np
import pytest

from xyness import (
    ModelParams,
    assemble,
    build_block_sequence,
    dump_matrix,
    fold,
    folded,
    log_det,
    pfaffian,
    pfaffian_brute,
    singular_values,
    symbol_norm,
    symbol_singular_values,
)
from xyness.bounds import weak_rate
from conftest import ACCEPTANCE_SETS, CRITICAL_SET, random_points


def complex_assembly(n, seq):
    """The paper's complex Omega(n), gathered from the blocks
    a_x = [[app[x], -apm[x-1]], [apm[-x-1], -app[x]]] of ``seq.app``/``seq.apm``."""
    blocks = np.empty((2 * seq.n_max - 1, 2, 2), dtype=complex)
    blocks[:, 0, 0] = seq.app
    blocks[:, 1, 1] = -seq.app
    blocks[:, 0, 1] = -seq.apm
    blocks[:, 1, 0] = seq.apm[::-1]
    k = np.arange(n)
    ab = np.arange(2)
    return blocks[
        k[:, None, None, None] - k[:, None] + (seq.n_max - 1), ab[:, None, None], ab
    ].reshape(2 * n, 2 * n)


def ungauged(R):
    """D_n^{-1} R D_n^{-1}, D = diag(e^{-i pi/4}, e^{i pi/4}) on every site:
    i and -i on the diagonal positions of each 2x2 block, the off-diagonal
    positions as they are."""
    out = R.astype(complex)
    out[0::2, 0::2] = 1j * R[0::2, 0::2]
    out[1::2, 1::2] = -1j * R[1::2, 1::2]
    return out


#: the acceptance sets, the critical set, a hot set and |gamma| -> 1
CROSS_SETS = (
    *ACCEPTANCE_SETS,
    CRITICAL_SET,
    ModelParams(0.5, 0.3, 1e-3, 2e-3),
    ModelParams(0.999, 0.3, 1.0, 3.0),
    ModelParams(-0.999, 0.3, 1.0, 3.0),
)
CROSS_SIZES = (1, 2, 8, 16, 32, 64, 128, 256)

#: CROSS_SETS, a cold reservoir, |lambda| = 1 off gamma = 0 and random points
SKEW_SETS = (
    *CROSS_SETS,
    ModelParams(0.5, 0.3, 1.0, 50.0),
    ModelParams(0.5, 1.0, 1.0, 3.0),
    ModelParams(0.5, -1.0, 1.0, 3.0),
    *random_points(10, seed=20261019),
)

#: sizes whose smallest singular value lies below the part the gauge drops:
#: at this equilibrium point one singular-value pair decays into quadrature
#: noise, so log|det| and log|Pf| are noise there on either route
UNRESOLVED = {ModelParams(-0.4, 1.7, 2.0, 2.0): (32, 64, 128, 256)}


def set_id(p):
    return f"{p.gamma:g},{p.lam:g},{p.beta_l:g},{p.beta_r:g}"


class TestAssemble:
    def test_single_block(self, base_params, base_seq):
        T = assemble(1, base_seq)
        c = -base_seq.apm[-1 + base_seq.n_max].real  # real gauge
        assert T[0, 1] == c and T[1, 0] == -c

    def test_two_blocks_layout(self, base_seq):
        T = assemble(2, base_seq)
        o = base_seq.n_max - 1  # index of x = 0
        assert np.array_equal(T[0:2, 0:2], base_seq.blocks[0 + o])
        assert np.array_equal(T[0:2, 2:4], base_seq.blocks[-1 + o])
        assert np.array_equal(T[2:4, 0:2], base_seq.blocks[1 + o])
        assert np.array_equal(T[2:4, 2:4], base_seq.blocks[0 + o])

    @pytest.mark.parametrize("n", [1, 5, 33])
    def test_gather_matches_every_block_bitwise(self, base_seq, n):
        T = assemble(n, base_seq)
        o = base_seq.n_max - 1
        for i in range(n):
            for j in range(n):
                block = T[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                assert block.tobytes() == base_seq.blocks[i - j + o].tobytes()

    def test_skew_symmetry(self):
        # skew by construction, bit for bit: assemble checks nothing, so this
        # is the guard; every smaller size is a leading corner
        for p in SKEW_SETS:
            for n_max in (64, 512):
                T = assemble(n_max, build_block_sequence(n_max, p))
                assert np.array_equal(T, -T.T), (set_id(p), n_max)

    def test_nested_truncation_bitwise(self, base_seq):
        big = assemble(20, base_seq)
        for m in (1, 5, 13, 20):
            small = assemble(m, base_seq)
            assert np.array_equal(big[: 2 * m, : 2 * m], small)

    def test_insufficient_range(self, base_seq):
        with pytest.raises(ValueError):
            assemble(base_seq.n_max + 1, base_seq)
        with pytest.raises(ValueError):
            assemble(0, base_seq)

    def test_dim(self, base_seq):
        assert assemble(7, base_seq).shape == (14, 14)


class TestFold:
    """The reflection symmetry J R J = -R and the n x n fold it gives."""

    def test_reflection_symmetry(self):
        # bit for bit, by construction: fold checks nothing, so this is the
        # guard; the reflection of a leading corner is about its own centre
        for p in SKEW_SETS:
            for n_max in (64, 512):
                R = assemble(n_max, build_block_sequence(n_max, p))
                assert np.array_equal(R[::-1, ::-1], -R), (set_id(p), n_max)
                corner = R[:34, :34]
                assert np.array_equal(corner[::-1, ::-1], -corner), (set_id(p), n_max)

    @pytest.mark.parametrize("p", CROSS_SETS, ids=set_id)
    def test_is_the_block_of_the_dense_rotation(self, p):
        seq = build_block_sequence(16, p)
        for n in (1, 2, 3, 8, 16):
            R = assemble(n, seq)
            eye, J = np.eye(n), np.eye(n)[::-1]
            Q = np.block([[eye, eye], [J, -J]]) / math.sqrt(2.0)
            assert np.allclose(Q.T @ Q, np.eye(2 * n), rtol=0.0, atol=1e-15)
            rotated = Q.T @ R @ Q
            atol = 1e-15 * np.max(np.abs(R))
            assert np.allclose(rotated[:n, n:], fold(R), rtol=0.0, atol=atol)
            assert np.allclose(rotated[n:, :n], -fold(R).T, rtol=0.0, atol=atol)
            assert np.max(np.abs(rotated[:n, :n])) <= atol
            assert np.max(np.abs(rotated[n:, n:])) <= atol

    @pytest.mark.parametrize("p", CROSS_SETS, ids=set_id)
    def test_singular_values_and_determinant(self, p):
        seq = build_block_sequence(max(CROSS_SIZES), p)
        R = assemble(seq.n_max, seq)
        for n in CROSS_SIZES:
            corner = R[: 2 * n, : 2 * n]
            X = fold(corner)
            assert X.shape == (n, n)
            sv = singular_values(corner)
            doubled = np.repeat(singular_values(X), 2)
            assert np.max(np.abs(doubled - sv)) <= 1e-13 * sv[-1], n
            det = log_det(corner).log_abs
            assert abs(2.0 * log_det(X).log_abs - det) <= 1e-12 * abs(det), n

    @pytest.mark.parametrize("p", CROSS_SETS[:5], ids=set_id)
    def test_determinant_is_the_brute_pfaffian(self, p):
        seq = build_block_sequence(6, p)
        for n in range(1, 7):
            R = assemble(n, seq)
            brute = abs(pfaffian_brute(R))
            assert abs(np.linalg.det(fold(R))) == pytest.approx(brute, rel=1e-12), n


class TestFolded:
    """The fold gathered from the blocks, without R."""

    @pytest.mark.parametrize("p", SKEW_SETS, ids=set_id)
    def test_is_the_fold_of_the_assembly_bytewise(self, p):
        N = 97
        seq = build_block_sequence(N, p)
        for n in (1, 2, 3, 8, 33, N - 1, N):
            X = folded(n, seq)
            assert X.shape == (n, n) and X.flags.c_contiguous, n
            assert X.tobytes() == fold(assemble(n, seq)).tobytes(), n

    @pytest.mark.parametrize("p", CROSS_SETS, ids=set_id)
    def test_is_toeplitz_minus_hankel_up_to_a_signed_permutation(self, p):
        # X[i, j] = (-1)^j (alpha[pi_i - pi_j] - c[pi_i + pi_j - (n-1)]) with
        # pi = (0, n-1, 1, n-2, ...): equal in value, where a sign flip of an
        # exact zero difference may give -0.0 in place of +0.0
        seq = build_block_sequence(33, p)
        o = seq.n_max - 1
        alpha, c = seq.blocks[:, 0, 0], seq.blocks[:, 0, 1]
        for n in (1, 2, 7, 8, 33):
            k = np.arange(n)
            T = alpha[k[:, None] - k + o]
            H = c[k[:, None] + k - (n - 1) + o]
            pi = np.where(k % 2 == 0, k // 2, n - 1 - k // 2)
            assert sorted(pi) == list(k)
            expected = (T - H)[np.ix_(pi, pi)] * (-1.0) ** k
            assert np.array_equal(folded(n, seq), expected), n

    def test_size_errors_match_assemble(self, base_seq):
        for n in (0, -1, base_seq.n_max + 1):
            with pytest.raises(ValueError) as assembled:
                assemble(n, base_seq)
            with pytest.raises(ValueError) as gathered:
                folded(n, base_seq)
            assert str(gathered.value) == str(assembled.value)


class TestSymbolNorm:
    def test_saturated_temperatures(self):
        # beta_r = 50, mu_sup = 1: tanh(25) rounds to 1 in double precision
        p = ModelParams(0.0, 0.0, 50.0, 50.0)
        assert symbol_norm(p) == pytest.approx(1.0, abs=1e-14)

    def test_equilibrium_closed_form(self):
        p = ModelParams(0.5, 0.3, 2.0, 2.0)
        expected = math.tanh(0.5 * p.beta * 1.3)  # mu_sup = 1 + |lam|
        assert symbol_norm(p) == pytest.approx(expected, abs=1e-12)

    def test_strictly_below_one(self):
        for p in ACCEPTANCE_SETS:
            assert symbol_norm(p) < 1.0

    def test_exact_maximum(self):
        # the maximizer sits at xi in {0, pi}, so the grid max is exact
        for p in ACCEPTANCE_SETS:
            expected = math.tanh(0.5 * p.beta_r * (1.0 + abs(p.lam)))
            assert symbol_norm(p) == pytest.approx(expected, abs=1e-14)

    def test_matches_sampled_maximum(self):
        # independent of mu_sup: the sampled top singular value of the symbol,
        # on a grid that holds both candidate maximizers 0 and pi
        xi = np.arange(4096) * (2.0 * math.pi / 4096)
        assert xi[0] == 0.0 and xi[2048] == math.pi
        points = (
            *ACCEPTANCE_SETS,
            CRITICAL_SET,
            ModelParams(0.0, 0.0, 50.0, 50.0),  # tanh saturates
            ModelParams(0.99, 0.3, 1.0, 3.0),
            ModelParams(-0.99, 0.3, 1.0, 3.0),
            ModelParams(0.5, 0.0, 1.0, 3.0),
            ModelParams(0.5, -1.7, 1.0, 2.0),
        )
        for p in points:
            sampled = float(np.max(symbol_singular_values(xi, p)[1]))
            assert abs(symbol_norm(p) - sampled) <= 1e-15, p
            assert weak_rate(p) == 2 * math.log(symbol_norm(p))


class TestNormBound:
    def test_truncation_norm_below_symbol_norm(self, base_params, base_seq):
        bound = symbol_norm(base_params)
        for n in (2, 8, 32):
            sv = singular_values(assemble(n, base_seq))
            assert sv[-1] <= bound + 1e-8


class TestDump:
    def test_roundtrip(self, base_seq, tmp_path):
        T = assemble(3, base_seq)
        path = tmp_path / "omega.bin"
        dump_matrix(T, path)
        raw = np.frombuffer(path.read_bytes(), dtype="<c16").reshape(6, 6)
        # the dump undoes the real gauge
        assert np.array_equal(raw, ungauged(T))

    def test_rejects_complex_entries(self, base_seq, tmp_path):
        with pytest.raises(ValueError, match="real truncation"):
            dump_matrix(complex_assembly(2, base_seq), tmp_path / "omega.bin")

    @pytest.mark.parametrize("p", CROSS_SETS[:6], ids=set_id)
    def test_dump_is_the_complex_omega(self, p, tmp_path):
        seq = build_block_sequence(16, p)
        path = tmp_path / "omega.bin"
        dump_matrix(assemble(16, seq), path)
        raw = np.frombuffer(path.read_bytes(), dtype="<c16").reshape(32, 32)
        assert np.max(np.abs(raw - complex_assembly(16, seq))) <= 1e-14


class TestRealGauge:
    """The real route against the paper's complex Omega(n) of the same coefficients."""

    @pytest.mark.parametrize("p", CROSS_SETS, ids=set_id)
    def test_matches_complex_route(self, p):
        seq = build_block_sequence(max(CROSS_SIZES), p)
        R = assemble(seq.n_max, seq)
        C = complex_assembly(seq.n_max, seq)
        assert R.dtype == np.float64
        unresolved = []
        for n in CROSS_SIZES:
            r, c = R[: 2 * n, : 2 * n], C[: 2 * n, : 2 * n]
            sv_r, sv_c = singular_values(r), singular_values(c)
            assert np.max(np.abs(sv_r - sv_c)) <= 1e-13 * sv_c[-1]
            # Weyl: each singular value moves by at most the norm of the
            # dropped part, which bounds the move of every log-magnitude
            dropped = np.linalg.norm(c - ungauged(r))  # Frobenius >= spectral
            lowest = np.minimum(sv_r, sv_c)
            if dropped >= lowest[0]:
                unresolved.append(n)
                continue
            weyl = float(np.sum(-np.log1p(-dropped / lowest)))
            det_r, det_c = log_det(r).log_abs, log_det(c).log_abs
            assert abs(det_r - det_c) <= max(1e-12 * (1.0 + abs(det_c)), weyl)
            # log|Pf| of the real route from the fold, of the complex one pivoted
            pf_r, pf_c = log_det(fold(r)).log_abs, pfaffian(c).log_abs
            assert abs(pf_r - pf_c) <= max(1e-12 * (1.0 + abs(pf_c)), 0.5 * weyl)
        assert tuple(unresolved) == UNRESOLVED.get(p, ())

    @pytest.mark.parametrize("p", CROSS_SETS, ids=set_id)
    def test_real_phases_are_signs(self, p):
        seq = build_block_sequence(16, p)
        R = assemble(16, seq)
        for n in (1, 2, 8, 16):
            corner = R[: 2 * n, : 2 * n]
            assert log_det(corner).phase in (1.0, -1.0)
            assert log_det(fold(corner)).phase in (1.0, -1.0)
            assert pfaffian(corner).phase in (1.0, -1.0)
