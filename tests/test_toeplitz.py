import math

import numpy as np
import pytest

from xyness import (
    ModelParams,
    assemble,
    dump_matrix,
    singular_values,
    symbol_norm,
    symbol_singular_values,
)
from xyness.bounds import weak_rate
from conftest import ACCEPTANCE_SETS, CRITICAL_SET


class TestAssemble:
    def test_single_block(self, base_params, base_seq):
        T = assemble(1, base_seq)
        c = -base_seq.apm[-1 + base_seq.n_max]
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

    def test_skew_symmetry(self, base_seq):
        for n in (1, 4, 16, 33):
            T = assemble(n, base_seq)
            dev = float(np.max(np.abs(T + T.T)))
            assert dev <= 2.0 * base_seq.err_estimate

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
        assert np.array_equal(raw, T)
