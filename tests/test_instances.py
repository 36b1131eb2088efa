"""Instance generation, packing, expansion, sign mappings, typicality, IO."""

import math
import os

import numpy as np
import pytest

from lumen.efficacy import rho_joint_matrix
from lumen.instances import (Instance, SplitFamily, check_vn,
                             default_subset_size, expand_vectors, gen_planted,
                             gen_planted_p, map_to_pm1, pack_bits,
                             packed_inner, read_instance, sidecar_path,
                             unpack_bits, write_instance)


class TestGenerators:
    def test_deterministic(self):
        a = gen_planted(64, 100, 0.5, seed=7)
        b = gen_planted(64, 100, 0.5, seed=7)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.Y, b.Y)
        assert a.planted() == b.planted()

    def test_rho_one_gives_identical_vectors(self):
        inst = gen_planted(16, 64, 1.0, seed=1)
        i, j = inst.planted()
        assert np.array_equal(inst.X[i], inst.Y[j])

    def test_planted_correlation_monte_carlo(self):
        rho = 0.5
        d = 10000
        vals = []
        for s in range(100):
            inst = gen_planted(2, d, rho, seed=s)
            i, j = inst.planted()
            x = 1.0 - 2.0 * inst.X[i]
            y = 1.0 - 2.0 * inst.Y[j]
            vals.append(float(x @ y) / d)
        assert abs(np.mean(vals) - rho) < 0.02

    def test_p_rho_reduces_to_classic(self):
        rho = 0.4
        inst = gen_planted_p(2, 20000, 2, rho_joint_matrix(rho), seed=3)
        i, j = inst.planted()
        agree = (inst.X[i] == inst.Y[j]).mean()
        assert abs(agree - (1 + rho) / 2) < 0.02

    def test_null_instances_clean(self):
        inst = gen_planted(16, 32, 0.9, seed=0, planted=False)
        assert inst.planted() is None

    def test_bad_args(self):
        with pytest.raises(ValueError):
            gen_planted(1, 8, 0.5, 0)
        with pytest.raises(ValueError):
            gen_planted(4, 8, 1.5, 0)
        with pytest.raises(ValueError):
            gen_planted_p(4, 8, 2, np.eye(2), 0)


class TestPackedArithmetic:
    def test_inner_products_match_naive(self):
        rng = np.random.default_rng(5)
        d = 129   # force padding in the last word
        X = rng.integers(0, 2, size=(100, d), dtype=np.uint8)
        Y = rng.integers(0, 2, size=(100, d), dtype=np.uint8)
        wx, wy = pack_bits(X), pack_bits(Y)
        sx = 1 - 2 * X.astype(np.int64)
        sy = 1 - 2 * Y.astype(np.int64)
        for k in range(100):
            want = int(sx[k] @ sy[k])
            assert packed_inner(wx[k:k + 1], wy[k:k + 1], d) == want

    def test_pack_round_trip(self):
        rng = np.random.default_rng(6)
        bits = rng.integers(0, 2, size=(17, 200), dtype=np.uint8)
        assert np.array_equal(unpack_bits(pack_bits(bits), 200), bits)


class TestExpansion:
    def test_hand_computed_split_products(self):
        # x = (+1, +1, -1, +1) -> bits (0, 0, 1, 0); split pairs in co-lex
        # order with the second half fastest: (0,2), (0,3), (1,2), (1,3)
        bits = np.array([[0, 0, 1, 0]], dtype=np.uint8)
        out = expand_vectors(bits, 2, 4)
        signs = 1 - 2 * out.astype(int)
        assert signs.tolist() == [[-1, 1, -1, 1]]

    def test_r1_identity_embedding(self):
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2, size=(3, 10), dtype=np.uint8)
        out = expand_vectors(bits, 1, 10)
        assert np.array_equal(out, bits)
        shifted = expand_vectors(bits, 1, 4, offset=3)
        assert np.array_equal(shifted, bits[:, 3:7])

    def test_rho_power_law(self):
        rho, r, d = 0.6, 2, 2000
        vals = []
        for s in range(30):
            inst = gen_planted(2, d, rho, seed=100 + s)
            i, j = inst.planted()
            fam = SplitFamily(d, r)
            m = 5000
            ex = expand_vectors(inst.X[[i]], r, m, family=fam)
            ey = expand_vectors(inst.Y[[j]], r, m, family=fam)
            corr = 1 - 2 * (ex ^ ey).mean()
            vals.append(corr)
        assert abs(np.mean(vals) - rho ** r) < 0.03

    def test_window_prefix_consistency(self):
        rng = np.random.default_rng(8)
        bits = rng.integers(0, 2, size=(4, 16), dtype=np.uint8)
        full = expand_vectors(bits, 2, 40, offset=11)
        part = expand_vectors(bits, 2, 13, offset=11)
        assert np.array_equal(full[:, :13], part)

    def test_family_size_guard(self):
        bits = np.zeros((1, 8), dtype=np.uint8)
        with pytest.raises(ValueError):
            expand_vectors(bits, 2, 1000)

    def test_default_subset_size(self):
        assert default_subset_size(512, 0.8, 25000) == 2
        assert default_subset_size(64, 0.8, 2000) == 4
        with pytest.raises(ValueError):
            default_subset_size(8, 0.8, 10 ** 9)


class TestMapToPm1:
    def test_classic_rho_matrix(self):
        rho = 0.3
        m = map_to_pm1(rho_joint_matrix(rho))
        assert abs(m.rho_out - rho) < 1e-12
        assert set(m.g.tolist()) == {1.0, -1.0}
        assert m.g.sum() == 0 and m.h.sum() == 0

    def test_block_diagonal_q4(self):
        rho = 0.5
        P = np.full((4, 4), (1 - rho) / 8 / 2)
        for a in (0, 1):
            for b in (0, 1):
                P[2 * a + b, 2 * a + (1 - b)] = (1 + rho) / 8 / 2
                P[2 * a + b, 2 * a + b] = (1 + rho) / 8 / 2
        P = P / P.sum()
        m = map_to_pm1(P)
        assert m.rho_out > 0

    def test_balance_and_correlation_empirical(self):
        rho = 0.4
        P = rho_joint_matrix(rho)
        m = map_to_pm1(P)
        rng = np.random.default_rng(9)
        n = 100000
        # independent with one uniform marginal: zero correlation
        b0 = rng.integers(0, 2, n)
        b1 = rng.integers(0, 2, n)
        prod = m.apply_x(b0) * m.apply_y(b1)
        assert abs(prod.mean()) < 3.0 / math.sqrt(n)
        # jointly sampled by P: correlation rho_out
        flat = rng.choice(4, size=n, p=P.ravel())
        prod = m.apply_x(flat // 2) * m.apply_y(flat % 2)
        assert abs(prod.mean() - m.rho_out) < 3.0 / math.sqrt(n)

    def test_odd_q_lifts(self):
        P = np.full((3, 3), 1 / 12)
        np.fill_diagonal(P, 1 / 12 + 1 / 18)
        P /= P.sum()
        m = map_to_pm1(P)
        assert m.lifted and m.rho_out > 0
        rng = np.random.default_rng(10)
        vals = m.apply_x(rng.integers(0, 3, 100), rng)
        assert set(np.unique(vals)) <= {1.0, -1.0}

    def test_uniform_rejected(self):
        with pytest.raises(ValueError):
            map_to_pm1(np.full((2, 2), 0.25))


class TestCheckVn:
    def test_exact_counts(self):
        P = rho_joint_matrix(0.0)
        x = np.array([0, 0, 1, 1])
        y = np.array([0, 1, 0, 1])
        assert check_vn(x, y, P, 4)
        y2 = np.array([0, 0, 0, 1])
        assert not check_vn(x, y2, P, 4)

    def test_typicality_rate_matches_multinomial(self):
        from math import comb
        rho, N = 0.2, 20
        P = rho_joint_matrix(rho)
        counts = np.round(P * N).astype(int)
        # exact multinomial point mass at the rounded cell counts
        ways = 1.0
        left = N
        for c in counts.ravel():
            ways *= comb(left, int(c))
            left -= int(c)
        pmass = ways * float(np.prod(P.ravel() ** counts.ravel()))
        rng = np.random.default_rng(11)
        trials = 20000
        flat = rng.choice(4, size=(trials, N), p=P.ravel())
        hits = 0
        for k in range(trials):
            if check_vn(flat[k] // 2, flat[k] % 2, P, N):
                hits += 1
        rate = hits / trials
        sig = math.sqrt(pmass * (1 - pmass) / trials)
        assert abs(rate - pmass) < 4 * sig + 1e-4


class TestBinaryIO:
    def test_round_trip_with_sidecar(self, tmp_path):
        path = str(tmp_path / "inst.bin")
        inst = gen_planted(32, 100, 0.7, seed=13)
        write_instance(path, inst)
        back = read_instance(path, load_sidecar=True)
        assert np.array_equal(back.X, inst.X)
        assert np.array_equal(back.Y, inst.Y)
        assert back.rho == inst.rho and back.n == inst.n and back.d == inst.d
        assert back.planted() == inst.planted()
        # without the sidecar the solver-facing file is blind
        os.remove(sidecar_path(path))
        blind = read_instance(path, load_sidecar=True)
        assert blind.planted() is None

    def test_round_trip_q4(self, tmp_path):
        path = str(tmp_path / "inst4.bin")
        P = np.full((4, 4), 1 / 32)
        np.fill_diagonal(P, 1 / 32 + 1 / 8)
        P /= P.sum()
        inst = gen_planted_p(16, 50, 4, P, seed=14)
        write_instance(path, inst)
        back = read_instance(path)
        assert np.array_equal(back.X, inst.X)
        assert back.P is not None and np.allclose(back.P, P)

    @pytest.mark.parametrize("size", [20, 60])
    def test_truncated_file_refused(self, tmp_path, size):
        path = str(tmp_path / "inst.bin")
        write_instance(path, gen_planted(32, 100, 0.7, seed=13))
        with open(path, "rb") as f:
            head = f.read(size)
        with open(path, "wb") as f:
            f.write(head)
        with pytest.raises(ValueError, match="inst.bin: truncated"):
            read_instance(path)

    def test_wide_alphabet_refused(self, tmp_path):
        P = np.full((300, 300), 1 / 300 ** 2)
        inst = gen_planted_p(4, 8, 300, P, seed=1, planted=False)
        with pytest.raises(ValueError, match="q=300"):
            write_instance(str(tmp_path / "wide.bin"), inst)
