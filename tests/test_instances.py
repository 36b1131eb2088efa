"""Instance generation, packing, expansion, IO."""

import os
import re
import struct
from itertools import combinations

import numpy as np
import pytest

from lumen.efficacy import rho_joint_matrix
from lumen.instances import (MAGIC, Instance, SplitFamily, _joint_pieces,
                             _pieces, default_subset_size, expand_vectors,
                             gen_planted, gen_planted_p, pack_bits,
                             packed_inner, read_instance, sidecar_path,
                             subset_parities, unpack_bits, write_instance)


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
        inst = gen_planted_p(2, 20000, rho_joint_matrix(rho), seed=3)
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
            gen_planted_p(4, 8, np.eye(2), 0)


class TestPackedArithmetic:
    def test_inner_products_match_naive(self):
        rng = np.random.default_rng(5)
        d = 129   # force padding in the last word
        X = rng.integers(0, 2, size=(100, d), dtype=np.uint8)
        Y = rng.integers(0, 2, size=(100, d), dtype=np.uint8)
        wx, wy = pack_bits(X), pack_bits(Y)
        sx = 1 - 2 * X.astype(np.int64)
        sy = 1 - 2 * Y.astype(np.int64)
        got = packed_inner(wx, wy, d)
        assert got.dtype == np.int64
        assert np.array_equal(got, (sx * sy).sum(axis=1))
        assert np.array_equal(packed_inner(wx[:1], wy[:1], d), [sx[0] @ sy[0]])

    def test_pack_round_trip(self):
        rng = np.random.default_rng(6)
        bits = rng.integers(0, 2, size=(17, 200), dtype=np.uint8)
        assert np.array_equal(unpack_bits(pack_bits(bits), 200), bits)

    @pytest.mark.parametrize("j, word, value", [
        (0, 0, 1 << 56), (63, 0, 1 << 7), (64, 1, 1 << 56)])
    def test_word_layout(self, j, word, value):
        """Bit j sits at bit 8*(7 - (j mod 64) // 8) + j mod 8 of word
        j // 64; round trips and inner products hold under any layout, so
        only this pins the one the instance files use."""
        bits = np.zeros((1, 128), dtype=np.uint8)
        bits[0, j] = 1
        want = np.zeros((1, 2), dtype=np.uint64)
        want[0, word] = value
        got = pack_bits(bits)
        assert got.dtype == np.uint64 and np.array_equal(got, want)
        assert np.array_equal(unpack_bits(got, 128), bits)


class TestExpansion:
    def test_hand_computed_split_products(self):
        # x = (+1, +1, -1, +1) -> bits (0, 0, 1, 0); split pairs in
        # lexicographic order with the second half fastest: (0,2), (0,3),
        # (1,2), (1,3)
        bits = np.array([[0, 0, 1, 0]], dtype=np.uint8)
        out = expand_vectors(bits, 2, 4)
        signs = 1 - 2 * out.astype(int)
        assert signs.tolist() == [[-1, 1, -1, 1]]

    def test_odd_subset_size_refused(self):
        """Split families need an even r >= 2; r = 1 is refused by name."""
        bits = np.zeros((3, 10), dtype=np.uint8)
        with pytest.raises(ValueError, match="got r = 1$"):
            expand_vectors(bits, 1, 4)

    def test_rho_power_law(self):
        rho, r, d = 0.6, 2, 2000
        vals = []
        for s in range(30):
            inst = gen_planted(2, d, rho, seed=100 + s)
            i, j = inst.planted()
            m = 5000
            ex = expand_vectors(inst.X[[i]], r, m)
            ey = expand_vectors(inst.Y[[j]], r, m)
            corr = 1 - 2 * (ex ^ ey).mean()
            vals.append(corr)
        assert abs(np.mean(vals) - rho ** r) < 0.03

    def test_window_prefix_consistency(self):
        rng = np.random.default_rng(8)
        bits = rng.integers(0, 2, size=(4, 16), dtype=np.uint8)
        full = expand_vectors(bits, 2, 40, offset=11)
        part = expand_vectors(bits, 2, 13, offset=11)
        assert np.array_equal(full[:, :13], part)

    @pytest.mark.parametrize("d, r", [(8, 2), (11, 2), (12, 4),
                                      (13, 4), (12, 6), (14, 6)])
    def test_matches_brute_force_subset_xor(self, d, r):
        """Each window entry is the XOR of the bits over its split-family
        subset, with windows that wrap past the end and cover the family."""
        rng = np.random.default_rng(9)
        bits = rng.integers(0, 2, size=(5, d), dtype=np.uint8)
        h, d1 = r // 2, d // 2
        subsets = [s1 + s2 for s1 in combinations(range(d1), h)
                   for s2 in combinations(range(d1, d), h)]
        size = len(subsets)
        step = SplitFamily(d, r).stride
        for m, offset in ((size, 0), (size, size - 1),
                          (size // 2 + 1, 3 * size - 2), (1, size + 5)):
            out = expand_vectors(bits, r, m, offset)
            assert out.dtype == np.uint8 and out.shape == (5, m)
            for k in range(m):
                S = subsets[(offset + k * step) % size]
                want = np.bitwise_xor.reduce(bits[:, list(S)], axis=1)
                assert np.array_equal(out[:, k], want), (m, offset, k)

    @pytest.mark.parametrize("h, k", [(1, 1), (1, 6), (2, 1), (2, 9),
                                      (3, 1), (3, 7)])
    def test_subset_parities_match_scalar_xor(self, h, k):
        rng = np.random.default_rng(10 + h * k)
        bits = rng.integers(0, 2, size=(6, 11), dtype=np.uint8)
        cols = rng.integers(0, 11, size=(k, h)).astype(np.intp)
        got = subset_parities(bits, cols)
        assert got.dtype == np.uint8 and got.shape == (6, k)
        for i in range(6):
            for s in range(k):
                want = 0
                for c in cols[s]:
                    want ^= int(bits[i, c])
                assert got[i, s] == want, (i, s)

    @pytest.mark.parametrize("d, r", [(64, 2), (33, 2), (64, 4), (41, 4),
                                      (24, 6), (27, 6)])
    def test_piece_gather_equals_take_reference(self, d, r):
        """The piece gather over unranked window columns equals the byte
        gather np.take over the window's rows of the full half listing, on
        windows that start anywhere, wrap past the end of the family, and
        cover it whole."""
        rng = np.random.default_rng(d * r)
        bits = rng.integers(0, 2, size=(7, d), dtype=np.uint8)
        fam = SplitFamily(d, r)
        s1, s2 = fam.half_subsets()
        for m, offset in ((fam.size, 0), (fam.size, fam.size - 1),
                          (min(fam.size, 700), fam.size - 40),
                          (fam.size // 3, 2 * fam.size + 5), (1, 3)):
            idx = fam.window(m, offset)
            cols = np.hstack([s1[idx // len(s2)], s2[idx % len(s2)]])
            assert np.array_equal(fam.subsets(idx), cols)
            want = np.bitwise_xor.reduce(np.take(bits, cols.T, axis=1),
                                         axis=1)
            assert np.array_equal(expand_vectors(bits, r, m, offset), want)

    @pytest.mark.parametrize("d, r", [(8, 2), (9, 2), (12, 4), (13, 4),
                                      (14, 6), (20, 8)])
    def test_unranked_subsets_are_the_listing(self, d, r):
        """subsets(idx) unranks exactly the rows of the full half listing,
        which is lexicographic: SplitFamily(8, 4)'s first half starts
        [0, 1], [0, 2], [0, 3], [1, 2]."""
        fam = SplitFamily(d, r)
        s1, s2 = fam.half_subsets()
        full = np.array([list(a) + list(b) for a in s1 for b in s2])
        assert np.array_equal(fam.subsets(np.arange(fam.size)), full)
        assert [list(c) for c in combinations(range(fam.d1), r // 2)] \
            == s1.tolist()
        assert SplitFamily(8, 4).half_subsets()[0][:4].tolist() == [
            [0, 1], [0, 2], [0, 3], [1, 2]]

    def test_pieces_of_every_step(self):
        """A member column is cut greedily into maximal constant-step
        pieces, step 0 included, and any column gives the np.take parity:
        steps 1, 0, 2, -1 and -6, a single last element, and repeats."""
        v = np.array([3, 3, 3, 4, 5, 6, 6, 0, 2, 4, 6, 9, 8, 7, 7, 1])
        assert list(_pieces(v)) == [(0, 3, 0), (3, 6, 1), (6, 8, -6),
                                    (8, 11, 2), (11, 14, -1), (14, 16, -6)]
        assert list(_pieces(np.array([5]))) == [(0, 1, 0)]
        assert list(_pieces(np.array([0, 1, 2, 5]))) == [(0, 3, 1),
                                                         (3, 4, 0)]
        assert list(_pieces(np.array([0, 0, 0, 1, 1, 1]))) == [
            (0, 3, 0), (3, 6, 0)]
        rng = np.random.default_rng(12)
        bits = rng.integers(0, 2, size=(5, 10), dtype=np.uint8)
        cols = np.stack([v, v[::-1], np.sort(v) % 10], axis=1)
        want = np.bitwise_xor.reduce(np.take(bits, cols.T, axis=1), axis=1)
        assert np.array_equal(subset_parities(bits, cols), want)
        for k, h in ((0, 2), (4, 0)):
            out = subset_parities(bits, np.zeros((k, h), dtype=np.intp))
            assert out.shape == (5, k) and not out.any()

    def test_joint_pieces_cut_at_both_columns(self):
        """The first two members are XORed over their joint pieces: each
        column's pieces, cut wherever the other's begin, with both steps."""
        u, v = np.array([5, 6, 7, 8, 0, 1]), np.array([0, 0, 0, 1, 2, 3])
        assert list(_joint_pieces(u, v)) == [(0, 3, 1, 0), (3, 4, 1, 1),
                                             (4, 6, 1, 1)]
        assert list(_joint_pieces(v, u)) == [(0, 3, 0, 1), (3, 4, 1, 1),
                                             (4, 6, 1, 1)]
        bits = np.random.default_rng(13).integers(0, 2, size=(4, 9),
                                                  dtype=np.uint8)
        cols = np.stack([u, v], axis=1)
        assert np.array_equal(subset_parities(bits, cols),
                              bits[:, u] ^ bits[:, v])

    def test_family_size_guard(self):
        bits = np.zeros((1, 8), dtype=np.uint8)
        with pytest.raises(ValueError):
            expand_vectors(bits, 2, 1000)

    def test_default_subset_size(self):
        assert default_subset_size(512, 0.8, 25000) == 2
        assert default_subset_size(64, 0.8, 2000) == 4
        with pytest.raises(ValueError):
            default_subset_size(8, 0.8, 10 ** 9)


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

    def test_qary_header_refused(self, tmp_path):
        """A file as a q-ary writer laid it out: a q=4 header, the 16 entries
        of P, then one byte per symbol."""
        path = str(tmp_path / "inst4.bin")
        with open(path, "wb") as f:
            f.write(MAGIC + struct.pack("<QQQQB", 16, 50, 4, 3, 1))
            f.write(struct.pack("<16d", *np.full(16, 1 / 16)))
            f.write(bytes(2 * 16 * 50))
        with pytest.raises(ValueError, match=f"^{re.escape(path)}: the "
                           f"solvers need a q=2 instance, this one has q=4$"):
            read_instance(path)

    def test_round_trip_joint_law(self, tmp_path):
        path = str(tmp_path / "p2.bin")
        P = rho_joint_matrix(0.6)[:, ::-1]
        inst = gen_planted_p(16, 50, P, seed=14)
        write_instance(path, inst)
        back = read_instance(path)
        assert np.array_equal(back.X, inst.X) and np.array_equal(back.Y, inst.Y)
        assert back.rho is None and np.array_equal(back.P, P)

    def test_packed_payload_bytes(self, tmp_path):
        """The q=2 payload is each side's words, row-major, each word as 8
        little-endian bytes: bit 0 of a row lands in the last byte of its
        first word."""
        X = np.zeros((2, 70), dtype=np.uint8)
        Y = np.zeros((2, 70), dtype=np.uint8)
        X[0, [0, 9, 63]] = 1
        X[1, [1, 64, 69]] = 1
        Y[0, [8, 62]] = 1
        Y[1] = 1
        path = str(tmp_path / "tiny.bin")
        write_instance(path, Instance(2, 70, X, Y, 0.5, None, 0, None))
        with open(path, "rb") as f:
            data = f.read()
        assert data[45:].hex() == (
            "8000000000000201" "0000000000000000"
            "0000000000000002" "0000000000000021"
            "4000000000000100" "0000000000000000"
            "ffffffffffffffff" "000000000000003f")
        back = read_instance(path)
        assert np.array_equal(back.X, X) and np.array_equal(back.Y, Y)

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

    @pytest.mark.parametrize("content, fault", [
        ("{bad", "JSONDecodeError"), ('{"i": 1}', "KeyError"),
        ("[1, 2]", "TypeError"), ('{"i": 1, "j": "2"}', "TypeError")])
    def test_bad_sidecar_names_file_and_fault(self, tmp_path, capsys,
                                              content, fault):
        from lumen.cli import main as cli_main
        path = str(tmp_path / "inst.bin")
        write_instance(path, gen_planted(64, 128, 0.8, seed=13))
        with open(sidecar_path(path), "w") as f:
            f.write(content)
        with pytest.raises(ValueError) as err:
            read_instance(path, load_sidecar=True)
        assert str(err.value).startswith(f"{sidecar_path(path)}: ")
        assert fault in str(err.value)
        assert cli_main(["solve", "--path", path]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert sidecar_path(path) in err
