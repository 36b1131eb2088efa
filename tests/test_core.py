"""Tensor core: construction, Kronecker algebra, reflection, application."""

import numpy as np
import pytest

from lumen import core
from lumen.core import (CapacityError, Decomposition, MultiplyCounter,
                        Rank1Term, ShapeError, TensorShape, apply_direct,
                        apply_power,
                        decomposition_from_text, decomposition_to_text,
                        kron_decomposition, kronecker, reflect,
                        reflect_decomposition, tensor_of_decomposition,
                        tensor_power)
from lumen.zoo import (matmul_tensor, strassen_decomposition, sw_decomposition,
                       sw_target, t2112_decomposition, t2112_target)
from lumen.efficacy import eff_table

S222 = TensorShape(2, 2, 2)


def naive_matmul(A, B):
    """Independent oracle: C[i,j] = sum_k A[i,k] B[j,k] by explicit loops."""
    n, d = A.shape
    m = B.shape[0]
    C = np.zeros((n, m), dtype=A.dtype)
    for i in range(n):
        for j in range(m):
            s = 0
            for k in range(d):
                s += A[i, k] * B[j, k]
            C[i, j] = s
    return C


class TestTensorOfDecomposition:
    def test_empty_sum_is_zero(self):
        d = Decomposition(S222, ())
        t = tensor_of_decomposition(d)
        assert not t.coeff.any()

    def test_strassen_expands_to_matmul_exactly(self):
        t = tensor_of_decomposition(strassen_decomposition())
        assert np.array_equal(t.coeff, matmul_tensor(2, 2).coeff)

    def test_sw_expands_to_its_target_exactly(self):
        t = tensor_of_decomposition(sw_decomposition())
        assert np.array_equal(t.coeff, sw_target().coeff)

    @pytest.mark.parametrize("eps", [0.5, 0.1, 0.025])
    def test_t2112_expands_to_target(self, eps):
        exp = tensor_of_decomposition(t2112_decomposition(eps, warn=False))
        tgt = t2112_target(eps)
        scale = np.abs(tgt.coeff).max()
        assert np.abs(exp.coeff - tgt.coeff).max() <= 1e-12 * scale


class TestKronecker:
    def test_matmul_kron_matmul(self):
        t = kronecker(matmul_tensor(2, 2), matmul_tensor(2, 2))
        assert np.array_equal(t.coeff, matmul_tensor(4, 4).coeff)

    def test_zero_annihilates(self):
        z = tensor_of_decomposition(Decomposition(S222, ()))
        t = kronecker(t2112_target(0.1), z)
        assert not t.coeff.any()

    def test_eff_table_multiplies(self):
        t1 = t2112_target(0.1)
        e1 = eff_table(t1).per_entry
        e2 = eff_table(kronecker(t1, t1)).per_entry
        assert np.allclose(e2, np.kron(e1, e1), rtol=1e-10)

    def test_associative_up_to_flattening(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(S222.coeff_shape)
        b = rng.standard_normal(S222.coeff_shape)
        c = rng.standard_normal(S222.coeff_shape)
        from lumen.core import Tensor
        ta, tb, tc = (Tensor(S222, x) for x in (a, b, c))
        left = kronecker(kronecker(ta, tb), tc)
        right = kronecker(ta, kronecker(tb, tc))
        assert np.allclose(left.coeff, right.coeff, rtol=1e-12)

    def test_capacity_error(self):
        t = matmul_tensor(4, 4)
        with pytest.raises(CapacityError):
            kronecker(t, t, capacity=100)


class TestKronDecomposition:
    def test_strassen_squared_is_rank_49_matmul44(self):
        d = kron_decomposition(strassen_decomposition(), strassen_decomposition())
        assert d.rank == 49
        assert np.array_equal(tensor_of_decomposition(d).coeff,
                              matmul_tensor(4, 4).coeff)

    def test_kron_with_empty_is_empty(self):
        d = kron_decomposition(strassen_decomposition(), Decomposition(S222, ()))
        assert d.rank == 0

    @pytest.mark.parametrize("eps,tol_factor", [(0.1, 16.0), (0.25, 16.0)])
    def test_t2112_kron_expansion_matches_target_kron(self, eps, tol_factor):
        d = t2112_decomposition(eps, warn=False)
        dk = kron_decomposition(d, d)
        assert dk.rank == 25
        want = kronecker(t2112_target(eps), t2112_target(eps))
        got = tensor_of_decomposition(dk)
        # the paired eps^-5 coefficients cancel only to floating precision,
        # so the attainable bound scales as u / eps^10
        tol = tol_factor * 2.3e-16 * eps ** -10
        assert np.abs(got.coeff - want.coeff).max() <= max(tol, 1e-12)


class TestReflect:
    def test_matmul_is_reflection_symmetric(self):
        t = matmul_tensor(2, 2)
        assert np.array_equal(reflect(t).coeff, t.coeff)

    def test_involution(self):
        t = t2112_target(0.1)
        assert np.array_equal(reflect(reflect(t)).coeff, t.coeff)

    def test_eff_transposes_under_reflection(self):
        t = sw_target()
        e = eff_table(t).per_entry
        er = eff_table(reflect(t)).per_entry
        assert np.allclose(er, e.T, rtol=1e-12)

    def test_reflect_decomposition_commutes(self):
        d = t2112_decomposition(0.25, warn=False)
        left = tensor_of_decomposition(reflect_decomposition(d))
        right = reflect(tensor_of_decomposition(d))
        assert np.allclose(left.coeff, right.coeff, rtol=1e-12)

    def test_requires_square(self):
        from lumen.core import Tensor
        shape = TensorShape(2, 3, 2)
        t = Tensor(shape, np.zeros(shape.coeff_shape))
        with pytest.raises(ShapeError):
            reflect(t)
        # q_i == q_j with rectangular k is fine
        reflect(matmul_tensor(2, 3))


class TestApplyDirect:
    def test_matmul_identity(self):
        I = np.eye(2)
        C = apply_direct(matmul_tensor(2, 2), I, I)
        assert np.array_equal(C, I)

    def test_strassen_classic_product(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        B = np.array([[5.0, 6.0], [7.0, 8.0]])
        t = tensor_of_decomposition(strassen_decomposition())
        # second argument in (j,k) layout = classical B transposed
        C = apply_direct(t, A, B.T.copy())
        assert np.array_equal(C, A @ B)

    def test_t2112_all_ones_entry(self):
        eps = 0.1
        t = t2112_target(eps)
        C = apply_direct(t, np.ones((2, 2)), np.ones((2, 2)))
        assert abs(C[0, 0] - (1 + 1 + eps ** 3 + eps)) < 1e-12
        assert abs(C[0, 0] - 2.101) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            apply_direct(matmul_tensor(2, 2), np.ones((2, 3)), np.ones((2, 2)))


class TestApplyRecursive:
    """apply_power, the level-by-level rank recursion, against the
    apply_direct oracle on the expanded tensor power."""

    def test_base_case_matches_direct(self):
        rng = np.random.default_rng(1)
        for d in (strassen_decomposition(), sw_decomposition(),
                  t2112_decomposition(0.25, warn=False)):
            A = rng.standard_normal((2, 2))
            B = rng.standard_normal((2, 2))
            C1 = apply_power([d], A, B)
            C0 = apply_direct(tensor_of_decomposition(d), A, B)
            assert np.allclose(C1, C0, rtol=1e-11, atol=1e-13)

    def test_strassen_integer_exact_vs_naive(self):
        rng = np.random.default_rng(2)
        A = rng.integers(-9, 10, size=(8, 8))
        B = rng.integers(-9, 10, size=(8, 8))
        C = apply_power([strassen_decomposition()] * 3, A, B)
        assert C.dtype == np.int64
        assert np.array_equal(C, naive_matmul(A, B))

    def test_multiply_counter_is_rank_power(self):
        rng = np.random.default_rng(3)
        for d, N in ((strassen_decomposition(), 3), (sw_decomposition(), 2),
                     (t2112_decomposition(0.5), 2)):
            A = rng.standard_normal((2 ** N, 2 ** N))
            B = rng.standard_normal((2 ** N, 2 ** N))
            c = MultiplyCounter()
            apply_power([d] * N, A, B, counter=c)
            assert c.count == d.rank ** N

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_oracle_equivalence_t2112_conditioned(self, N):
        """Direct-expansion oracle at a conditioning-safe epsilon."""
        d = t2112_decomposition(0.5)
        tN = tensor_power(tensor_of_decomposition(d), N)
        rng = np.random.default_rng(4)
        for _ in range(5):
            A = rng.standard_normal((2 ** N, 2 ** N))
            B = rng.standard_normal((2 ** N, 2 ** N))
            C1 = apply_power([d] * N, A, B)
            C0 = apply_direct(tN, A, B)
            assert np.abs(C1 - C0).max() <= 1e-9 * max(np.abs(C0).max(), 1.0)

    def test_apply_power_agrees_with_direct(self):
        rng = np.random.default_rng(5)
        for d in (strassen_decomposition(), t2112_decomposition(0.5)):
            N = 3
            tN = tensor_power(tensor_of_decomposition(d), N)
            A = rng.standard_normal((8, 8))
            B = rng.standard_normal((8, 8))
            c = MultiplyCounter()
            C1 = apply_power([d] * N, A, B, counter=c)
            C2 = apply_direct(tN, A, B)
            assert np.allclose(C1, C2, rtol=1e-9, atol=1e-9)
            assert c.count == d.rank ** N

    def test_apply_power_mixed_levels(self):
        d = t2112_decomposition(0.5)
        dr = reflect_decomposition(d)
        t = kronecker(tensor_of_decomposition(d), tensor_of_decomposition(dr))
        rng = np.random.default_rng(6)
        A = rng.standard_normal((4, 4))
        B = rng.standard_normal((4, 4))
        C1 = apply_power([d, dr], A, B)
        C0 = apply_direct(t, A, B)
        assert np.allclose(C1, C0, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("width", [1, 30])
    def test_chunked_sweep_matches_direct(self, monkeypatch, width):
        """A small SWEEP_WIDTH sends apply_power through its term-by-term
        loop over the leading levels (1 or 2 of the 3 here)."""
        monkeypatch.setattr(core, "SWEEP_WIDTH", width)
        d = t2112_decomposition(0.5)
        levels = [d, reflect_decomposition(d), sw_decomposition()]
        t = tensor_of_decomposition(levels[0])
        for lv in levels[1:]:
            t = kronecker(t, tensor_of_decomposition(lv))
        rng = np.random.default_rng(7)
        A = rng.standard_normal((8, 8))
        B = rng.standard_normal((8, 8))
        c = MultiplyCounter()
        C1 = apply_power(levels, A, B, counter=c)
        C0 = apply_direct(t, A, B)
        assert np.abs(C1 - C0).max() <= 1e-12 * np.abs(C0).max()
        assert c.count == 5 * 5 * 6
        # integer levels stay exact through the chunked loop
        st, sw = strassen_decomposition(), sw_decomposition()
        A = rng.integers(-9, 10, size=(8, 8))
        B = rng.integers(-9, 10, size=(8, 8))
        ts = kronecker(kronecker(tensor_of_decomposition(st),
                                 tensor_of_decomposition(sw)),
                       tensor_of_decomposition(st))
        C = apply_power([st, sw, st], A, B)
        assert C.dtype == np.int64
        assert np.array_equal(C, apply_direct(ts, A, B).round().astype(np.int64))

    def test_shape_errors(self):
        d = strassen_decomposition()
        with pytest.raises(ShapeError):
            apply_power([d] * 2, np.ones((2, 2)), np.ones((4, 4)))
        with pytest.raises(ShapeError):
            apply_power([d] * 2, np.ones((4, 4)), np.ones((4, 2)))


class TestBlend:
    """Mixed Kronecker products of two decompositions."""

    def test_rank_and_eff_multiply(self):
        d1 = t2112_decomposition(0.025, warn=False)
        d2 = strassen_decomposition()
        b = kron_decomposition(d1, d2)
        assert b.rank == 35
        eb = eff_table(tensor_of_decomposition(b)).total
        e1 = eff_table(t2112_target(0.025)).total
        e2 = eff_table(matmul_tensor(2, 2)).total
        assert abs(eb - e1 * e2) < 1e-9


class TestTextFormat:
    def test_round_trip(self):
        for d in (strassen_decomposition(), t2112_decomposition(0.1, warn=False)):
            text = decomposition_to_text(d)
            d2 = decomposition_from_text(text)
            assert d2.rank == d.rank
            assert np.array_equal(tensor_of_decomposition(d2).coeff,
                                  tensor_of_decomposition(d).coeff)

    def test_header_required(self):
        with pytest.raises(ValueError):
            decomposition_from_text("1 0 0 1; 1 0 0 1; 1 0 0 1\n")

    @pytest.mark.parametrize("text, message", [
        ("shape 2 2 2\n1 0 0; 1 0 0 1; 1 0 0 1\n",
         "line 2: expected 4 alpha coefficients, got 3"),
        ("shape 2 2\n", "line 1: expected `shape q_i q_j q_k`"),
        ("shape 2 2 x\n", "line 1: expected `shape q_i q_j q_k`"),
        ("shape 2 2 2\n1 0 0 1; 1 0 x 1; 1 0 0 1\n",
         "line 2: expected numeric beta coefficients"),
        ("shape 2 2 2\n1 0 0 1; 1 0 0 1; 1 0 0 nan\n",
         "line 2: expected finite gamma coefficients"),
    ], ids=["short-term", "short-header", "bad-header", "non-numeric",
            "non-finite"])
    def test_malformed_input_names_the_line(self, text, message):
        with pytest.raises(ValueError, match=message):
            decomposition_from_text(text)
