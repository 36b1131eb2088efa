"""Built-in tensor constants and their reference quantities."""

import math

import numpy as np
import pytest

from lumen.core import tensor_of_decomposition
from lumen.efficacy import eff_entry, eff_table, exponent_bound
from lumen.zoo import (matmul_tensor, strassen_decomposition, sw_decomposition,
                       sw_target, t2112_decomposition, t2112_derivation_check,
                       t2112_limit_tensor, t2112_target, zoo_decomposition,
                       zoo_entries, zoo_target)


class TestMatmulTensor:
    def test_trivial_case(self):
        t = matmul_tensor(1, 1)
        assert t.coeff.sum() == 1.0 and t.coeff[0, 0, 0, 0, 0, 0] == 1.0

    def test_eight_unit_terms(self):
        t = matmul_tensor(2, 2)
        assert (t.coeff == 1).sum() == 8
        assert (t.coeff == 0).sum() == t.coeff.size - 8

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_eff_is_n_to_three_halves(self, n):
        assert abs(eff_table(matmul_tensor(n, n)).total - n ** 1.5) < 1e-12

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            matmul_tensor(0, 2)


class TestStrassen:
    def test_rank_seven(self):
        assert strassen_decomposition().rank == 7

    def test_eff_sqrt8(self):
        assert abs(eff_table(matmul_tensor(2, 2)).total - math.sqrt(8)) < 1e-12

    def test_exponent(self):
        e = exponent_bound(7, math.sqrt(8))
        assert abs(e - math.log(7) / math.log(math.sqrt(8))) < 1e-15
        assert abs(e - 1.8716) < 1e-4


class TestSW:
    def test_rank_six_and_missing_term(self):
        d = sw_decomposition()
        assert d.rank == 6
        diff = matmul_tensor(2, 2).coeff - tensor_of_decomposition(d).coeff
        nz = np.argwhere(diff != 0)
        assert len(nz) == 1 and tuple(nz[0]) == (0, 0, 0, 0, 0, 0)

    def test_eff_values(self):
        t = sw_target()
        assert abs(eff_entry(t, 0, 0) - 1.0) < 1e-12
        assert abs(eff_table(t).total - math.sqrt(7)) < 1e-12

    def test_exponent(self):
        assert abs(exponent_bound(6, math.sqrt(7)) - 1.8416) < 1e-4


class TestT2112:
    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            t2112_decomposition(0.0)
        with pytest.raises(ValueError):
            t2112_target(-1.0)

    def test_warns_below_condition_floor(self):
        with pytest.warns(RuntimeWarning):
            t2112_decomposition(1e-4)

    def test_eff_entry_closed_form(self):
        eps = 0.025
        t = t2112_target(eps)
        want = 2.0 / math.sqrt(2 + eps ** 2 + eps ** 6)
        assert abs(eff_entry(t, 0, 0) - want) < 1e-12
        assert abs(want - 1.413992) < 2e-6

    def test_eff_total_closed_form(self):
        eps = 0.025
        t = t2112_target(eps)
        e00 = 4 / (2 + eps ** 2 + eps ** 6)
        e11 = 4 / (2 + eps ** 2)
        e01 = (1 + eps ** 4) ** 2 / (1 + eps ** 2 + eps ** 6 + eps ** 8)
        want = math.sqrt(e00 + e11 + 2 * e01)
        got = eff_table(t).total
        assert abs(got - want) < 1e-12
        assert abs(got ** 2 - 5.997502) < 1e-6

    def test_exponent_against_direct_evaluation(self):
        eps = 0.025
        e = eff_table(t2112_target(eps)).total
        got = exponent_bound(5, e)
        assert abs(got - math.log(5) / math.log(e)) < 1e-12
        # limit value
        lim = exponent_bound(5, math.sqrt(6))
        assert abs(lim - 1.7965) < 1e-4
        assert 0 < got - lim < 1e-3

    def test_eff_monotone_toward_sqrt6(self):
        grid = [0.5, 0.25, 0.1, 0.05, 0.025, 0.01]
        vals = [eff_table(t2112_target(e)).total for e in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < math.sqrt(6)

    def test_limit_tensor_is_six_unit_terms(self):
        t = t2112_limit_tensor()
        assert (t.coeff == 1).sum() == 6 and (t.coeff != 0).sum() == 6


class TestDerivation:
    def test_pipeline_reproduces_target(self):
        assert t2112_derivation_check((0.5, 0.1))

    def test_group_tensor_has_16_terms(self):
        # white-box count through the same construction used by the check
        labels = [(0, 0), (0, 1), (1, 0), (1, 1)]
        terms = {(a, b, ((a[0] + b[0]) % 2, (a[1] + b[1]) % 2))
                 for a in labels for b in labels}
        assert len(terms) == 16

    def test_target_has_15_terms(self):
        assert (t2112_target(0.1).coeff != 0).sum() == 15


class TestZooRegistry:
    def test_entries_consistent(self):
        for e in zoo_entries(0.025):
            assert e.declared_rank == e.decomposition.rank
            exp = tensor_of_decomposition(e.decomposition)
            scale = max(np.abs(e.target.coeff).max(), 1.0)
            assert np.abs(exp.coeff - e.target.coeff).max() <= 1e-12 * scale
            assert abs(eff_table(e.target).total - e.declared_eff) < 1e-12

    @pytest.mark.parametrize("lookup", [zoo_decomposition, zoo_target])
    def test_unknown_name_lists_the_known(self, lookup):
        with pytest.raises(KeyError, match="unknown tensor 'foo'; have "
                                           "strassen, sw, t2112"):
            lookup("Foo")

    def test_eff_bounded_by_sqrt_qk(self):
        rng = np.random.default_rng(0)
        from lumen.core import Tensor, TensorShape
        for e in zoo_entries(0.1):
            tab = eff_table(e.target).per_entry
            assert np.all(tab <= math.sqrt(2) + 1e-12)
        for _ in range(25):
            shape = TensorShape(2, 2, 3)
            t = Tensor(shape, rng.standard_normal(shape.coeff_shape))
            tab = eff_table(t).per_entry
            assert np.all(tab <= math.sqrt(3) + 1e-12)
