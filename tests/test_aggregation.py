"""Aggregation: naive vs fast equality, bounds, operation counts, crossover."""

import itertools

import numpy as np
import pytest

from lumen.aggregation import (AggregationTask, aggregate_fast, aggregate_naive,
                               bench_aggregation)
from lumen.instances import SplitFamily, expand_vectors
from lumen.solver import _bucket_index, _dedupe_rows, bucket_aggregate


def brute_force_oracle(vectors_bits, r, m):
    """Direct product-and-sum over the split family, scalar arithmetic."""
    g, d = vectors_bits.shape
    fam = SplitFamily(d, r)
    s1, s2 = fam.half_subsets()
    out = []
    for j in fam.window(m, 0):
        a, b = divmod(int(j), len(s2))
        total = 0
        for i in range(g):
            prod = 1
            for c in itertools.chain(s1[a], s2[b]):
                prod *= 1 - 2 * int(vectors_bits[i, c])
            total += prod
        out.append(total)
    return np.array(out, dtype=np.int64)


class TestAggregateNaive:
    def test_single_vector_is_its_expansion(self):
        rng = np.random.default_rng(0)
        v = rng.integers(0, 2, size=(1, 8), dtype=np.uint8)
        task = AggregationTask(v, 2, 16)
        res = aggregate_naive(task)
        exp = 1 - 2 * expand_vectors(v, 2, 16).astype(np.int64)
        assert np.array_equal(res.values, exp[0])

    def test_negated_vector_doubles_even_products(self):
        rng = np.random.default_rng(1)
        x = rng.integers(0, 2, size=(1, 8), dtype=np.uint8)
        pair = np.vstack([x, 1 - x])   # negation flips every bit
        task = AggregationTask(pair, 2, 16)
        res = aggregate_naive(task)
        single = aggregate_naive(AggregationTask(x, 2, 16))
        assert np.array_equal(res.values, 2 * single.values)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        v = rng.integers(0, 2, size=(3, 8), dtype=np.uint8)
        task = AggregationTask(v, 2, 16)
        res = aggregate_naive(task)
        assert np.array_equal(res.values, brute_force_oracle(v, 2, 16))


class TestAggregateFast:
    @pytest.mark.parametrize("g", [1, 2, 16, 64])
    @pytest.mark.parametrize("d", [8, 16, 24])
    @pytest.mark.parametrize("r", [2, 4])
    def test_bit_identical_to_naive(self, g, d, r):
        rng = np.random.default_rng(g * 1000 + d * 10 + r)
        v = rng.integers(0, 2, size=(g, d), dtype=np.uint8)
        fam = SplitFamily(d, r)
        m = min(fam.size, 500)
        task = AggregationTask(v, r, m)
        rn = aggregate_naive(task)
        rf = aggregate_fast(task)
        assert np.array_equal(rn.values, rf.values)
        assert np.abs(rf.values).max() <= g

    def test_operation_count_ratio_below_one(self):
        rng = np.random.default_rng(3)
        v = rng.integers(0, 2, size=(256, 20), dtype=np.uint8)
        fam = SplitFamily(20, 4)
        task = AggregationTask(v, 4, fam.size)
        rn = aggregate_naive(task)
        rf = aggregate_fast(task)
        assert rf.multiplies < rn.multiplies

    def test_rejects_oversized_m(self):
        with pytest.raises(ValueError):
            AggregationTask(np.zeros((2, 8), dtype=np.uint8), 2, 100)


class TestBench:
    def test_crossover_exists_by_g256(self):
        rows = bench_aggregation(g_values=(1, 16, 64, 256), d=24, r=4, seed=0)
        assert any(r["fast_s"] < r["naive_s"] for r in rows)
        big = rows[-1]
        assert big["g"] == 256 and big["fast_s"] < big["naive_s"]


class TestBucketAggregate:
    def test_scatter_matches_dense_sum(self):
        """The index sums equal a per-copy np.add.at scatter at t = 1, 2, 3,
        with repeats collapsed to -1 and buckets left empty."""
        rng = np.random.default_rng(4)
        n, d, m = 50, 32, 64
        bits = rng.integers(0, 2, size=(n, d), dtype=np.uint8)
        signs = (1.0 - 2.0 * bits).astype(np.float32)
        for t in (1, 2, 3):
            # ids in 1..39 leave bucket 0 and buckets 40..63 empty; row 0
            # repeats its first id in every copy
            ids = rng.integers(1, 40, size=(n, t))
            ids[0] = ids[0, 0]
            mem = _dedupe_rows(ids)
            assert (mem < 0).sum() >= t - 1
            want = np.zeros((m, d), dtype=np.float32)
            for c in range(t):
                ok = mem[:, c] >= 0
                np.add.at(want, mem[ok, c], signs[ok])
            out = bucket_aggregate(bits, *_bucket_index(mem, m))
            assert out.dtype == np.float32 and np.array_equal(out, want)
